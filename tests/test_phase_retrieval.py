import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lowrankrec import phase_retrieval
from lowrankrec.numerics import RngStream, qr_projector, sample_gaussian
from lowrankrec.phase_retrieval import (
    alternating_projections,
    ap_iterate,
    project_modulus,
    wf_grad,
    wf_loss,
    wf_spectral_init,
    wf_weight_matrix,
    wirtinger_flow,
)
from lowrankrec.problems import dist_mod_phase, gen_phase_retrieval


def bit_cases(test):
    """Parametrize a projection bits test over 96 cases: moduli, fill, dtype, shape."""
    for name, values in (("moduli", ["positive", "signed zeros"]),
                         ("fill", [None, 0.0, -0.0, np.nan, np.inf, 1e308]),
                         ("dtype", [np.float64, np.complex128]),
                         ("shape", [(40,), (40, 1), (40, 5), (40, 0)])):
        test = pytest.mark.parametrize(name, values)(test)
    return test


def bit_case(seed, shape, dtype, fill, moduli):
    """y of one bits case, every third entry set to fill unless None, and its
    moduli b: nonnegative, or holding -0.0 and -1e-13 at "signed zeros"."""
    g = np.random.default_rng(seed)
    y = g.standard_normal(shape).astype(dtype)
    if dtype == np.complex128:
        y += 1j * g.standard_normal(shape)
    if fill is not None:
        y.flat[::3] = fill
    b = np.abs(g.standard_normal(40))
    if moduli == "signed zeros":
        b[::4], b[1::4], b[2::8] = 0.0, -0.0, -1e-13
    if len(shape) == 2:
        b = b[:, None]  # one column of moduli, broadcast against the batch
    return y, b


class TestProjectModulus:
    def test_fixed_point(self):
        b = np.array([1.0, 2.0, 0.5])
        y = b * np.exp(1j * np.array([0.1, -2.0, 3.0]))
        assert np.allclose(project_modulus(y, b), y, atol=1e-14)

    def test_zero_convention(self):
        out = project_modulus(np.array([0.0 + 0.0j, 1.0j]), np.array([2.0, 3.0]))
        assert out[0] == 2.0
        assert out[1] == pytest.approx(3.0j)

    def test_projection_optimality(self):
        rng = RngStream(1)
        y = sample_gaussian(rng, 10, "complex")
        b = np.abs(sample_gaussian(rng, 10, "complex"))
        proj = project_modulus(y, b)
        d0 = np.linalg.norm(proj - y)
        for _ in range(100):
            z = b * np.exp(2j * np.pi * rng.generator.random(10))
            assert d0 <= np.linalg.norm(z - y) + 1e-12

    @bit_cases
    def test_same_bits_as_b_times_the_masked_divide(self, shape, dtype, fill, moduli):
        # the reference is b times the masked divide, zero and NaN entries
        # taking phase 1; real y without such entries takes the sign path,
        # whose bits must equal it for every b, -0.0 and the -1e-13 that
        # the instance loader tolerates included
        y, b = bit_case(8, shape, dtype, fill, moduli)
        y0 = y.copy()
        a = np.abs(y)
        with np.errstate(invalid="ignore"):  # inf / inf in both forms
            want = b * np.divide(y, a, out=np.ones_like(y), where=a > 0)
            got = project_modulus(y, b)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert y.tobytes() == y0.tobytes()

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @bit_cases
    def test_in_place_has_the_bits_of_the_fresh_result(self, shape, dtype, fill, moduli, layout):
        # out=y writes the projection back into y.  A strided y is every
        # other entry of its last axis in a buffer twice as wide: both paths
        # write through the view and leave the gaps alone
        y0, b = bit_case(9, shape, dtype, fill, moduli)
        if layout == "contiguous":
            y = y0.copy()
        else:
            buf = np.full(shape[:-1] + (2 * shape[-1],), 7.5, dtype=dtype)
            y = buf[..., ::2]
            y[...] = y0
        with np.errstate(invalid="ignore"):
            want = project_modulus(y0, b)
            got = project_modulus(y, b, out=y)
        assert got is y
        assert got.tobytes() == want.tobytes()
        if layout == "strided":
            assert not y.flags.c_contiguous or y.size <= 1
            assert (buf[..., 1::2] == 7.5).all()

    def test_in_place_on_a_real_batch_holds_no_batch_size_temporary(self):
        # a real batch takes the copysign path, which writes straight into y
        g = np.random.default_rng(10)
        y = g.standard_normal((400, 3000))
        b = np.abs(g.standard_normal(400))[:, None]
        tracemalloc.start()
        try:
            project_modulus(y, b, out=y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / y.nbytes < 0.02


class TestAlternatingProjections:
    def test_solution_is_fixed_point(self, monkeypatch):
        inst = gen_phase_retrieval(6, 30, "complex-gaussian", RngStream(2))
        monkeypatch.setattr(phase_retrieval, "sample_gaussian",
                            lambda rng, size, field: inst.matrix @ inst.x_true)
        rep = alternating_projections(inst, RngStream(0))
        assert rep.converged
        assert rep.iterations == 1
        assert rep.rel_error_mod_phase < 1e-10

    def test_residual_trace_non_increasing(self):
        # || |y_t| - b || at the in-range iterates, one ap_iterate step at a
        # time, each fed the iterate Q c of the coefficients it returned
        inst = gen_phase_retrieval(10, 60, "complex-gaussian", RngStream(3))
        q, _ = inst.qr
        Y = sample_gaussian(RngStream(4), inst.m, inst.field)[:, None]
        r = []
        for _ in range(300):
            C, _, converged = ap_iterate(q, inst.moduli, Y, 1, 1e-9)
            Y = q @ C
            r.append(float(np.linalg.norm(np.abs(Y[:, 0]) - inst.moduli)))
            if converged[0]:
                break
        assert len(r) > 100
        assert np.all(np.diff(r) <= 1e-12 * max(1.0, r[0]))

    def test_phase_equivariance(self, monkeypatch):
        inst = gen_phase_retrieval(8, 48, "complex-gaussian", RngStream(5))
        rep_a = alternating_projections(inst, RngStream(6))
        monkeypatch.setattr(phase_retrieval, "sample_gaussian",
                            lambda *args: np.exp(0.7j) * sample_gaussian(*args))
        rep_b = alternating_projections(inst, RngStream(6))
        assert dist_mod_phase(rep_a.estimate, rep_b.estimate) < 1e-8

    def test_recovers_at_high_oversampling(self):
        inst = gen_phase_retrieval(12, 120, "complex-gaussian", RngStream(7))
        rep = alternating_projections(inst, RngStream(8), max_iter=2000)
        assert rep.rel_error_mod_phase < 1e-6

    def test_rarely_succeeds_at_low_oversampling(self):
        # at m/n = 2.5 the success probability is only a few percent
        succ = 0
        for ti in range(60):
            rng = RngStream(0, (60, ti))
            inst = gen_phase_retrieval(40, 100, "complex-gaussian", rng.split(0))
            rep = alternating_projections(inst, rng.split(1), max_iter=1500)
            succ += rep.rel_error_mod_phase < 1e-3
        assert succ / 60 <= 0.15


class TestAPIterate:
    def test_single_column_is_the_plain_loop(self):
        # one column runs exactly the textbook iteration, bit for bit: its
        # iterate is Q c of the n coefficients returned
        inst = gen_phase_retrieval(10, 50, "complex-gaussian", RngStream(42))
        q, _ = qr_projector(inst.matrix)
        b = inst.moduli
        y = sample_gaussian(RngStream(43), inst.m, "complex")
        C, iterations, converged = ap_iterate(q, b, y[:, None], 2000, 1e-9)
        assert C.shape == (inst.n, 1)
        for t in range(1, 2001):
            y_new = q @ (q.conj().T @ project_modulus(y, b))
            change = np.linalg.norm(y_new - y)
            y = y_new
            if change <= 1e-9 * np.linalg.norm(y):
                break
        assert converged[0] and iterations[0] == t
        assert np.array_equal((q @ C)[:, 0], y)
        # the solver, drawing the same start, reports the plain loop's last residual
        rep = alternating_projections(inst, RngStream(43))
        assert rep.residual_trace[-1] == float(np.linalg.norm(np.abs(y) - b))

    @pytest.mark.parametrize("kind, max_iter", [("complex-gaussian", 200), ("real-gaussian", 7)])
    def test_stacked_starts_match_single_columns(self, kind, max_iter):
        # BLAS rounds a product with several columns (gemm) differently from
        # a one-column product (gemv), so coefficients agree to rounding
        # error; iteration counts and stop reasons agree exactly
        inst = gen_phase_retrieval(10, 40, kind, RngStream(44))
        q, _ = qr_projector(inst.matrix)
        Y0 = np.stack([sample_gaussian(RngStream(45, (k,)), inst.m, inst.field)
                       for k in range(8)], axis=1)
        C, iterations, converged = ap_iterate(q, inst.moduli, Y0, max_iter, 1e-9)
        assert 0 < converged.sum() < 8  # both stops, converged and capped, occur
        for k in range(8):
            c, it, conv = ap_iterate(q, inst.moduli, Y0[:, k:k + 1], max_iter, 1e-9)
            assert (it[0], conv[0]) == (iterations[k], converged[k])
            assert np.linalg.norm(c[:, 0] - C[:, k]) <= 1e-12 * np.linalg.norm(C[:, k])


def _stepwise_ap(q, b, Y, max_iter, tol):
    # the AP loop with a stop test after every step: the columns still
    # running form one array, compacted in the step where some column stops
    out = np.array(Y, dtype=np.result_type(q, Y))
    iterations = np.full(Y.shape[1], max_iter)
    converged = np.zeros(Y.shape[1], dtype=bool)
    live = np.arange(Y.shape[1])
    for t in range(1, max_iter + 1):
        Y_new = q @ (q.conj().T @ project_modulus(Y, b[:, None]))
        done = np.linalg.norm(Y_new - Y, axis=0) <= tol * np.linalg.norm(Y_new, axis=0)
        Y = Y_new
        stopped = live[done]
        out[:, stopped] = Y[:, done]
        iterations[stopped] = t
        converged[stopped] = True
        live, Y = live[~done], Y[:, ~done]
    out[:, live] = Y
    return out, iterations, converged


def _stepwise_ap_coefficients(q, b, Y, max_iter, tol):
    # the same loop carried in coefficients c = Q* y: each step forms
    # y = Q c over the columns still running, and the output is c of every
    # column
    qh = q.conj().T
    C = qh @ Y
    out = np.empty_like(C)
    iterations = np.full(Y.shape[1], max_iter)
    converged = np.zeros(Y.shape[1], dtype=bool)
    live = np.arange(Y.shape[1])
    for t in range(1, max_iter + 1):
        C_new = qh @ project_modulus(Y, b[:, None])
        done = np.linalg.norm(C_new - C, axis=0) <= tol * np.linalg.norm(C_new, axis=0)
        C = C_new
        stopped = live[done]
        out[:, stopped] = C[:, done]
        iterations[stopped] = t
        converged[stopped] = True
        live, C = live[~done], C[:, ~done]
        Y = q @ C
    out[:, live] = C
    return out, iterations, converged


def _trajectory(q, b, y, steps):
    # the iterates y_0 .. y_steps of one column and each step's relative change
    ys, ratios = [y], []
    for _ in range(steps):
        y_new = q @ (q.conj().T @ project_modulus(y, b[:, None]))
        ratios.append(np.linalg.norm(y_new - y) / np.linalg.norm(y_new))
        ys.append(y_new)
        y = y_new
    return ys, np.array(ratios)


def _tol_first_met_at(ratios, t):
    # a tol that the ratios first meet at step t, by a margin far above
    # rounding: the geometric mean of step t's ratio and the least ratio
    # before it, or 4 times step t's ratio, whichever is less
    earlier = ratios[:t - 1].min() if t > 1 else np.inf
    assert ratios[t - 1] < earlier
    return float(np.sqrt(ratios[t - 1] * min(earlier, 4.0 * ratios[t - 1])))


class TestAPIterateMemory:
    def test_one_array_of_the_batch_and_the_input_kept(self):
        # a real batch of 400 x 3000 runs one-step blocks (Y.size > 2**14):
        # one array of iterates, projected in place, beside arrays of n = 20
        # coefficients per column
        inst = gen_phase_retrieval(20, 400, "real-gaussian", RngStream(70))
        q, _ = qr_projector(inst.matrix)
        Y = np.random.default_rng(71).standard_normal((400, 3000))
        Y0 = Y.copy()
        tracemalloc.start()
        try:
            _, _, converged = ap_iterate(q, inst.moduli, Y, 2000, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / Y.nbytes < 1.5
        assert Y.tobytes() == Y0.tobytes()
        assert converged.any()  # columns stopped, so the batch was compacted


class TestAPIterateBlocks:
    # the stop test runs once per block of _BLOCK_STEPS steps; every
    # coefficient, count and flag must have the bits of a test after each
    # step, and Q c those of the loop in measurement space.
    # Real AP reaches an exact fixed point within a few steps, so the real
    # field runs with blocks of 3
    CASES = [("complex-gaussian", 10, 50, phase_retrieval._BLOCK_STEPS),
             ("real-gaussian", 40, 120, 3)]

    @pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
    def case(self, request, monkeypatch):
        kind, n, m, S = request.param
        monkeypatch.setattr(phase_retrieval, "_BLOCK_STEPS", S)
        inst = gen_phase_retrieval(n, m, kind, RngStream(60))
        q, _ = qr_projector(inst.matrix)
        y = sample_gaussian(RngStream(61), inst.m, inst.field)[:, None]
        return q, inst.moduli, y, S

    @staticmethod
    def _assert_same_bits(q, b, Y, max_iter, tol):
        got = ap_iterate(q, b, Y, max_iter, tol)
        want = _stepwise_ap_coefficients(q, b, Y, max_iter, tol)
        assert got[0].tobytes() == want[0].tobytes()
        assert (q @ got[0]).tobytes() == _stepwise_ap(q, b, Y, max_iter, tol)[0].tobytes()
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        return want

    @pytest.mark.parametrize("where", ["first step", "last step of a block",
                                       "first step of the next block"])
    def test_single_column_stop(self, case, where):
        q, b, y, S = case
        step = {"first step": 1, "last step of a block": S,
                "first step of the next block": S + 1}[where]
        _, ratios = _trajectory(q, b, y, step)
        tol = _tol_first_met_at(ratios, step)
        _, iterations, converged = self._assert_same_bits(q, b, y, 4 * S, tol)
        assert (iterations[0], converged[0]) == (step, True)

    def test_cap_inside_a_block(self, case):
        q, b, y, S = case
        _, iterations, converged = self._assert_same_bits(q, b, y, 2 * S - 1, 1e-9)
        assert (iterations[0], converged[0]) == (2 * S - 1, False)

    def test_batch_stops_at_different_steps_of_one_block(self, case):
        # column k starts at step s_k of one trajectory, so it first meets
        # the tol of step 2S at step 2S - s_k: three stops at different
        # steps of the second block, and one at the first step
        q, b, y, S = case
        ys, ratios = _trajectory(q, b, y, 2 * S)
        tol = _tol_first_met_at(ratios, 2 * S)
        # After a compaction a step forms y = Q c over the live columns
        # only, and BLAS rounds a product of a few columns differently from
        # one of more: the bits are those of the loop in coefficients, and
        # the loop in measurement space agrees to rounding, with the same
        # counts and flags
        offsets = [0, 1, S - 1, 2 * S - 1]
        Y = np.hstack([ys[s] for s in offsets])
        got = ap_iterate(q, b, Y, 4 * S, tol)
        want = _stepwise_ap_coefficients(q, b, Y, 4 * S, tol)
        assert got[0].tobytes() == want[0].tobytes()
        y_space = _stepwise_ap(q, b, Y, 4 * S, tol)
        np.testing.assert_allclose(q @ got[0], y_space[0], rtol=1e-14, atol=0)
        for flags in (want, y_space):
            assert np.array_equal(got[1], flags[1]) and np.array_equal(got[2], flags[2])
        assert list(got[1]) == [2 * S - s for s in offsets]
        assert got[2].all()


class TestWFLossGrad:
    def test_loss_zero_at_solution_and_phases(self):
        inst = gen_phase_retrieval(5, 25, "complex-gaussian", RngStream(11))
        assert wf_loss(inst, inst.x_true) == 0.0
        assert wf_loss(inst, np.exp(1.3j) * inst.x_true) == pytest.approx(0.0, abs=1e-12)

    def test_loss_at_origin(self):
        inst = gen_phase_retrieval(5, 25, "complex-gaussian", RngStream(12))
        expected = float(np.sum(inst.moduli ** 4)) / (2 * inst.m)
        assert wf_loss(inst, np.zeros(5, dtype=complex)) == pytest.approx(expected, rel=1e-12)

    def test_grad_zero_at_solution_and_origin(self):
        inst = gen_phase_retrieval(5, 25, "complex-gaussian", RngStream(13))
        assert np.linalg.norm(wf_grad(inst, inst.x_true)) == 0.0
        assert np.linalg.norm(wf_grad(inst, np.zeros(5, dtype=complex))) == 0.0

    def test_finite_difference_contract(self):
        # spec property: 100 random (instance, x, h) triples, rel error < 1e-6
        for i in range(100):
            rng = RngStream(1000 + i)
            inst = gen_phase_retrieval(4, 10, "complex-gaussian", rng.split(0))
            x = sample_gaussian(rng.split(1), 4, "complex")
            h = sample_gaussian(rng.split(2), 4, "complex")
            eps = 1e-5
            fd = (wf_loss(inst, x + eps * h) - wf_loss(inst, x - eps * h)) / (2 * eps)
            an = 2.0 * np.real(np.vdot(wf_grad(inst, x), h))
            assert fd == pytest.approx(an, rel=1e-6, abs=1e-9)


class TestSpectralInit:
    def test_norm_is_lambda_hat(self):
        inst = gen_phase_retrieval(6, 40, "complex-gaussian", RngStream(21))
        x0 = wf_spectral_init(inst)
        lam_hat = np.sqrt(np.mean(inst.moduli ** 2))
        assert np.linalg.norm(x0) == pytest.approx(lam_hat, rel=1e-9)

    def test_large_m_accuracy(self):
        # noiseless sanity at high oversampling: within ||x||/8 of the truth
        # (the 1/8 radius needs m/(n log n) large; at m=4000 the standard
        # estimator sits at ~0.155 ||x||, so the check runs at m=16000)
        inst = gen_phase_retrieval(20, 16000, "complex-gaussian", RngStream(22))
        x0 = wf_spectral_init(inst)
        dist = dist_mod_phase(x0, inst.x_true)
        assert dist < np.linalg.norm(inst.x_true) / 8

    def test_weight_matrix_mean(self):
        # Monte-Carlo average of the weighted covariance over fresh instances
        # approaches I + x x* for a fixed unit-norm signal.
        rng = RngStream(23)
        n = 8
        x = sample_gaussian(rng.split(0), n, "complex")
        x /= np.linalg.norm(x)
        acc = np.zeros((n, n), dtype=complex)
        reps = 10_000
        for i in range(reps):
            v = sample_gaussian(rng.split(1, i), n, "complex")
            w = np.vdot(v, x)  # <x, v> for row v*
            acc += (abs(w) ** 2) * np.outer(v, v.conj())
        acc /= reps
        target = np.eye(n) + np.outer(x, x.conj())
        rel = np.linalg.norm(acc - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_weight_matrix_formula(self):
        inst = gen_phase_retrieval(4, 7, "complex-gaussian", RngStream(24))
        M = wf_weight_matrix(inst)
        ref = sum((inst.moduli[k] ** 2) * np.outer(inst.matrix[k].conj(), inst.matrix[k])
                  for k in range(7)) / 7
        assert np.allclose(M, ref, atol=1e-12)


class TestWirtingerFlow:
    def test_stays_at_solution(self, monkeypatch):
        inst = gen_phase_retrieval(6, 36, "complex-gaussian", RngStream(31))
        monkeypatch.setattr(phase_retrieval, "wf_spectral_init", lambda instance: inst.x_true)
        rep = wirtinger_flow(inst)
        assert rep.iterations == 0
        assert rep.converged
        assert rep.rel_error_mod_phase == 0.0

    def test_converges_with_geometric_tail(self):
        inst = gen_phase_retrieval(40, 320, "complex-gaussian", RngStream(32))
        rep = wirtinger_flow(inst)
        assert rep.rel_error_mod_phase < 1e-6
        # the quartic loss decays at the square of the residual's rate, so
        # its floor is the square of the residual floor
        r = rep.objective_trace
        live = r > max(1e-18 * r[0], (1e2 * np.finfo(float).eps) ** 2)
        t = np.arange(len(r))[10:][live[10:]]
        y = np.log(r[10:][live[10:]])
        slope, intercept = np.polyfit(t, y, 1)
        fit = slope * t + intercept
        r2 = 1 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
        assert slope < 0
        assert r2 > 0.9

    def test_backtracking_keeps_objective_monotone(self, monkeypatch):
        # from ten times the spectral start the default step overshoots; each
        # loss evaluation beyond one per accepted step is a halving
        inst = gen_phase_retrieval(8, 48, "complex-gaussian", RngStream(33))
        monkeypatch.setattr(phase_retrieval, "wf_spectral_init",
                            lambda instance: 10.0 * wf_spectral_init(instance))
        calls = []

        def counted_loss(instance, x):
            calls.append(None)
            return wf_loss(instance, x)

        monkeypatch.setattr(phase_retrieval, "wf_loss", counted_loss)
        rep = wirtinger_flow(inst, max_iter=300)
        assert len(calls) - 1 - rep.iterations >= 1
        assert np.all(np.diff(rep.objective_trace) <= 1e-12 * max(1.0, rep.objective_trace[0]))

    def test_stall_after_sixty_halvings(self, monkeypatch):
        # a loss that grows on every call: the first step and its 60 halvings
        # all fail, after the one evaluation at the start
        inst = gen_phase_retrieval(6, 36, "complex-gaussian", RngStream(35))
        calls = []

        def growing_loss(instance, x):
            calls.append(None)
            return float(len(calls))

        monkeypatch.setattr(phase_retrieval, "wf_loss", growing_loss)
        rep = wirtinger_flow(inst)
        assert not rep.converged
        assert rep.iterations == 0
        assert len(calls) == 62

    @pytest.mark.parametrize("stop, max_iter, iterations", [
        ("converged", 5000, 862), ("stalled", 5000, 4), ("capped", 3, 3)])
    def test_exit_reports_trace_length(self, monkeypatch, stop, max_iter, iterations):
        inst = gen_phase_retrieval(8, 64, "complex-gaussian", RngStream(44))
        calls = []
        if stop == "stalled":
            # the loss is infinite after its fifth evaluation: four steps,
            # then a first trial point and 60 halvings that all fail
            loss = phase_retrieval.wf_loss

            def stalling(instance, x):
                calls.append(None)
                return loss(instance, x) if len(calls) <= 5 else math.inf

            monkeypatch.setattr(phase_retrieval, "wf_loss", stalling)
        rep = wirtinger_flow(inst, max_iter=max_iter)
        assert rep.iterations == len(rep.objective_trace) - 1 == iterations
        assert rep.converged is (stop == "converged")
        assert len(calls) == (66 if stop == "stalled" else 0)

    def test_all_zero_moduli_converge_at_start(self):
        # x = 0 is exact and its gradient is 0, as is the stop threshold
        inst = gen_phase_retrieval(6, 36, "complex-gaussian", RngStream(39))
        zero = dataclasses.replace(inst, moduli=np.zeros(inst.m), x_true=None)
        rep = wirtinger_flow(zero)
        assert rep.converged
        assert rep.iterations == 0
        assert not np.any(rep.estimate)

    def test_reports_final_residual(self):
        inst = gen_phase_retrieval(6, 36, "complex-gaussian", RngStream(38))
        rep = wirtinger_flow(inst, max_iter=20)
        assert rep.iterations == 20
        assert list(rep.residual_trace) == [
            np.linalg.norm(np.abs(inst.matrix @ rep.estimate) - inst.moduli)]

    def test_phase_equivariance(self, monkeypatch):
        inst = gen_phase_retrieval(8, 48, "complex-gaussian", RngStream(34))
        rep_a = wirtinger_flow(inst)
        monkeypatch.setattr(phase_retrieval, "wf_spectral_init",
                            lambda instance: np.exp(0.9j) * wf_spectral_init(instance))
        rep_b = wirtinger_flow(inst)
        assert dist_mod_phase(rep_a.estimate, rep_b.estimate) < 1e-8

    def test_report_without_ground_truth(self):
        inst = gen_phase_retrieval(6, 36, "complex-gaussian", RngStream(36))
        blind = dataclasses.replace(inst, x_true=None)
        rep = alternating_projections(blind, RngStream(37), max_iter=200)
        assert rep.rel_error_mod_phase is None
