import math
import tracemalloc
import weakref

import numpy as np
import pytest

from lowrankrec import harness, phase_sync
from lowrankrec.harness import run_sync
from lowrankrec.errors import NonConvergence, NumericFailure
from lowrankrec.numerics import RngStream, sample_gaussian, torus_project
from lowrankrec.phase_sync import (
    _aux_matvec,
    _aux_principal,
    _principal_vector,
    fixed_point_residual,
    gpm,
    loo_run,
    mle_objective,
)
from lowrankrec.problems import dist_mod_phase, gen_sync


def sigma_scale(n):
    return math.sqrt(n / math.log(n))


class TestTorusProject:
    def test_unit_modulus_unchanged(self):
        z = np.exp(1j * np.array([0.3, -1.2, 2.9]))
        assert np.allclose(torus_project(z), z, atol=1e-14)

    def test_zero_maps_to_one(self):
        out = torus_project(np.array([0.0 + 0.0j, 2.0j]))
        assert out[0] == 1.0
        assert out[1] == pytest.approx(1.0j)

    def test_scale_invariance(self):
        w = sample_gaussian(RngStream(1), 6, "complex")
        assert np.allclose(torus_project(3.7 * w), torus_project(w), atol=1e-14)


class TestGPM:
    def test_exact_recovery_zero_noise(self):
        inst = gen_sync(40, 0.0, RngStream(2))
        report, history = gpm(inst)
        assert report.converged
        assert report.iterations == 1
        assert report.rel_error_mod_phase < 1e-10
        assert len(history) == report.iterations + 1

    def test_geometric_residual_decay(self):
        n = 200
        inst = gen_sync(n, 0.5 * sigma_scale(n), RngStream(3))
        report, _ = gpm(inst, tol=1e-10 * math.sqrt(n))
        assert report.converged
        r = report.residual_trace
        live = (r > 1e-9 * math.sqrt(n))
        t = np.arange(len(r))[1:][live[1:]]
        y = np.log(r[1:][live[1:]])
        slope, b0 = np.polyfit(t, y, 1)
        fit = slope * t + b0
        r2 = 1 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
        assert slope < 0 and r2 > 0.95

    @pytest.mark.parametrize("stop, max_iter, iterations", [
        ("converged", 1000, 9), ("capped", 4, 4)])
    def test_exit_reports_trace_length(self, stop, max_iter, iterations):
        # the default tol is an np.float64; converged must still be a bool
        report, history = gpm(gen_sync(40, 0.5, RngStream(45)), max_iter=max_iter)
        assert report.iterations == len(report.objective_trace) - 1 == iterations
        assert len(history) == report.iterations + 1
        assert type(report.converged) is bool
        assert report.converged is (stop == "converged")

    def test_huge_noise_degrades_gracefully(self):
        n = 30
        inst = gen_sync(n, 10.0 * n, RngStream(4))
        report, _ = gpm(inst, max_iter=50)
        assert report.converged in (True, False)
        assert len(report.residual_trace) >= 1

    def test_equivariance_under_global_phase(self):
        # conjugating the truth by a global phase with the same noise gives
        # iterates equal modulo phase
        from lowrankrec.problems import SyncInstance
        n = 60
        inst = gen_sync(n, 0.8, RngStream(5))
        theta = 1.1
        z2 = np.exp(1j * theta) * inst.z_true
        C2 = inst.noise + np.outer(z2, z2.conj())
        np.fill_diagonal(C2, 1.0)
        inst2 = SyncInstance(C2, z2, inst.sigma, inst.noise)
        r1, h1 = gpm(inst, max_iter=30, tol=0.0)
        r2, h2 = gpm(inst2, max_iter=30, tol=0.0)
        for a, b in zip(h1[1:6], h2[1:6]):
            assert dist_mod_phase(a, b) < 1e-6 * math.sqrt(n)


class TestFixedPointResidual:
    def test_zero_at_truth_zero_noise(self):
        inst = gen_sync(25, 0.0, RngStream(6))
        assert fixed_point_residual(inst.observations, inst.z_true) < 1e-12

    def test_converged_gpm_small_residual(self):
        n = 100
        inst = gen_sync(n, 0.2 * sigma_scale(n), RngStream(7))
        report, _ = gpm(inst, tol=1e-10)
        assert fixed_point_residual(inst.observations, report.estimate) < 1e-9 * math.sqrt(n)

    def test_random_point_positive(self):
        inst = gen_sync(20, 1.0, RngStream(8))
        z = torus_project(sample_gaussian(RngStream(9), 20, "complex"))
        assert fixed_point_residual(inst.observations, z) > 1e-6


class TestMLEObjective:
    def test_value_at_truth_zero_noise(self):
        n = 17
        inst = gen_sync(n, 0.0, RngStream(10))
        assert mle_objective(inst.observations, inst.z_true) == pytest.approx(n * n, rel=1e-12)

    def test_gpm_trace_is_the_objective_of_its_iterates(self):
        # gpm takes the objective from the product it steps with; the values
        # must be those of mle_objective at every visited iterate, bit for bit
        for n, frac, max_iter in ((40, 0.0, 1000), (120, 0.3, 1000), (120, 0.5, 4)):
            inst = gen_sync(n, frac * sigma_scale(n), RngStream(18))
            report, history = gpm(inst, max_iter=max_iter)
            expected = [mle_objective(inst.observations, z) for z in history]
            assert np.array_equal(report.objective_trace, expected)

    def test_non_decreasing_along_iterates(self):
        n = 150
        inst = gen_sync(n, 0.3 * sigma_scale(n), RngStream(11))
        report, _ = gpm(inst)
        obj = report.objective_trace
        assert np.all(np.diff(obj) >= -1e-9 * max(1.0, abs(obj[-1])))

    def test_non_hermitian_matrix_raised(self):
        # z* C z = C_01 = 1j at z = (1, 1): an imaginary part no Hermitian C has
        C = np.array([[0.0, 1j], [0.0, 0.0]])
        with pytest.raises(NumericFailure):
            mle_objective(C, np.ones(2, dtype=complex))

    def test_global_phase_invariance(self):
        inst = gen_sync(12, 0.5, RngStream(12))
        z = torus_project(sample_gaussian(RngStream(13), 12, "complex"))
        a = mle_objective(inst.observations, z)
        b = mle_objective(inst.observations, np.exp(0.77j) * z)
        assert a == pytest.approx(b, rel=1e-12)

    def test_gpm_limit_beats_discretized_search(self):
        # brute-force oracle: the GPM limit should dominate every point of a
        # coarse phase grid (first phase fixed by gauge)
        n = 5
        inst = gen_sync(n, 0.4, RngStream(14))
        report, _ = gpm(inst, max_iter=500)
        levels = 24
        phases = np.exp(2j * np.pi * np.arange(levels) / levels)
        best = -np.inf
        grid = np.stack(np.meshgrid(*([phases] * (n - 1)), indexing="ij"), axis=-1)
        pts = grid.reshape(-1, n - 1)
        Z = np.concatenate([np.ones((pts.shape[0], 1)), pts], axis=1)
        vals = np.real(np.einsum("ti,ij,tj->t", Z.conj(), inst.observations, Z))
        best = float(vals.max())
        assert mle_objective(inst.observations, report.estimate) >= best - 1e-9


class TestLeaveOneOut:
    def test_zero_noise_all_zero(self):
        inst = gen_sync(30, 0.0, RngStream(15))
        diag = loo_run(inst, gpm(inst, max_iter=50)[1])
        assert diag.iterations >= 1
        # every auxiliary column starts at gpm's start vector and, without
        # noise, C^(k) = C, so the sequences agree with the main one; the
        # distance goes through inner products, where any rounding difference
        # would show at the sqrt(eps) scale
        assert np.allclose(diag.max_dist_aux, 0.0, atol=1e-6)
        assert np.allclose(diag.max_corr_main, 0.0, atol=1e-12)
        assert np.allclose(diag.max_corr_aux, 0.0, atol=1e-12)

    def test_moderate_noise_bounds(self):
        # the 1/60-style gap target holds at this size and noise level; at
        # sigma = 0.5 sqrt(n/log n) the observed gap (~0.52 sqrt(n)/sqrt(n))
        # exceeds it, so the check runs at the 0.2 fraction
        n = 200
        sigma = 0.2 * sigma_scale(n)
        inst = gen_sync(n, sigma, RngStream(0))
        diag = loo_run(inst, gpm(inst, max_iter=200)[1])
        assert diag.iterations >= 3
        assert np.all(diag.max_dist_aux <= math.sqrt(n) / 60)
        assert np.all(diag.max_corr_aux <= 5 * sigma * math.sqrt(n * math.log(n)))

    def test_matches_recomputed_main_sequence(self):
        # zero noise, moderate noise, a run capped before convergence, and
        # sizes whose last block of columns is partial: 22 columns wide at
        # n = 150, and one column wide at n = 129, which the kernel widens
        # to two, since numpy sums a single column pairwise
        cases = ((30, 0.0, 1000, True), (120, 0.3, 1000, True), (120, 0.5, 4, False),
                 (150, 0.3, 1000, True), (129, 0.4, 1000, True))
        for n, frac, max_iter, converges in cases:
            inst = gen_sync(n, frac * sigma_scale(n), RngStream(19))
            report, history = gpm(inst, max_iter=max_iter)
            assert report.converged is converges
            diag = loo_run(inst, history)
            ref = lockstep_reference(inst, max_iter, 1e-10 * math.sqrt(n))
            assert diag.iterations == report.iterations == len(ref[0])
            assert np.array_equal(diag.max_dist_aux, ref[0])
            assert np.array_equal(diag.max_corr_main, ref[1])
            assert np.array_equal(diag.max_corr_aux, ref[2])

    @pytest.mark.parametrize("n", [12, 129, 150])
    def test_kernel_matches_full_array_formulas(self, n):
        # every column, bit for bit: the last block of columns is 22 wide at
        # n = 150 and one wide at n = 129, where the kernel widens it to two;
        # the lockstep sequences above only show each step's column maxima
        inst = gen_sync(n, 0.3 * sigma_scale(n), RngStream(23))
        C, W = inst.observations, inst.noise
        v = _principal_vector(C)
        V, M = _aux_principal(C, W, v)
        V_ref, M_ref = reference_principal(C, W, v)
        assert np.array_equal(V, V_ref) and np.array_equal(M, M_ref)
        for Z in (torus_project(M), v[:, None]):
            assert np.array_equal(_aux_matvec(C, W, Z, np.empty_like(C)),
                                  reference_matvec(C, W, Z))

    def test_aux_principal_non_convergence_raised(self, monkeypatch):
        inst = gen_sync(20, 0.3, RngStream(20))
        monkeypatch.setattr(phase_sync, "_AUX_MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            _aux_principal(inst.observations, inst.noise, _principal_vector(inst.observations))

    def test_aux_principal_is_top_eigenvector_of_each_dense_matrix(self):
        n = 12
        inst = gen_sync(n, 0.3 * sigma_scale(n), RngStream(21))
        C, W = inst.observations, inst.noise
        V, M = _aux_principal(C, W, _principal_vector(C))
        for k in range(n):
            Ck = dense_aux_matrix(C, W, k)
            u = np.linalg.eigh(Ck)[1][:, -1]
            assert dist_mod_phase(V[:, k], u) < 1e-8
            assert np.allclose(M[:, k], Ck @ V[:, k], rtol=0.0, atol=1e-12 * np.abs(Ck).sum())

    def test_aux_principal_negative_dominant_eigenvalue_raised(self):
        # at this noise one C^(k) has a negative eigenvalue larger in modulus
        # than its top one; the unshifted iteration converges to it there
        n = 60
        inst = gen_sync(n, 5.0 * sigma_scale(n), RngStream(7))
        C, W = inst.observations, inst.noise
        with pytest.raises(NonConvergence, match=r"column 30 converged to eigenvalue -261\.6"):
            _aux_principal(C, W, _principal_vector(C))
        w = np.linalg.eigvalsh(dense_aux_matrix(C, W, 30))
        assert -w[0] > w[-1] > 0


class TestLeaveOneOutMemory:
    """Peaks by tracemalloc at n = 200, in units of one n x n complex array."""

    N = 200
    ARRAY = N * N * 16  # 0.64 MB

    def traced_peak(self, f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1] / self.ARRAY
        finally:
            tracemalloc.stop()

    def test_loo_run_holds_two_working_arrays(self):
        # M and Z beside blocks of 64 columns, a third of an array here: 3.2
        # arrays above the inputs; full-array passes reached 4.2
        inst = gen_sync(self.N, 0.3 * sigma_scale(self.N), RngStream(24))
        history = gpm(inst)[1]
        assert self.traced_peak(loo_run, inst, history) < 3.7

    def test_gen_sync_builds_in_place(self):
        # W, C and one conjugate transpose: 3.2 arrays; out of place, 4.7
        gen_sync(8, 1.0, RngStream(25))  # first-call allocations stay outside the trace
        assert self.traced_peak(gen_sync, self.N, 0.3 * sigma_scale(self.N), RngStream(25)) < 4.0

    def test_run_sync_holds_one_instance_at_a_time(self, monkeypatch):
        held = []

        def tracked_gen_sync(*args):
            assert all(ref() is None for ref in held), "the previous instance is still held"
            inst = gen_sync(*args)
            held.extend((weakref.ref(inst.observations), weakref.ref(inst.noise)))
            return inst

        monkeypatch.setattr(harness, "gen_sync", tracked_gen_sync)
        run_sync(n=40, sigma_grid=(0.1, 0.3), loo=True)
        assert len(held) == 4


def dense_aux_matrix(C, W, k):
    """C^(k): the observations rebuilt with the k-th row and column of the noise zeroed."""
    Wk = W.copy()
    Wk[k, :] = 0.0
    Wk[:, k] = 0.0
    return C - W + Wk


def reference_matvec(C, W, Z):
    """Columnwise C^(k) @ Z[:, k] with full-array formulas: C @ Z, then the
    einsum and diagonal corrections; a single column Z stands for n."""
    n = C.shape[0]
    M = C @ Z
    if Z.shape[1] == 1:
        M = np.repeat(M, n, axis=1)
        Z = np.broadcast_to(Z, M.shape)
    M[np.arange(n), np.arange(n)] -= np.einsum("ij,ij->j", W.conj(), Z)
    M -= W * np.diagonal(Z)[None, :]
    return M


def reference_principal(C, W, v):
    """The batched power iteration with full-array formulas: normalization by
    np.linalg.norm and the 1e-9 stop test on the Rayleigh quotients."""
    V = v[:, None]
    while True:
        M = reference_matvec(C, W, V)
        lam = np.real(np.einsum("ij,ij->j", V.conj(), M))
        if np.all(np.linalg.norm(M - V * lam[None, :], axis=0) <= 1e-9 * (1.0 + np.abs(lam))):
            return np.broadcast_to(V, M.shape), M
        V = M / np.linalg.norm(M, axis=0)


def lockstep_reference(inst, max_iter, tol):
    """The main GPM sequence recomputed beside the auxiliary ones, step for
    step, with the full-array formulas above rather than the kernel under test."""
    C, W = inst.observations, inst.noise
    z = _principal_vector(C)
    M = reference_principal(C, W, z)[1]
    max_dist, corr_main, corr_aux = [], [], []
    for t in range(max_iter):
        p = torus_project(C @ z)
        if t:
            M = reference_matvec(C, W, Z)
        P = torus_project(M)
        if float(np.linalg.norm(p - z)) < tol:
            break
        z, Z = p, P
        ip = np.abs(z.conj() @ Z)
        nz2 = float(np.real(np.vdot(z, z)))
        na2 = np.sum(np.abs(Z) ** 2, axis=0)
        d2 = np.maximum(0.0, nz2 + na2 - 2.0 * ip)
        max_dist.append(float(np.sqrt(d2.max())))
        corr_main.append(float(np.abs(W @ z).max()))
        corr_aux.append(float(np.abs(np.einsum("ij,ij->j", W.conj(), Z)).max()))
    return np.asarray(max_dist), np.asarray(corr_main), np.asarray(corr_aux)
