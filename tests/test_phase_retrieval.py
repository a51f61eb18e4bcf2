import dataclasses

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


class TestAlternatingProjections:
    def test_solution_is_fixed_point(self):
        inst = gen_phase_retrieval(6, 30, "complex-gaussian", RngStream(2))
        rep = alternating_projections(inst, y0=inst.matrix @ inst.x_true)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.rel_error_mod_phase < 1e-10

    def test_residual_trace_non_increasing(self):
        inst = gen_phase_retrieval(10, 60, "complex-gaussian", RngStream(3))
        rep = alternating_projections(inst, RngStream(4), max_iter=300)
        r = rep.residual_trace
        assert np.all(np.diff(r) <= 1e-12 * max(1.0, r[0]))

    def test_phase_equivariance(self):
        inst = gen_phase_retrieval(8, 48, "complex-gaussian", RngStream(5))
        y0 = sample_gaussian(RngStream(6), inst.m, "complex")
        rep_a = alternating_projections(inst, y0=y0)
        rep_b = alternating_projections(inst, y0=np.exp(0.7j) * y0)
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
        # one column runs exactly the textbook iteration, bit for bit
        inst = gen_phase_retrieval(10, 50, "complex-gaussian", RngStream(42))
        q, _ = qr_projector(inst.matrix)
        b = inst.moduli
        y = sample_gaussian(RngStream(43), inst.m, "complex")
        Y, iterations, converged, trace = ap_iterate(q, b, y[:, None], 2000, 1e-9, trace=True)
        residuals = []
        for t in range(1, 2001):
            y_new = q @ (q.conj().T @ project_modulus(y, b))
            residuals.append(float(np.linalg.norm(np.abs(y_new) - b)))
            change = np.linalg.norm(y_new - y)
            y = y_new
            if change <= 1e-9 * np.linalg.norm(y):
                break
        assert converged[0] and iterations[0] == t
        assert np.array_equal(Y[:, 0], y)
        assert trace == residuals

    @pytest.mark.parametrize("kind, max_iter", [("complex-gaussian", 200), ("real-gaussian", 7)])
    def test_stacked_starts_match_single_columns(self, kind, max_iter):
        # BLAS rounds a product with several columns (gemm) differently from
        # a one-column product (gemv), so iterates agree to rounding error;
        # iteration counts and stop reasons agree exactly
        inst = gen_phase_retrieval(10, 40, kind, RngStream(44))
        q, _ = qr_projector(inst.matrix)
        Y0 = np.stack([sample_gaussian(RngStream(45, (k,)), inst.m, inst.field)
                       for k in range(8)], axis=1)
        Y, iterations, converged, trace = ap_iterate(q, inst.moduli, Y0, max_iter, 1e-9)
        assert trace is None
        assert 0 < converged.sum() < 8  # both stops, converged and capped, occur
        for k in range(8):
            y, it, conv, _ = ap_iterate(q, inst.moduli, Y0[:, k:k + 1], max_iter, 1e-9)
            assert (it[0], conv[0]) == (iterations[k], converged[k])
            assert np.linalg.norm(y[:, 0] - Y[:, k]) <= 1e-12 * np.linalg.norm(Y[:, k])

    def test_trace_needs_one_column(self):
        inst = gen_phase_retrieval(4, 16, "complex-gaussian", RngStream(46))
        q, _ = qr_projector(inst.matrix)
        with pytest.raises(ValueError):
            ap_iterate(q, inst.moduli, np.ones((16, 2)), 5, 1e-9, trace=True)


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
    def test_stays_at_solution(self):
        inst = gen_phase_retrieval(6, 36, "complex-gaussian", RngStream(31))
        rep = wirtinger_flow(inst, x0=inst.x_true)
        assert rep.iterations == 0
        assert rep.converged
        assert rep.rel_error_mod_phase == 0.0

    def test_converges_with_geometric_tail(self):
        inst = gen_phase_retrieval(40, 320, "complex-gaussian", RngStream(32))
        rep = wirtinger_flow(inst)
        assert rep.rel_error_mod_phase < 1e-6
        r = rep.residual_trace
        live = r > max(1e-9 * r[0], 1e2 * np.finfo(float).eps)
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
        x0 = 10.0 * wf_spectral_init(inst)
        calls = []

        def counted_loss(instance, x):
            calls.append(None)
            return wf_loss(instance, x)

        monkeypatch.setattr(phase_retrieval, "wf_loss", counted_loss)
        rep = wirtinger_flow(inst, max_iter=300, x0=x0)
        assert len(calls) - 1 - rep.iterations >= 1
        assert np.all(np.diff(rep.objective_trace) <= 1e-12 * max(1.0, rep.objective_trace[0]))

    def test_phase_equivariance(self):
        inst = gen_phase_retrieval(8, 48, "complex-gaussian", RngStream(34))
        x0 = wf_spectral_init(inst)
        rep_a = wirtinger_flow(inst, x0=x0)
        rep_b = wirtinger_flow(inst, x0=np.exp(0.9j) * x0)
        assert dist_mod_phase(rep_a.estimate, rep_b.estimate) < 1e-8

    def test_report_without_ground_truth(self):
        inst = gen_phase_retrieval(6, 36, "complex-gaussian", RngStream(36))
        blind = dataclasses.replace(inst, x_true=None)
        rep = alternating_projections(blind, RngStream(37), max_iter=200)
        assert rep.rel_error_mod_phase is None
