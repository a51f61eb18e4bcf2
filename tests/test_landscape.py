import dataclasses

import numpy as np
import pytest

from lowrankrec.errors import MissingGroundTruth
from lowrankrec.landscape import (
    basin_map,
    classify_critical,
    curvature_probe,
    displacement_probe,
    expected_grad,
    expected_hess_form,
    expected_loss,
)
from lowrankrec.numerics import RngStream, sample_gaussian
from lowrankrec.problems import gen_phase_retrieval


def ring_point(scale=1.0):
    """x_s and an exactly orthogonal x with ||x||^2 = ||x_s||^2 / 2 exactly."""
    x_s = np.zeros(4, dtype=complex)
    x_s[0] = scale
    x_s[1] = scale
    x = np.zeros(4, dtype=complex)
    x[2] = scale
    return x, x_s


class TestExpectedLoss:
    def test_zero_at_solution(self):
        x_s = sample_gaussian(RngStream(1), 6, "complex")
        assert expected_loss(x_s, x_s) == pytest.approx(0.0, abs=1e-12)

    def test_value_at_origin(self):
        x_s = sample_gaussian(RngStream(2), 6, "complex")
        ns4 = float(np.real(np.vdot(x_s, x_s))) ** 2
        assert expected_loss(np.zeros(6, dtype=complex), x_s) == pytest.approx(ns4, rel=1e-12)

    def test_monte_carlo_oracle(self):
        # mean of the sample loss over fresh one-measurement instances
        rng = RngStream(3)
        n = 10
        x_s = sample_gaussian(rng.split(0), n, "complex")
        x_s /= np.linalg.norm(x_s)
        x = sample_gaussian(rng.split(1), n, "complex")
        reps = 100_000
        V = sample_gaussian(rng.split(2), reps * n, "complex").reshape(reps, n)
        u = np.abs(V @ x) ** 2
        w = np.abs(V @ x_s) ** 2
        mc = float(np.mean(0.5 * (u - w) ** 2))
        assert expected_loss(x, x_s) == pytest.approx(mc, rel=0.02)


class TestExpectedGrad:
    def test_zero_on_critical_sets_exactly(self):
        x, x_s = ring_point(1.3)
        assert np.all(expected_grad(x_s, x_s) == 0)          # solutions
        assert np.all(expected_grad(np.zeros(4), x_s) == 0)  # origin
        assert np.all(expected_grad(x, x_s) == 0)            # orthogonal ring

    def test_matches_finite_differences(self):
        # the closed form is the full real gradient: directional derivative
        # along h equals Re<grad, h>; checked at 100 random points
        for i in range(100):
            rng = RngStream(500 + i)
            n = 5
            x_s = sample_gaussian(rng.split(0), n, "complex")
            x = sample_gaussian(rng.split(1), n, "complex")
            h = sample_gaussian(rng.split(2), n, "complex")
            eps = 1e-6
            fd = (expected_loss(x + eps * h, x_s) - expected_loss(x - eps * h, x_s)) / (2 * eps)
            an = float(np.real(np.vdot(expected_grad(x, x_s), h)))
            assert fd == pytest.approx(an, rel=1e-6, abs=1e-8)


class TestExpectedHessForm:
    def test_ring_along_truth(self):
        x, x_s = ring_point(1.1)
        ns2 = float(np.real(np.vdot(x_s, x_s)))
        assert expected_hess_form(x, x_s, x_s) == pytest.approx(-2.0 * ns2 ** 2, abs=1e-10)

    def test_origin_negative_definite(self):
        x_s = sample_gaussian(RngStream(11), 6, "complex")
        for i in range(20):
            h = sample_gaussian(RngStream(12).split(i), 6, "complex")
            assert expected_hess_form(np.zeros(6, dtype=complex), x_s, h) < 0

    def test_matches_second_differences(self):
        rng = RngStream(13)
        x_s = sample_gaussian(rng.split(0), 5, "complex")

        def second_diff(x, h, eps):
            return (expected_loss(x + eps * h, x_s) - 2 * expected_loss(x, x_s)
                    + expected_loss(x - eps * h, x_s)) / eps ** 2

        for i in range(20):
            x = sample_gaussian(rng.split(1, i), 5, "complex")
            h = sample_gaussian(rng.split(2, i), 5, "complex")
            # the loss is quartic along the ray, so one Richardson step is exact
            fd = (4 * second_diff(x, h, 5e-3) - second_diff(x, h, 1e-2)) / 3
            assert expected_hess_form(x, x_s, h) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_sign_flip_invariance(self):
        rng = RngStream(14)
        x_s = sample_gaussian(rng.split(0), 5, "complex")
        x = sample_gaussian(rng.split(1), 5, "complex")
        h = sample_gaussian(rng.split(2), 5, "complex")
        assert expected_hess_form(x, x_s, h) == pytest.approx(
            expected_hess_form(x, x_s, -h), rel=1e-12)


class TestClassifyCritical:
    def test_tags(self):
        x, x_s = ring_point()
        assert classify_critical(x_s, x_s).tag == "solution"
        assert classify_critical(np.exp(0.5j) * x_s, x_s).tag == "solution"
        assert classify_critical(np.zeros(4), x_s).tag == "origin"
        assert classify_critical(x, x_s).tag == "ring"
        generic = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert classify_critical(generic, x_s).tag == "none"

    def test_tol_guard(self):
        x, x_s = ring_point()
        with pytest.raises(ValueError):
            classify_critical(x, x_s, tol=0.0)


class TestCurvatureProbe:
    def test_ring_concentrates_to_formula(self):
        inst = gen_phase_retrieval(20, 5000, "complex-gaussian", RngStream(21))
        x_s = inst.x_true
        ns = np.linalg.norm(x_s)
        # exactly orthogonal point at radius ||x_s||/sqrt(2)
        g = sample_gaussian(RngStream(22), 20, "complex")
        g -= x_s * (np.vdot(x_s, g) / ns ** 2)
        x = g * (ns / np.sqrt(2) / np.linalg.norm(g))
        val = curvature_probe(inst, x)
        assert val == pytest.approx(-2.0 * ns ** 4, rel=0.10)

    def test_positive_at_solution(self):
        inst = gen_phase_retrieval(8, 200, "complex-gaussian", RngStream(23))
        assert curvature_probe(inst, inst.x_true) > -1e-9

    def test_origin_matches_expected_form(self):
        inst = gen_phase_retrieval(12, 5000, "complex-gaussian", RngStream(24))
        x0 = np.zeros(12, dtype=complex)
        val = curvature_probe(inst, x0)
        ref = expected_hess_form(x0, inst.x_true, inst.x_true)
        assert val < 0
        assert val == pytest.approx(ref, rel=0.10)

    def test_requires_truth(self):
        inst = gen_phase_retrieval(4, 12, "complex-gaussian", RngStream(25))
        blind = dataclasses.replace(inst, x_true=None)
        with pytest.raises(MissingGroundTruth):
            curvature_probe(blind, np.zeros(4, dtype=complex))

    def test_inconsistent_steps_raise(self):
        from lowrankrec.errors import FDInconsistent
        inst = gen_phase_retrieval(6, 60, "complex-gaussian", RngStream(26))
        x = sample_gaussian(RngStream(27), 6, "complex")
        with pytest.raises(FDInconsistent):
            curvature_probe(inst, x, tol_fd=1e-14)


class TestDisplacementProbe:
    def test_requires_real_field(self):
        inst = gen_phase_retrieval(8, 40, "complex-gaussian", RngStream(31))
        with pytest.raises(ValueError):
            displacement_probe("AP", inst, 0.01, 10, RngStream(32))

    def test_wf_contracts_ap_expands_small_scales(self):
        inst = gen_phase_retrieval(100, 1000, "real-gaussian", RngStream(33))
        d = 0.0025
        ap = displacement_probe("AP", inst, d, 200, RngStream(34))
        wf = displacement_probe("WF", inst, d, 200, RngStream(35))
        assert wf < d          # locally Lipschitz with constant < 1
        assert ap > 3 * d      # non-Lipschitz blowup at small separations

    def test_pair_distance_is_exact(self):
        # construction contract: ||z - z'|| = d
        inst = gen_phase_retrieval(50, 500, "real-gaussian", RngStream(36))
        val = displacement_probe("WF", inst, 0.05, 50, RngStream(37))
        assert val > 0


class TestBasinMap:
    def test_truth_cell_labeled_zero_and_multiple_basins(self):
        inst = gen_phase_retrieval(12, 240, "real-gaussian", RngStream(41))
        x = inst.x_true
        rng = RngStream(42)
        g1 = sample_gaussian(rng.split(0), 12, "real")
        d1 = g1 / np.linalg.norm(g1)
        g2 = sample_gaussian(rng.split(1), 12, "real")
        d2 = g2 - (d1 @ g2) * d1
        d2 /= np.linalg.norm(d2)
        hw = 1.5 * float(np.linalg.norm(x))
        labels = basin_map(inst, x, (d1, d2), hw, grid=21, max_iter=800)
        mid = 10  # the center cell starts exactly at the solution
        assert labels[mid, mid] == 0
        assert labels.min() == 0
        assert len(np.unique(labels)) >= 2
        # the solution basin dominates the map
        assert np.mean(labels == 0) > 0.5
