import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrankrec import harness, landscape
from lowrankrec.harness import run_basin
from lowrankrec.landscape import (
    _solution_first,
    basin_map,
    displacement_probe,
    expected_grad,
    expected_hess_form,
    expected_loss,
)
from lowrankrec.numerics import RngStream, sample_gaussian
from lowrankrec.problems import dist_mod_phase, gen_phase_retrieval


def dict_relabel(labels, sol, clusters):
    """Label remap spelled as a dict: sol -> 0, the others 1, 2, ... in order."""
    remap = {sol: 0}
    for k in range(clusters):
        if k != sol:
            remap[k] = len(remap)
    return np.array([remap[v] for v in labels], dtype=int)


def greedy_labels(X, x_true):
    """Reference clustering of basin_map: one start at a time, representatives re-stacked."""
    radius = 1e-4 * float(np.linalg.norm(x_true))
    reps = []
    labels = []
    for x in X.T:
        lab = -1
        if reps:
            Rp = np.stack(reps, axis=1)
            d2c = float(x @ x) + np.einsum("ij,ij->j", Rp, Rp) - 2.0 * np.abs(x @ Rp)
            k = int(np.argmin(d2c))
            if d2c[k] <= radius ** 2:
                lab = k
        if lab < 0:
            reps.append(x)
            lab = len(reps) - 1
        labels.append(lab)
    sol = next((k for k, rep in enumerate(reps) if dist_mod_phase(rep, x_true) <= radius), -1)
    if sol < 0:
        return np.asarray(labels) + 1
    return dict_relabel(labels, sol, len(reps))


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

    @pytest.mark.parametrize("algorithm", ["AP", "WF"])
    def test_one_measurement_array_at_a_time(self, algorithm):
        # each step writes its projection or residual back into B X: one
        # m x pairs array, beside arrays of n x pairs (a tenth of it here);
        # the instance and its QR are allocated before tracing
        inst = gen_phase_retrieval(40, 400, "real-gaussian", RngStream(38))
        inst.qr
        tracemalloc.start()
        try:
            displacement_probe(algorithm, inst, 0.05, 2000, RngStream(39))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (400 * 2000 * 8) < 2.0


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

    @pytest.mark.parametrize("config", [
        dict(seed=101, n=20, grid=101),
        dict(seed=101, n=8, grid=7, m=80, max_iter=300),
        dict(seed=7, n=8, grid=15, m=80, max_iter=300),
    ], ids=["landscape-size", "n8-grid7", "n8-seed7"])
    def test_labels_match_greedy_reference(self, monkeypatch, config):
        # record the instance run_basin maps and the AP limits basin_map
        # clusters, its one solve_from_qr result
        seen = []
        for module, name in ((harness, "basin_map"), (landscape, "solve_from_qr")):
            def recording(*args, _fn=getattr(module, name), **kwargs):
                seen.append((args, _fn(*args, **kwargs)))
                return seen[-1][1]
            monkeypatch.setattr(module, name, recording)
        labels = run_basin(**config)
        (_, limits), ((inst, *_), out) = seen
        assert out is labels
        np.testing.assert_array_equal(labels.ravel(), greedy_labels(limits, inst.x_true))

    def test_memory_at_the_landscape_size(self):
        # 10,201 starts of m = 400: the start block and ap_iterate's one
        # batch-size array of iterates, then its output, beside arrays of
        # n = 20 coefficients per start
        tracemalloc.start()
        try:
            run_basin(seed=101, n=20, grid=101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (400 * 101 * 101 * 8) < 2.5


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(st.integers(1, 12).flatmap(lambda c: st.tuples(
    st.just(c), st.integers(0, c), st.lists(st.integers(0, c - 1), min_size=1, max_size=30))))
def test_solution_first_matches_dict_remap(case):
    # sol == clusters is basin_map's "no solution cluster": every label moves up by one
    clusters, sol, labels = case
    labels = np.asarray(labels)
    expected = labels + 1 if sol == clusters else dict_relabel(labels, sol, clusters)
    np.testing.assert_array_equal(_solution_first(labels, sol), expected)
