import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lowrankrec.errors import InvalidDimension
from lowrankrec.numerics import RngStream
from lowrankrec.problems import (
    dist_mod_phase,
    gen_phase_retrieval,
    gen_sync,
    haar_frame,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)


class TestGenPhaseRetrieval:
    def test_moduli_definitional(self):
        inst = gen_phase_retrieval(4, 8, "complex-gaussian", RngStream(3))
        assert np.array_equal(inst.moduli, np.abs(inst.matrix @ inst.x_true))
        assert np.all(inst.moduli >= 0)

    def test_fig1_abscissa(self):
        inst = gen_phase_retrieval(40, 240, "complex-gaussian", RngStream(4))
        assert inst.m / inst.n == 6.0

    def test_structured_deterministic(self):
        a = gen_phase_retrieval(32, 128, "structured-frame", RngStream(5))
        b = gen_phase_retrieval(32, 128, "structured-frame", RngStream(99))
        assert np.array_equal(a.matrix, b.matrix)

    def test_structured_requires_power_of_two(self):
        with pytest.raises(InvalidDimension):
            gen_phase_retrieval(24, 48, "structured-frame", RngStream(6))

    def test_structured_rows_unit_norm(self):
        B = haar_frame(16, 80)
        assert np.allclose(np.linalg.norm(B, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n, m", [(8, 24), (16, 96), (32, 256), (1, 5), (8, 5), (8, 13)])
    def test_structured_frame_has_the_bits_of_the_row_loop(self, n, m):
        # row i is base row i mod n times exp(2i pi k r / n) at repeat
        # r = i // n; the first n rows are the base rows, unmodulated
        base = haar_frame(n, n).real
        k = np.arange(n)
        want = np.empty((m, n), dtype=complex)
        for i in range(m):
            r, j = divmod(i, n)
            want[i] = base[j] * np.exp(2j * np.pi * k * r / n)
        assert haar_frame(n, m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, m, kind, match", [
        (0, 8, "complex-gaussian", "n and m must be >= 1"),
        (8, 0, "real-gaussian", "n and m must be >= 1"),
        (8, 24, "poisson", "unknown ensemble kind 'poisson'"),
    ], ids=["n-zero", "m-zero", "unknown-kind"])
    def test_rejects_bad_arguments(self, n, m, kind, match):
        with pytest.raises(ValueError, match=match):
            gen_phase_retrieval(n, m, kind, RngStream(8))

    def test_real_kind_is_real(self):
        inst = gen_phase_retrieval(6, 20, "real-gaussian", RngStream(7))
        assert inst.field == "real"
        assert not np.iscomplexobj(inst.matrix)

    def test_invariants_over_seeds(self):
        for s in range(100):
            kind = ("complex-gaussian", "real-gaussian", "structured-frame")[s % 3]
            inst = gen_phase_retrieval(8, 24, kind, RngStream(s))
            assert np.allclose(inst.moduli, np.abs(inst.matrix @ inst.x_true), atol=1e-13)
            assert np.all(inst.moduli >= 0)


class TestGenSync:
    def test_zero_noise_rank_one(self):
        inst = gen_sync(12, 0.0, RngStream(11))
        Z = np.outer(inst.z_true, inst.z_true.conj())
        assert np.allclose(inst.observations, Z, atol=1e-14)

    def test_unit_diagonal(self):
        for sigma in (0.0, 0.7, 3.0):
            inst = gen_sync(9, sigma, RngStream(12))
            assert np.array_equal(np.diagonal(inst.observations), np.ones(9))

    def test_hermitian_and_noise_layout(self):
        inst = gen_sync(15, 1.3, RngStream(13))
        C, W = inst.observations, inst.noise
        assert np.array_equal(C, C.conj().T)
        assert np.array_equal(np.diagonal(W), np.zeros(15))
        assert np.array_equal(W, W.conj().T)

    def test_noise_second_moment(self):
        inst = gen_sync(100, 1.0, RngStream(14))
        iu = np.triu_indices(100, k=1)
        offdiag = (inst.observations - np.outer(inst.z_true, inst.z_true.conj()))[iu]
        assert np.mean(np.abs(offdiag) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_unit_modulus_truth(self):
        inst = gen_sync(30, 0.5, RngStream(15))
        assert np.allclose(np.abs(inst.z_true), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 0])
    def test_fewer_than_two_nodes_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 2"):
            gen_sync(n, 0.1, RngStream(16))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            gen_sync(8, sigma, RngStream(16))


class TestDistModPhase:
    def test_global_phase_invariance(self):
        x = np.array([1 + 2j, -3j, 0.5])
        for phi in (0.3, 1.0, np.pi):
            assert dist_mod_phase(x, np.exp(1j * phi) * x) == pytest.approx(0.0, abs=1e-12)

    def test_negation(self):
        x = np.array([1 + 1j, 2.0])
        assert dist_mod_phase(x, -x) == pytest.approx(0.0, abs=1e-12)
        xr = np.array([1.0, -2.0, 0.5])
        assert dist_mod_phase(xr, -xr) == pytest.approx(0.0, abs=1e-12)

    def test_grid_search_oracle(self):
        rng = RngStream(21)
        for i in range(5):
            u = rng.generator.standard_normal(6) + 1j * rng.generator.standard_normal(6)
            v = rng.generator.standard_normal(6) + 1j * rng.generator.standard_normal(6)
            alphas = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
            grid = np.min([np.linalg.norm(u - np.exp(1j * a) * v) for a in alphas])
            assert dist_mod_phase(u, v) == pytest.approx(grid, abs=1e-6)

    def test_simultaneous_phase_pseudometric(self):
        rng = RngStream(22)
        u = rng.generator.standard_normal(5) + 1j * rng.generator.standard_normal(5)
        v = rng.generator.standard_normal(5) + 1j * rng.generator.standard_normal(5)
        d = dist_mod_phase(u, v)
        for theta in (0.2, 2.4):
            rot = np.exp(1j * theta)
            assert dist_mod_phase(rot * u, rot * v) == pytest.approx(d, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dist_mod_phase(np.ones(3), np.ones(4))


class TestSuccess:
    def test_threshold_sweep_bimodality(self):
        # recovery outcomes are bimodal: sweeping tau over two decades flips
        # the verdict for under 2% of trials (200 trials at n=40, m/n=6)
        from lowrankrec.phase_retrieval import alternating_projections

        flips = 0
        trials = 200
        for ti in range(trials):
            rng = RngStream(0, (1, 8, ti))  # the fig-1 m/n=6 trial streams
            inst = gen_phase_retrieval(40, 240, "complex-gaussian", rng.split(0))
            rep = alternating_projections(inst, rng.split(1), max_iter=2000)
            verdicts = {rep.rel_error_mod_phase < tau for tau in (1e-2, 1e-3, 1e-4)}
            flips += len(verdicts) > 1
        assert flips / trials < 0.02


class TestSerialization:
    def test_phase_retrieval_roundtrip(self):
        inst = gen_phase_retrieval(5, 12, "complex-gaussian", RngStream(31))
        back = instance_from_dict(instance_to_dict(inst))
        assert np.array_equal(back.matrix, inst.matrix)
        assert np.array_equal(back.moduli, inst.moduli)
        assert np.array_equal(back.x_true, inst.x_true)
        assert back.field == inst.field and back.kind == inst.kind

    def test_real_field_roundtrip(self):
        inst = gen_phase_retrieval(4, 9, "real-gaussian", RngStream(32))
        back = instance_from_dict(instance_to_dict(inst))
        assert not np.iscomplexobj(back.matrix)
        assert np.array_equal(back.matrix, inst.matrix)

    def test_sync_roundtrip(self):
        inst = gen_sync(7, 0.8, RngStream(33))
        back = instance_from_dict(instance_to_dict(inst))
        assert np.array_equal(back.observations, inst.observations)
        assert np.array_equal(back.z_true, inst.z_true)
        assert np.array_equal(back.noise, inst.noise)
        assert back.sigma == inst.sigma

    @pytest.mark.parametrize("obj", [None, {"type": "phase_sync"}, np.eye(2)],
                             ids=["none", "dict", "array"])
    def test_other_types_not_serialized(self, obj):
        with pytest.raises(TypeError, match="cannot serialize"):
            instance_to_dict(obj)

    def test_tolerated_negative_moduli_load_as_positive_zero(self, tmp_path):
        inst = gen_phase_retrieval(5, 12, "complex-gaussian", RngStream(37))
        d = instance_to_dict(inst)
        d["moduli"][:2] = [-1e-13, -0.0]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        moduli = load_instance(path).moduli
        assert not np.signbit(moduli).any()
        assert list(moduli[:2]) == [0.0, 0.0]
        assert moduli[2:].tobytes() == inst.moduli[2:].tobytes()

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.pop("noise"), "noise"),
        (lambda d: d["truth"].pop(), "truth"),
        (lambda d: d["observations"][2][3].__setitem__(1, float("inf")), "observations"),
        (lambda d: d.__setitem__("sigma", float("nan")), "sigma"),
        (lambda d: d.__setitem__("n", 6.0), "n"),
        pytest.param(lambda d: d["observations"][0][1].__setitem__(1, 5.0), "observations",
                     id="observations-not-hermitian"),
        pytest.param(lambda d: d["observations"][2][2].__setitem__(0, 1.5), "observations",
                     id="observations-diagonal"),
        pytest.param(lambda d: d["noise"][1][3].__setitem__(0, 9.0), "noise",
                     id="noise-not-hermitian"),
        pytest.param(lambda d: d["noise"][4][4].__setitem__(0, 0.5), "noise",
                     id="noise-diagonal"),
        pytest.param(lambda d: d["truth"].__setitem__(0, [3.0, 0.0]), "truth",
                     id="truth-modulus"),
        pytest.param(lambda d: d.__setitem__("sigma", -3.0), "sigma", id="sigma-negative"),
        # JSON numbers only: float() would take a boolean or a numeric string
        pytest.param(lambda d: d.__setitem__("sigma", True), "sigma", id="sigma-bool"),
        pytest.param(lambda d: d.__setitem__("sigma", "0.5"), "sigma", id="sigma-string"),
    ])
    def test_malformed_sync_rejected(self, edit, field):
        d = instance_to_dict(gen_sync(7, 0.8, RngStream(34)))
        edit(d)
        with pytest.raises(ValueError, match=f"'{field}'"):
            instance_from_dict(d)

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.__setitem__("m", 11), "matrix"),
        (lambda d: d["moduli"].__setitem__(0, float("nan")), "moduli"),
        (lambda d: d.__setitem__("field", "quaternion"), "field"),
        (lambda d: d.__setitem__("signal", [[1.0, 0.0]]), "signal"),
        pytest.param(lambda d: d["moduli"].__setitem__(0, -1.0), "moduli",
                     id="moduli-negative"),
        pytest.param(lambda d: d.__setitem__("field", "real"), "matrix",
                     id="matrix-complex-in-real-field"),
        pytest.param(lambda d: d.update(field="real", matrix=[[[re, 0.0] for re, _ in row]
                                                              for row in d["matrix"]]),
                     "signal", id="signal-complex-in-real-field"),
        # bool is an int subclass: true must not load as n = 1
        pytest.param(lambda d: d.update(instance_to_dict(gen_phase_retrieval(
            1, 3, "complex-gaussian", RngStream(36))), n=True), "n", id="n-bool"),
        pytest.param(lambda d: d.update(moduli=[str(b) for b in d["moduli"]]), "moduli",
                     id="moduli-strings"),
        pytest.param(lambda d: d["moduli"].__setitem__(3, True), "moduli", id="moduli-bool-entry"),
        pytest.param(lambda d: d.update(matrix=[[[True, False]] * 5] * 12), "matrix",
                     id="matrix-bool"),
        pytest.param(lambda d: d["moduli"].__setitem__(0, 10 ** 400), "moduli",
                     id="moduli-int-beyond-float"),
    ])
    def test_malformed_phase_retrieval_rejected(self, edit, field):
        d = instance_to_dict(gen_phase_retrieval(5, 12, "complex-gaussian", RngStream(35)))
        edit(d)
        with pytest.raises(ValueError, match=f"'{field}'"):
            instance_from_dict(d)


_property = settings(deadline=None, derandomize=True, database=None, max_examples=40)


class TestSerializationProperties:
    @_property
    @given(st.integers(2, 9), st.floats(0.0, 5.0), st.integers(0, 2**32 - 1))
    def test_sync_roundtrip_through_json(self, n, sigma, seed):
        inst = gen_sync(n, sigma, RngStream(seed))
        back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert np.array_equal(back.observations, inst.observations)
        assert np.array_equal(back.z_true, inst.z_true)
        assert np.array_equal(back.noise, inst.noise)
        assert back.sigma == inst.sigma

    @_property
    @given(st.sampled_from(("complex-gaussian", "real-gaussian", "structured-frame")),
           st.sampled_from((1, 2, 4, 8)), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_phase_retrieval_roundtrip_through_json(self, kind, n, m, seed):
        inst = gen_phase_retrieval(n, m, kind, RngStream(seed))
        back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert back.kind == kind and back.field == inst.field
        assert np.iscomplexobj(back.matrix) == np.iscomplexobj(inst.matrix)
        assert np.array_equal(back.matrix, inst.matrix)
        assert np.array_equal(back.moduli, inst.moduli)
        assert np.array_equal(back.x_true, inst.x_true)


# moduli bounded so that squared norms stay far from the float range's ends
_cvectors = st.integers(1, 12).flatmap(
    lambda k: arrays(np.complex128, (2, k), elements=st.complex_numbers(max_magnitude=1e3)))
_phases = st.floats(-2 * np.pi, 2 * np.pi)


class TestDistModPhaseProperties:
    @_property
    @given(_cvectors, _phases, _phases)
    def test_invariant_under_global_phases(self, uv, a, b):
        u, v = uv
        tol = 1e-12 * (1.0 + np.linalg.norm(u) + np.linalg.norm(v))
        d = dist_mod_phase(u, v)
        assert abs(dist_mod_phase(np.exp(1j * a) * u, np.exp(1j * b) * v) - d) <= tol
        assert abs(dist_mod_phase(v, u) - d) <= tol

    @_property
    @given(_cvectors)
    def test_real_sign_invariance(self, uv):
        u, v = uv.real
        tol = 1e-12 * (1.0 + np.linalg.norm(u) + np.linalg.norm(v))
        assert abs(dist_mod_phase(u, -v) - dist_mod_phase(u, v)) <= tol
