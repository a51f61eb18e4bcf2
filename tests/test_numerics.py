import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lowrankrec.errors import RankDeficient
from lowrankrec.numerics import (
    RngStream,
    dominant_eigenvector,
    hermitian_eigen,
    hermitize,
    least_squares,
    qr_projector,
    sample_gaussian,
    torus_project,
)


def random_hermitian(rng, n, field="complex"):
    a = sample_gaussian(rng, n * n, field).reshape(n, n)
    return hermitize(a)


class TestRngStream:
    def test_identical_seed_identical_sequence(self):
        a = sample_gaussian(RngStream(123), 4, "complex")
        b = sample_gaussian(RngStream(123), 4, "complex")
        assert np.array_equal(a, b)

    def test_splits_are_disjoint(self):
        root = RngStream(5)
        a = sample_gaussian(root.split(0), 100, "real")
        b = sample_gaussian(root.split(1), 100, "real")
        assert not np.array_equal(a, b)

    def test_split_path_reproducible(self):
        a = sample_gaussian(RngStream(9, (1, 2)), 8, "real")
        b = sample_gaussian(RngStream(9).split(1).split(2), 8, "real")
        assert np.array_equal(a, b)


class TestSampleGaussian:
    def test_complex_second_moment(self):
        v = sample_gaussian(RngStream(7), 100_000, "complex")
        assert np.mean(np.abs(v) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_real_variance(self):
        v = sample_gaussian(RngStream(8), 100_000, "real")
        assert np.var(v) == pytest.approx(1.0, abs=0.02)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sample_gaussian(RngStream(0), 0, "real")
        with pytest.raises(ValueError):
            sample_gaussian(RngStream(0), 3, "quaternion")


class TestDominantEigenvector:
    def test_diagonal(self):
        lam, v = dominant_eigenvector(np.diag([3.0, 1.0]), rng=RngStream(1))
        assert lam == pytest.approx(3.0, abs=1e-9)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-7)

    def test_rank_one(self):
        z = sample_gaussian(RngStream(2), 6, "complex")
        z /= np.linalg.norm(z)
        lam, v = dominant_eigenvector(np.outer(z, z.conj()), rng=RngStream(3))
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(v, z)) == pytest.approx(1.0, abs=1e-7)

    def test_matches_full_eigendecomposition(self):
        H = random_hermitian(RngStream(11), 8)
        lam, v = dominant_eigenvector(H, tol=1e-12, rng=RngStream(12))
        w, q = hermitian_eigen(H)
        assert lam == pytest.approx(w[-1], abs=1e-8 * max(1.0, abs(w[-1])))
        assert abs(np.vdot(v, q[:, -1])) == pytest.approx(1.0, abs=1e-6)

    def test_non_convergence_raised(self):
        from lowrankrec.errors import NonConvergence
        H = random_hermitian(RngStream(55), 24)
        with pytest.raises(NonConvergence):
            dominant_eigenvector(H, tol=1e-14, max_iter=2, rng=RngStream(56))

    def test_extreme_agreement_on_random_matrices(self):
        # spec invariant: 100 random Hermitian matrices up to n = 64
        for i in range(100):
            rng = RngStream(100 + i)
            n = int(4 + (60 * rng.generator.random()))
            field = "complex" if i % 2 == 0 else "real"
            H = random_hermitian(rng, n, field)
            lam, v = dominant_eigenvector(H, tol=1e-10, rng=rng.split(1))
            top = hermitian_eigen(H)[0][-1]
            assert abs(lam - top) <= 1e-8 * max(1.0, abs(top))
            assert np.linalg.norm(H @ v - lam * v) <= 1e-10 * (1.0 + abs(lam))


class TestHermitianEigen:
    def test_identity(self):
        w, _ = hermitian_eigen(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_diag_sorted_ascending(self):
        w, q = hermitian_eigen(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])
        assert abs(q[1, 0]) == pytest.approx(1.0)

    def test_reconstruction(self):
        H = random_hermitian(RngStream(21), 16)
        w, q = hermitian_eigen(H)
        rec = q @ np.diag(w) @ q.conj().T
        assert np.linalg.norm(rec - H) <= 1e-10 * np.linalg.norm(H)
        assert np.linalg.norm(q.conj().T @ q - np.eye(16)) <= 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.eye(3000))


class TestLeastSquares:
    def test_identity(self):
        y = sample_gaussian(RngStream(31), 5, "complex")
        assert np.allclose(least_squares(np.eye(5), y), y)

    def test_consistent_system(self):
        rng = RngStream(32)
        B = sample_gaussian(rng, 60, "complex").reshape(12, 5)
        x0 = sample_gaussian(rng, 5, "complex")
        y = B @ x0
        x = least_squares(B, y)
        assert np.linalg.norm(B @ x - y) <= 1e-10 * np.linalg.norm(y)
        assert np.linalg.norm(x - x0) <= 1e-8 * np.linalg.norm(x0)

    def test_residual_orthogonal_to_columns(self):
        rng = RngStream(33)
        B = sample_gaussian(rng, 100, "complex").reshape(20, 5)
        y = sample_gaussian(rng, 20, "complex")
        res = B @ least_squares(B, y) - y
        for j in range(5):
            ip = abs(np.vdot(B[:, j], res))
            assert ip <= 1e-8 * np.linalg.norm(y) * np.linalg.norm(B[:, j])

    def test_rank_deficient(self):
        B = np.ones((6, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            least_squares(B, np.ones(6, dtype=complex))
        with pytest.raises(RankDeficient):
            least_squares(np.ones((2, 6)), np.ones(2))  # m < n

    def test_qr_projector_matches_lstsq(self):
        rng = RngStream(34)
        B = sample_gaussian(rng, 80, "complex").reshape(16, 5)
        y = sample_gaussian(rng, 16, "complex")
        q, _ = qr_projector(B)
        assert np.allclose(q @ (q.conj().T @ y), B @ least_squares(B, y), atol=1e-10)


def test_hermitize_is_exact():
    a = sample_gaussian(RngStream(41), 36, "complex").reshape(6, 6)
    H = hermitize(a)
    assert np.array_equal(H, H.conj().T)


# exact zeros or moduli far from the float range's ends, so that scaling by
# a positive factor neither underflows nor overflows
_entries = st.one_of(st.just(0j), st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e100))
_vectors = arrays(np.complex128, st.integers(1, 16), elements=_entries)
_property = settings(deadline=None, derandomize=True, database=None)


class TestTorusProjectProperties:
    @_property
    @given(_vectors)
    def test_idempotent(self, z):
        p = torus_project(z)
        assert np.allclose(torus_project(p), p, rtol=0.0, atol=1e-15)

    @_property
    @given(_vectors, st.floats(min_value=1e-100, max_value=1e100))
    def test_invariant_under_positive_scaling(self, z, c):
        assert np.allclose(torus_project(c * z), torus_project(z), rtol=0.0, atol=1e-15)

    @_property
    @given(_vectors)
    def test_zero_entries_map_to_one(self, z):
        p = torus_project(z)
        assert np.all(p[z == 0] == 1.0)
        assert np.allclose(np.abs(p), 1.0, rtol=0.0, atol=1e-15)
