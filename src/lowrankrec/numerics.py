"""Dense real/complex linear-algebra kernels and seeded random sampling.

Hermitian matrices are stored as plain ndarrays (real symmetric or complex
Hermitian); builders in this package enforce the symmetry exactly, and
`hermitize` is available to restore it after a lossy computation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence, RankDeficient


class RngStream:
    """Reproducible random stream with deterministic splitting.

    A stream is identified by a 64-bit seed plus a split path (a tuple of
    integers).  Identical (seed, path) yield identical sample sequences:
    the state is a PCG64 bit generator keyed through numpy's SeedSequence,
    both fixed, documented algorithms.  Parallel trials must use disjoint
    splits, never a shared stream.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path))
        )

    def split(self, *indices):
        """Child stream at path + indices, independent of the parent."""
        return RngStream(self.seed, self.path + tuple(indices))


def sample_gaussian(rng, n, field="complex"):
    """i.i.d. Gaussian n-vector.

    real: standard normal entries.  complex: independent N(0, 1/2) real and
    imaginary parts, so E|entry|^2 = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.generator
    if field == "real":
        return g.standard_normal(n)
    if field == "complex":
        re = g.standard_normal(n)
        im = g.standard_normal(n)
        return (re + 1j * im) / math.sqrt(2.0)
    raise ValueError(f"unknown field {field!r}")


def hermitize(a):
    """Exactly Hermitian part (a + a*)/2; also zeroes the diagonal imag part."""
    return (a + a.conj().T) / 2.0


def torus_project(z):
    """Entrywise phase extraction z_k / |z_k|, with zero entries mapped to 1."""
    z = np.asarray(z)
    a = np.abs(z)
    # a.min() propagates NaN, so one reduction finds zero and NaN moduli;
    # with none, the masked divide's own ufunc loop runs without the mask
    if not a.size or a.min() > 0:
        return z / a
    return np.divide(z, a, out=np.ones_like(z, dtype=np.result_type(z, 1.0)), where=a > 0)


def dominant_eigenvector(H, rng, tol=1e-10, max_iter=20000):
    """Top eigenpair of a Hermitian matrix.

    Power iteration on the positively shifted matrix H + sI, with s >= the
    spectral radius, so the iteration finds the top algebraic eigenvalue
    whatever the sign of the others.  Every caller's matrix (z z* + W
    observations, moduli-weighted covariances) has its top eigenvalue
    dominant in modulus.

    Returns (eigenvalue, unit vector) with ||Hv - lam v|| <= tol*(1+|lam|).
    Raises NonConvergence if the tolerance is missed after max_iter steps.
    """
    H = np.asarray(H)
    n = H.shape[0]
    if n < 1:
        raise ValueError("empty matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    field = "real" if np.isrealobj(H) else "complex"
    v0 = sample_gaussian(rng, n, field)
    v = v0 / np.linalg.norm(v0)
    shift = float(np.abs(H).sum(axis=1).max())  # >= spectral radius
    res = np.inf
    for _ in range(max_iter):
        # the residual of the shifted operator equals ||Hv - lam v||
        w = H @ v + shift * v
        lam_s = float(np.real(np.vdot(v, w)))
        lam = lam_s - shift
        res = float(np.linalg.norm(w - lam_s * v))
        if res <= tol * (1.0 + abs(lam)):
            return lam, v
        v = w / np.linalg.norm(w)
    raise NonConvergence(
        f"power iteration residual {res:.3e} above tol after {max_iter} iterations"
    )


RANK_TOL = 1e-12


def qr_projector(B):
    """Thin QR of a full-column-rank B; Q Q* projects onto Range(B).

    Solvers read it from PhaseRetrievalInstance.qr: one factorization per B.
    """
    B = np.asarray(B)
    m, n = B.shape
    q, r = np.linalg.qr(B)
    d = np.abs(np.diag(r))
    if m < n or d.size == 0 or d.min() <= RANK_TOL * max(d.max(), 1e-300):
        raise RankDeficient(f"matrix of shape {B.shape} is rank deficient")
    return q, r


def solve_from_qr(q, r, y):
    """x with B x = Q Q* y, given the thin QR of B (columns of y allowed)."""
    return np.linalg.solve(r, q.conj().T @ y)


def least_squares(B, y):
    """Minimum of ||Bx - y|| for a full-column-rank B, through qr_projector's thin QR."""
    return solve_from_qr(*qr_projector(B), y)
