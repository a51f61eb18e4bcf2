"""Generalized power method for phase synchronization, fixed-point residuals,
and leave-one-out diagnostic sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NumericFailure
from .numerics import RngStream, dominant_eigenvector, torus_project
from .problems import SolveReport, dist_mod_phase

_INIT_SEED = 0x6E37  # fixed internal stream: gpm is deterministic given the instance

_AUX_MAX_ITER = 50_000  # power products before _aux_principal raises NonConvergence

_BLOCK = 64  # rows or columns per block of the leave-one-out O(n^2) passes


def fixed_point_residual(C, z):
    """|| P(Cz) - z || where P is the entrywise phase projection."""
    return float(np.linalg.norm(torus_project(C @ z) - z))


def mle_objective(C, z):
    """The real quadratic form z* C z (the likelihood GPM ascends).

    C must be Hermitian; a residual imaginary part above 1e-10 relative is
    reported as NumericFailure.
    """
    return _quadratic_form(z, C @ z)


def _quadratic_form(z, Cz):
    q = complex(np.vdot(z, Cz))
    if abs(q.imag) > 1e-10 * (1.0 + abs(q.real)):
        raise NumericFailure(f"quadratic form has imaginary part {q.imag:.3e}")
    return q.real


def _principal_vector(C):
    return dominant_eigenvector(C, tol=1e-10, max_iter=50_000, rng=RngStream(_INIT_SEED))[1]


def gpm(instance, max_iter=1000, tol=None):
    """Generalized power method z <- P(C z) from the principal eigenvector.

    residual_trace records ||P(Cz_t) - z_t|| at each visited iterate; the run
    stops as soon as that residual drops below tol (default 1e-10 sqrt(n)), so
    the returned iterate itself satisfies the fixed-point tolerance.
    objective_trace records z* C z along the way.

    Returns (report, history) where history stacks the visited iterates.
    """
    C = instance.observations
    n = instance.n
    if tol is None:
        tol = 1e-10 * np.sqrt(n)
    z = _principal_vector(C)
    history = [z]
    residuals = []
    objectives = []
    while True:
        Cz = C @ z
        objectives.append(_quadratic_form(z, Cz))
        p = torus_project(Cz)
        r = float(np.linalg.norm(p - z))
        residuals.append(r)
        if r < tol or len(history) > max_iter:
            break
        z = p
        history.append(z)
    err = dist_mod_phase(z, instance.z_true) / np.linalg.norm(instance.z_true)
    report = SolveReport(
        estimate=z,
        rel_error_mod_phase=float(err),
        iterations=len(history) - 1,
        converged=bool(residuals[-1] < tol),
        residual_trace=np.asarray(residuals),
        objective_trace=np.asarray(objectives),
    )
    return report, np.asarray(history)


@dataclass
class LeaveOneOutDiagnostics:
    """Per-iteration gaps between the main GPM run and the n auxiliary runs.

    Auxiliary run k uses the observation matrix rebuilt with the k-th row and
    column of the noise zeroed out, so it is independent of that noise column.
    All sequences share length = number of lockstep iterations run.
    """

    max_dist_aux: np.ndarray    # max_k dist mod phase between main and aux k
    max_corr_main: np.ndarray   # max_k |<W_:,k, z_t>|
    max_corr_aux: np.ndarray    # max_k |<W_:,k, z_t^(k)>|

    @property
    def iterations(self):
        return len(self.max_dist_aux)


def _blocks(n):
    """Column blocks of _BLOCK; a last block one column wide takes its left
    neighbour too, since numpy sums one column pairwise and two or more in order."""
    return [slice(min(s, n - 2), s + _BLOCK) for s in range(0, n, _BLOCK)]


def _aux_matvec(C, W, Z, M, d=None):
    """Columnwise C^(k) @ Z[:, k] for all k into M, without materializing the C^(k).

    C^(k) differs from C by zeroing the k-th row and column of the noise:
    C^(k) z = C z - e_k <W_:,k, z> - W_:,k z_k.  A single column Z stands for
    n equal columns, and C @ Z is then one matrix-vector product.  d holds the
    products <W_:,k, Z_:,k> if the caller has them; W is exactly Hermitian, so
    they are read off its rows.  Writes only M, which must not overlap Z.
    """
    n = W.shape[1]
    if Z.shape[1] == 1:
        M[...] = C @ Z
        Z = np.broadcast_to(Z, M.shape)
    else:
        np.matmul(C, Z, out=M)
    if d is None:
        d = np.einsum("ji,ij->j", W, Z)
    M[np.arange(n), np.arange(n)] -= d
    z = np.diagonal(Z)
    for s in range(0, n, _BLOCK):
        M[s:s + _BLOCK] -= W[s:s + _BLOCK] * z
    return M


def _aux_principal(C, W, v):
    """Batched power iteration: column k converges to the principal vector of C^(k).

    Every column starts at v, gpm's start vector (the principal vector of C),
    so the first product is one matrix-vector product.  Returns (V, M) with
    M[:, k] = C^(k) V[:, k]: the last power product, which is also the first
    lockstep GPM step.  V and M are its two n x n working arrays, returned
    without a copy; v is not written, and a V returned after one product is
    a read-only broadcast of v.  The iteration is unshifted, so a column
    whose C^(k) has a negative eigenvalue dominant in modulus converges to
    it; that is raised as NonConvergence, as is a residual above tol after
    _AUX_MAX_ITER.
    """
    n = C.shape[0]
    V, M = v[:, None], np.empty_like(C)
    lam, res, norms = np.empty((3, n))
    for _ in range(_AUX_MAX_ITER):
        _aux_matvec(C, W, V, M)
        Vn = np.broadcast_to(V, M.shape)
        for s in _blocks(n):
            x, m = Vn[:, s], M[:, s]
            lam[s] = np.real(np.einsum("ij,ij->j", x.conj(), m))
            res[s] = np.linalg.norm(m - x * lam[s], axis=0)
            norms[s] = np.linalg.norm(m, axis=0)
        if np.all(res <= 1e-9 * (1.0 + np.abs(lam))):
            k = int(np.argmin(lam))
            if lam[k] <= 0.0:
                raise NonConvergence(f"leave-one-out power iteration: column {k} converged "
                                     f"to eigenvalue {lam[k]:.6g} <= 0, not the top one")
            return Vn, M
        V = np.divide(M, norms, out=V if V.shape == M.shape else None)
    raise NonConvergence(f"leave-one-out power iteration residual {res.max():.3e} "
                         f"above tol after {_AUX_MAX_ITER} iterations")


def loo_run(instance, history):
    """The n leave-one-out sequences, in lockstep with gpm's iterates z_0 ... z_T.

    Each auxiliary sequence starts from the principal eigenvector of its own
    modified observation matrix, found by power iteration from gpm's start
    vector z_0, and takes one GPM step per main step.  The last power product
    is the first lockstep step.  Besides C and W it holds two n x n working
    arrays: the product M and its phases Z.
    """
    C, W = instance.observations, instance.noise
    M = _aux_principal(C, W, history[0])[1]
    Z = np.empty_like(M)
    na2 = np.empty(M.shape[1])
    max_dist, corr_main, corr_aux = [], [], []
    for t, z in enumerate(history[1:]):
        if t:
            _aux_matvec(C, W, Z, M, d)
        for s in range(0, M.shape[0], _BLOCK):
            Z[s:s + _BLOCK] = torus_project(M[s:s + _BLOCK])
        ip = np.abs(z.conj() @ Z)  # |<z, Z_:,k>| per column
        nz2 = float(np.real(np.vdot(z, z)))
        for s in _blocks(Z.shape[1]):
            na2[s] = np.sum(np.abs(Z[:, s]) ** 2, axis=0)
        d2 = np.maximum(0.0, nz2 + na2 - 2.0 * ip)
        max_dist.append(float(np.sqrt(d2.max())))
        corr_main.append(float(np.abs(W @ z).max()))
        d = np.einsum("ji,ij->j", W, Z)
        corr_aux.append(float(np.abs(d).max()))
    return LeaveOneOutDiagnostics(
        max_dist_aux=np.asarray(max_dist),
        max_corr_main=np.asarray(corr_main),
        max_corr_aux=np.asarray(corr_aux),
    )
