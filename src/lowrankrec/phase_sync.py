"""Generalized power method for phase synchronization, fixed-point residuals,
and leave-one-out diagnostic sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NumericFailure
from .numerics import RngStream, dominant_eigenvector, sample_gaussian, torus_project
from .problems import SolveReport, dist_mod_phase

_INIT_SEED = 0x6E37  # fixed internal stream: gpm is deterministic given the instance


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
    converged = False
    iterations = 0
    for _ in range(max_iter + 1):
        Cz = C @ z
        objectives.append(_quadratic_form(z, Cz))
        p = torus_project(Cz)
        r = float(np.linalg.norm(p - z))
        residuals.append(r)
        if r < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        z = p
        iterations += 1
        history.append(z)
    err = dist_mod_phase(z, instance.z_true) / np.linalg.norm(instance.z_true)
    report = SolveReport(
        estimate=z,
        rel_error_mod_phase=float(err),
        iterations=iterations,
        converged=converged,
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
    iterations: int

    def rows(self):
        for t in range(self.iterations):
            yield (t + 1, float(self.max_dist_aux[t]),
                   float(self.max_corr_main[t]), float(self.max_corr_aux[t]))


def _aux_matvec(C, W, Z):
    """Columnwise C^(k) @ Z[:, k] for all k without materializing the C^(k).

    C^(k) differs from C by zeroing the k-th row and column of the noise:
    C^(k) z = C z - e_k <W_:,k, z> - W_:,k z_k.
    """
    M = C @ Z
    d = np.einsum("ij,ij->j", W.conj(), Z)
    M[np.arange(Z.shape[0]), np.arange(Z.shape[1])] -= d
    M -= W * np.diagonal(Z)[None, :]
    return M, d


def _aux_principal(C, W, n, tol=1e-9, max_iter=50_000):
    """Batched power iteration: column k converges to the principal vector of C^(k)."""
    rng = RngStream(_INIT_SEED, (1,))
    V = sample_gaussian(rng, n * n, "complex").reshape(n, n)
    V /= np.linalg.norm(V, axis=0)
    for _ in range(max_iter):
        M, _ = _aux_matvec(C, W, V)
        lam = np.real(np.einsum("ij,ij->j", V.conj(), M))
        res = np.linalg.norm(M - V * lam[None, :], axis=0)
        if np.all(res <= tol * (1.0 + np.abs(lam))):
            return V
        V = M / np.linalg.norm(M, axis=0)
    raise NonConvergence(f"leave-one-out power iteration residual {res.max():.3e} "
                         f"above tol after {max_iter} iterations")


def loo_run(instance, history):
    """The n leave-one-out sequences, in lockstep with gpm's iterates z_0 ... z_T.

    Each auxiliary sequence starts from the principal eigenvector of its own
    modified observation matrix and takes one GPM step per main step.
    """
    C = instance.observations
    W = instance.noise
    Z = _aux_principal(C, W, instance.n)
    max_dist, corr_main, corr_aux = [], [], []
    for z in history[1:]:
        M, _ = _aux_matvec(C, W, Z)
        Z = torus_project(M)
        ip = np.abs(z.conj() @ Z)  # |<z, Z_:,k>| per column
        nz2 = float(np.real(np.vdot(z, z)))
        na2 = np.sum(np.abs(Z) ** 2, axis=0)
        d2 = np.maximum(0.0, nz2 + na2 - 2.0 * ip)
        max_dist.append(float(np.sqrt(d2.max())))
        corr_main.append(float(np.abs(W @ z).max()))
        d = np.einsum("ij,ij->j", W.conj(), Z)
        corr_aux.append(float(np.abs(d).max()))
    return LeaveOneOutDiagnostics(
        max_dist_aux=np.asarray(max_dist),
        max_corr_main=np.asarray(corr_main),
        max_corr_aux=np.asarray(corr_aux),
        iterations=len(max_dist),
    )
