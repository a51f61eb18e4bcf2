"""Non-convex phase retrieval solvers: alternating projections and Wirtinger Flow."""

from __future__ import annotations

import math

import numpy as np

# qr_projector and solve_from_qr are unused: perfbench/bench.py's traced probe wraps them by name
from .numerics import (RngStream, dominant_eigenvector, hermitize, qr_projector,  # noqa: F401
                       sample_gaussian, solve_from_qr, torus_project)
from .problems import SolveReport, rel_error_mod_phase

_SPECTRAL_SEED = 0x1A57  # fixed internal stream: solvers are deterministic given the instance

# Wirtinger Flow's first step is WF_STEP_SCALE / mean(b^2)
WF_STEP_SCALE = 0.1

# AP steps per stop test; the steps of a block of more than one step form at
# most 2**14 measurement entries in all (S steps of an m x k iterate), while its
# buffer H holds their S x n x k coefficients
_BLOCK_STEPS = 16


def project_modulus(y, b, out=None):
    """Nearest point with |y'_k| = b_k; zero entries take phase 1.

    b broadcasts against y without enlarging it.  out, if given, receives
    the result and may be y itself.  Real float64 y whose entries are all
    finite and nonzero, with no sign bit set in b, takes the copysign path:
    y_k / |y_k| is exactly +-1 there, and copysign(b, y) is b * sign(y), so
    for finite b the result has the bits of b * torus_project(y), formed
    without a temporary.  Any other input, including real y with a zero,
    NaN or infinite entry and b holding -0.0 or a negative entry, is b times
    torus_project's divide.
    """
    y = np.asarray(y)
    if y.dtype == np.float64 and not np.signbit(b).any() and _finite_nonzero(y):
        return np.copysign(b, y, out=out)
    p = torus_project(y)
    return np.multiply(b, p, out=p if out is None else out)


def _finite_nonzero(y):
    """Whether every entry of real y is finite and nonzero; true when y is empty.

    min and max propagate NaN; none of the three reductions copies y,
    whatever its memory layout, or warns.
    """
    return not y.size or (np.count_nonzero(y) == y.size
                          and math.isfinite(y.min()) and math.isfinite(y.max()))


def ap_iterate(q, b, Y, max_iter, tol):
    """Gerchberg-Saxton iteration y <- Q Q* P_moduli(y) on every column of Y.

    q is the thin-QR factor of the measurement matrix.  Each column is
    carried as its coefficients c = Q* y: a step forms y = Q c, projects it
    in place and stores c' = Q* P_moduli(y); the first step projects Y as
    given.  A column stops when its change is at most tol times its norm,
    both taken on c, which equals taking them on y since Q has orthonormal
    columns (the first step compares against Q* Y), or after max_iter
    steps.  The columns still running are kept as one contiguous array,
    compacted only when some column stops.  Returns the n x K final
    coefficients C, whose iterates are Q C, and each column's step count
    and stop flag.  || |y_t| - b || is non-increasing in t.

    Memory: besides Y, the loop holds one array the size of Y, for y of
    the live columns, and arrays of n coefficients per column.  Y is not
    modified; when the caller keeps no reference to it, it is freed after
    the first step.

    The steps run in blocks of up to _BLOCK_STEPS, and the stop test runs
    once per block, over all of its steps.  A block in which some column
    stops ends at its first stopping step: the steps after it are discarded,
    the stopped columns leave, and the next block starts there.  So each
    step runs on the same live columns as with a test after every step, and
    every iterate, step count and stop flag has the same bits.  After a
    compaction, y is formed over the live columns only, and BLAS may round
    a product of a few columns differently from one of more: a batch has
    the bits of that loop carried in coefficients, and agrees with it
    carried in y to rounding.
    """
    Y = np.asarray(Y)
    m, K = Y.shape
    qh = q.conj().T
    # b cast once to the iterates' type: the multiply in project_modulus
    # would cast it on every step, to the same values
    bc = np.asarray(b, dtype=np.result_type(b, Y))[:, None]
    dtype = np.result_type(q, Y)
    C = qh @ Y  # what the first step's change is measured against
    out = np.empty(C.shape, dtype=dtype)  # every column is written below
    buf = np.empty(Y.size, dtype=dtype)  # y of the live columns, contiguous
    iterations = np.full(K, max_iter)
    converged = np.zeros(K, dtype=bool)
    live = np.arange(K)
    it = 0
    while live.size and it < max_iter:
        S = min(_BLOCK_STEPS, max(1, 2 ** 14 // (m * live.size)), max_iter - it)
        H = np.empty((S,) + C.shape, dtype=dtype)
        y = buf[:m * live.size].reshape(m, live.size)
        prev = C
        for j in range(S):
            if Y is not None:
                project_modulus(Y, bc, out=y)
                Y = None
            else:
                project_modulus(np.matmul(q, prev, out=y), bc, out=y)
            prev = np.matmul(qh, y, out=H[j])
        D = np.empty_like(H)
        np.subtract(H[0], C, out=D[0])
        np.subtract(H[1:], H[:-1], out=D[1:])
        # vecdot is the cheapest column norm at one column, where AP is
        # bound by per-call overhead
        change = np.sqrt(np.vecdot(D, D, axis=-2).real)
        norm = np.sqrt(np.vecdot(H, H, axis=-2).real)
        done = change <= tol * np.maximum(norm, 1e-300)
        if not done.any():
            it += S
            C = H[-1]
            continue
        j = int(done.any(axis=1).argmax())
        it += j + 1
        done = done[j]
        stopped = live[done]
        out[:, stopped] = H[j][:, done]
        iterations[stopped] = it
        converged[stopped] = True
        live, C = live[~done], H[j][:, ~done]
    out[:, live] = C
    return out, iterations, converged


def alternating_projections(instance, rng, max_iter=2000):
    """Gerchberg-Saxton iteration y <- P_range(P_moduli(y)), see ap_iterate.

    Starts from a Gaussian in measurement space drawn from rng.
    The range projection is applied through the instance's thin QR of B,
    which equals B @ least_squares(B, .) for full-column-rank B.
    residual_trace holds the one final residual || |y| - b || of the last
    in-range iterate.  Stops when the relative iterate change drops below 1e-9.
    """
    q, r = instance.qr
    y0 = sample_gaussian(rng, instance.m, instance.field)
    C, iterations, converged = ap_iterate(q, instance.moduli, y0[:, None], max_iter, 1e-9)
    return _report(instance, np.linalg.solve(r, C[:, 0]), (q @ C)[:, 0],
                   iterations=int(iterations[0]), converged=bool(converged[0]))


def _report(instance, x, y, **fields):
    """SolveReport of the estimate x from measurements y: its error against
    the signal when the instance has one, and the one final residual || |y| - b ||."""
    err = None if instance.x_true is None else rel_error_mod_phase(x, instance.x_true)
    return SolveReport(estimate=x, rel_error_mod_phase=err,
                       residual_trace=np.asarray([np.linalg.norm(np.abs(y) - instance.moduli)]),
                       **fields)


def wf_loss(instance, x):
    """Quartic loss (1/2m) sum_k (|<x,v_k>|^2 - b_k^2)^2."""
    r = np.abs(instance.matrix @ x) ** 2 - instance.moduli ** 2
    return 0.5 * float(r @ r) / instance.m


def wf_grad(instance, x):
    """Gradient (1/m) sum_k (|<x,v_k>|^2 - b_k^2) v_k v_k* x.

    Satisfies (f(x+eh) - f(x-eh))/(2e) -> 2 Re<grad, h> as e -> 0 (inner
    product conjugate-linear in the first slot).
    """
    B = instance.matrix
    w = B @ x
    r = np.abs(w) ** 2 - instance.moduli ** 2
    return B.conj().T @ (r * w) / instance.m


def wf_weight_matrix(instance):
    """Moduli-weighted covariance (1/m) sum_k b_k^2 v_k v_k*."""
    B = instance.matrix
    b2 = instance.moduli ** 2
    return hermitize(B.conj().T @ (b2[:, None] * B)) / instance.m


def wf_spectral_init(instance):
    """Dominant eigenvector of the weighted covariance, scaled to norm sqrt(mean b^2)."""
    M = wf_weight_matrix(instance)
    lam_hat = float(np.sqrt(np.mean(instance.moduli ** 2)))
    _, v = dominant_eigenvector(M, tol=1e-11, max_iter=100_000, rng=RngStream(_SPECTRAL_SEED))
    return v * lam_hat


def wirtinger_flow(instance, max_iter=5000):
    """Gradient descent on the quartic loss from the spectral initializer.

    The step is WF_STEP_SCALE / mean(b^2); it halves whenever the loss would
    increase (and the reduced step is kept), so the objective trace is
    non-increasing.  Stops when ||grad|| <= 1e-9 * mean(b^2)^(3/2), after 60
    halvings that do not reduce the loss, or at max_iter.  residual_trace
    holds the one final residual || |Bx| - b ||.
    """
    b = instance.moduli
    lam2 = float(np.mean(b ** 2))
    mu = WF_STEP_SCALE / max(lam2, 1e-300)
    grad_threshold = 1e-9 * lam2 ** 1.5
    x = wf_spectral_init(instance)
    f = wf_loss(instance, x)
    objectives = [f]
    converged = False
    for _ in range(max_iter):
        g = wf_grad(instance, x)
        gn = float(np.linalg.norm(g))
        if gn <= grad_threshold:  # <=: all-zero moduli give threshold 0 at the exact x = 0
            converged = True
            break
        cand = x - mu * g
        fc = wf_loss(instance, cand)
        halvings = 0
        while fc > f and halvings < 60:
            halvings += 1
            mu *= 0.5
            cand = x - mu * g
            fc = wf_loss(instance, cand)
        if fc > f:  # stalled: 60 halvings did not reduce the loss
            break
        x = cand
        f = fc
        objectives.append(f)
    return _report(instance, x, instance.matrix @ x, iterations=len(objectives) - 1,
                   converged=converged, objective_trace=np.asarray(objectives))
