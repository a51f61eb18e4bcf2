"""Non-convex phase retrieval solvers: alternating projections and Wirtinger Flow."""

from __future__ import annotations

import numpy as np

# qr_projector is unused but stays importable: perfbench/bench.py wraps it by name
from .numerics import (RngStream, dominant_eigenvector, hermitize, qr_projector,  # noqa: F401
                       sample_gaussian, solve_from_qr, torus_project)
from .problems import SolveReport, rel_error_mod_phase

_SPECTRAL_SEED = 0x1A57  # fixed internal stream: solvers are deterministic given the instance

# Wirtinger Flow's first step is WF_STEP_SCALE / mean(b^2)
WF_STEP_SCALE = 0.1


def project_modulus(y, b):
    """Nearest point with |y'_k| = b_k; zero entries take phase 1."""
    return b * torus_project(y)


def ap_iterate(q, b, Y, max_iter, tol, trace=False):
    """Gerchberg-Saxton iteration y <- Q Q* P_moduli(y) on every column of Y.

    q is the thin-QR factor of the measurement matrix.  A column stops when
    its change is at most tol times its norm, or after max_iter steps; the
    columns still running are kept as one contiguous block, compacted only
    when some column stops.  Returns (Y, iterations, converged, residuals):
    the final columns, each column's step count and stop flag, and with
    trace (one column only) the residuals || |y_t| - b || per step, else
    None.
    """
    Y = np.asarray(Y)
    K = Y.shape[1]
    if trace and K != 1:
        raise ValueError("a residual trace needs a single column")
    qh = q.conj().T
    bc = b[:, None]
    out = np.array(Y, dtype=np.result_type(q, Y))
    iterations = np.full(K, max_iter)
    converged = np.zeros(K, dtype=bool)
    live = np.arange(K)
    residuals = [] if trace else None
    for it in range(1, max_iter + 1):
        Y_new = q @ (qh @ project_modulus(Y, bc))
        if trace:
            residuals.append(float(np.linalg.norm(np.abs(Y_new[:, 0]) - b)))
        D = Y_new - Y
        # vecdot is the cheapest column norm at one column, where AP is
        # bound by per-call overhead
        change = np.sqrt(np.vecdot(D, D, axis=0).real)
        norm = np.sqrt(np.vecdot(Y_new, Y_new, axis=0).real)
        done = change <= tol * np.maximum(norm, 1e-300)
        Y = Y_new
        if done.any():
            stopped = live[done]
            out[:, stopped] = Y[:, done]
            iterations[stopped] = it
            converged[stopped] = True
            live, Y = live[~done], Y[:, ~done]
            if live.size == 0:
                break
    out[:, live] = Y
    return out, iterations, converged, residuals


def alternating_projections(instance, rng=None, max_iter=2000, y0=None):
    """Gerchberg-Saxton iteration y <- P_range(P_moduli(y)), see ap_iterate.

    Starts from y0, or else from a Gaussian in measurement space drawn from rng.
    The range projection is applied through the instance's thin QR of B,
    which equals B @ least_squares(B, .) for full-column-rank B.
    residual_trace records || |y_t| - b || at the in-range iterates, which is
    non-increasing.  Stops when the relative iterate change drops below 1e-9.
    """
    q, r = instance.qr
    if y0 is None:
        y0 = sample_gaussian(rng, instance.m, instance.field)
    Y, iterations, converged, residuals = ap_iterate(
        q, instance.moduli, np.asarray(y0)[:, None], max_iter, 1e-9, trace=True)
    x = solve_from_qr(q, r, Y[:, 0])
    err = None
    if instance.x_true is not None:
        err = rel_error_mod_phase(x, instance.x_true, instance.field)
    return SolveReport(
        estimate=x,
        rel_error_mod_phase=err,
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        residual_trace=np.asarray(residuals),
    )


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


def wirtinger_flow(instance, max_iter=5000, x0=None):
    """Gradient descent on the quartic loss from the spectral initializer.

    The step is WF_STEP_SCALE / mean(b^2); it halves whenever the loss would
    increase (and the reduced step is kept), so the objective trace is
    non-increasing.  Stops when ||grad|| < 1e-9 * mean(b^2)^(3/2), after 60
    halvings that do not reduce the loss, or at max_iter.
    """
    b = instance.moduli
    lam2 = float(np.mean(b ** 2))
    mu = WF_STEP_SCALE / max(lam2, 1e-300)
    grad_threshold = 1e-9 * lam2 ** 1.5
    x = wf_spectral_init(instance) if x0 is None else np.asarray(x0)
    f = wf_loss(instance, x)
    residuals = [float(np.linalg.norm(np.abs(instance.matrix @ x) - b))]
    objectives = [f]
    converged = False
    iterations = 0
    for _ in range(max_iter):
        g = wf_grad(instance, x)
        gn = float(np.linalg.norm(g))
        if gn < grad_threshold:
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
        iterations += 1
        residuals.append(float(np.linalg.norm(np.abs(instance.matrix @ x) - b)))
        objectives.append(f)
    err = None
    if instance.x_true is not None:
        err = rel_error_mod_phase(x, instance.x_true, instance.field)
    return SolveReport(
        estimate=x,
        rel_error_mod_phase=err,
        iterations=iterations,
        converged=converged,
        residual_trace=np.asarray(residuals),
        objective_trace=np.asarray(objectives),
    )
