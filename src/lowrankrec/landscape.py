"""Closed-form expected-landscape quantities for the quartic phase retrieval
loss, the one-step displacement experiment and attraction-basin maps for
alternating projections."""

from __future__ import annotations

import numpy as np

from . import phase_retrieval
from .errors import MissingGroundTruth, RankDeficient
# qr_projector and solve_from_qr are unused: perfbench/bench.py's traced probe wraps them by name
from .numerics import qr_projector, solve_from_qr  # noqa: F401
from .phase_retrieval import WF_STEP_SCALE, ap_iterate
from .problems import dist_mod_phase

# entries per measurement-space block of fig3's and basin's probes
_BLOCK_ENTRIES = 2 ** 18


def expected_loss(x, x_s):
    """E f(x) = ||x||^4 - ||x||^2 ||x_s||^2 - |<x,x_s>|^2 + ||x_s||^4.

    Expectation of the quartic loss over a single complex normal measurement
    vector with E|<u,v>|^2 = ||u||^2.
    """
    nx2 = float(np.real(np.vdot(x, x)))
    ns2 = float(np.real(np.vdot(x_s, x_s)))
    ip = abs(complex(np.vdot(x_s, x)))
    return nx2 ** 2 - nx2 * ns2 - ip ** 2 + ns2 ** 2


def expected_grad(x, x_s):
    """Gradient of the expected loss: 2((2||x||^2 - ||x_s||^2) x - <x_s,x> x_s)."""
    x = np.asarray(x)
    x_s = np.asarray(x_s)
    nx2 = np.real(np.vdot(x, x))
    ns2 = np.real(np.vdot(x_s, x_s))
    return 2.0 * ((2.0 * nx2 - ns2) * x - np.vdot(x_s, x) * x_s)


def expected_hess_form(x, x_s, h):
    """Quadratic form of the expected-loss Hessian along h.

    2((2||x||^2 - ||x_s||^2)||h||^2 + 4 Re^2 <x,h> - |<x_s,h>|^2); equals the
    second derivative of t -> expected_loss(x + t h) at t = 0.
    """
    nx2 = float(np.real(np.vdot(x, x)))
    ns2 = float(np.real(np.vdot(x_s, x_s)))
    nh2 = float(np.real(np.vdot(h, h)))
    re_xh = float(np.real(np.vdot(x, h)))
    ip_sh = abs(complex(np.vdot(x_s, h)))
    return 2.0 * ((2.0 * nx2 - ns2) * nh2 + 4.0 * re_xh ** 2 - ip_sh ** 2)


def _unit_columns(a):
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def displacement_probe(algorithm, instance, d, pairs, rng):
    """Mean one-step displacement E ||T(z) - T(z')|| over random close pairs.

    z is uniform on the unit sphere; z' = normalize(z + d w) for a random unit
    tangent direction w, rescaled along the chord so that ||z - z'|| = d
    exactly.  T is one alternating-projections step mapped to signal space or
    one Wirtinger Flow step with mu = WF_STEP_SCALE / mean(b^2).  The instance is
    rescaled so the ground-truth signal has unit norm, putting the probe
    sphere at the scale where the dynamics live.  T is linear after its
    measurement-space stage F, so T(z) - T(z') is formed from F(B z) - F(B z'),
    _BLOCK_ENTRIES // pairs rows of B at a time: no array grows with m x pairs.
    Both back-project through B^T; AP then maps to signal space by
    B^+ = (B^T B)^{-1} B^T, never factoring B: a B without full column rank
    (fig3's Gaussian B with m >= n has it) raises RankDeficient.
    """
    if instance.field != "real":
        raise ValueError("displacement probe is defined for real-field instances")
    if not 0.0 < d < 2.0:
        raise ValueError("d must lie in (0, 2)")
    if instance.x_true is None:
        raise MissingGroundTruth("displacement probe requires a ground-truth signal")
    B = instance.matrix
    b = instance.moduli / float(np.linalg.norm(instance.x_true))
    n, m = instance.n, instance.m

    if algorithm == "AP":
        def F(Y, i):  # called through its module, where perfbench's probe wraps it
            return phase_retrieval.project_modulus(Y, b[i, None], out=Y)

    elif algorithm == "WF":
        b2 = (b ** 2)[:, None]

        def F(Y, i):  # the residual (|Y|^2 - b^2) Y; Y * Y is |Y|^2 exactly
            t = np.square(Y)
            return np.multiply(Y, np.subtract(t, b2[i], out=t), out=Y)

    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    g = rng.generator
    Z = _unit_columns(g.standard_normal((n, pairs)))
    Wd = g.standard_normal((n, pairs))
    Wd -= Z * np.einsum("ij,ij->j", Z, Wd)[None, :]
    Wd = _unit_columns(Wd)
    U = _unit_columns(Z + d * Wd)
    Zp = Z + d * _unit_columns(U - Z)
    del Wd, U  # only Zp reads them; freed before the block loop

    acc = np.zeros((n, pairs))  # B.T (F(B Z) - F(B Zp)), F the measurement-space stage
    rows = max(1, _BLOCK_ENTRIES // pairs)
    for k in range(0, m, rows):
        i = slice(k, k + rows)
        D = F(B[i] @ Z, i)
        D -= F(B[i] @ Zp, i)
        acc += B[i].T @ D
    if algorithm == "AP":
        try:
            return float(np.linalg.norm(np.linalg.solve(B.T @ B, acc), axis=0).mean())
        except np.linalg.LinAlgError:
            raise RankDeficient(f"matrix of shape {B.shape} is rank deficient") from None
    acc *= WF_STEP_SCALE / float(np.mean(b ** 2))  # (Z - Zp) - mu * acc / m, in place
    acc /= m
    Z -= Zp
    Z -= acc
    return float(np.linalg.norm(Z, axis=0).mean())


def basin_map(instance, dirs, half_width, grid, max_iter=2000):
    """Attraction-basin labels of alternating projections on an affine 2-plane.

    Each grid point p (x_true + span(dirs), within the square of the given
    half width) starts one run at y0 = B p, stopped at a relative change of
    1e-10, whose limit x solves R x = c for its coefficients c = Q* y.
    Limits are clustered by distance modulo phase with merge radius
    1e-4 ||x_true||.  Label 0 is reserved for the cluster containing the
    solution; the others are numbered in order of first appearance.  The runs
    go _BLOCK_ENTRIES // m starts at a time, so no array grows with m x grid^2.

    Returns an integer (grid x grid) label array, rows indexing dirs[0].
    """
    if instance.field != "real":
        raise ValueError("basin map is defined for real-field instances")
    if instance.x_true is None:
        raise MissingGroundTruth("basin map requires a ground-truth signal")
    d1, d2 = np.asarray(dirs[0]), np.asarray(dirs[1])
    B = instance.matrix
    b = instance.moduli
    q, r = instance.qr
    ticks = np.linspace(-half_width, half_width, grid)
    A1, A2 = np.meshgrid(ticks, ticks, indexing="ij")
    P = (instance.x_true[:, None] + d1[:, None] * A1.ravel()[None, :]
         + d2[:, None] * A2.ravel()[None, :])
    K = P.shape[1]

    # ap_iterate frees each unnamed start block B p
    cols = max(1, _BLOCK_ENTRIES // instance.m)
    X = np.hstack([np.linalg.solve(r, ap_iterate(q, b, B @ P[:, s:s + cols], max_iter, 1e-10)[0])
                   for s in range(0, K, cols)])

    radius = 1e-4 * float(np.linalg.norm(instance.x_true))
    # each start joins the nearest cluster representative within radius,
    # else founds a cluster; representatives are the columns of reps
    reps = X[:, :1].copy()
    labels = np.zeros(K, dtype=int)
    for j in range(1, K):
        x = X[:, j]
        d2c = x @ x + np.einsum("ij,ij->j", reps, reps) - 2.0 * np.abs(x @ reps)
        k = int(np.argmin(d2c))
        if not d2c[k] <= radius ** 2:  # a NaN distance founds a cluster too
            reps = np.column_stack((reps, x))
            k = reps.shape[1] - 1
        labels[j] = k

    # reserve label 0 for the cluster holding the solution; with none
    # observed, sol is past the last cluster and 0 stays unused
    R = reps.shape[1]
    sol = next((k for k in range(R) if dist_mod_phase(reps[:, k], instance.x_true) <= radius), R)
    return _solution_first(labels, sol).reshape(grid, grid)


def _solution_first(labels, sol):
    """Cluster sol becomes label 0, the others keep their order from 1 up."""
    return np.where(labels == sol, 0, labels + (labels < sol))
