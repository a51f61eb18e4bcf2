"""Closed-form expected-landscape quantities for the quartic phase retrieval
loss, empirical curvature probes, the one-step displacement experiment and
attraction-basin maps for alternating projections."""

from __future__ import annotations

import math

import numpy as np

from .errors import FDInconsistent, MissingGroundTruth
# qr_projector is unused but stays importable: perfbench/bench.py wraps it by name
from .numerics import qr_projector, solve_from_qr  # noqa: F401
from .phase_retrieval import WF_STEP_SCALE, ap_iterate, project_modulus, wf_loss
from .problems import dist_mod_phase


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


def classify_critical(x, x_s, tol=1e-8):
    """Which expected-landscape critical set x belongs to, as a tag.

    "solution" (the global minimizers, by distance mod phase), "origin" (the
    strict local maximum at 0, by norm), "ring" (the orthogonal saddle circle:
    orthogonal to x_s at radius ||x_s||/sqrt(2)), checked in that order, or
    "none".
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ns = float(np.linalg.norm(x_s))
    if dist_mod_phase(x, x_s) <= tol * ns:
        return "solution"
    nx = float(np.linalg.norm(x))
    if nx <= tol * ns:
        return "origin"
    if abs(complex(np.vdot(x_s, x))) <= tol * ns ** 2 and abs(nx - ns / math.sqrt(2.0)) <= tol * ns:
        return "ring"
    return "none"


def curvature_probe(instance, x, tol_fd=0.05):
    """Empirical second directional derivative of the sample loss along x_true.

    Central differences at two step sizes; the two estimates must agree to
    tol_fd relative or FDInconsistent is raised.  Returns the smaller-step
    estimate.  Concentrates, for x on the orthogonal ring, towards
    -2 ||x_true||^4 as the number of measurements grows.
    """
    if instance.x_true is None:
        raise MissingGroundTruth("curvature probe requires a ground-truth signal")
    x_s = instance.x_true
    x = np.asarray(x)
    ns = float(np.linalg.norm(x_s))
    base = 1e-2 * max(1.0, float(np.linalg.norm(x)) / max(ns, 1e-300))

    def second_diff(eps):
        f_p = wf_loss(instance, x + eps * x_s)
        f_m = wf_loss(instance, x - eps * x_s)
        f_0 = wf_loss(instance, x)
        return (f_p - 2.0 * f_0 + f_m) / eps ** 2

    d1 = second_diff(base)
    d2 = second_diff(base / 2.0)
    scale = max(abs(d1), abs(d2), 1e-12 * ns ** 4)
    if abs(d1 - d2) > tol_fd * scale:
        raise FDInconsistent(
            f"second-difference estimates disagree: {d1:.6e} vs {d2:.6e}"
        )
    return d2


def _unit_columns(a):
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def displacement_probe(algorithm, instance, d, pairs, rng):
    """Mean one-step displacement E ||T(z) - T(z')|| over random close pairs.

    z is uniform on the unit sphere; z' = normalize(z + d w) for a random unit
    tangent direction w, rescaled along the chord so that ||z - z'|| = d
    exactly.  T is one alternating-projections step mapped to signal space or
    one Wirtinger Flow step with mu = WF_STEP_SCALE / mean(b^2).  The instance is
    rescaled so the ground-truth signal has unit norm, putting the probe
    sphere at the scale where the dynamics live.
    """
    if instance.field != "real":
        raise ValueError("displacement probe is defined for real-field instances")
    if not 0.0 < d < 2.0:
        raise ValueError("d must lie in (0, 2)")
    if instance.x_true is None:
        raise MissingGroundTruth("displacement probe requires a ground-truth signal")
    B = instance.matrix
    s = float(np.linalg.norm(instance.x_true))
    b = instance.moduli / s
    n, m = instance.n, instance.m

    g = rng.generator
    Z = _unit_columns(g.standard_normal((n, pairs)))
    Wd = g.standard_normal((n, pairs))
    Wd -= Z * np.einsum("ij,ij->j", Z, Wd)[None, :]
    Wd = _unit_columns(Wd)
    U = _unit_columns(Z + d * Wd)
    Zp = Z + d * _unit_columns(U - Z)

    if algorithm == "AP":
        q, r = instance.qr

        def T(X):
            return solve_from_qr(q, r, project_modulus(B @ X, b[:, None]))

    elif algorithm == "WF":
        mu = WF_STEP_SCALE / float(np.mean(b ** 2))

        def T(X):
            Y = B @ X
            R = np.abs(Y) ** 2 - (b ** 2)[:, None]
            return X - mu * (B.T @ (R * Y)) / m

    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    disp = np.linalg.norm(T(Z) - T(Zp), axis=0)
    return float(disp.mean())


def basin_map(instance, center, dirs, half_width, grid, max_iter=2000):
    """Attraction-basin labels of alternating projections on an affine 2-plane.

    Each grid point p (the plane center + span(dirs) restricted to the square
    of the given half width) starts one run at y0 = B p, stopped at a
    relative change of 1e-10; limits are clustered by pairwise distance
    modulo phase with merge radius 1e-4 ||x_true||.  Label 0 is reserved for
    the cluster containing the solution; the other clusters are numbered in
    order of first appearance.

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
    P = (np.asarray(center)[:, None]
         + d1[:, None] * A1.ravel()[None, :]
         + d2[:, None] * A2.ravel()[None, :])
    K = P.shape[1]

    Y0 = q @ (q.T @ (B @ P))  # start in-range: y0 = projection of B p
    X = solve_from_qr(q, r, ap_iterate(q, b, Y0, max_iter, 1e-10)[0])

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
