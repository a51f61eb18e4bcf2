"""Factorized solver for unit-diagonal semidefinite programs.

The SDP  min Tr(C U) s.t. U >= 0, U_kk = 1  is attacked through the factor
U = V V* with V an N x p matrix of unit-norm rows (a product-of-spheres
manifold).  PhaseCut costs are solved by Levenberg-Marquardt on their
variable-projected form, every other cost by Riemannian gradient descent
with Armijo line search.  Cost constructors are provided for the
phase-retrieval (PhaseCut) and synchronization relaxations, together with
rank-one rounding, a sampled second-order criticality probe, a dual
certificate and the reference width ceil(sqrt(2N)) + 1, at which one
converged solve is generically an SDP optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FDInconsistent
# least_squares, qr_projector: unused, importable for perfbench/bench.py's by-name wrappers
from .numerics import (RngStream, hermitize, least_squares, qr_projector,  # noqa: F401
                       sample_gaussian, solve_from_qr, torus_project)
from .problems import SolveReport


@dataclass(frozen=True)
class UnitDiagSDP:
    """min Tr(cost U) over Hermitian U >= 0 with unit diagonal (N constraints).

    A PhaseCut problem carries its phase retrieval instance, which its solver
    and rounding read; every other problem has instance None.
    """

    cost: np.ndarray
    instance: object = None

    @property
    def dim(self):
        return self.cost.shape[0]


@dataclass
class SOSPCertificate:
    """Sampled evidence that a factor is a second-order critical point.

    min_quadform is the smallest Riemannian-Hessian quadratic form value seen
    over the sampled unit tangent directions: a lower-bound estimate only.
    """

    min_quadform: float
    factor_rank: int


def phasecut_cost(instance):
    """Cost matrix Diag(b) (I - B B^+) Diag(b) of the phase relaxation.

    For every unit-modulus u, u* C u equals the least-squares residual
    min_x sum_k |b_k u_k - <x, v_k>|^2, which pins the matrix on the
    constraint set.  Hermitian positive semidefinite by construction.
    """
    q, _ = instance.qr   # raises RankDeficient if m < n etc.
    b = instance.moduli
    m = instance.m
    proj = q @ q.conj().T
    A = np.eye(m, dtype=proj.dtype) - proj
    C = hermitize(b[:, None] * A * b[None, :])
    return UnitDiagSDP(C, instance)


def sync_cost(instance):
    """Synchronization relaxation: minimize Tr(-C U) with unit diagonal."""
    return UnitDiagSDP(-instance.observations)


def evaluate(C, V):
    """Objective, Riemannian gradient and row multipliers at V, from one C @ V.

    f(V) = Re Tr(C V V*); the multipliers lam_k = Re<v_k, (C V)_k> of the
    unit-row constraints sum to f; the gradient is the Euclidean gradient
    2 C V projected rowwise onto the tangent space, 2 ((C V)_k - lam_k v_k),
    so Re<v_k, h_k> = 0.
    """
    W = C @ V
    lam = np.real(np.einsum("ij,ij->i", V.conj(), W))
    return float(np.real(np.vdot(V, W))), 2.0 * (W - lam[:, None] * V), lam


def objective(problem, V):
    """f(V) = Re Tr(C V V*)."""
    return evaluate(problem.cost, V)[0]


def riemannian_grad(problem, V):
    """Tangent gradient of f on the unit-row manifold, see evaluate."""
    return evaluate(problem.cost, V)[1]


def _unit_rows(W):
    """W with each row divided by its norm; zero rows become the first basis direction."""
    norms = np.linalg.norm(W, axis=1)
    zero = norms == 0.0
    U = W / np.where(zero, 1.0, norms)[:, None]
    U[zero, 0] = 1.0
    return U


def retract(V, H):
    """Row renormalization of V + H; zero rows map to the first basis direction."""
    return _unit_rows(V + H)


def random_factor(rng, n, p):
    """Complex factor with rows drawn uniformly on the unit sphere."""
    V = sample_gaussian(rng, n * p, "complex").reshape(n, p)
    return _unit_rows(V)


def opnorm_estimate(C):
    """Cheap spectral-norm estimate: 30 power steps on C* C (via C twice)."""
    field = "real" if np.isrealobj(C) else "complex"
    v = sample_gaussian(RngStream(0x09), C.shape[0], field)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(30):
        w = C.conj().T @ (C @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        est = math.sqrt(nw)
        v = w / nw
    return est


def riemannian_gd(problem, p, rng, max_iter=20000):
    """Local descent on the factor, from rows drawn uniformly on the sphere.

    PhaseCut costs, the problems carrying their instance, are solved by
    Levenberg-Marquardt on their variable-projected form from X0 = B^+ D V,
    see _vp_lm; max_iter bounds its steps.  Every other cost is solved by
    Riemannian gradient descent: the first trial step is 1/(2 ||C||_op
    estimate), later trial steps use the Barzilai-Borwein quotient
    <dV,dV>/<dV,dgrad> from the last accepted move, and every step is
    safeguarded by the Armijo test f(V') <= f(V) - 1e-4 t ||grad||^2 with
    halving.  Along directions where the cost grows only at fourth order, as
    it does next to a rank-deficient optimum, this first-order method
    converges sublinearly.

    Either way the objective trace is non-increasing.  Gradient descent
    stops, converged, when the Riemannian gradient Frobenius norm drops
    below 1e-10 N times the operator-norm estimate; Levenberg-Marquardt
    requires that as well as a step below _LM_XTOL relative to its iterate.
    Both also stop, unconverged, at max_iter or when no step decreases the
    objective any more.

    Returns (factor, report): the factor carries the result, and the
    report's residual_trace the Riemannian gradient norm at it.
    """
    C = problem.cost
    N = problem.dim
    if not 1 <= p <= N:
        raise ValueError("need 1 <= p <= N")
    nrm = max(opnorm_estimate(C), 1e-300)
    threshold = 1e-10 * nrm * N
    V = random_factor(rng, N, p)
    if problem.instance is not None:
        inst = problem.instance
        X, trace, converged = _vp_lm(
            problem, solve_from_qr(*inst.qr, inst.moduli[:, None] * V), max_iter, threshold)
        V = _unit_rows(inst.matrix @ X)
    else:
        V, trace, converged = _rgd(C, V, 0.5 / nrm, max_iter, threshold)
    return V, SolveReport(iterations=len(trace) - 1, converged=converged,
                          residual_trace=np.asarray([np.linalg.norm(riemannian_grad(problem, V))]),
                          objective_trace=np.asarray(trace))


def _rgd(C, V, step0, max_iter, threshold):
    """Riemannian gradient descent loop of riemannian_gd."""

    f, H, _ = evaluate(C, V)
    trace = [f]
    V_prev = H_prev = None
    for _ in range(max_iter):
        gn2 = float(np.real(np.vdot(H, H)))
        if math.sqrt(gn2) < threshold:
            return V, trace, True
        if V_prev is None:
            t = step0
        else:
            dV = V - V_prev
            dH = H - H_prev
            denom = float(np.real(np.vdot(dV, dH)))
            t = float(np.real(np.vdot(dV, dV))) / denom if denom > 0 else step0
            t = min(max(t, 1e-3 * step0), 1e10 * step0)
        for _ in range(60):
            Vc = retract(V, -t * H)
            fc, Hc, _ = evaluate(C, Vc)
            if fc <= f - 1e-4 * t * gn2:
                break
            t *= 0.5
        else:
            break  # line search stalled at numerical floor
        V_prev, H_prev = V, H
        V, f, H = Vc, fc, Hc
        trace.append(f)
    return V, trace, False


# A Levenberg-Marquardt step below _LM_XTOL relative to the iterate ends the
# run: it bounds the distance left to the optimum, and the rounding error
# with it, far below the tau = 1e-3 that a recovery must meet.  A rank-one
# candidate near the optimum converges quadratically, so _RANK_ONE_EVERY
# steps of its own are enough to tell whether it is one.
_LM_XTOL = 1e-8
_RANK_ONE_EVERY = 20


def _vp_lm(problem, X, max_iter, threshold):
    """PhaseCut by Levenberg-Marquardt on its variable projection g(X).

    With D = Diag(b), the PhaseCut cost is f(V) = min_X ||D V - B X||^2;
    minimizing over unit-norm rows instead gives g(X) = sum_k (||(B X)_k|| -
    b_k)^2, reached at V = rownormalize(B X), so min f = min g.  g has n p
    complex unknowns against N p for f, few enough to solve each model
    exactly.  Damping follows Nielsen's gain-ratio rule (Madsen, Nielsen &
    Tingleff, "Methods for non-linear least squares problems", 2004),
    floored at 1e-12 of the model's scale so the gauge directions of X stay
    solvable.

    Near a rank-one optimum reached with p >= 2, g grows only at fourth
    order along the rank-raising directions, where a local method crawls,
    while the rank-one truncation of X is nondegenerate at width one.  So
    every _RANK_ONE_EVERY steps that truncation is refined at width one; it
    replaces X, as one step, when its g is no larger and dual_certificate
    proves its factor optimal to within threshold.

    Stops, converged, when the step is below _LM_XTOL relative to X and the
    Riemannian gradient norm of f at the factor is below threshold.  Returns
    (X, trace of g, converged), one trace entry per step after the first; g
    bounds f(V) from above, with equality at critical points.
    """
    B, b = problem.instance.matrix, problem.instance.moduli
    m = B.shape[0]
    k = X.size
    BBh = B @ B.conj().T if 2 * k > m else None  # for the m x m system below

    def value(X):
        Y = B @ X
        rho = np.linalg.norm(Y, axis=1)
        return Y, rho, float(np.sum((rho - b) ** 2))

    Y, rho, F = value(X)
    trace = [F]
    mu = floor = None
    nu = 2.0
    while len(trace) <= max_iter:
        steps = len(trace) - 1
        if steps and steps % _RANK_ONE_EVERY == 0 and X.shape[1] > 1:
            U, s, _ = np.linalg.svd(X, full_matrices=False)
            X1 = np.zeros_like(X)
            X1[:, :1] = _vp_lm(problem, U[:, :1] * s[0], _RANK_ONE_EVERY, threshold)[0]
            Y1, rho1, F1 = value(X1)
            if F1 <= F and dual_certificate(problem, _unit_rows(Y1)) >= -threshold:
                X, Y, rho, F = X1, Y1, rho1, F1
                trace.append(F)
                continue
        # Jacobian of the row norms in the real coordinates (Re X, Im X);
        # a zero row of B X gets a zero Jacobian row
        U = Y / np.where(rho > 0, rho, 1.0)[:, None]
        G = (B[:, :, None] * U.conj()[:, None, :]).reshape(m, k)
        J = np.concatenate([G.real, -G.imag], axis=1)
        r = rho - b
        grad = J.T @ r
        if mu is None:
            scale = float(np.max(np.sum(J * J, axis=0)))  # largest diagonal of J^T J
            mu, floor = 1e-3 * scale, 1e-12 * scale
        if not math.isfinite(mu):
            return X, trace, False  # no step decreases g any more
        if 2 * k > m:
            # the same step from the smaller system: (J^T J + mu I)^-1 J^T =
            # J^T (J J^T + mu I)^-1 (Nocedal & Wright, Numerical Optimization,
            # 10.3); row i of G is B_i (x) conj(U_i), so J J^T = Re(G G*) =
            # Re(B B* o conj(U U*)), formed without J
            JJt = np.real(BBh * (U @ U.conj().T).conj())
            h = -J.T @ np.linalg.solve(JJt + mu * np.eye(m), r)
        else:
            h = -np.linalg.solve(J.T @ J + mu * np.eye(2 * k), grad)
        if (np.linalg.norm(h) <= _LM_XTOL * np.linalg.norm(X)
                and np.linalg.norm(riemannian_grad(problem, _unit_rows(Y))) < threshold):
            return X, trace, True
        Xc = X + (h[:k] + 1j * h[k:]).reshape(X.shape)
        Yc, rhoc, Fc = value(Xc)
        predicted = float(h @ (mu * h - grad))
        ratio = (F - Fc) / predicted if predicted > 0 else -1.0
        if ratio > 0:
            X, Y, rho, F = Xc, Yc, rhoc, Fc
            mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), floor)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        trace.append(F)
    return X, trace, False


def dual_certificate(problem, V):
    """Smallest eigenvalue of S = C - Diag(lam) at a feasible factor V.

    lam are the row multipliers Re<v_k, (C V)_k>, whose sum is the
    objective, so S >= 0 makes lam a dual-feasible point of equal value and
    proves V V* optimal for the SDP (Bandeira, Boumal & Singer, Math.
    Program. 2017); S >= -eps I bounds the optimality gap by eps N.
    """
    lam = evaluate(problem.cost, V)[2]
    return float(np.linalg.eigvalsh(problem.cost - np.diag(lam))[0])


def round_factor(problem, V):
    """Rank-one rounding of a feasible factor.

    Takes the dominant eigenvector of V V* scaled by the square root of its
    eigenvalue (the top left singular pair of V), projects it to unit moduli,
    and for phase-retrieval problems lifts the phases back to signal space
    through a least-squares solve.  On a real instance it rounds Re(V V*),
    the Gram matrix of [Re V, Im V], instead: an optimal point of the real
    SDP whenever V V* is optimal, whose rounding is a real, signed estimate.
    """
    V = np.asarray(V)
    inst = problem.instance
    if inst is not None and inst.field == "real":
        V = np.hstack((V.real, V.imag))
    U, S, _ = np.linalg.svd(V, full_matrices=False)
    z = torus_project(U[:, 0] * S[0])
    if inst is not None:
        return solve_from_qr(*inst.qr, inst.moduli * z)
    return z


def sosp_probe(problem, V, trials, rng):
    """Sampled check of the second-order criticality conditions at V.

    For random unit tangent directions H the Riemannian-Hessian quadratic
    form q(H) = 2 (Re Tr(H* C H) - sum_k lam_k ||h_k||^2) is evaluated and
    cross-validated against the second central difference of the objective
    along the retraction curve t -> retract(V, tH); disagreement beyond 5%
    relative raises FDInconsistent.  Records the minimum over trials.
    """
    V = np.asarray(V)
    C = problem.cost
    n, p = V.shape
    f0, _, lam = evaluate(C, V)
    scale_guard = 1e-8 * max(opnorm_estimate(C), 1e-300)

    def quadform(H):
        return 2.0 * (float(np.real(np.vdot(H, C @ H)))
                      - float(lam @ np.sum(np.abs(H) ** 2, axis=1)))

    def curve_second_diff(H, eps):
        fp = objective(problem, retract(V, eps * H))
        fm = objective(problem, retract(V, -eps * H))
        return (fp - 2.0 * f0 + fm) / eps ** 2

    field = "real" if np.isrealobj(V) and np.isrealobj(C) else "complex"
    qmin = math.inf
    for _ in range(trials):
        G = sample_gaussian(rng, n * p, field).reshape(n, p)
        H = G - np.real(np.einsum("ij,ij->i", V.conj(), G))[:, None] * V
        nh = float(np.linalg.norm(H))
        if nh == 0.0:
            continue
        H /= nh
        q = quadform(H)
        d1 = curve_second_diff(H, 1e-3)
        d2 = curve_second_diff(H, 5e-4)
        ref = (4.0 * d2 - d1) / 3.0
        if abs(q - ref) > 0.05 * max(abs(q), abs(ref), scale_guard):
            raise FDInconsistent(
                f"quadratic form {q:.6e} vs finite difference {ref:.6e}"
            )
        qmin = min(qmin, q)
    s = np.linalg.svd(V, compute_uv=False)
    rank = int(np.sum(s > 1e-8 * s[0])) if s.size else 0
    return SOSPCertificate(min_quadform=qmin, factor_rank=rank)


def reference_rank(N):
    """Factor width making the rank-deficiency guarantee hold with margin.

    p = ceil(sqrt(2N)) + 1 gives p(p+1)/2 > N, the number of affine
    constraints, where spurious second-order critical points generically do
    not exist (Boumal, Voroninski & Bandeira, arXiv 1804.02008): one
    converged riemannian_gd solve at this width is an SDP optimum, which
    dual_certificate can prove.
    """
    return math.ceil(math.sqrt(2 * N)) + 1
