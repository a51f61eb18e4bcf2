"""Instance generators and metrics for phase retrieval and phase synchronization.

Serialization format (JSON, documented field names, complex matrices as
nested arrays of [re, im] pairs):

  phase retrieval: {"type": "phase_retrieval", "kind": ..., "field": ...,
                    "n": ..., "m": ..., "matrix": [[[re, im], ...], ...],
                    "moduli": [...], "signal": [[re, im], ...] | null}
  synchronization: {"type": "phase_sync", "n": ..., "sigma": ...,
                    "observations": pairs, "truth": pairs, "noise": pairs}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDimension
from .numerics import qr_projector, sample_gaussian

ENSEMBLE_KINDS = ("complex-gaussian", "real-gaussian", "structured-frame")


@dataclass(frozen=True)
class PhaseRetrievalInstance:
    """Moduli b_k = |(Bx)_k| of a measurement matrix B whose k-th row pairs
    against the signal: (Bx)_k = <x, v_k>."""

    kind: str                     # measurement ensemble, one of ENSEMBLE_KINDS
    matrix: np.ndarray            # B, m x n
    moduli: np.ndarray            # b >= 0, length m
    x_true: np.ndarray | None     # ground-truth signal, optional

    @property
    def field(self):
        """"real" exactly when B is real, else "complex"."""
        return "real" if np.isrealobj(self.matrix) else "complex"

    @property
    def n(self):
        return self.matrix.shape[1]

    @property
    def m(self):
        return self.matrix.shape[0]

    @cached_property
    def qr(self):
        """Thin QR (q, r) of B, factored on first use; a rank-deficient B raises on every access."""
        return qr_projector(self.matrix)


@dataclass(frozen=True)
class SyncInstance:
    observations: np.ndarray      # C = z z* + W, Hermitian, unit diagonal
    z_true: np.ndarray            # unit-modulus entries
    sigma: float
    noise: np.ndarray             # W, Hermitian, zero diagonal (kept for diagnostics)

    @property
    def n(self):
        return self.z_true.shape[0]


@dataclass
class SolveReport:
    """Common output record of the iterative solvers; unreported fields keep their defaults."""

    iterations: int
    converged: bool
    residual_trace: np.ndarray    # ends with the residual or gradient norm at the returned point
    estimate: np.ndarray | None = None
    rel_error_mod_phase: float | None = None
    objective_trace: np.ndarray | None = None


def haar_frame(n, m):
    """Deterministic structured frame with m unit-norm rows (n a power of two).

    Base system: the constant vector plus, for each dyadic scale and shift,
    the vector supported on one dyadic block with +1 on its first half and
    -1 on its second, unit-normalized.  The n base rows are cycled with a
    per-repeat diagonal phase modulation exp(2i*pi*k*r/n) (repeat index r)
    until m rows exist.  Mixes strongly correlated and near-orthogonal rows.
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise InvalidDimension(f"structured-frame requires n a power of two, got {n}")
    base = np.zeros((n, n))
    base[0] = 1.0 / math.sqrt(n)
    row = 1
    length = n
    while length >= 2:
        half = length // 2
        for start in range(0, n, length):
            base[row, start:start + half] = 1.0
            base[row, start + half:start + length] = -1.0
            base[row] /= math.sqrt(length)
            row += 1
        length //= 2
    assert row == n
    r, j = np.divmod(np.arange(m), n)
    return base[j] * np.exp(2j * np.pi * np.arange(n) * r[:, None] / n)


def gen_phase_retrieval(n, m, kind, rng):
    """Instance with Gaussian signal and exact moduli b_k = |<x_true, v_k>|."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if kind not in ENSEMBLE_KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    field = "real" if kind == "real-gaussian" else "complex"
    if kind == "structured-frame":
        B = haar_frame(n, m)
    else:
        B = sample_gaussian(rng, m * n, field).reshape(m, n)
    x_true = sample_gaussian(rng, n, field)
    b = np.abs(B @ x_true)
    return PhaseRetrievalInstance(kind, B, b, x_true)


def gen_sync(n, sigma, rng):
    """Noisy rank-one synchronization instance C = z z* + W.

    z has i.i.d. uniform phases; the strict upper triangle of W holds i.i.d.
    complex normals with E|w|^2 = sigma^2, the diagonal is zero and the lower
    triangle mirrors by conjugation, so C is exactly Hermitian with unit
    diagonal.  Both are built in place, C as the Hermitian part of z z* plus W.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    theta = rng.generator.random(n) * 2.0 * np.pi
    z = np.exp(1j * theta)
    W = np.zeros((n, n), dtype=complex)
    if sigma > 0:
        W[np.triu_indices(n, k=1)] = sigma * sample_gaussian(rng, n * (n - 1) // 2, "complex")
        W += W.conj().T
    C = np.outer(z, z.conj())
    C += C.conj().T
    C /= 2.0
    C += W
    np.fill_diagonal(C, 1.0)
    return SyncInstance(C, z, float(sigma), W)


def dist_mod_phase(u, v):
    """Distance modulo a global phase: inf_a ||u - e^{ia} v||.

    Closed form sqrt(max(0, ||u||^2 + ||v||^2 - 2|<u,v>|)).  For real-valued
    inputs the infimum over a in {0, pi} (sign ambiguity) coincides with the
    same formula, so the field is inferred from the dtypes.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    w = complex(np.vdot(u, v))
    if w == 0:
        return math.sqrt(max(0.0, float(np.real(np.vdot(u, u)) + np.real(np.vdot(v, v)))))
    # align at the optimal phase and measure directly (avoids cancellation)
    phase = w.conjugate() / abs(w)
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        return float(np.linalg.norm(u - phase * v))
    return float(np.linalg.norm(u - phase.real * v))


def rel_error_mod_phase(estimate, truth):
    return dist_mod_phase(estimate, truth) / np.linalg.norm(truth)


# --- serialization -----------------------------------------------------------

def _c2pairs(a):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def instance_to_dict(instance):
    if isinstance(instance, PhaseRetrievalInstance):
        return {
            "type": "phase_retrieval",
            "kind": instance.kind,
            "field": instance.field,
            "n": instance.n,
            "m": instance.m,
            "matrix": _c2pairs(instance.matrix),
            "moduli": np.asarray(instance.moduli, dtype=float).tolist(),
            "signal": None if instance.x_true is None else _c2pairs(instance.x_true),
        }
    if isinstance(instance, SyncInstance):
        return {
            "type": "phase_sync",
            "n": instance.n,
            "sigma": instance.sigma,
            "observations": _c2pairs(instance.observations),
            "truth": _c2pairs(instance.z_true),
            "noise": _c2pairs(instance.noise),
        }
    raise TypeError(f"cannot serialize {type(instance)!r}")


def _get(d, key):
    if key not in d:
        raise ValueError(f"instance file: missing field {key!r}")
    return d[key]


def _dim(d, key):
    v = _get(d, key)
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError(f"instance field {key!r} must be a positive integer, got {v!r}")
    return v


def _array(d, key, shape, pairs=True):
    """Field key as a finite array of the given shape; pairs decode [re, im] to complex."""
    v = _get(d, key)
    try:
        a = np.asarray(v, dtype=object)
        if not set(map(type, a.flat)) <= {int, float}:  # float() takes strings and bools
            raise TypeError
        a = a.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"instance field {key!r} is not a numeric array") from None
    want = shape + (2,) if pairs else shape
    if a.shape != want:
        raise ValueError(f"instance field {key!r} has shape {a.shape}, expected {want}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"instance field {key!r} holds non-finite values")
    return a[..., 0] + 1j * a[..., 1] if pairs else a


def _choice(d, key, allowed):
    v = _get(d, key)
    if v not in allowed:
        raise ValueError(f"instance field {key!r} must be one of {allowed}, got {v!r}")
    return v


# tolerance of the structure checks; every generated instance meets them exactly
_STRUCTURE_TOL = 1e-12


def _require(deviation, key, what):
    """Raise a ValueError naming the field when deviation exceeds the tolerance."""
    if deviation > _STRUCTURE_TOL:
        raise ValueError(f"instance field {key!r} must {what} (off by {deviation:.3e})")


def _hermitian(d, key, n, diagonal):
    a = _array(d, key, (n, n))
    _require(np.abs(a - a.conj().T).max(), key, "be Hermitian")
    _require(np.abs(np.diagonal(a) - diagonal).max(), key, f"have diagonal {diagonal}")
    return a


def _real(a, key):
    _require(np.abs(a.imag).max(), key, "have zero imaginary parts in a real-field instance")
    return a.real


def instance_from_dict(d):
    """Decode an instance dict; a missing or malformed field raises ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError("instance file must hold a JSON object")
    kind = _choice(d, "type", ("phase_retrieval", "phase_sync"))
    n = _dim(d, "n")
    if kind == "phase_retrieval":
        m = _dim(d, "m")
        field = _choice(d, "field", ("real", "complex"))
        B = _array(d, "matrix", (m, n))
        x = None if d.get("signal") is None else _array(d, "signal", (n,))
        if field == "real":
            B = _real(B, "matrix")
            x = None if x is None else _real(x, "signal")
        b = _array(d, "moduli", (m,), pairs=False)
        _require(-b.min(), "moduli", "be nonnegative")
        b = np.where(b > 0, b, 0.0)  # the tolerated -1e-12 .. -0.0 load as +0.0
        return PhaseRetrievalInstance(_choice(d, "kind", ENSEMBLE_KINDS), B, b, x)
    C = _hermitian(d, "observations", n, 1.0)
    z = _array(d, "truth", (n,))
    _require(np.abs(np.abs(z) - 1.0).max(), "truth", "have unit-modulus entries")
    sigma = float(_array(d, "sigma", (), pairs=False))
    if sigma < 0:  # as gen_sync, with no tolerance
        raise ValueError(f"instance field 'sigma' must be >= 0, got {sigma}")
    return SyncInstance(C, z, sigma, _hermitian(d, "noise", n, 0.0))


def save_instance(instance, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(instance_to_dict(instance), f)


def load_instance(path):
    with open(path, "r", encoding="utf-8") as f:
        return instance_from_dict(json.load(f))
