"""Experiment orchestration: success curves, displacement curves, basin maps
and synchronization diagnostics, all emitted as deterministic CSV.

Per-trial random streams are split from (seed, experiment tag, grid index,
trial index), so trials are independent and the output bytes depend only on
the configuration.  Rows are emitted in grid/trial order, never in completion
order, which keeps reruns byte-identical.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# opnorm_estimate is unused here but stays importable: perfbench/bench.py
# wraps harness.opnorm_estimate by name in its traced runs
from .burer_monteiro import (opnorm_estimate, phasecut_cost, reference_rank,  # noqa: F401
                             riemannian_gd, round_factor)
from .errors import RankDeficient
from .landscape import basin_map, displacement_probe
from .numerics import RngStream, sample_gaussian
from .phase_retrieval import alternating_projections
from .phase_sync import gpm, loo_run
from .problems import ENSEMBLE_KINDS, gen_phase_retrieval, gen_sync, haar_frame, rel_error_mod_phase

# experiment tags for stream splitting
_TAG_FIG1, _TAG_BASIN, _TAG_FIG3, _TAG_SYNC, _TAG_FIG5 = 1, 2, 3, 4, 5

# CSV header of the fig1 and fig5 success curves
SUCCESS_HEADER = ("algorithm", "n", "m", "trials", "successes", "success_rate", "seed")

# the `bench` flags not spelled --<parameter name with dashes>
_FLAGS = {"sigma_grid": "--sigma", "p_values": "--p", "ensembles": "--ensemble"}


def _flag(name):
    return _FLAGS.get(name, "--" + name.replace("_", "-"))


def _check_counts(**counts):
    """Reject a count below 1, or a tau or half_width not finite and above 0, naming its flag.

    A tuple is checked entry by entry; None (a derived default) and "ref" pass.
    """
    for name, value in counts.items():
        real = name in ("tau", "half_width")
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if v is not None and v != "ref" and not (0 < v < math.inf if real else v >= 1):
                need = "> 0 and finite" if real else ">= 1"
                raise ValueError(f"{_flag(name)} must be {need}, got {v}")


def _check_values(name, values, ok, need, key=lambda v: v):
    """Reject the first entry failing ok or repeating an earlier entry's key, naming its flag.

    Each entry draws its own streams, so a repeat would write conflicting rows.
    """
    seen = set()
    for v in values:
        if not ok(v):
            raise ValueError(f"{_flag(name)}: {need}, got {v!r}")
        if key(v) in seen:
            raise ValueError(f"{_flag(name)}: repeats {key(v)} of an earlier entry, got {v!r}")
        seen.add(key(v))


def _check_names(name, values, allowed):
    _check_values(name, values, allowed.__contains__, f"unknown name, expected one of {allowed}")


def _check_ratios(mn_grid, n):
    _check_values("mn_grid", mn_grid, lambda r: 0.0 <= r < math.inf, "m/n must be finite and >= 0",
                  key=lambda r: f"m = {round(r * n)}")


def _check_sampled(what, m, n):
    """m < n leaves the range projection rank deficient: a configuration error."""
    if m < n:
        raise ValueError(f"{what} needs m >= n measurements, got m={m}, n={n}")


def _check_min_n(what, n):
    """n = 1 has no relative phase to synchronize and no direction tangent to the signal."""
    if n < 2:
        raise ValueError(f"{what} needs n >= 2, got {n}")


def _fmt(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _success_rows(label, path, kind, n, mn_grid, trials, seed, trial):
    """Rows of one success curve: trial(inst, rng) scores a trial, a rank-deficient B fails it.

    Trial ti of grid point gi draws on RngStream(seed, path + (gi, ti)), its instance on split(0).
    """
    rows = []
    for gi, ratio in enumerate(mn_grid):
        m = int(round(ratio * n))
        succ = 0
        for ti in range(trials if m else 0):  # m = 0: no recovery, nothing to run
            rng = RngStream(seed, path + (gi, ti))
            inst = gen_phase_retrieval(n, m, kind, rng.split(0))
            try:
                succ += bool(trial(inst, rng))
            except RankDeficient:
                pass
        rows.append((label, n, m, trials, succ, succ / trials, seed))
    return rows


def _ap_trial(inst, rng, tau, max_iter):
    return alternating_projections(inst, rng, max_iter=max_iter).rel_error_mod_phase < tau


def _bm_trial(inst, p, rng, tau, max_iter):
    """Solve inst's PhaseCut cost at width p from rng, round the factor and score it.

    The solver's own stop test suffices: a converged factor rounds to the
    signal's accuracy, far below tau, whenever it reached the optimum.
    """
    prob = phasecut_cost(inst)
    V = riemannian_gd(prob, p, rng, max_iter=max_iter)[0]
    return rel_error_mod_phase(round_factor(prob, V), inst.x_true) < tau


def run_fig1(*, seed=0, n=40, mn_grid=(2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5),
             trials=200, algos=("ap",), tau=1e-3, max_iter=2000, out=None):
    """Phase retrieval success curve over m/n at fixed n.

    Returns rows (algorithm, n, m, trials, successes, success_rate, seed).
    """
    _check_counts(n=n, trials=trials, tau=tau, max_iter=max_iter)
    _check_names("algos", algos, ("ap", "phasecut"))
    _check_ratios(mn_grid, n)
    if "phasecut" in algos:
        _check_values("mn_grid", mn_grid,
                      lambda r: not (m := round(r * n)) or reference_rank(m) <= m,
                      "phasecut's reference width ceil(sqrt(2m)) + 1 must be <= m")
    trial = {"ap": lambda inst, rng: _ap_trial(inst, rng.split(1), tau, max_iter),
             "phasecut": lambda inst, rng: _bm_trial(
                 inst, reference_rank(inst.m), rng.split(1, 0), tau, max_iter)}
    rows = [row for algo in algos for row in _success_rows(
        algo, (_TAG_FIG1,), "complex-gaussian", n, mn_grid, trials, seed, trial[algo])]
    if out:
        write_csv(out, SUCCESS_HEADER, rows)
    return rows


def run_fig3(*, seed=0, n=400, m=None, d_grid=(0.0025, 0.01, 0.025, 0.05, 0.075, 0.1),
             pairs=1000, algos=("AP", "WF"), out=None):
    """One-step displacement means for AP and WF on a real Gaussian instance.

    m defaults to 10n.
    """
    _check_counts(n=n, m=m, pairs=pairs)
    _check_min_n("fig3", n)
    _check_names("algos", algos, ("AP", "WF"))
    _check_values("d_grid", d_grid, lambda d: 0.0 < d < 2.0, "d must lie in (0, 2)")
    m = 10 * n if m is None else m
    _check_sampled("fig3", m, n)
    inst = gen_phase_retrieval(n, m, "real-gaussian", RngStream(seed, (_TAG_FIG3, 0)))
    rows = []
    for ai, algo in enumerate(algos):
        for di, d in enumerate(d_grid):
            rng = RngStream(seed, (_TAG_FIG3, 1 + ai, di))
            mean = displacement_probe(algo, inst, d, pairs, rng)
            rows.append((algo, d, mean, pairs, seed))
    if out:
        write_csv(out, ("algorithm", "d", "mean_displacement", "pairs", "seed"), rows)
    return rows


def _width(p, m):
    return reference_rank(m) if p == "ref" else int(p)


def run_fig5(*, seed=0, n=32, mn_grid=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), trials=20,
             ensembles=("complex-gaussian", "structured-frame"), p_values=(1, 2, "ref"),
             tau=1e-3, max_iter=6000, out=None):
    """Burer-Monteiro phase retrieval success curves per (ensemble, factor width).

    Returns rows in the fig1 layout, one per (ensemble, width, m/n).
    """
    _check_counts(n=n, trials=trials, p_values=p_values, tau=tau, max_iter=max_iter)
    _check_names("ensembles", ensembles, ENSEMBLE_KINDS)
    _check_ratios(mn_grid, n)
    if "structured-frame" in ensembles:
        haar_frame(n, 0)  # raises InvalidDimension unless n is a power of two
    # m = 0 runs nothing; a width fitting the smallest other m fits every m
    m = min({round(r * n) for r in mn_grid} - {0}, default=math.inf)
    _check_values("p_values", p_values, lambda p: m == math.inf or _width(p, m) <= m,
                  f"factor width must be <= m = {m}")

    def bm(p, pi):
        return lambda inst, rng: _bm_trial(inst, _width(p, inst.m), rng.split(1 + pi), tau,
                                           max_iter)

    rows = [row for ki, kind in enumerate(ensembles) for pi, p in enumerate(p_values)
            for row in _success_rows(f"bm-p{p}/{kind}", (_TAG_FIG5, ki), kind, n, mn_grid,
                                     trials, seed, bm(p, pi))]
    if out:
        write_csv(out, SUCCESS_HEADER, rows)
    return rows


def run_basin(*, seed=0, n=20, m=None, grid=101, half_width=None, max_iter=2000, out=None):
    """Attraction-basin label grid of alternating projections (real field).

    m defaults to 20n and half_width to 6 ||x||.
    """
    _check_counts(n=n, m=m, grid=grid, half_width=half_width, max_iter=max_iter)
    _check_min_n("basin", n)
    m = 20 * n if m is None else m
    _check_sampled("basin", m, n)
    rng = RngStream(seed, (_TAG_BASIN,))
    inst = gen_phase_retrieval(n, m, "real-gaussian", rng.split(0))
    # orthonormal in-plane directions, deterministic from the stream
    g1 = sample_gaussian(rng.split(1), n, "real")
    g2 = sample_gaussian(rng.split(2), n, "real")
    d1 = g1 / np.linalg.norm(g1)
    d2 = g2 - (d1 @ g2) * d1
    d2 /= np.linalg.norm(d2)
    # wide enough that competitor basins show up next to the solution's
    hw = 6.0 * float(np.linalg.norm(inst.x_true)) if half_width is None else half_width
    labels = basin_map(inst, (d1, d2), hw, grid, max_iter=max_iter)
    rows = [(i, j, int(labels[i, j]))
            for i in range(labels.shape[0]) for j in range(labels.shape[1])]
    if out:
        write_csv(out, ("row", "col", "label"), rows)
    return labels


def fit_geometric_rate(residuals, floor):
    """Least-squares fit of log residual vs iteration, ignoring the floor.

    Returns (rho, r2) for the model r_t ~ C rho^t, or (nan, nan) when fewer
    than three usable points remain.
    """
    r = np.asarray(residuals, dtype=float)
    t = np.arange(len(r))
    keep = (r > floor) & (t >= 1)
    if keep.sum() < 3:
        return float("nan"), float("nan")
    tt = t[keep]
    y = np.log(r[keep])
    slope, intercept = np.polyfit(tt, y, 1)
    fit = slope * tt + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), r2


def run_sync(*, seed=0, n=200, sigma_grid=(0.0, 0.1, 0.2, 0.3, 0.5), max_iter=1000,
             loo=False, out=None):
    """GPM convergence summary per noise level, optional leave-one-out dumps.

    Noise levels are given as fractions of sqrt(n / log n).
    """
    _check_counts(n=n, max_iter=max_iter)
    _check_min_n("sync", n)
    _check_values("sigma_grid", sigma_grid, math.isfinite, "sigma must be finite")
    _check_values("sigma_grid", sigma_grid, lambda s: s >= 0.0, "sigma must be >= 0")
    scale = math.sqrt(n / math.log(n))
    tol = 1e-10 * math.sqrt(n)
    rows = []
    loo_tables = []
    for si, frac in enumerate(sigma_grid):
        sigma = frac * scale
        rng = RngStream(seed, (_TAG_SYNC, si))
        inst = gen_sync(n, sigma, rng)
        report, history = gpm(inst, max_iter=max_iter, tol=tol)
        rho, r2 = fit_geometric_rate(report.residual_trace, floor=10 * tol)
        rows.append((frac, sigma, n, report.iterations, report.converged,
                     report.rel_error_mod_phase, rho, r2, seed))
        if loo:
            loo_tables.append((si, loo_run(inst, history)))
        del inst, history  # one instance alive at a time
    if out:
        write_csv(out,
                  ("sigma_frac", "sigma", "n", "iterations", "converged",
                   "rel_error", "rho_fit", "r2_fit", "seed"),
                  rows)
        for si, diag in loo_tables:
            write_csv(f"{out}.loo{si}.csv",
                      ("t", "max_dist_aux", "max_corr_main", "max_corr_aux"),
                      zip(range(1, diag.iterations + 1), diag.max_dist_aux,
                          diag.max_corr_main, diag.max_corr_aux))
    return rows, loo_tables


RUNNERS = {
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "basin": run_basin,
    "sync": run_sync,
}
