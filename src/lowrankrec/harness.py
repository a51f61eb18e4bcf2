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
from dataclasses import dataclass

import numpy as np

# opnorm_estimate is unused here but stays importable: perfbench/bench.py
# wraps harness.opnorm_estimate by name in its traced runs
from .burer_monteiro import (opnorm_estimate, phasecut_cost, reference_rank,  # noqa: F401
                             reference_sdp_solve, riemannian_gd, round_factor)
from .errors import RankDeficient
from .landscape import basin_map, displacement_probe
from .numerics import RngStream, sample_gaussian
from .phase_retrieval import alternating_projections
from .phase_sync import gpm, loo_run
from .problems import gen_phase_retrieval, gen_sync, rel_error_mod_phase

FIG1_MN_GRID = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5)
FIG3_D_GRID = (0.0025, 0.01, 0.025, 0.05, 0.075, 0.1)
FIG5_MN_GRID = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
SYNC_SIGMA_GRID = (0.0, 0.1, 0.2, 0.3, 0.5)

# experiment tags for stream splitting
_TAG_FIG1, _TAG_BASIN, _TAG_FIG3, _TAG_SYNC, _TAG_FIG5 = 1, 2, 3, 4, 5

# CSV header of the fig1 and fig5 success curves
SUCCESS_HEADER = ("algorithm", "n", "m", "trials", "successes", "success_rate", "seed")


@dataclass
class ExperimentConfig:
    """Fully determines a benchmark run: identical config => identical CSV bytes."""

    experiment: str
    seed: int = 0
    n: int | None = None
    m: int | None = None            # fig3 and basin only
    mn_grid: tuple = ()
    sigma_grid: tuple = ()          # fractions of sqrt(n / log n)
    d_grid: tuple = ()
    trials: int = 0
    algos: tuple = ()
    p_values: tuple = ()            # ints or "ref"
    ensembles: tuple = ()
    tau: float = 1e-3
    pairs: int = 1000
    grid: int = 101
    half_width: float | None = None
    max_iter: int | None = None
    loo: bool = False
    out: str | None = None


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


def _ap_trial(n, m, kind, rng, tau, max_iter):
    inst = gen_phase_retrieval(n, m, kind, rng.split(0))
    rep = alternating_projections(inst, rng.split(1), max_iter=max_iter)
    return rep.rel_error_mod_phase < tau


def _phasecut_reference_trial(n, m, kind, rng, tau):
    inst = gen_phase_retrieval(n, m, kind, rng.split(0))
    try:
        prob = phasecut_cost(inst)
        _, vbest = reference_sdp_solve(prob, rng.split(1))
        x = round_factor(prob, vbest)
    except RankDeficient:
        return False
    return rel_error_mod_phase(x, inst.x_true, inst.field) < tau


def run_fig1(config):
    """Phase retrieval success curve over m/n at fixed n (default 40).

    Returns rows (algorithm, n, m, trials, successes, success_rate, seed).
    """
    n = config.n or 40
    grid = config.mn_grid or FIG1_MN_GRID
    trials = config.trials or 200
    algos = config.algos or ("ap",)
    max_iter = config.max_iter or 2000
    rows = []
    for algo in algos:
        for gi, ratio in enumerate(grid):
            m = int(round(ratio * n))
            succ = 0
            for ti in range(trials):
                rng = RngStream(config.seed, (_TAG_FIG1, gi, ti))
                if algo == "ap":
                    ok = _ap_trial(n, m, "complex-gaussian", rng, config.tau, max_iter)
                elif algo == "phasecut":
                    ok = _phasecut_reference_trial(n, m, "complex-gaussian", rng, config.tau)
                else:
                    raise ValueError(f"unknown fig1 algorithm {algo!r}")
                succ += bool(ok)
            rows.append((algo, n, m, trials, succ, succ / trials, config.seed))
    if config.out:
        write_csv(config.out, SUCCESS_HEADER, rows)
    return rows


def run_fig3(config):
    """One-step displacement means for AP and WF on a real Gaussian instance."""
    n = config.n or 400
    m = config.m if config.m is not None else 10 * n
    d_grid = config.d_grid or FIG3_D_GRID
    pairs = config.pairs
    algos = config.algos or ("AP", "WF")
    inst = gen_phase_retrieval(n, m, "real-gaussian", RngStream(config.seed, (_TAG_FIG3, 0)))
    rows = []
    for ai, algo in enumerate(algos):
        for di, d in enumerate(d_grid):
            rng = RngStream(config.seed, (_TAG_FIG3, 1 + ai, di))
            mean = displacement_probe(algo, inst, d, pairs, rng)
            rows.append((algo, d, mean, pairs, config.seed))
    if config.out:
        write_csv(config.out, ("algorithm", "d", "mean_displacement", "pairs", "seed"), rows)
    return rows


def _bm_trial(inst, p, rng, tau, max_iter):
    try:
        prob = phasecut_cost(inst)
        # the solver's own stop test: a converged factor rounds to the
        # signal's accuracy, far below tau, whenever it reached the optimum
        V, _ = riemannian_gd(prob, p, rng, max_iter=max_iter)
        x = round_factor(prob, V)
    except RankDeficient:
        return False
    return rel_error_mod_phase(x, inst.x_true, inst.field) < tau


def run_fig5(config):
    """Burer-Monteiro phase retrieval success curves per (ensemble, factor width).

    Returns rows in the fig1 layout, one per (ensemble, width, m/n).
    """
    n = config.n or 32
    grid = config.mn_grid or FIG5_MN_GRID
    trials = config.trials or 20
    kinds = config.ensembles or ("complex-gaussian", "structured-frame")
    p_values = config.p_values or (1, 2, "ref")
    max_iter = config.max_iter or 6000
    rows = []
    for ki, kind in enumerate(kinds):
        for pi, p in enumerate(p_values):
            for gi, ratio in enumerate(grid):
                m = int(round(ratio * n))
                label = f"bm-p{p}/{kind}"
                if m == 0:
                    # no measurements: recovery impossible, nothing to run
                    rows.append((label, n, m, trials, 0, 0.0, config.seed))
                    continue
                p_eff = reference_rank(m) if p == "ref" else int(p)
                succ = 0
                for ti in range(trials):
                    rng = RngStream(config.seed, (_TAG_FIG5, ki, gi, ti))
                    inst = gen_phase_retrieval(n, m, kind, rng.split(0))
                    ok = _bm_trial(inst, p_eff, rng.split(1 + pi), config.tau, max_iter)
                    succ += bool(ok)
                rows.append((label, n, m, trials, succ, succ / trials, config.seed))
    if config.out:
        write_csv(config.out, SUCCESS_HEADER, rows)
    return rows


def run_basin(config):
    """Attraction-basin label grid of alternating projections (real field)."""
    n = config.n or 20
    m = config.m if config.m is not None else 20 * n
    rng = RngStream(config.seed, (_TAG_BASIN,))
    inst = gen_phase_retrieval(n, m, "real-gaussian", rng.split(0))
    x = inst.x_true
    # orthonormal in-plane directions, deterministic from the stream
    g1 = sample_gaussian(rng.split(1), n, "real")
    g2 = sample_gaussian(rng.split(2), n, "real")
    d1 = g1 / np.linalg.norm(g1)
    d2 = g2 - (d1 @ g2) * d1
    d2 /= np.linalg.norm(d2)
    # wide enough that competitor basins show up next to the solution's
    hw = config.half_width if config.half_width is not None else 6.0 * float(np.linalg.norm(x))
    labels = basin_map(inst, x, (d1, d2), hw, config.grid,
                       max_iter=config.max_iter or 2000)
    rows = [(i, j, int(labels[i, j]))
            for i in range(labels.shape[0]) for j in range(labels.shape[1])]
    if config.out:
        write_csv(config.out, ("row", "col", "label"), rows)
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


def run_sync(config):
    """GPM convergence summary per noise level, optional leave-one-out dumps.

    Noise levels are given as fractions of sqrt(n / log n).
    """
    n = 200 if config.n is None else config.n
    if n < 2:
        raise ValueError(f"sync needs n >= 2, got {n}")
    fracs = config.sigma_grid or SYNC_SIGMA_GRID
    max_iter = config.max_iter or 1000
    scale = math.sqrt(n / math.log(n))
    tol = 1e-10 * math.sqrt(n)
    rows = []
    loo_tables = []
    for si, frac in enumerate(fracs):
        sigma = frac * scale
        rng = RngStream(config.seed, (_TAG_SYNC, si))
        inst = gen_sync(n, sigma, rng)
        report, history = gpm(inst, max_iter=max_iter, tol=tol)
        rho, r2 = fit_geometric_rate(report.residual_trace, floor=10 * tol)
        rows.append((frac, sigma, n, report.iterations, report.converged,
                     report.rel_error_mod_phase, rho, r2, config.seed))
        if config.loo:
            diag = loo_run(inst, history)
            loo_tables.append((si, diag))
    if config.out:
        write_csv(config.out,
                  ("sigma_frac", "sigma", "n", "iterations", "converged",
                   "rel_error", "rho_fit", "r2_fit", "seed"),
                  rows)
        for si, diag in loo_tables:
            write_csv(f"{config.out}.loo{si}.csv",
                      ("t", "max_dist_aux", "max_corr_main", "max_corr_aux"),
                      list(diag.rows()))
    return rows, loo_tables


RUNNERS = {
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "basin": run_basin,
    "sync": run_sync,
}
