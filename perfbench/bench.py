"""Worker half of the lowrankrec benchmark: one workload, in one process.

Imports lowrankrec from the checkout's ``src/`` and runs fixed
``lowrankrec bench`` command lines through ``lowrankrec.cli.main``.  Every
measurement is taken from outside the library: public functions are
replaced, through the module attributes the harness and solvers look them
up by, with wrappers that record a span (name, parent span, start, end) and
check the returned values.

* untraced (``--trace 0``): only the solve-level entry points and the few
  functions the output checks need are wrapped;
* traced (``--trace 1``): per-iteration functions (``retract``,
  ``project_modulus``, ``qr_projector``, ...) are wrapped as well, the
  spans are written to ``.bench_out/`` and reduced to per-layer metrics.

Usage (normally started by ``run.py``, which sets BLAS threads and
``PYTHONPATH``)::

    python3 perfbench/bench.py --workload pr-ap --seed 1 --seconds 10 --trace 0
    python3 perfbench/bench.py --workload pr-ap --seed 1 --setup-probe

The last stdout line is one JSON object; a setup probe prints only the
monotonic clock reading taken when the first solve starts, then exits.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from cpus import fastest_cpu

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
TAU = 1e-3            # success threshold on the relative error mod phase
ERR_RTOL = 1e-8       # reported vs recomputed error agreement
UNIT_ROW_TOL = 1e-10  # BM factor rows must be unit norm to this

SOLVE_SPANS = ("ap.solve", "bm.gd", "gpm.solve", "loo.solve", "basin.solve", "displacement.solve")


class FirstSolve(Exception):
    """Raised by a setup probe at the entry of the first solve."""


# Each workload is a list of `lowrankrec bench` command lines; the seed and
# an output path are appended, so the inputs depend on --seed only.
WORKLOADS = {
    "pr-ap": [["fig1", "--n", "40", "--mn-grid", "3,4,5,6", "--trials", "40", "--algos", "ap"]],
    "pr-bm": [["fig5", "--n", "32", "--mn-grid", "5,6", "--trials", "5",
               "--ensemble", "complex-gaussian", "--p", "1,2"],
              ["fig5", "--n", "32", "--mn-grid", "6", "--trials", "3",
               "--ensemble", "structured-frame", "--p", "2"]],
    "sync-loo": [["sync", "--n", "600", "--loo"]],
    "landscape": [["basin", "--n", "20", "--grid", "101"],
                  ["fig3", "--n", "400", "--pairs", "1000"]],
}


# Passes that wall_s and the latencies are taken from: the fewest passes a
# 20 s run of the workload makes at the seed commit, so the number of samples
# does not depend on how fast the code under test is.  A run makes at least
# this many passes and goes on until --seconds are used; the passes beyond
# these are checked but not timed.
TIMED_PASSES = {"pr-ap": 4, "pr-bm": 2, "sync-loo": 4, "landscape": 3}


def command_lines(name, seed, out_dir):
    return [["bench"] + argv + ["--seed", str(seed), "--out", str(out_dir / f"{name}-{i}.csv")]
            for i, argv in enumerate(WORKLOADS[name])]


# --- independent recomputations ---------------------------------------------

def rel_err(x, truth):
    """min over global phase of ||x e^{i theta} - truth|| / ||truth||."""
    x = np.asarray(x).ravel()
    t = np.asarray(truth).ravel()
    w = complex(np.vdot(t, x))
    # align at the optimal phase, then measure directly (no cancellation)
    aligned = x * (w.conjugate() / abs(w)) if w != 0 else x
    if not np.iscomplexobj(x) and not np.iscomplexobj(t):
        aligned = aligned.real
    return float(np.linalg.norm(aligned - t) / np.linalg.norm(t))


def finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


def phase_of(z):
    a = np.abs(z)
    return np.where(a > 0, z / np.where(a > 0, a, 1.0), 1.0)


# --- probes -------------------------------------------------------------------

class Probe:
    """Wraps module attributes; records spans, counts and failed output checks.

    A span is (parent index, name, start, end); parent -1 is the pass itself.
    Check time is accumulated separately so it can be taken out of wall time.
    """

    def __init__(self):
        self.setup_probe = True   # the first solve of a process raises FirstSolve
        self.spans = []
        self._stack = [-1]
        self._restore = []
        self.reset()

    def reset(self):
        self.spans.clear()
        self.counts = defaultdict(int)
        self.failures = []
        self.check_s = 0.0
        self.solve_index = -1

    def fail(self, what):
        self.failures.append((self.solve_index, what))

    def failed_solves(self):
        """Solves of this pass with at least one failed check."""
        return len({i for i, _ in self.failures})

    def wrap(self, name, targets, check=None):
        """Replace each (module, attribute) in targets by one recording wrapper."""
        fn = getattr(*targets[0])
        spans, stack = self.spans, self._stack
        solve = name in SOLVE_SPANS
        probe = self

        def wrapper(*args, **kwargs):
            if solve:
                if probe.setup_probe:
                    raise FirstSolve(time.monotonic())
                probe.solve_index += 1
                probe.counts["solves"] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if solve:
                    probe.fail(f"{name} raised")
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (parent, name, t0, t1)
            if check is not None:
                check(probe, args, kwargs, out)
                probe.check_s += time.perf_counter() - t1
            return out

        for mod, attr in targets:
            self._restore.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def unwrap(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


# --- output checks (run inside the wrappers, timed apart from the solves) ----

def check_ap(probe, args, kwargs, rep):
    inst, c = args[0], probe.counts
    c["ap.iterations"] += rep.iterations
    c["ap.capped"] += (not rep.converged) and rep.iterations == kwargs.get("max_iter", 2000)
    c["trials"] += 1
    if not finite(rep.estimate):
        return probe.fail("AP estimate not finite")
    err = rel_err(rep.estimate, inst.x_true)
    if abs(err - rep.rel_error_mod_phase) > ERR_RTOL * (1.0 + err):
        probe.fail(f"AP reported error {rep.rel_error_mod_phase} vs recomputed {err}")
    c["recovered"] += err < TAU


def check_gd(probe, args, kwargs, out):
    V, rep = out
    c = probe.counts
    max_iter = kwargs.get("max_iter", 20000)
    c["bm.iterations"] += rep.iterations
    capped = (not rep.converged) and rep.iterations == max_iter
    c["bm.capped"] += capped
    c["bm.stalled"] += (not rep.converged) and not capped
    if not finite(V):
        return probe.fail("BM factor not finite")
    dev = float(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0)))
    if dev > UNIT_ROW_TOL:
        probe.fail(f"BM factor rows off unit norm by {dev:.3e}")


def check_round(probe, args, kwargs, x):
    if not finite(x):
        return probe.fail("BM rounded estimate not finite")
    probe.counts["recovered"] += rel_err(x, args[0].instance.x_true) < TAU


def check_reported_err(probe, args, kwargs, err):
    if abs(err - rel_err(args[0], args[1])) > ERR_RTOL * (1.0 + err):
        probe.fail(f"rel_error_mod_phase {err} disagrees with recomputation")


def check_gpm(probe, args, kwargs, out):
    rep, _ = out
    inst, c = args[0], probe.counts
    c["gpm.iterations"] += rep.iterations
    c["trials"] += 1
    z = rep.estimate
    if not finite(z):
        return probe.fail("GPM estimate not finite")
    err = rel_err(z, inst.z_true)
    if abs(err - rep.rel_error_mod_phase) > ERR_RTOL * (1.0 + err):
        probe.fail(f"GPM reported error {rep.rel_error_mod_phase} vs recomputed {err}")
    tol = kwargs.get("tol") or 1e-10 * math.sqrt(inst.n)
    resid = float(np.linalg.norm(phase_of(inst.observations @ z) - z))
    if rep.converged:
        if resid >= tol:
            probe.fail(f"GPM reported converged with fixed-point residual {resid:.3e}")
        else:
            c["recovered"] += 1


def check_loo(probe, args, kwargs, diag):
    probe.counts["loo.iterations"] += diag.iterations
    seqs = (diag.max_dist_aux, diag.max_corr_main, diag.max_corr_aux)
    if not finite(*seqs) or any(len(s) != diag.iterations for s in seqs):
        probe.fail("leave-one-out diagnostics not finite or of unequal length")


def check_basin(probe, args, kwargs, labels):
    c = probe.counts
    c["basin.starts"] += labels.size
    c["trials"] += labels.size
    c["recovered"] += int(np.sum(labels == 0))
    if not np.any(labels == 0):
        probe.fail("basin map holds no solution label 0")


def check_displacement(probe, args, kwargs, mean):
    if not math.isfinite(mean) or mean < 0.0:
        probe.fail(f"fig3 mean displacement {mean} not finite and nonnegative")


def count_matmul(probe, args, kwargs, out):
    # _aux_matvec multiplies two n x n complex matrices: 8 n^3 flops
    probe.counts["loo.matmuls"] += 1
    probe.counts["loo.flop"] += 8 * args[0].shape[0] ** 3


def install(probe, lr, traced):
    """Wrap the solve-level entry points; with traced, every layer boundary."""
    h, pr, bm, ps, ls = (lr.harness, lr.phase_retrieval, lr.burer_monteiro,
                         lr.phase_sync, lr.landscape)
    probe.wrap("ap.solve", [(h, "alternating_projections")], check_ap)
    probe.wrap("bm.gd", [(h, "riemannian_gd")], check_gd)
    probe.wrap("bm.cost", [(h, "phasecut_cost")])  # one per BM trial, raised or not
    probe.wrap("bm.round", [(h, "round_factor")], check_round)
    probe.wrap("problems.err", [(h, "rel_error_mod_phase")], check_reported_err)
    probe.wrap("gpm.solve", [(h, "gpm")], check_gpm)
    probe.wrap("loo.solve", [(h, "loo_run")], check_loo)
    probe.wrap("basin.solve", [(h, "basin_map")], check_basin)
    probe.wrap("displacement.solve", [(h, "displacement_probe")], check_displacement)
    if not traced:
        return
    probe.wrap("harness.csv", [(h, "write_csv")])
    probe.wrap("problems.gen", [(h, "gen_phase_retrieval")])
    probe.wrap("problems.gen", [(h, "gen_sync")])
    probe.wrap("problems.err", [(pr, "rel_error_mod_phase")])
    probe.wrap("problems.err", [(ps, "dist_mod_phase"), (ls, "dist_mod_phase")])
    probe.wrap("numerics.qr", [(pr, "qr_projector"), (bm, "qr_projector"), (ls, "qr_projector")])
    probe.wrap("numerics.power", [(pr, "dominant_eigenvector"), (ps, "dominant_eigenvector")])
    probe.wrap("numerics.lstsq", [(pr, "solve_from_qr"), (ls, "solve_from_qr")])
    probe.wrap("numerics.lstsq", [(bm, "least_squares")])
    probe.wrap("ap.project_modulus", [(pr, "project_modulus")])
    probe.wrap("bm.retract", [(bm, "retract")])
    probe.wrap("bm.opnorm", [(h, "opnorm_estimate"), (bm, "opnorm_estimate")])
    # private helper, wrapped only to count the leave-one-out matrix products
    probe.wrap("loo.matmul", [(ps, "_aux_matvec")], count_matmul)


# --- one pass and its reductions ------------------------------------------------

def run_pass(cli, probe, commands):
    """Run every command line once; return wall seconds net of check time."""
    probe.reset()
    t0 = time.perf_counter()
    for argv in commands:
        if cli.main(argv) != 0:
            probe.fail(f"lowrankrec {' '.join(argv)} exited nonzero")
    return time.perf_counter() - t0 - probe.check_s


def span_table(spans):
    """name -> [calls, total seconds, self seconds]."""
    child = defaultdict(float)
    for parent, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (_, name, t0, t1) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - child[i]
    return table


def exact_counts(probe):
    """Counts that depend on the seed only: the determinism contract."""
    counts = dict(probe.counts)
    for name, (calls, _, _) in span_table(probe.spans).items():
        counts[name + ".calls"] = calls
    # a BM trial is one cost construction, whether or not it raised
    counts["trials"] = counts.get("trials", 0) + counts.get("bm.cost.calls", 0)
    counts.setdefault("recovered", 0)
    return dict(sorted(counts.items()))


def per_layer(probe, wall, untraced_wall):
    """Per-layer metrics of one traced pass of wall seconds; every `_s` is a
    span total or, where named self, the span minus its wrapped children."""
    t = span_table(probe.spans)
    c = probe.counts

    def calls(n):
        return t[n][0] if n in t else 0

    def total(n):
        return t[n][1] if n in t else 0.0

    def self_s(n):
        return t[n][2] if n in t else 0.0

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    # time outside every top-level span; checks are already out of wall
    top = sum(t1 - t0 for parent, _, t0, t1 in probe.spans if parent == -1)
    evals = calls("bm.retract") + calls("bm.gd")
    return {
        "ap.calls": calls("ap.solve"),
        "ap.self_s": self_s("ap.solve"),
        "ap.iterations": c["ap.iterations"],
        "ap.us_per_iter": ratio(self_s("ap.solve") + total("ap.project_modulus"),
                                c["ap.iterations"], 1e6),
        "ap.capped": c["ap.capped"],
        "ap.project_modulus_calls": calls("ap.project_modulus"),
        "ap.project_modulus_s": total("ap.project_modulus"),
        "bm.gd_calls": calls("bm.gd"),
        "bm.gd_self_s": self_s("bm.gd"),
        "bm.iterations": c["bm.iterations"],
        "bm.evals": evals,
        "bm.evals_per_iter": ratio(evals, c["bm.iterations"]),
        "bm.us_per_eval": ratio(self_s("bm.gd"), evals, 1e6),
        "bm.retract_s": total("bm.retract"),
        "bm.us_per_retract": ratio(total("bm.retract"), calls("bm.retract"), 1e6),
        "bm.capped": c["bm.capped"],
        "bm.stalled": c["bm.stalled"],
        "bm.cost_s": self_s("bm.cost"),
        "bm.opnorm_calls": calls("bm.opnorm"),
        "bm.opnorm_s": total("bm.opnorm"),
        "bm.round_s": self_s("bm.round"),
        "gpm.calls": calls("gpm.solve"),
        "gpm.self_s": self_s("gpm.solve"),
        "gpm.iterations": c["gpm.iterations"],
        "loo.calls": calls("loo.solve"),
        "loo.self_s": self_s("loo.solve") + total("loo.matmul"),
        "loo.iterations": c["loo.iterations"],
        "loo.matmuls": c["loo.matmuls"],
        "loo.gflop_per_s": ratio(c["loo.flop"], total("loo.solve"), 1e-9),
        "numerics.power_calls": calls("numerics.power"),
        "numerics.power_s": total("numerics.power"),
        "numerics.qr_calls": calls("numerics.qr"),
        "numerics.qr_s": total("numerics.qr"),
        "numerics.lstsq_s": total("numerics.lstsq"),
        "basin.self_s": self_s("basin.solve"),
        "basin.starts": c["basin.starts"],
        "basin.us_per_start": ratio(self_s("basin.solve"), c["basin.starts"], 1e6),
        "displacement.calls": calls("displacement.solve"),
        "displacement.self_s": self_s("displacement.solve"),
        "problems.gen_calls": calls("problems.gen"),
        "problems.gen_s": self_s("problems.gen"),
        "problems.err_s": total("problems.err"),
        "harness.self_s": wall - top,
        "harness.csv_s": total("harness.csv"),
        "trace.spans": len(probe.spans),
        "trace.wall_s": wall,
        "trace.overhead_frac": ratio(wall - untraced_wall, untraced_wall),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    return int(fn())


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def import_lowrankrec():
    """Import the checkout's own lowrankrec, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lowrankrec
    import lowrankrec.cli  # noqa: F401  (the benchmark drives `lowrankrec bench`)
    where = Path(lowrankrec.__file__).resolve().parent
    if where != (src / "lowrankrec").resolve():
        raise ImportError(f"lowrankrec imported from {where}, not from {src}")
    return lowrankrec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    lr = import_lowrankrec()
    csv_dir = OUT_DIR / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)
    commands = command_lines(args.workload, args.seed, csv_dir)
    probe = Probe()
    install(probe, lr, traced=False)
    # the first solve ends set-up: its clock reading is the set-up sample
    try:
        run_pass(lr.cli, probe, commands)
    except FirstSolve as first:
        first_solve = first.args[0]
    else:
        raise RuntimeError("workload made no solve")
    if args.setup_probe:
        print(repr(first_solve))
        return 0
    probe.setup_probe = False

    # untraced passes: the timed ones, then more until the run's time is used up
    walls, latencies, counts, attempted, failed, failures = [], [], None, 0, 0, []
    allowed = os.sched_getaffinity(0)
    timed = TIMED_PASSES[args.workload]
    start = time.perf_counter()
    while len(walls) < timed or time.perf_counter() - start < args.seconds:
        os.sched_setaffinity(0, {fastest_cpu(allowed)})
        walls.append(run_pass(lr.cli, probe, commands))
        latencies.append([t1 - t0 for _, n, t0, t1 in probe.spans if n in SOLVE_SPANS])
        attempted += probe.counts["solves"]
        failed += probe.failed_solves()
        failures += probe.failures
        if counts is None:
            counts = exact_counts(probe)
        elif exact_counts(probe) != counts:
            failed += 1
            failures.append((-1, "counts differ between passes of one seed"))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls),
        "timed_passes": timed,
        "pass_wall_s": walls,
        "solve_latencies_s": latencies,
        "trials": counts["trials"],
        "recovery_rate": counts["recovered"] / counts["trials"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
    }

    if args.trace:
        probe.unwrap()
        install(probe, lr, traced=True)
        os.sched_setaffinity(0, {fastest_cpu(allowed)})
        wall = run_pass(lr.cli, probe, commands)
        attempted += probe.counts["solves"]
        failed += probe.failed_solves()
        failures += probe.failures
        traced = exact_counts(probe)
        # span call counts differ by design: the traced pass wraps more
        checked = {k: v for k, v in counts.items() if not k.endswith(".calls")}
        if any(traced.get(k) != v for k, v in checked.items()):
            failed += 1
            failures.append((-1, "traced pass counts differ from untraced ones"))
        result["traced_counts"] = traced
        result["per_layer"] = per_layer(probe, wall, min(walls[:timed]))
        write_spans(probe.spans, OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv")
    probe.unwrap()

    result.update({
        "attempted": attempted,
        "failed": failed,
        "failures": [what for _, what in failures][:20],
        "env": environment(),
    })
    print(json.dumps(result))
    return 0


def write_spans(spans, path):
    """Write spans as CSV rows: id, parent id, name, start s, end s."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("id,parent,name,start_s,end_s\n")
        base = spans[0][2] if spans else 0.0
        for i, (parent, name, t0, t1) in enumerate(spans):
            f.write(f"{i},{parent},{name},{t0 - base:.9f},{t1 - base:.9f}\n")


if __name__ == "__main__":
    sys.exit(main())
