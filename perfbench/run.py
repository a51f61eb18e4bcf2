"""lowrankrec benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload pr-ap --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and uses the checkout's ``src/``; nothing
is installed.  Every child process gets the same BLAS thread count
(``BLAS_THREADS``), so two commits are measured under identical settings,
and each measured process or pass runs pinned to the least disturbed CPU.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fastest of
several fresh processes, start to first solve), ``wall_s`` (undisturbed pass),
``solve_s.p50``/``solve_s.p90``, ``recovery_rate``, ``peak_rss_mb`` and
``failed_frac``.  ``--trace 1`` prints the per-layer metrics of one traced
pass instead, with its overhead against the untraced passes of the same run.
The JSON result carries the metrics ``BENCHMARK.json`` lists; README.md
defines each one.

Human-readable lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The full record (counts,
environment, git SHA when available) is written to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cpus import fastest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = 1      # <= nproc; see README.md for why one thread
SETUP_PROBES = 15     # fresh processes timed from start to the first solve
BUDGET_S = 170.0      # the whole run, child processes included


def child_env():
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0")
    return env


def run_child(args, deadline, cpu=None):
    """Run bench.py with args, pinned to cpu if given; return (start monotonic,
    last stdout line)."""
    cmd = [sys.executable, str(HERE / "bench.py")] + args
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - start, 1.0), preexec_fn=pin)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return start, proc.stdout.strip().splitlines()[-1]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(opts):
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    setups = []
    if not opts.trace:
        for _ in range(SETUP_PROBES):
            cpu = fastest_cpu(os.sched_getaffinity(0))
            start, line = run_child(base + ["--setup-probe"], deadline, cpu)
            setups.append(float(line) - start)
    # the measuring process picks its own CPU before each pass
    _, line = run_child(base + ["--seconds", str(opts.seconds),
                                "--trace", str(opts.trace)], deadline)
    rec = json.loads(line)
    # only the first timed_passes passes are timed, whatever the code's speed
    timed = rec["timed_passes"]
    walls = rec["pass_wall_s"][:timed]
    per_pass = rec["solve_latencies_s"][:timed]
    latencies = [t for one_pass in per_pass for t in one_pass]
    # Every pass repeats the same solves on the same inputs.  Each solve and
    # the time between solves count at their fastest across the timed passes,
    # which removes short bursts of host contention (see README.md).
    fastest = [min(times) for times in zip(*per_pass)]
    between = min(w - sum(one_pass) for w, one_pass in zip(walls, per_pass))
    rec.update({
        "setup_samples_s": setups,
        # the fastest probe: host slow spells only ever add to a probe's time
        "setup_s": min(setups) if setups else None,
        "solve_fastest_s": fastest,
        "wall_s": sum(fastest) + between,
        "wall_s.fastest_pass": min(walls),
        "wall_s.median_pass": statistics.median(walls),
        "solve_samples": len(latencies),
        "solve_s.p50": statistics.median(latencies),
        # a 90th percentile needs ten samples beyond it
        "solve_s.p90": (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                        if len(latencies) >= 100 else None),
        "failed_frac": rec["failed"] / rec["attempted"],
    })
    rec["env"].update(git_sha=git_sha(), blas_threads_set=BLAS_THREADS)
    spec = load_spec()
    if opts.trace:
        metrics = {m["name"]: {"value": rec["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": rec[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    rec["result"] = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                     "failed": rec["failed"], "metrics": metrics}
    return rec


def report(rec):
    """Human-readable summary; the JSON result line follows it."""
    env = rec["env"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  passes {rec['passes']} "
          f"(timed {rec['timed_passes']})  "
          f"git {env['git_sha']}  python {env['python']}  numpy {env['numpy']}  "
          f"{env['blas']}  blas_threads {env['blas_threads']} (set {env['blas_threads_set']})  "
          f"nproc {env['nproc']}")
    print(f"  failed_frac                  {rec['failed_frac']:.6g}  "
          f"({rec['failed']} of {rec['attempted']} solves)")
    for what in rec["failures"]:
        print(f"    failed: {what}")
    if "per_layer" not in rec:
        for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("wall_s.fastest_pass", "s"),
                           ("wall_s.median_pass", "s"),
                           ("solve_s.p50", "s"), ("solve_s.p90", "s"),
                           ("recovery_rate", "fraction"), ("peak_rss_mb", "MB")):
            value = "n/a" if rec[name] is None else f"{rec[name]:.6g} {unit}"
            print(f"  {name:28s} {value}")
        print(f"  (solve_s.p50/p90 over {rec['solve_samples']} solve samples, p90 from 100; "
              f"recovery_rate over {rec['trials']} trials)")
    else:
        for name, m in rec["result"]["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print("counts " + json.dumps(rec.get("traced_counts", rec["counts"]), sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description="lowrankrec benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in load_spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not (ROOT / "src" / "lowrankrec" / "__init__.py").is_file():
        print(f"no lowrankrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rec = measure(opts)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    report(rec)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
