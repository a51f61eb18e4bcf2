"""Compare the outputs of two lowrankrec source trees, byte for byte.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Runs the fixed list of `lowrankrec` command lines of command_lines() on each
tree: every line in a fresh process, with PYTHONPATH set to that tree and
OPENBLAS_NUM_THREADS=1, writing into a directory of its own per tree.  Then
compares every file the two runs wrote, prints `same` or `DIFF` per file,
shows the first differing rows of each differing file, and exits 1 on any
difference or failed command.

The list holds the perfbench command lines at seed 101 (taken from
perfbench/bench.py, which is only imported), the fig5 configurations of
acceptance criterion 2 and the reruns of criterion 10, small fig1/fig5 grids
that reach m = 0, m < n, the reference width and the real field, fig5 `ref`
at n = 32 on the complex, structured and real ensembles and fig1 `phasecut`
at n = 40 (reference widths where Levenberg-Marquardt solves its m x m
system), fig1 AP trials capped at 37 steps, inside a block of alternating
projections' stop test, fig3 and basin lines whose blocks of measurement
entries end in a partial block, fig3 at m = n + 1 (a nearly square B, where
alternating projections' solve with B^T B squares its conditioning), basin at
m = n + 1 (where lifting the limits' coefficients through R is worst
conditioned; the map has 10 clusters), and `gen` files with `solve` runs on
each of them.
Some solves run once more with a `--max-iter` cap, 54 outputs in all.  On
each phase retrieval file `solve ap` takes `--max-iter 37`, a cap inside a
block of the stop test; the complex and structured runs reach it, the
real-field run converges at step 11.  `solve bm --max-iter 3` on the complex
file ends at Levenberg-Marquardt's cap, and on the sync file
`solve gpm --max-iter 3` and `solve bm --max-iter 5` end at the caps of the
power method and of Riemannian gradient descent.
"""

from __future__ import annotations

import filecmp
import importlib.util
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN_ROWS = 3  # differing rows printed per differing file

BENCH = [
    # acceptance criterion 2
    ["fig5", "--n", "32", "--mn-grid", "4,5,6,7,8", "--trials", "20", "--p", "1,2",
     "--ensemble", "complex-gaussian", "--seed", "0"],
    ["fig5", "--n", "32", "--mn-grid", "5,6,7,8", "--trials", "20", "--p", "1,2",
     "--ensemble", "structured-frame", "--seed", "0"],
    # acceptance criterion 10
    ["fig1", "--n", "16", "--mn-grid", "3,5", "--trials", "5", "--seed", "1"],
    ["fig3", "--n", "40", "--d-grid", "0.01,0.1", "--pairs", "25", "--m", "400", "--seed", "1"],
    ["fig5", "--n", "8", "--mn-grid", "3", "--trials", "3", "--p", "1,2",
     "--ensemble", "complex-gaussian", "--max-iter", "2000", "--seed", "1"],
    ["basin", "--n", "8", "--grid", "7", "--m", "80", "--max-iter", "300", "--seed", "1"],
    ["sync", "--n", "40", "--sigma", "0,0.2", "--loo", "--seed", "1"],
    # m = 0, m < n, the reference width and the real field
    ["fig5", "--n", "8", "--mn-grid", "0,0.5,3", "--p", "1,2,ref", "--trials", "2"],
    ["fig1", "--n", "8", "--mn-grid", "0,0.5,3", "--trials", "2", "--algos", "ap,phasecut"],
    ["fig1", "--n", "16", "--mn-grid", "3,5", "--trials", "3", "--algos", "phasecut"],
    ["fig5", "--n", "8", "--mn-grid", "3,6", "--trials", "5", "--p", "1,2",
     "--ensemble", "real-gaussian,complex-gaussian"],
    # the reference width at the acceptance sizes, where LM takes the m x m step
    ["fig5", "--n", "32", "--mn-grid", "4,8", "--p", "ref", "--trials", "2",
     "--ensemble", "complex-gaussian"],
    ["fig5", "--n", "32", "--mn-grid", "4,8", "--p", "ref", "--trials", "2",
     "--ensemble", "structured-frame"],
    ["fig5", "--n", "32", "--mn-grid", "4,8", "--p", "ref", "--trials", "2",
     "--ensemble", "real-gaussian"],
    ["fig1", "--n", "40", "--mn-grid", "4", "--trials", "2", "--algos", "phasecut"],
    # AP trials capped at a step count inside a block of ap_iterate's stop test
    ["fig1", "--n", "40", "--mn-grid", "2.5", "--trials", "4", "--max-iter", "37"],
    # the landscape probes' blocks: fig3 in row blocks of 262, 262, 262 and 214,
    # basin in chunks of 655 and 306 starts
    ["fig3", "--n", "20", "--m", "1000", "--pairs", "1000", "--d-grid", "0.01,0.1", "--seed", "1"],
    ["basin", "--n", "20", "--grid", "31", "--seed", "1"],
    # fig3 at m = n + 1: AP's solve with the Gram matrix B^T B at a nearly square B
    ["fig3", "--n", "20", "--m", "21", "--pairs", "100", "--d-grid", "0.01,0.1", "--seed", "1"],
    # basin at m = n + 1: the lift of the AP coefficients through R is worst conditioned
    ["basin", "--n", "8", "--m", "9", "--grid", "7", "--max-iter", "300", "--seed", "1"],
]

# instance files: name -> `gen` arguments, the solvers run on each, and the
# (solver, --max-iter) pairs run once more with that cap
GEN = {
    "complex-gaussian": (["pr", "--n", "16", "--m", "96", "--seed", "7"], ("ap", "wf", "bm"),
                         (("ap", 37), ("bm", 3))),
    "real-gaussian": (["pr", "--n", "16", "--m", "96", "--ensemble", "real-gaussian",
                       "--seed", "7"], ("ap", "wf", "bm"), (("ap", 37),)),
    "structured-frame": (["pr", "--n", "16", "--m", "96", "--ensemble", "structured-frame",
                          "--seed", "7"], ("ap", "wf", "bm"), (("ap", 37),)),
    "sync": (["sync", "--n", "30", "--sigma", "0.5", "--seed", "7"], ("gpm", "bm"),
             (("gpm", 3), ("bm", 5))),
}


def perfbench_lines(out_dir):
    """perfbench's command lines at seed 101, every workload, from its bench.py."""
    path = ROOT / "perfbench"
    sys.path.insert(0, str(path))  # bench.py imports its sibling cpus.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_bench", path / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(path))
    return [argv for name in bench.WORKLOADS for argv in bench.command_lines(name, 101, out_dir)]


def command_lines(out_dir):
    """Every compared command line, in run order, writing under out_dir."""
    out_dir = Path(out_dir)
    lines = perfbench_lines(out_dir)
    lines += [["bench"] + argv + ["--out", str(out_dir / f"bench-{i}.csv")]
              for i, argv in enumerate(BENCH)]
    for name, (argv, solvers, capped) in GEN.items():
        inst = str(out_dir / f"{name}.json")
        lines.append(["gen"] + argv + ["--out", inst])
        lines += [["solve", solver, "--in", inst, "--out", str(out_dir / f"{solver}-{name}.json")]
                  for solver in solvers]
        lines += [["solve", solver, "--in", inst, "--max-iter", str(cap),
                   "--out", str(out_dir / f"{solver}-capped-{name}.json")]
                  for solver, cap in capped]
    return lines


def run_tree(src, out_dir, lines):
    """Run the command lines on the tree at src, in out_dir; return the failed ones."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OPENBLAS_NUM_THREADS="1")
    failed = []
    for argv in lines:
        proc = subprocess.run([sys.executable, "-m", "lowrankrec.cli"] + argv, env=env,
                              cwd=out_dir, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(f"{src}: exit {proc.returncode}: {' '.join(argv)}\n{proc.stderr}")
    return failed


def first_differences(a, b):
    """The first SHOWN_ROWS rows at which the text files a and b differ, as (row, a, b)."""
    rows_a = a.read_text(encoding="utf-8").splitlines()
    rows_b = b.read_text(encoding="utf-8").splitlines()
    diffs = []
    for i in range(max(len(rows_a), len(rows_b))):
        ra = rows_a[i] if i < len(rows_a) else "<missing>"
        rb = rows_b[i] if i < len(rows_b) else "<missing>"
        if ra != rb:
            diffs.append((i + 1, ra, rb))
            if len(diffs) == SHOWN_ROWS:
                break
    return diffs


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for d in dirs:
            d.mkdir()
        lines = [command_lines(d) for d in dirs]
        # the two trees run side by side, each one command line at a time
        with ThreadPoolExecutor(2) as pool:
            failed = [f for fs in pool.map(run_tree, args, dirs, lines) for f in fs]
        for f in failed:
            print(f"FAIL  {f}")
        names = sorted({p.name for d in dirs for p in d.iterdir()})
        differ = 0
        for name in names:
            a, b = (d / name for d in dirs)
            if a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False):
                print(f"same  {name}")
                continue
            differ += 1
            print(f"DIFF  {name}")
            if not (a.exists() and b.exists()):
                print("      written by one tree only")
                continue
            for row, ra, rb in first_differences(a, b):
                print(f"      row {row}\n        parent: {ra}\n        change: {rb}")
        print(f"{len(names)} files, {differ} differ, {len(failed)} failed commands")
        return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
