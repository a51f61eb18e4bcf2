"""Exact-count determinism of the benchmark's workloads.

Every iteration, eval, call, cap and start count depends on the workload
seed only, so two traced passes in two fresh processes must agree exactly.
A gain from fewer iterations can then be told apart from a gain from
cheaper iterations.  Takes about four minutes:

    python3 -m pytest perfbench/test_counts.py -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def traced_record(workload, seed):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    _, line = run.run_child(args, time.monotonic() + run.BUDGET_S)
    return json.loads(line)


@pytest.mark.parametrize("workload", [w["name"] for w in run.load_spec()["workloads"]])
def test_counts_repeat_exactly(workload):
    first, second = (traced_record(workload, seed=3) for _ in range(2))
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"]
    assert first["counts"] == second["counts"]
    assert first["traced_counts"] == second["traced_counts"]
    counted = [m["name"] for m in run.load_spec()["per_layer"] if m["unit"] == "count"]
    assert counted
    assert {k: first["per_layer"][k] for k in counted} == \
        {k: second["per_layer"][k] for k in counted}
