"""Command-line interface.

Subcommands: `gen pr|sync` (instance files), `solve ap|wf|gpm|bm` (single
runs on instance files), `bench fig1|fig3|fig5|basin|sync` (CSV benchmarks).
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .burer_monteiro import phasecut_cost, riemannian_gd, riemannian_grad, round_factor, sync_cost
from .errors import LowRankRecError
from .harness import RUNNERS, ExperimentConfig
from .numerics import RngStream
from .phase_retrieval import alternating_projections, wirtinger_flow
from .phase_sync import gpm
from .problems import (
    PhaseRetrievalInstance,
    SyncInstance,
    gen_phase_retrieval,
    gen_sync,
    load_instance,
    rel_error_mod_phase,
    save_instance,
)


def _parse_grid(text):
    return tuple(float(v) for v in text.split(","))


def _parse_list(text):
    return tuple(text.split(","))


def _parse_p_values(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        out.append("ref" if tok == "ref" else int(tok))
    return tuple(out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lowrankrec",
        description="Non-convex solvers and benchmarks for phase retrieval, "
                    "phase synchronization and unit-diagonal SDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file (JSON)")
    p_gen.add_argument("what", choices=("pr", "sync"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--ensemble", default="complex-gaussian",
                       choices=("complex-gaussian", "real-gaussian", "structured-frame"))
    p_gen.add_argument("--sigma", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on an instance file")
    p_solve.add_argument("solver", choices=("ap", "wf", "gpm", "bm"))
    p_solve.add_argument("--in", dest="infile", required=True)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--p", type=int, default=2, help="factor width for bm")
    p_solve.add_argument("--tau", type=float, default=1e-3)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--out", help="write the JSON report here instead of stdout")

    # every bench dest is an ExperimentConfig field, and an omitted flag
    # leaves the field unset, so the config and its runner hold the defaults
    p_bench = sub.add_parser("bench", help="reproduce a figure as CSV",
                             argument_default=argparse.SUPPRESS)
    p_bench.add_argument("experiment", metavar="figure", choices=tuple(RUNNERS))
    p_bench.add_argument("--n", type=int)
    p_bench.add_argument("--m", type=int)
    p_bench.add_argument("--mn-grid", type=_parse_grid)
    p_bench.add_argument("--sigma", dest="sigma_grid", type=_parse_grid,
                         help="sync noise grid, fractions of sqrt(n/log n)")
    p_bench.add_argument("--d-grid", type=_parse_grid)
    p_bench.add_argument("--trials", type=int)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--p", dest="p_values", type=_parse_p_values,
                         help="factor widths, e.g. 1,2,ref")
    p_bench.add_argument("--ensemble", dest="ensembles", type=_parse_list,
                         help="comma list of measurement ensembles")
    p_bench.add_argument("--algos", type=_parse_list, help="comma list of algorithms")
    p_bench.add_argument("--tau", type=float)
    p_bench.add_argument("--pairs", type=int)
    p_bench.add_argument("--grid", type=int)
    p_bench.add_argument("--half-width", type=float)
    p_bench.add_argument("--max-iter", type=int)
    p_bench.add_argument("--loo", action="store_true")
    p_bench.add_argument("--out", required=True)
    return parser


def _cmd_gen(args):
    rng = RngStream(args.seed)
    if args.what == "pr":
        if args.m is None:
            raise ValueError("gen pr requires --m")
        inst = gen_phase_retrieval(args.n, args.m, args.ensemble, rng)
    else:
        inst = gen_sync(args.n, args.sigma, rng)
    save_instance(inst, args.out)
    return 0


def _report_dict(report):
    return {
        "rel_error_mod_phase": report.rel_error_mod_phase,
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "final_residual": (float(report.residual_trace[-1])
                           if len(report.residual_trace) else None),
    }


def _cmd_solve(args):
    inst = load_instance(args.infile)
    rng = RngStream(args.seed)
    # without --max-iter each solver keeps its own cap
    cap = {} if args.max_iter is None else {"max_iter": args.max_iter}
    if args.solver in ("ap", "wf"):
        if not isinstance(inst, PhaseRetrievalInstance):
            raise ValueError(f"{args.solver} expects a phase retrieval instance")
        if args.solver == "ap":
            report = alternating_projections(inst, rng, **cap)
        else:
            report = wirtinger_flow(inst, **cap)
        out = _report_dict(report)
    elif args.solver == "gpm":
        if not isinstance(inst, SyncInstance):
            raise ValueError("gpm expects a synchronization instance")
        report, _ = gpm(inst, **cap)
        out = _report_dict(report)
    else:  # bm
        if isinstance(inst, PhaseRetrievalInstance):
            prob = phasecut_cost(inst)
        elif isinstance(inst, SyncInstance):
            prob = sync_cost(inst)
        else:
            raise ValueError("bm expects a phase retrieval or synchronization instance")
        V, report = riemannian_gd(prob, args.p, rng, **cap)
        est = round_factor(prob, V)
        out = _report_dict(report)
        out["final_residual"] = float(np.linalg.norm(riemannian_grad(prob, V)))
        truth = inst.x_true if isinstance(inst, PhaseRetrievalInstance) else inst.z_true
        if truth is not None:
            field = inst.field if isinstance(inst, PhaseRetrievalInstance) else "complex"
            out["rel_error_mod_phase"] = rel_error_mod_phase(est, truth, field)
        out["objective"] = float(report.objective_trace[-1])
    if out.get("rel_error_mod_phase") is not None:
        out["success"] = bool(out["rel_error_mod_phase"] < args.tau)
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_bench(args):
    config = ExperimentConfig(**{k: v for k, v in vars(args).items() if k != "command"})
    RUNNERS[config.experiment](config)
    return 0


# count flags by dest; a value below 1 is an error, never a stand-in for a default
_COUNT_FLAGS = {"n": "--n", "m": "--m", "trials": "--trials", "pairs": "--pairs",
                "grid": "--grid", "max_iter": "--max-iter", "p": "--p", "p_values": "--p"}


def _check_counts(args):
    for dest, flag in _COUNT_FLAGS.items():
        value = getattr(args, dest, None)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, int) and v < 1:
                raise ValueError(f"{flag} must be >= 1, got {v}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_bench(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LowRankRecError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
