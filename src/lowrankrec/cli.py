"""Command-line interface.

Subcommands: `gen pr|sync` (instance files), `solve ap|wf|gpm|bm` (single
runs on instance files), `bench fig1|fig3|fig5|basin|sync` (CSV benchmarks).
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

import numpy as np

from .burer_monteiro import phasecut_cost, riemannian_gd, riemannian_grad, round_factor, sync_cost
from .errors import LowRankRecError
from .harness import RUNNERS, _check_counts, _check_sampled, _flag
from .numerics import RngStream
from .phase_retrieval import alternating_projections, wirtinger_flow
from .phase_sync import gpm
from .problems import (
    ENSEMBLE_KINDS,
    PhaseRetrievalInstance,
    SyncInstance,
    gen_phase_retrieval,
    gen_sync,
    load_instance,
    rel_error_mod_phase,
    save_instance,
)


def _parse_list(text):
    """Comma list with the blanks around each entry dropped."""
    return tuple(tok.strip() for tok in text.split(","))


def _parse_grid(text):
    return tuple(float(v) for v in _parse_list(text))


def _parse_p_values(text):
    return tuple(v if v == "ref" else int(v) for v in _parse_list(text))


# argparse keywords of each runner parameter; harness._flag spells its flag
_BENCH_ARGS = {
    "seed": {"type": int},
    "n": {"type": int},
    "m": {"type": int},
    "mn_grid": {"type": _parse_grid},
    "sigma_grid": {"type": _parse_grid, "help": "sync noise grid, fractions of sqrt(n/log n)"},
    "d_grid": {"type": _parse_grid},
    "trials": {"type": int},
    "p_values": {"type": _parse_p_values, "help": "factor widths, e.g. 1,2,ref"},
    "ensembles": {"type": _parse_list, "help": "comma list of measurement ensembles"},
    "algos": {"type": _parse_list, "help": "comma list of algorithms"},
    "tau": {"type": float},
    "pairs": {"type": int},
    "grid": {"type": int},
    "half_width": {"type": float},
    "max_iter": {"type": int},
    "loo": {"action": "store_true"},
    "out": {"required": True},
}


@functools.cache
def build_parser():
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="lowrankrec",
        description="Non-convex solvers and benchmarks for phase retrieval, "
                    "phase synchronization and unit-diagonal SDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each target parses only the flags it reads, in full (fig3 --p is not --pairs);
    # main rejects any other (exit 2) with the target's usage, before any file is touched
    gen = sub.add_parser("gen", help="generate an instance file (JSON)").add_subparsers(
        dest="what", required=True)
    for what in ("pr", "sync"):
        p = gen.add_parser(what, allow_abbrev=False)
        p.set_defaults(parser=p)
        p.add_argument("--n", type=int, required=True)
        if what == "pr":
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--ensemble", default="complex-gaussian", choices=ENSEMBLE_KINDS)
        else:
            p.add_argument("--sigma", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run one solver on an instance file").add_subparsers(
        dest="solver", required=True)
    for solver in ("ap", "wf", "gpm", "bm"):
        p = solve.add_parser(solver, allow_abbrev=False)
        p.set_defaults(parser=p)
        p.add_argument("--in", dest="infile", required=True)
        if solver in ("ap", "bm"):
            p.add_argument("--seed", type=int, default=0)
        if solver == "bm":
            p.add_argument("--p", type=int, default=2, help="factor width")
        p.add_argument("--tau", type=float, default=1e-3)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    # a figure's flags are its runner's parameters, and an omitted flag is
    # not passed, so the runner's signature holds the figure's defaults
    bench = sub.add_parser("bench", help="reproduce a figure as CSV").add_subparsers(
        dest="figure", required=True)
    for figure, runner in RUNNERS.items():
        p = bench.add_parser(figure, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        p.set_defaults(parser=p)
        for name in inspect.signature(runner).parameters:
            p.add_argument(_flag(name), dest=name, **_BENCH_ARGS[name])
    return parser


def _cmd_gen(args):
    _check_counts(n=args.n, m=getattr(args, "m", None))
    rng = RngStream(args.seed)
    if args.what == "pr":
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
    _check_counts(max_iter=args.max_iter, p=getattr(args, "p", None), tau=args.tau)
    inst = load_instance(args.infile)
    # without --max-iter each solver keeps its own cap
    cap = {} if args.max_iter is None else {"max_iter": args.max_iter}
    if args.solver in ("ap", "wf"):
        if not isinstance(inst, PhaseRetrievalInstance):
            raise ValueError(f"{args.solver} expects a phase retrieval instance")
        if args.solver == "ap":
            _check_sampled("ap", inst.m, inst.n)
            report = alternating_projections(inst, RngStream(args.seed), **cap)
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
            _check_sampled("bm", inst.m, inst.n)
            prob = phasecut_cost(inst)
        else:  # load_instance returns no other type: instance_from_dict rejects it
            prob = sync_cost(inst)
        if args.p > prob.dim:
            raise ValueError(f"--p must be <= N = {prob.dim}, got {args.p}")
        V, report = riemannian_gd(prob, args.p, RngStream(args.seed), **cap)
        est = round_factor(prob, V)
        out = _report_dict(report)
        out["final_residual"] = float(np.linalg.norm(riemannian_grad(prob, V)))
        truth = inst.x_true if isinstance(inst, PhaseRetrievalInstance) else inst.z_true
        if truth is not None:
            out["rel_error_mod_phase"] = rel_error_mod_phase(est, truth)
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
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "figure", "parser")}
    RUNNERS[args.figure](**settings)
    return 0


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # every command writes --out last, so a path no file can take fails first
        if args.out is not None and (os.path.isdir(args.out) or
                                     not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ValueError(f"--out: {args.out!r} is not a file in an existing directory")
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_bench(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LowRankRecError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
