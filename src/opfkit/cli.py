"""Command-line front end: opflow, tcopflow, scopflow, sopflow.

`parse_args` turns a subcommand's flags straight into a RunPlan;
`main` hands it to `runner.run`, the one executor, writes the output
tree and prints a per-stage summary table.  Exit codes:
0 all stages Optimal, 2 argument or input-parsing problems, 3 a
degraded parallel run (some subproblems failed), 4 the monolithic
solve did not reach optimality.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import errors
from .composer import CORRECTIVE, PREVENTIVE, CouplingMode
from .ipm import OPTIMAL
from .runner import (EMPAR, FLAT, MONOLITHIC, OPF, SCOPF, SOPF, TCOPF,
                     DEGRADED, RunPlan, run, write_output_tree)

_APPLICATION = {"opflow": OPF, "tcopflow": TCOPF,
                "scopflow": SCOPF, "sopflow": SOPF}
# "full" is kept as a name for the monolithic three-level lattice
_STRUCTURE = {"monolithic": MONOLITHIC, "empar": EMPAR,
              "flat": FLAT, "full": MONOLITHIC}

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_SOLVER = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfkit",
        description="AC optimal power flow with security, time, and "
                    "scenario extensions")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    specs = {
        "opflow": "single-period AC optimal power flow",
        "tcopflow": "multi-period OPF with ramp coupling",
        "scopflow": "security-constrained OPF over a contingency set",
        "sopflow": "stochastic OPF over scenarios, contingencies, periods",
    }
    for name, help_text in specs.items():
        sub = subs.add_parser(name, help=help_text, description=help_text)
        sub.add_argument("--netfile", required=True,
                         help="MATPOWER case file")
        sub.add_argument("--outdir", help="output directory "
                         f"(default {name}out)")
        sub.add_argument("--tol", type=float, default=1e-6,
                         help="solver KKT tolerance (default 1e-6)")
        sub.add_argument("--maxiter", type=int, default=200, dest="max_iter",
                         metavar="MAXITER", help="solver iteration limit (default 200)")
        if name in ("tcopflow", "scopflow", "sopflow"):
            sub.add_argument("--nt", type=int,
                             help="number of periods (default: the load "
                                  "profile horizon, or 1)")
            sub.add_argument("--dt", type=float, default=5.0,
                             dest="dt_minutes", metavar="DT",
                             help="minutes between periods (default 5)")
            sub.add_argument("--pload", help="real-power load profile CSV")
            sub.add_argument("--qload",
                             help="reactive-power load profile CSV")
        if name in ("scopflow", "sopflow"):
            sub.add_argument("--ctgcfile", required=True,
                             help="contingency list file")
            sub.add_argument("--nc", type=int,
                             help="use only the first NC contingencies")
            sub.add_argument("--mode", choices=[CORRECTIVE, PREVENTIVE],
                             default=CORRECTIVE,
                             help="contingency coupling (default "
                                  f"{CORRECTIVE})")
            sub.add_argument("--workers", type=int,
                             help="EMPAR worker count (default: all CPUs)")
            sub.add_argument("--empar-anchor", action="store_true",
                             dest="empar_anchor",
                             help="bound EMPAR subproblem dispatch around "
                                  "a pre-solved base")
        if name == "scopflow":
            sub.add_argument("--structure",
                             choices=["monolithic", "empar"],
                             default="monolithic",
                             help="solve coupled or embarrassingly "
                                  "parallel (default monolithic)")
        if name == "sopflow":
            sub.add_argument("--scenfile", required=True,
                             help="scenario CSV file")
            sub.add_argument("--ns", type=int,
                             help="use only the first NS scenarios")
            sub.add_argument("--structure",
                             choices=["monolithic", "empar", "flat",
                                      "full"],
                             default="monolithic",
                             help="coupling topology or EMPAR; full is "
                                  "monolithic (default monolithic)")
    return parser


def parse_args(argv: list[str] | None = None) -> RunPlan:
    """Parse argv into a RunPlan; argparse exits 2 on usage errors."""
    fields = vars(_build_parser().parse_args(argv))
    for label in ("netfile", "ctgcfile", "scenfile", "pload", "qload"):
        path = fields.get(label)
        if path is not None and not os.path.isfile(path):
            raise errors.IoError(f"--{label}: no such file: {path}")
    return RunPlan(
        application=_APPLICATION[fields.pop("subcommand")],
        structure=_STRUCTURE[fields.pop("structure", "monolithic")],
        mode=CouplingMode(kind=fields.pop("mode", CORRECTIVE)), **fields)


def _print_summary(report) -> None:
    print(f"{'scen':>4} {'cont':>4} {'t':>3} {'status':<14} "
          f"{'objective $/h':>14} {'iters':>5}")
    for st in report.stages:
        obj = f"{st.objective:14.4f}" if st.objective == st.objective \
            else f"{'-':>14}"
        print(f"{st.scenario:>4} {st.contingency:>4} {st.period:>3} "
              f"{st.status:<14} {obj} {st.iterations:>5}")
    print(f"total weighted objective: {report.total_objective:.4f} $/h "
          f"({report.status}, {report.wall_time:.2f} s, "
          f"{report.workers} worker{'s' if report.workers != 1 else ''})")


def main(plan: RunPlan) -> int:
    """Execute a parsed plan; returns the process exit code."""
    try:
        report = run(plan)
        outdir = write_output_tree(report)
    except errors.OpfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _print_summary(report)
    print(f"outputs written to {outdir}")
    if report.status == OPTIMAL:
        return EXIT_OK
    if report.status == DEGRADED:
        return EXIT_DEGRADED
    return EXIT_SOLVER


def entry(argv: list[str] | None = None) -> int:
    """Console-script entry point."""
    try:
        plan = parse_args(argv)
    except errors.OpfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return main(plan)


if __name__ == "__main__":
    sys.exit(entry())
