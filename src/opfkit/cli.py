"""Command-line front end: opflow, tcopflow, scopflow, sopflow.

Each subcommand maps its flags onto a RunPlan, executes it, prints a
per-stage summary table, and writes the output tree.  Exit codes:
0 all stages Optimal, 2 argument or input-parsing problems, 3 a
degraded parallel run (some subproblems failed), 4 the monolithic
solve did not reach optimality.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

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


@dataclass
class CliConfig:
    """Validated command-line options for one subcommand invocation."""

    subcommand: str
    netfile: str
    ctgcfile: str | None = None
    scenfile: str | None = None
    pload: str | None = None
    qload: str | None = None
    nc: int | None = None
    ns: int | None = None
    nt: int | None = None
    dt: float = 5.0
    mode: str = "corrective"
    structure: str = "monolithic"
    tol: float = 1e-6
    maxiter: int = 200
    outdir: str | None = None
    workers: int | None = None
    empar_anchor: bool = False

    def to_plan(self) -> RunPlan:
        return RunPlan(
            application=_APPLICATION[self.subcommand],
            netfile=self.netfile,
            structure=_STRUCTURE[self.structure],
            mode=CouplingMode(kind=self.mode),
            nt=self.nt,
            dt_minutes=self.dt,
            ctgcfile=self.ctgcfile,
            scenfile=self.scenfile,
            pload=self.pload,
            qload=self.qload,
            nc=self.nc,
            ns=self.ns,
            outdir=self.outdir,
            tol=self.tol,
            max_iter=self.maxiter,
            workers=self.workers,
            empar_anchor=self.empar_anchor)


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
        sub.add_argument("--maxiter", type=int, default=200,
                         help="solver iteration limit (default 200)")
        if name in ("tcopflow", "scopflow", "sopflow"):
            sub.add_argument("--nt", type=int,
                             help="number of periods (default: the load "
                                  "profile horizon, or 1)")
            sub.add_argument("--dt", type=float, default=5.0,
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


def parse_args(argv: list[str] | None = None) -> CliConfig:
    """Parse argv into a CliConfig; argparse exits 2 on usage errors."""
    ns = _build_parser().parse_args(argv)
    fields = {k: v for k, v in vars(ns).items() if v is not None}
    config = CliConfig(**fields)
    for label, path in (("netfile", config.netfile),
                        ("ctgcfile", config.ctgcfile),
                        ("scenfile", config.scenfile),
                        ("pload", config.pload),
                        ("qload", config.qload)):
        if path is not None and not os.path.isfile(path):
            raise errors.IoError(f"--{label}: no such file: {path}")
    return config


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


def main(config: CliConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    try:
        plan = config.to_plan()
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
        config = parse_args(argv)
    except errors.OpfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return main(config)


if __name__ == "__main__":
    sys.exit(entry())
