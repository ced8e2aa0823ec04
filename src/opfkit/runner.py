"""Application orchestration: run plans, their execution, output trees,
and machine-readable reports.

A RunPlan names one of four applications (Opf, Tcopf, Scopf, Sopf),
how to couple it (mode), how to solve it (structure), and where its
inputs and outputs live.  `run(plan)` is the one executor.  Every
structure starts from the same (scenarios, contingencies, periods) and
the same lattice, and differs only in how stages are grouped into
solves: Monolithic and Flat compose one NLP and solve it once; Empar
drops every coupling row and solves each (scenario, contingency) chain
of periods as an independent problem on a worker pool.  One loop turns
every group's outcome into stage reports.  All runs write one MATPOWER
file per stage plus a summary.json.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from . import errors
from .acopf import SolvedCase
from .composer import (CompositeIndexMap, CouplingMode, Lattice,
                       build_lattice, compose_general, compose_multiperiod,
                       compose_sopf_flat, extract_solution)
from .inputs import (parse_contingencies_file, parse_load_profile_files,
                     parse_scenarios_file)
from .ipm import OPTIMAL, SolveResult, SolverOptions, solve
from .matpower import write_case_file
from .network import NetworkCase, apply_load_step, declare_wind, load_case
from .nlp import NlpProblem

# Not called here; perfbench/tracing.py wraps these names on this module.
from .composer import (compose_multiperiod_scopf, compose_scopf,  # noqa: F401
                       compose_sopf_full)
from .network import apply_contingency, apply_scenario  # noqa: F401

OPF, TCOPF, SCOPF, SOPF = "Opf", "Tcopf", "Scopf", "Sopf"
MONOLITHIC, EMPAR, FLAT = "Monolithic", "Empar", "Flat"
DEGRADED = "Degraded"

_DEFAULT_OUTDIR = {OPF: "opflowout", TCOPF: "tcopflowout",
                   SCOPF: "scopflowout", SOPF: "sopflowout"}


@dataclass
class RunPlan:
    """Everything needed to execute one application run."""

    application: str
    netfile: str
    structure: str = MONOLITHIC
    mode: CouplingMode = field(default_factory=CouplingMode)
    # nt left at None means: the load profile's horizon, or 1 period
    nt: int | None = None
    dt_minutes: float = 5.0
    ctgcfile: str | None = None
    scenfile: str | None = None
    pload: str | None = None
    qload: str | None = None
    nc: int | None = None
    ns: int | None = None
    outdir: str | None = None
    tol: float = 1e-6
    max_iter: int = 200
    workers: int | None = None
    empar_anchor: bool = False

    def validate(self) -> None:
        if self.application not in (OPF, TCOPF, SCOPF, SOPF):
            raise errors.InvalidPlan(
                f"unknown application {self.application!r}")
        if self.structure not in (MONOLITHIC, EMPAR, FLAT):
            raise errors.InvalidPlan(f"unknown structure {self.structure!r}")
        if self.structure == EMPAR and self.application not in (SCOPF, SOPF):
            raise errors.InvalidPlan(
                "Empar structure is valid only for Scopf and Sopf")
        if self.structure == FLAT and self.application != SOPF:
            raise errors.InvalidPlan("Flat structure is valid only for Sopf")
        if self.application in (SCOPF, SOPF) and not self.ctgcfile:
            raise errors.InvalidPlan(
                f"{self.application} requires a contingency file")
        if self.application == SOPF and not self.scenfile:
            raise errors.InvalidPlan("Sopf requires a scenario file")
        # every application reads load profiles; only some read these
        if self.application != SOPF and self.scenfile:
            raise errors.InvalidPlan(
                f"{self.application} does not use a scenario file")
        if self.application in (OPF, TCOPF) and self.ctgcfile:
            raise errors.InvalidPlan(
                f"{self.application} does not use a contingency file")
        if (self.pload is None) != (self.qload is None):
            raise errors.InvalidPlan(
                "load profiles need both the P and the Q file")
        if self.nt is not None and self.nt < 1:
            raise errors.InvalidPlan("nt must be at least 1")
        if (self.nt is not None and self.nt > 1
                and not 0 < self.dt_minutes < math.inf):
            raise errors.InvalidPlan("dt_minutes must be finite and positive")
        for name in ("nc", "ns"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise errors.InvalidPlan(f"{name} must not be negative")
        if self.workers is not None and self.workers < 1:
            raise errors.InvalidPlan("workers must be at least 1")
        # raises InvalidPlan for an unusable tol or max_iter
        SolverOptions(tol=self.tol, max_iter=self.max_iter)

    def out_directory(self) -> str:
        return self.outdir or _DEFAULT_OUTDIR[self.application]


@dataclass
class StageReport:
    """One output stage: indices, solve outcome, and the written state."""

    scenario: int
    contingency: int
    period: int
    status: str
    objective: float            # stage cost, unweighted ($/h)
    weight: float
    iterations: int
    kkt: tuple[float, float, float]
    solution: SolvedCase | None
    message: str = ""


@dataclass
class RunReport:
    plan: RunPlan
    status: str
    total_objective: float      # weighted by scenario probability
    wall_time: float
    workers: int
    stages: list[StageReport]
    solves: list[SolveResult]
    warnings: list[str] = field(default_factory=list)

    def stage_count(self) -> int:
        return len(self.stages)


def _read(parse, *paths):
    """parse(*paths); a missing or undecodable file raises IoError."""
    try:
        return parse(*paths)
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.IoError(
            f"cannot read {' or '.join(map(str, paths))}: {exc}") from exc


def _lattice_inputs(plan: RunPlan):
    """Read the plan's files into the application's (scenarios,
    contingencies, periods); a validated plan names only files its
    application uses."""
    case = _read(load_case, plan.netfile)
    ctgs = scens = profile = None
    if plan.ctgcfile:
        ctgs = _read(parse_contingencies_file, plan.ctgcfile)
        if plan.nc is not None:
            ctgs = ctgs.truncated(plan.nc)
    if plan.scenfile:
        scens = _read(parse_scenarios_file, plan.scenfile)
        if plan.ns is not None:
            scens = scens.truncated(plan.ns)
        case = declare_wind(case, scens.wind_keys())
    if plan.pload:
        profile = _read(parse_load_profile_files, plan.pload, plan.qload)
    nt = 1 if plan.application == OPF else plan.nt
    if nt is None:
        nt = len(profile.times) if profile else 1
    periods = ([case] * nt if profile is None else
               [apply_load_step(case, profile, t) for t in range(nt)])
    return scens, ctgs, periods


def _compose(plan: RunPlan, scens, ctgs, periods):
    if plan.structure == FLAT:
        if len(periods) > 1:
            raise errors.InvalidPlan(
                "the flattened structure is single-period")
        return compose_sopf_flat(periods[0], scens, ctgs, plan.mode)
    return compose_general(scens, ctgs, periods, plan.mode, plan.dt_minutes)


def _solved(composite: tuple[NlpProblem, CompositeIndexMap], tol: float,
            max_iter: int) -> tuple[SolveResult, tuple[SolvedCase, ...]]:
    """Solve a composite; the result and each stage's solved case."""
    problem, imap = composite
    result = solve(problem, SolverOptions(tol=tol, max_iter=max_iter))
    return result, extract_solution(imap, result.x)


def _stage_keys(specs) -> list[tuple[int, int, int]]:
    """(scenario index, contingency id, period) of each stage; scenarios
    are numbered in first-appearance (base-first) order."""
    order: dict[int | None, int] = {}
    return [(order.setdefault(st.scenario.id if st.scenario else None,
                              len(order)),
             st.contingency.id if st.contingency else 0, st.period)
            for st in specs]


# --- EMPAR ------------------------------------------------------------------


def _anchored(case: NetworkCase, base_sol: SolvedCase) -> NetworkCase:
    """Box each unit's dispatch to its 30-minute ramp around base_sol."""
    gens = []
    for j, g in enumerate(case.gens):
        if g.status and base_sol.case.gens[j].status:
            lo = max(g.pmin, base_sol.pg[j] - g.ramp_30)
            hi = min(g.pmax, base_sol.pg[j] + g.ramp_30)
            gens.append(replace(g, pmin=lo, pmax=hi))
        else:
            gens.append(g)
    return replace(case, gens=tuple(gens))


def _chain_task(payload):
    """Solve one (scenario, contingency) chain; runs on a worker."""
    cases, dt_minutes, tol, max_iter = payload
    try:
        return (*_solved(compose_multiperiod(list(cases), dt_minutes), tol,
                         max_iter), "")
    except Exception as exc:    # one failed chain must not abort the run
        trace = ("" if isinstance(exc, errors.OpfkitError)
                 else "\n" + traceback.format_exc())
        return None, [], f"{type(exc).__name__}: {exc}{trace}"


def _outcome(future):
    """A chain task's result, or an error outcome if its worker died."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return None, [], f"worker process died: {exc}"


def _solve_chains(plan: RunPlan, lattice: Lattice, chains: list[range]):
    """The worker count and each chain's (result, solutions, error).

    With plan.empar_anchor every chain but the lattice's base chain is
    boxed around a solve of the lattice's base stage; the base chain
    stays free, like the global base stage of a monolithic run.
    """
    anchor: SolvedCase | None = None
    if plan.empar_anchor:
        anchor = _solved(compose_multiperiod([lattice.stages[0].case],
                                             plan.dt_minutes),
                         plan.tol, plan.max_iter)[1][0]
    payloads = []
    for ks in chains:
        cases = [lattice.stages[k].case for k in ks]
        if anchor is not None and ks[0] != 0:
            cases = [_anchored(c, anchor) for c in cases]
        payloads.append((tuple(cases), plan.dt_minutes, plan.tol,
                         plan.max_iter))
    workers = min(plan.workers or os.cpu_count() or 1, len(payloads))
    if workers == 1:
        return workers, [_chain_task(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_chain_task, p) for p in payloads]
        return workers, [_outcome(f) for f in futures]


def run(plan: RunPlan) -> RunReport:
    """Execute a plan: solve every stage and report it.

    Monolithic and Flat solve one composite, whose stages form one
    group of weight 1.0.  Empar drops every coupling row and solves
    each (scenario, contingency) chain of periods independently, one
    group per chain, weighted by its scenario; chains go to at most
    plan.workers processes, and never to more processes than there are
    chains.  Reports follow the stage index, so they do not depend on
    completion order.  A failed chain is recorded per stage and marks
    the run Degraded instead of aborting it.
    """
    plan.validate()
    t0 = time.perf_counter()
    scens, ctgs, periods = _lattice_inputs(plan)
    empar = plan.structure == EMPAR
    if empar:
        lattice = build_lattice(scens, ctgs, periods, plan.dt_minutes)
        specs, weights = lattice.stages, lattice.weights
        groups = list(lattice.chains().values())
        workers, outcomes = _solve_chains(plan, lattice, groups)
    else:
        composite = _compose(plan, scens, ctgs, periods)
        specs, weights = composite[1].stages, composite[1].weights
        groups = [range(len(specs))]
        workers, outcomes = 1, [(*_solved(composite, plan.tol,
                                          plan.max_iter), "")]

    keys = _stage_keys(specs)
    stages: list[StageReport] = []
    solves: list[SolveResult] = []
    warnings: list[str] = []
    total = 0.0
    for ks, (result, sols, err) in zip(groups, outcomes):
        s, c, _ = keys[ks[0]]
        where = (f"subproblem scen_{s}/cont_{c}" if empar
                 else "monolithic solve")
        if result is None:
            warnings.append(f"{where} failed: {err}")
            stages += [StageReport(*keys[k], status="Error",
                                   objective=float("nan"), weight=weights[k],
                                   iterations=0, kkt=(float("inf"),) * 3,
                                   solution=None, message=err) for k in ks]
            continue
        solves.append(result)
        if result.status != OPTIMAL:
            warnings.append(f"{where} ended {result.status}: {result.message}")
        total += (weights[ks[0]] if empar else 1.0) * result.objective
        stages += [StageReport(*keys[k], status=result.status,
                               objective=sol.objective, weight=weights[k],
                               iterations=result.iterations, kkt=result.kkt,
                               solution=sol, message=result.message)
                   for k, sol in zip(ks, sols)]

    status = (DEGRADED if warnings else OPTIMAL) if empar else solves[0].status
    return RunReport(plan=plan, status=status, total_objective=total,
                     wall_time=time.perf_counter() - t0, workers=workers,
                     stages=stages, solves=solves, warnings=warnings)


def compare_empar_monolithic(empar: RunReport,
                             mono: RunReport) -> str | None:
    """Relaxation check: EMPAR total should not exceed the coupled total.

    Returns a warning string when the EMPAR total lands above the
    monolithic total by more than 1e-4 relative (possible on nonconvex
    problems when the runs settle in different local optima); both KKT
    certificates are quoted so the caller can verify the two solves.
    """
    gap = empar.total_objective - mono.total_objective
    if gap <= 1e-4 * max(1.0, abs(mono.total_objective)):
        return None
    kkt_e, kkt_m = (np.max([r.kkt for r in rep.solves] or np.nan)
                    for rep in (empar, mono))
    return (f"EMPAR total {empar.total_objective:.6f} exceeds monolithic "
            f"total {mono.total_objective:.6f} by {gap:.3e}; "
            f"worst KKT empar={kkt_e:.2e} monolithic={kkt_m:.2e} "
            "(both solves are KKT-certified local optima; the relaxation "
            "bound only holds for global optima on nonconvex problems)")


# --- output tree ------------------------------------------------------------


def _stage_path(plan: RunPlan, st: StageReport) -> list[str]:
    parts = []
    if plan.application == SOPF:
        parts.append(f"scen_{st.scenario}")
    if plan.application in (SCOPF, SOPF):
        parts.append(f"cont_{st.contingency}")
    parts.append(f"t_{st.period}.m")
    return parts


def write_output_tree(report: RunReport) -> str:
    """Write one MATPOWER file per stage plus summary.json.

    Layout: <outdir>/scen_<s>/cont_<c>/t_<t>.m under the report's plan,
    with the scenario and contingency levels omitted for applications
    without that dimension.  Each file's function name equals its stem.
    Returns the output directory path.
    """
    plan = report.plan
    outdir = plan.out_directory()
    try:
        os.makedirs(outdir, exist_ok=True)
        for st in report.stages:
            if st.solution is None:
                continue
            parts = _stage_path(plan, st)
            stage_dir = os.path.join(outdir, *parts[:-1])
            if parts[:-1]:
                os.makedirs(stage_dir, exist_ok=True)
            path = os.path.join(stage_dir, parts[-1])
            write_case_file(st.solution, path,
                            name=parts[-1].removesuffix(".m"))
        _write_summary(report, plan, outdir)
    except OSError as exc:
        raise errors.IoError(f"writing output tree under {outdir!r}: {exc}")
    return outdir


def _write_summary(report: RunReport, plan: RunPlan, outdir: str) -> None:
    def finite(v):      # JSON has no NaN or Inf: null stands for them
        return v if math.isfinite(v) else None
    doc = {
        "application": plan.application,
        "structure": plan.structure,
        "mode": plan.mode.kind,
        "status": report.status,
        "total_objective": finite(report.total_objective),
        "wall_time_sec": report.wall_time,
        "workers": report.workers,
        "warnings": list(report.warnings),
        "stages": [
            {
                "scenario": st.scenario,
                "contingency": st.contingency,
                "period": st.period,
                "status": st.status,
                "objective": finite(st.objective),
                "weight": st.weight,
                "iterations": st.iterations,
                "kkt": [finite(v) for v in st.kkt],
                "message": st.message,
            }
            for st in report.stages
        ],
    }
    with open(os.path.join(outdir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
