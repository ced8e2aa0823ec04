"""Application orchestration: run plans, monolithic and embarrassingly
parallel execution, output trees, and machine-readable reports.

A RunPlan names one of four applications (Opf, Tcopf, Scopf, Sopf),
how to couple it (mode), how to solve it (structure), and where its
inputs and outputs live.  Every structure starts from the same
(scenarios, contingencies, periods) and the same lattice.  Monolithic
and Flat compose one NLP and solve it once; Empar drops every coupling
row and solves each (scenario, contingency) chain of periods as an
independent problem on a worker pool.  All runs write one MATPOWER
file per stage plus a summary.json.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from . import errors
from .acopf import SolvedCase, extract_solution
from .composer import (CompositeIndexMap, CouplingMode, build_lattice,
                       compose_general, compose_multiperiod,
                       compose_sopf_flat)
from .inputs import (ContingencySet, ScenarioSet, parse_contingencies_file,
                     parse_load_profile_files, parse_scenarios_file)
from .ipm import OPTIMAL, SolveResult, SolverOptions, solve
from .matpower import write_case_file
from .network import (LoadProfile, NetworkCase, apply_load_step,
                      declare_wind, load_case)

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
        if (self.pload is None) != (self.qload is None):
            raise errors.InvalidPlan(
                "load profiles need both the P and the Q file")
        if self.nt is not None and self.nt < 1:
            raise errors.InvalidPlan("nt must be at least 1")
        if self.nt is not None and self.nt > 1 and not self.dt_minutes > 0:
            raise errors.InvalidPlan("dt_minutes must be positive")
        for name in ("nc", "ns"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise errors.InvalidPlan(f"{name} must not be negative")
        if self.workers is not None and self.workers < 1:
            raise errors.InvalidPlan("workers must be at least 1")

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


@dataclass
class _Inputs:
    case: NetworkCase
    ctgs: ContingencySet | None
    scens: ScenarioSet | None
    profile: LoadProfile | None


def _load_inputs(plan: RunPlan) -> _Inputs:
    case = load_case(plan.netfile)
    ctgs = None
    if plan.ctgcfile:
        ctgs = parse_contingencies_file(plan.ctgcfile)
        if plan.nc is not None:
            ctgs = ctgs.truncated(plan.nc)
    scens = None
    if plan.scenfile:
        scens = parse_scenarios_file(plan.scenfile)
        if plan.ns is not None:
            scens = scens.truncated(plan.ns)
        case = declare_wind(case, scens.wind_keys())
    profile = None
    if plan.pload:
        profile = parse_load_profile_files(plan.pload, plan.qload)
    return _Inputs(case=case, ctgs=ctgs, scens=scens, profile=profile)


def _lattice_inputs(plan: RunPlan, inp: _Inputs):
    """The application's (scenarios, contingencies, periods)."""
    app = plan.application
    nt = 1 if app == OPF else plan.nt
    if nt is None:
        nt = len(inp.profile.times) if inp.profile else 1
    periods = ([inp.case] * nt if inp.profile is None else
               [apply_load_step(inp.case, inp.profile, t) for t in range(nt)])
    return (inp.scens if app == SOPF else None,
            inp.ctgs if app in (SCOPF, SOPF) else None, periods)


def _compose(plan: RunPlan, inp: _Inputs):
    scens, ctgs, periods = _lattice_inputs(plan, inp)
    if plan.structure == FLAT:
        if len(periods) > 1:
            raise errors.InvalidPlan(
                "the flattened structure is single-period")
        return compose_sopf_flat(periods[0], scens, ctgs, plan.mode)
    return compose_general(scens, ctgs, periods, plan.mode, plan.dt_minutes)


def _stage_solutions(imap: CompositeIndexMap,
                     x: np.ndarray) -> list[SolvedCase]:
    """Each stage's solved case, read from the composite solution x."""
    return [extract_solution(st.case, lay, x[off:off + lay.n_vars])
            for st, lay, off in zip(imap.stages, imap.layouts,
                                    imap.var_offset)]


def _scenario_index(stages) -> dict[int | None, int]:
    """Output index per scenario id, in first-appearance (base-first) order."""
    order: dict[int | None, int] = {}
    for st in stages:
        key = st.scenario.id if st.scenario else None
        if key not in order:
            order[key] = len(order)
    return order


def run_monolithic(plan: RunPlan) -> RunReport:
    """Compose the requested structure, solve once, report per stage."""
    plan.validate()
    t0 = time.perf_counter()
    inp = _load_inputs(plan)
    problem, imap = _compose(plan, inp)
    result = solve(problem, SolverOptions(tol=plan.tol,
                                          max_iter=plan.max_iter))
    scen_idx = _scenario_index(imap.stages)
    stages: list[StageReport] = []
    sols = _stage_solutions(imap, result.x)
    for k, (st, sol) in enumerate(zip(imap.stages, sols)):
        stages.append(StageReport(
            scenario=scen_idx[st.scenario.id if st.scenario else None],
            contingency=st.contingency.id if st.contingency else 0,
            period=st.period,
            status=result.status,
            objective=sol.objective,
            weight=imap.weights[k],
            iterations=result.iterations,
            kkt=result.kkt,
            solution=sol,
            message=result.message))
    warnings = []
    if result.status != OPTIMAL:
        warnings.append(
            f"monolithic solve ended {result.status}: {result.message}")
    return RunReport(plan=plan, status=result.status,
                     total_objective=result.objective,
                     wall_time=time.perf_counter() - t0,
                     workers=1, stages=stages, solves=[result],
                     warnings=warnings)


# --- EMPAR ------------------------------------------------------------------


def _anchored(case: NetworkCase, base_sol: SolvedCase,
              scale: float) -> NetworkCase:
    """Tighten generator dispatch boxes around a solved base dispatch."""
    gens = []
    for j, g in enumerate(case.gens):
        if g.status and base_sol.case.gens[j].status:
            delta = g.ramp_30 * scale
            lo = max(g.pmin, base_sol.pg[j] - delta)
            hi = min(g.pmax, base_sol.pg[j] + delta)
            gens.append(replace(g, pmin=lo, pmax=hi))
        else:
            gens.append(g)
    return replace(case, gens=tuple(gens))


def _chain_task(payload):
    """Solve one (scenario, contingency) chain; runs on a worker."""
    cases, dt_minutes, tol, max_iter = payload
    try:
        problem, imap = compose_multiperiod(list(cases), dt_minutes)
        result = solve(problem, SolverOptions(tol=tol, max_iter=max_iter))
        return result, _stage_solutions(imap, result.x), ""
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


def run_empar(plan: RunPlan) -> RunReport:
    """Drop all coupling and solve every chain independently.

    Subproblems are dispatched to at most plan.workers processes, and
    never to more processes than there are chains.  They are aggregated
    in stage-index order, so reports do not depend on completion order.
    Failures are recorded per subproblem and mark the report Degraded
    instead of aborting the run.
    """
    plan.validate()
    if plan.structure != EMPAR:
        raise errors.InvalidPlan("run_empar requires the Empar structure")
    t0 = time.perf_counter()
    inp = _load_inputs(plan)
    scens, ctgs, periods = _lattice_inputs(plan, inp)
    lattice = build_lattice(scens, ctgs, periods, plan.dt_minutes)

    anchor: SolvedCase | None = None
    if plan.empar_anchor:
        problem, imap = compose_multiperiod(periods[:1], plan.dt_minutes)
        res0 = solve(problem, SolverOptions(tol=plan.tol,
                                            max_iter=plan.max_iter))
        anchor = _stage_solutions(imap, res0.x)[0]

    chains = []     # (scenario_idx, ctg_id, weight, cases)
    for (s_idx, c_idx), ks in lattice.chains().items():
        first = lattice.stages[ks[0]]
        cases = [lattice.stages[k].case for k in ks]
        # the base chain stays free, like the global base stage of a
        # monolithic run
        if anchor is not None and (s_idx, c_idx) != (0, 0):
            scale = (plan.mode.contingency_scale if first.contingency
                     else plan.mode.scenario_scale)
            cases = [_anchored(c, anchor, scale) for c in cases]
        chains.append((s_idx, first.contingency.id if first.contingency
                       else 0, lattice.weights[ks[0]], tuple(cases)))

    workers = min(plan.workers or os.cpu_count() or 1, len(chains))
    payloads = [(cases, plan.dt_minutes, plan.tol, plan.max_iter)
                for _, _, _, cases in chains]
    if workers == 1:
        outcomes = [_chain_task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_chain_task, p) for p in payloads]
            outcomes = [_outcome(f) for f in futures]

    stages: list[StageReport] = []
    solves: list[SolveResult] = []
    warnings: list[str] = []
    total = 0.0
    degraded = False
    for (s_idx, c_id, weight, cases), (result, sols, err) in zip(chains,
                                                                 outcomes):
        if result is None:
            degraded = True
            warnings.append(
                f"subproblem scen_{s_idx}/cont_{c_id} failed: {err}")
            for t in range(len(cases)):
                stages.append(StageReport(
                    scenario=s_idx, contingency=c_id, period=t,
                    status="Error", objective=float("nan"), weight=weight,
                    iterations=0, kkt=(float("inf"),) * 3,
                    solution=None, message=err))
            continue
        solves.append(result)
        if result.status != OPTIMAL:
            degraded = True
            warnings.append(
                f"subproblem scen_{s_idx}/cont_{c_id} ended "
                f"{result.status}: {result.message}")
        total += weight * result.objective
        for t, sol in enumerate(sols):
            stages.append(StageReport(
                scenario=s_idx, contingency=c_id, period=t,
                status=result.status, objective=sol.objective,
                weight=weight, iterations=result.iterations,
                kkt=result.kkt, solution=sol, message=result.message))

    return RunReport(plan=plan, status=DEGRADED if degraded else OPTIMAL,
                     total_objective=total,
                     wall_time=time.perf_counter() - t0,
                     workers=workers, stages=stages, solves=solves,
                     warnings=warnings)


def run(plan: RunPlan) -> RunReport:
    """Dispatch a plan to the monolithic or the EMPAR path."""
    if plan.structure == EMPAR:
        return run_empar(plan)
    return run_monolithic(plan)


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
    kkt_e = max(max(r.kkt) for r in empar.solves)
    kkt_m = max(max(r.kkt) for r in mono.solves)
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


def write_output_tree(report: RunReport, plan: RunPlan | None = None) -> str:
    """Write one MATPOWER file per stage plus summary.json.

    Layout: <outdir>/scen_<s>/cont_<c>/t_<t>.m with the scenario and
    contingency levels omitted for applications without that
    dimension.  Each file's function name equals its stem.  Returns
    the output directory path.
    """
    plan = plan or report.plan
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
    doc = {
        "application": plan.application,
        "structure": plan.structure,
        "mode": plan.mode.kind,
        "status": report.status,
        "total_objective": report.total_objective,
        "wall_time_sec": report.wall_time,
        "workers": report.workers,
        "warnings": list(report.warnings),
        "stages": [
            {
                "scenario": st.scenario,
                "contingency": st.contingency,
                "period": st.period,
                "status": st.status,
                "objective": None if np.isnan(st.objective)
                             else st.objective,
                "weight": st.weight,
                "iterations": st.iterations,
                "kkt": [None if not np.isfinite(v) else v for v in st.kkt],
                "message": st.message,
            }
            for st in report.stages
        ],
    }
    with open(os.path.join(outdir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
