"""The four benchmark workloads: inputs, requests, set-up and expectations.

A workload is one round of requests.  Each request is a `RunPlan`
executed the way `opfkit.cli.main` executes it: `runner.run` followed
by `runner.write_output_tree`.  Set-up reads the same inputs and
composes the same NLPs through the public load, parse and compose
functions, before any solve; the composed problems double as the
fresh compositions the checker evaluates `kkt_error` on.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from opfkit import (PREVENTIVE, CouplingMode, RunPlan, apply_contingency,
                    apply_load_step, apply_scenario, compose_general,
                    compose_multiperiod, declare_wind, load_case,
                    parse_contingencies_file, parse_load_profile_files,
                    parse_scenarios_file)

from . import gen, mpc
from .checker import StageExpect, TreeExpect

FLAGSHIP_NT = 3
FLAGSHIP_DT = 5.0

# layers every request runs, and the ones only some workloads run
CORE_LAYERS = ("runner.run", "runner.write_tree", "ipm.solve",
               "nlp.objective", "nlp.gradient", "nlp.constraints",
               "nlp.jacobian", "nlp.hessian", "composer.compose",
               "matpower.parse", "matpower.write", "network.build",
               "acopf.extract")
INPUT_LAYERS = ("inputs.parse", "network.transform")


@dataclass
class Request:
    plan: RunPlan
    expect: TreeExpect


@dataclass
class Workload:
    name: str
    requests: list[Request]
    # composes every request's NLP from its files; returns one problem
    # per request for single-solve workloads, else an empty list
    setup: Callable[[], list]
    layers: tuple[str, ...]
    problems: list = field(default_factory=list)


# --- reading the inputs apart from opfkit -----------------------------------


def _read_contingencies(path: str) -> dict[int, list[tuple]]:
    """id -> [(kind, bus, tbus, ordinal)], in file order."""
    out: dict[int, list[tuple]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("ctgc_id"):
                continue
            cid, kind, bus, tbus, ordinal = [c.strip() for c in line.split(",")]
            out.setdefault(int(cid), []).append(
                (kind, int(bus), None if tbus == "-" else int(tbus),
                 int(ordinal)))
    return out


def _read_scenarios(path: str) -> tuple[list[tuple[int, float, dict]], list]:
    """Scenarios (id, normalized weight, {(bus, ordinal): MW}) in output
    order: the heaviest (lowest id on ties) first, then by id."""
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(io.StringIO(fh.read())) if r]
    keys = [tuple(int(v) for v in col.split("_")[1:]) for col in rows[0][2:]]
    scen = [(int(r[0]), float(r[1]), dict(zip(keys, map(float, r[2:]))))
            for r in rows[1:]]
    total = sum(s[1] for s in scen)
    base = min(scen, key=lambda s: (-s[1], s[0]))
    rest = sorted((s for s in scen if s is not base), key=lambda s: s[0])
    return [(s[0], s[1] / total, s[2]) for s in [base] + rest], keys


def _gen_row(case: dict, bus: int, ordinal: int) -> int:
    return int(np.flatnonzero(case["gen"][:, 0] == bus)[ordinal - 1])


def _outages(case: dict, outages: list[tuple]) -> tuple[np.ndarray,
                                                         np.ndarray]:
    gen_on = case["gen"][:, 7] != 0
    br_on = case["branch"][:, 10] != 0
    for kind, bus, tbus, ordinal in outages:
        if kind == "GEN":
            gen_on[_gen_row(case, bus, ordinal)] = False
        else:
            rows = np.flatnonzero((case["branch"][:, 0] == bus)
                                  & (case["branch"][:, 1] == tbus))
            br_on[rows[ordinal - 1]] = False
    return gen_on, br_on


def _single_stage(case: dict) -> TreeExpect:
    return TreeExpect(stages=[StageExpect(
        path=("t_0.m",), pd=case["bus"][:, 2], qd=case["bus"][:, 3],
        gen_status=case["gen"][:, 7] != 0,
        branch_status=case["branch"][:, 10] != 0,
        pmax=case["gen"][:, 8], weight=1.0)])


def _lattice(case: dict, ctgfile: str, scenfile: str,
             loads: list[tuple[np.ndarray, np.ndarray]]) -> TreeExpect:
    """Expected stages of a Sopf run over scenarios x contingencies x
    periods, in the runner's output order."""
    ctgs = _read_contingencies(ctgfile)
    scens, keys = _read_scenarios(scenfile)
    wind_rows = {k: _gen_row(case, *k) for k in keys}
    expect = TreeExpect(stages=[], dt_minutes=FLAGSHIP_DT)
    for s, (_sid, weight, caps) in enumerate(scens):
        pmax = case["gen"][:, 8].copy()
        for key, mw in caps.items():
            pmax[wind_rows[key]] = mw
        for cid in [0] + sorted(ctgs):
            gen_on, br_on = _outages(case, ctgs.get(cid, []))
            for t, (pd, qd) in enumerate(loads):
                expect.lattice[(s, cid, t)] = len(expect.stages)
                expect.stages.append(StageExpect(
                    path=(f"scen_{s}", f"cont_{cid}", f"t_{t}.m"),
                    pd=pd, qd=qd, gen_status=gen_on, branch_status=br_on,
                    pmax=pmax, weight=weight))
    return expect


def _data(root: str, name: str) -> str:
    return os.path.join(root, "tests", "data", name)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# --- workloads ---------------------------------------------------------------


def opf_batch(root: str, work: str, seed: int) -> Workload:
    template = mpc.read_file(_data(root, "case9.m"))
    requests, paths = [], []
    for case in gen.batch_snapshots(template, seed):
        path = _write(os.path.join(work, f"{case['name']}.m"),
                      mpc.write(case))
        paths.append(path)
        requests.append(Request(
            plan=RunPlan(application="Opf", netfile=path,
                         outdir=os.path.join(work, "out", case["name"])),
            expect=_single_stage(case)))

    def setup():
        return [compose_multiperiod([load_case(p)], FLAGSHIP_DT)[0]
                for p in paths]
    return Workload("opf-batch", requests, setup, CORE_LAYERS)


def opf_tiled(root: str, work: str, seed: int) -> Workload:
    case = gen.tiled_case(mpc.read_file(_data(root, "case9.m")), seed)
    path = _write(os.path.join(work, "tiled.m"), mpc.write(case))
    request = Request(plan=RunPlan(application="Opf", netfile=path,
                                   outdir=os.path.join(work, "out")),
                      expect=_single_stage(case))

    def setup():
        return [compose_multiperiod([load_case(path)], FLAGSHIP_DT)[0]]
    return Workload("opf-tiled", [request], setup, CORE_LAYERS)


def sopf_mono(root: str, work: str, seed: int) -> Workload:
    """The acceptance-gate flagship; its inputs are fixed, not seeded."""
    net, ctg = _data(root, "case9.m"), _data(root, "ctgc.cont")
    scen = _data(root, "scenarios.csv")
    mode = CouplingMode(kind=PREVENTIVE)
    plan = RunPlan(application="Sopf", netfile=net, ctgcfile=ctg,
                   scenfile=scen, nt=FLAGSHIP_NT, dt_minutes=FLAGSHIP_DT,
                   mode=mode, outdir=os.path.join(work, "out"))
    template = mpc.read_file(net)
    loads = [(template["bus"][:, 2], template["bus"][:, 3])] * FLAGSHIP_NT
    expect = _lattice(template, ctg, scen, loads)
    expect.preventive = expect.scenario_boxes = expect.ramps = True

    def setup():
        scens = parse_scenarios_file(scen)
        case = declare_wind(load_case(net), scens.wind_keys())
        problem, _ = compose_general(scens, parse_contingencies_file(ctg),
                                     [case] * FLAGSHIP_NT, mode, FLAGSHIP_DT)
        return [problem]
    return Workload("sopf-mono", [Request(plan, expect)], setup,
                    CORE_LAYERS + INPUT_LAYERS)


def sopf_empar(root: str, work: str, seed: int) -> Workload:
    """Flagship contingencies, seeded wind scenarios and load profile,
    EMPAR on one worker (see README.md for why one)."""
    net, ctg = _data(root, "case9.m"), _data(root, "ctgc.cont")
    template = mpc.read_file(net)
    inputs = gen.empar_inputs(template, seed)
    scen = _write(os.path.join(work, "scenarios.csv"), inputs["scenarios_csv"])
    pload = _write(os.path.join(work, "pload.csv"), inputs["pload_csv"])
    qload = _write(os.path.join(work, "qload.csv"), inputs["qload_csv"])
    mode = CouplingMode(kind=PREVENTIVE)
    plan = RunPlan(application="Sopf", structure="Empar", workers=1,
                   netfile=net, ctgcfile=ctg, scenfile=scen, pload=pload,
                   qload=qload, nt=gen.EMPAR_PERIODS,
                   dt_minutes=gen.EMPAR_DT_MIN, mode=mode,
                   outdir=os.path.join(work, "out"))
    rows = [int(np.flatnonzero(template["bus"][:, 0] == b)[0])
            for b in inputs["profile_buses"]]
    loads = []
    for t in range(gen.EMPAR_PERIODS):
        pd = template["bus"][:, 2].copy()
        qd = template["bus"][:, 3].copy()
        pd[rows], qd[rows] = inputs["pd"][t], inputs["qd"][t]
        loads.append((pd, qd))
    expect = _lattice(template, ctg, scen, loads)
    expect.ramps = True

    def setup():
        scens = parse_scenarios_file(scen)
        ctgs = parse_contingencies_file(ctg)
        profile = parse_load_profile_files(pload, qload)
        case = declare_wind(load_case(net), scens.wind_keys())
        periods = [apply_load_step(case, profile, t)
                   for t in range(gen.EMPAR_PERIODS)]
        base = scens.base_index()
        order = [scens.scenarios[base]] + sorted(
            (s for i, s in enumerate(scens.scenarios) if i != base),
            key=lambda s: s.id)
        for sc in order:
            scen_periods = [apply_scenario(p, sc) for p in periods]
            for c in [None] + list(ctgs.by_id()):
                cases = ([apply_contingency(p, c) for p in scen_periods]
                         if c else scen_periods)
                compose_multiperiod(cases, gen.EMPAR_DT_MIN)
        return []
    return Workload("sopf-empar", [Request(plan, expect)], setup,
                    CORE_LAYERS + INPUT_LAYERS)


WORKLOADS = {"opf-batch": opf_batch, "sopf-mono": sopf_mono,
             "sopf-empar": sopf_empar, "opf-tiled": opf_tiled}
