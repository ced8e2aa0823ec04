"""Independent check of a written output tree.

Everything here is recomputed from the written stage files with numpy:
the bus admittance matrix, AC power balance, branch flows, limits and
stage costs.  The only call into opfkit is `kkt_error`, evaluated on a
problem the benchmark composed itself, with the multipliers the solve
returned.  A check returns a list of human-readable faults; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from opfkit import kkt_error

from . import mpc

# Written files carry 10 significant digits; the solver certifies 1e-6 pu
# (1e-4 MW on a 100 MVA base).  These tolerances sit above both and far
# below a 1 MW fault.
BALANCE_TOL_MVA = 1e-3
FLOW_TOL_MVA = 1e-3
LIMIT_TOL = 1e-6            # relative slack on voltage and power limits
COUPLING_TOL_MW = 1e-3
COST_RTOL = 1e-8
INPUT_TOL = 1e-6            # loads and caps are written with 10 digits

# column positions of a MATPOWER case (0-based)
PD, QD, GS, BS, VM, VA, VMAX, VMIN = 2, 3, 4, 5, 7, 8, 11, 12
PG, QG, QMAX, QMIN, GSTATUS, PMAX, PMIN, RAMP30 = 1, 2, 3, 4, 7, 8, 9, 17
R, X, B, RATE_A, RATIO, ANGLE, BSTATUS = 2, 3, 4, 5, 8, 9, 10
PF, QF, PT, QT = 13, 14, 15, 16


@dataclass
class StageExpect:
    """What one stage file must hold: its inputs and its weight."""

    path: tuple[str, ...]           # e.g. ("scen_0", "cont_3", "t_1.m")
    pd: np.ndarray
    qd: np.ndarray
    gen_status: np.ndarray
    branch_status: np.ndarray
    pmax: np.ndarray                # wind caps land here
    weight: float


@dataclass
class TreeExpect:
    """Expected output tree of one request."""

    stages: list[StageExpect]
    # (scenario, contingency, period) -> index into stages, when coupled
    lattice: dict[tuple[int, int, int], int] = field(default_factory=dict)
    dt_minutes: float = 5.0
    preventive: bool = False
    scenario_boxes: bool = False
    ramps: bool = False


def admittance(case: dict):
    """(Ybus, Yf, Yt, live) in per unit, sparse, from the MATPOWER tables."""
    bus, br = case["bus"], case["branch"]
    pos = {int(b): i for i, b in enumerate(bus[:, 0])}
    nb, nl = bus.shape[0], br.shape[0]
    live = br[:, BSTATUS] != 0
    ys = live / (br[:, R] + 1j * br[:, X])
    bc = live * br[:, B]
    tap = np.where(br[:, RATIO] != 0.0, br[:, RATIO], 1.0) * np.exp(
        1j * np.deg2rad(br[:, ANGLE]))
    yff = (ys + 0.5j * bc) / (tap * np.conj(tap))
    yft = -ys / np.conj(tap)
    ytf = -ys / tap
    ytt = ys + 0.5j * bc
    f = np.array([pos[int(v)] for v in br[:, 0]], dtype=int)
    t = np.array([pos[int(v)] for v in br[:, 1]], dtype=int)
    lines = np.concatenate([np.arange(nl), np.arange(nl)])
    cols = np.concatenate([f, t])
    yf = sp.csr_matrix((np.concatenate([yff, yft]), (lines, cols)),
                       shape=(nl, nb))
    yt = sp.csr_matrix((np.concatenate([ytf, ytt]), (lines, cols)),
                       shape=(nl, nb))
    cf = sp.csr_matrix((np.ones(nl), (np.arange(nl), f)), shape=(nl, nb))
    ct = sp.csr_matrix((np.ones(nl), (np.arange(nl), t)), shape=(nl, nb))
    ysh = (bus[:, GS] + 1j * bus[:, BS]) / case["base_mva"]
    ybus = cf.T @ yf + ct.T @ yt + sp.diags(ysh)
    return ybus, yf, yt, live, f, t


def stage_cost(case: dict) -> float:
    """Sum of polynomial generator costs ($/h) at the written dispatch."""
    total = 0.0
    for g, c in zip(case["gen"], case["gencost"]):
        if g[GSTATUS] == 0:
            continue
        ncost = int(c[3])
        total += float(np.polyval(c[4:4 + ncost], g[PG]))
    return total


def check_stage(case: dict, exp: StageExpect) -> list[str]:
    """Input match, power balance, flows and limits of one stage."""
    faults = []
    bus, gen, br = case["bus"], case["gen"], case["branch"]
    base = case["base_mva"]

    # inputs
    if np.max(np.abs(bus[:, PD] - exp.pd)) > INPUT_TOL or \
            np.max(np.abs(bus[:, QD] - exp.qd)) > INPUT_TOL:
        faults.append("bus loads differ from the workload's inputs")
    if not np.array_equal(gen[:, GSTATUS] != 0, exp.gen_status):
        faults.append("generator statuses differ from the contingency")
    if not np.array_equal(br[:, BSTATUS] != 0, exp.branch_status):
        faults.append("branch statuses differ from the contingency")
    if np.max(np.abs(gen[:, PMAX] - exp.pmax)) > INPUT_TOL:
        faults.append("generator Pmax differs from the scenario cap")

    # AC power balance at every bus, from a Ybus built here
    ybus, yf, yt, live, f, t = admittance(case)
    v = bus[:, VM] * np.exp(1j * np.deg2rad(bus[:, VA]))
    s_inj = v * np.conj(ybus @ v) * base
    pos = {int(b): i for i, b in enumerate(bus[:, 0])}
    s_gen = np.zeros(bus.shape[0], complex)
    on = gen[:, GSTATUS] != 0
    for g in gen[on]:
        s_gen[pos[int(g[0])]] += g[PG] + 1j * g[QG]
    mismatch = s_gen - (bus[:, PD] + 1j * bus[:, QD]) - s_inj
    worst = float(np.max(np.abs(mismatch)))
    if worst > BALANCE_TOL_MVA:
        faults.append(f"power balance off by {worst:.3g} MVA")
    if np.any(gen[~on, PG] != 0.0) or np.any(gen[~on, QG] != 0.0):
        faults.append("an out-of-service generator carries dispatch")

    # written flows against flows recomputed from the voltages
    sf = v[f] * np.conj(yf @ v) * base
    st = v[t] * np.conj(yt @ v) * base
    written_f = br[:, PF] + 1j * br[:, QF]
    written_t = br[:, PT] + 1j * br[:, QT]
    flow_err = max(float(np.max(np.abs(sf - written_f))),
                   float(np.max(np.abs(st - written_t))))
    if flow_err > FLOW_TOL_MVA:
        faults.append(f"written branch flows off by {flow_err:.3g} MVA")

    # limits
    vm = bus[:, VM]
    if np.any(vm < bus[:, VMIN] * (1 - LIMIT_TOL)) or \
            np.any(vm > bus[:, VMAX] * (1 + LIMIT_TOL)):
        faults.append("a voltage magnitude is outside its band")
    tol = LIMIT_TOL * np.maximum(1.0, np.abs(gen[:, [PMAX, PMIN, QMAX, QMIN]]))
    if np.any(on & (gen[:, PG] > gen[:, PMAX] + tol[:, 0])) or \
            np.any(on & (gen[:, PG] < gen[:, PMIN] - tol[:, 1])) or \
            np.any(on & (gen[:, QG] > gen[:, QMAX] + tol[:, 2])) or \
            np.any(on & (gen[:, QG] < gen[:, QMIN] - tol[:, 3])):
        faults.append("a generator is outside its limits")
    rated = live & (br[:, RATE_A] > 0)
    over = np.maximum(np.abs(sf), np.abs(st)) - br[:, RATE_A] * (1 + LIMIT_TOL)
    if np.any(over[rated] > FLOW_TOL_MVA):
        faults.append("a branch exceeds its MVA rating")
    return faults


def _coupling(cases: list[dict], expect: TreeExpect) -> list[str]:
    """Preventive pins, ramp rows and scenario boxes between stages."""
    faults = []
    lat = expect.lattice

    def pg(k):
        return cases[k]["gen"][:, PG]

    def live(a, b):
        return (cases[a]["gen"][:, GSTATUS] != 0) & \
            (cases[b]["gen"][:, GSTATUS] != 0)

    ramp30 = cases[0]["gen"][:, RAMP30]
    for (s, c, t), k in lat.items():
        if expect.ramps and t > 0:
            prev = lat[(s, c, t - 1)]
            both = live(k, prev)
            step = np.abs(pg(k) - pg(prev))[both]
            limit = (ramp30 * expect.dt_minutes / 30.0)[both]
            if np.any(step > limit + COUPLING_TOL_MW):
                faults.append(f"ramp limit broken at scen {s} cont {c} t {t}")
        if expect.preventive and c > 0 and t == 0:
            base = lat[(s, 0, 0)]
            bus = cases[base]["bus"]
            ref_ids = bus[bus[:, 1] == 3, 0]
            pinned = live(k, base) & ~np.isin(cases[k]["gen"][:, 0], ref_ids)
            if np.any(np.abs(pg(k) - pg(base))[pinned] > COUPLING_TOL_MW):
                faults.append(f"preventive pin broken at scen {s} cont {c}")
        if expect.scenario_boxes and s > 0 and c == 0 and t == 0:
            base = lat[(0, 0, 0)]
            both = live(k, base)
            dev = np.abs(pg(k) - pg(base))[both]
            if np.any(dev > ramp30[both] + COUPLING_TOL_MW):
                faults.append(f"scenario box broken at scen {s}")
    return faults


def check_tree(outdir: str, expect: TreeExpect) -> list[str]:
    """Check every stage file of a tree plus its summary.json."""
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    faults = []
    if summary["status"] != "Optimal":
        faults.append(f"summary status {summary['status']}")
    if len(summary["stages"]) != len(expect.stages):
        return faults + [f"{len(summary['stages'])} stages reported, "
                         f"{len(expect.stages)} expected"]
    cases, weighted = [], 0.0
    for rec, exp in zip(summary["stages"], expect.stages):
        name = "/".join(exp.path)
        path = os.path.join(outdir, *exp.path)
        if not os.path.isfile(path):
            faults.append(f"{name}: stage file missing")
            continue
        case = mpc.read_file(path)
        cases.append(case)
        faults += [f"{name}: {f}" for f in check_stage(case, exp)]
        cost = stage_cost(case)
        if abs(cost - rec["objective"]) > COST_RTOL * max(1.0, abs(cost)):
            faults.append(f"{name}: cost {cost:.6f} recomputed, "
                          f"{rec['objective']:.6f} reported")
        if abs(rec["weight"] - exp.weight) > 1e-12:
            faults.append(f"{name}: weight {rec['weight']} reported, "
                          f"{exp.weight} expected")
        weighted += exp.weight * cost
    total = summary["total_objective"]
    if abs(weighted - total) > 1e-6 * max(1.0, abs(weighted)):
        faults.append(f"total {total:.6f} reported, {weighted:.6f} "
                      "recomputed from the stage files")
    if expect.lattice and len(cases) == len(expect.stages):
        faults += _coupling(cases, expect)
    return faults


def check_kkt(problem, result, tol: float) -> list[str]:
    """KKT error of the returned point on an independently composed NLP."""
    err = kkt_error(problem, result.x, result.lambda_eq, result.lambda_ineq,
                    result.z_lb, result.z_ub)
    if max(err) > tol:
        return [f"KKT error {max(err):.3g} above {tol:g} on a fresh "
                "composition"]
    return []
