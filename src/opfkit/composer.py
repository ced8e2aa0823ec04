"""Composite problem builders: time, contingency, and scenario coupling.

`build_lattice` is the one enumerator of the (scenario, contingency,
period) lattice; monolithic, flat and EMPAR runs all build on it and
differ only in their coupling.  Every composite is block-diagonal per
stage (one full ACOPF per (scenario, contingency, period) triple) plus
linear two-stage coupling rows on generator set-points:

* Ramp rows chain consecutive periods of one (scenario, contingency):
  |Pg_t - Pg_{t-1}| <= ramp_30 * (dt/30) / base_mva.
* Contingency rows tie each post-contingency stage to its base stage at
  the first period only.  Corrective mode uses a two-sided box of width
  ramp_30 / base_mva; preventive mode pins Pg of every surviving
  generator not on the reference bus (reference machines absorb the
  mismatch).
* A box whose bound is 0 (a unit with ramp_30 = 0, as in MATPOWER
  files without ramp columns) is emitted as a pin, an equality row: a
  zero-width box would leave its slack no interior.
* Scenario rows tie each scenario's base stage to the most probable
  scenario (ties to the lowest id) with a Pg box of the same 30-minute
  width, regardless of mode.  The flat composite has the same scenario
  rows and differs only in where its contingency rows attach: every
  post-contingency stage ties to the global base instead of its
  scenario's base.

The composite constraint vector is [stage equalities..., pins,
stage inequalities..., boxes]; coupling rows always read
child - base, so the Jacobian entries are +1 on the later stage and -1
on the earlier one.  Scenario weights are normalized to sum to one and
scale both the stage objectives and their Hessian blocks.

A composite is not a loop over stage problems: one ACOPF engine
(`acopf._Engine`) spans every stage of the lattice and the coupling
rows, so each callback is one vectorized pass.  Stage variables stay
stage-major, and the CompositeIndexMap locates each stage's block.
`build_acopf` is the one-stage composite.  `extract_solution` maps a
point back to every stage's SolvedCase through the engine the map holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .acopf import AcopfLayout, SolvedCase, _Engine
from .errors import EmptyScenarioSet, InvalidPlan, TopologyMismatch
from .inputs import ContingencySet, ScenarioSet
from .network import (
    REF,
    Contingency,
    NetworkCase,
    Scenario,
    apply_contingency,
    apply_scenario,
    require_connected,
)
from .nlp import NlpProblem

PREVENTIVE = "preventive"
CORRECTIVE = "corrective"

RAMP = "Ramp"
CONTINGENCY_BOX = "ContingencyBox"
SCENARIO_BOX = "ScenarioBox"
PREVENTIVE_PIN = "PreventivePin"


@dataclass(frozen=True)
class CouplingMode:
    kind: str = CORRECTIVE

    def __post_init__(self):
        if self.kind not in (PREVENTIVE, CORRECTIVE):
            raise InvalidPlan(f"unknown coupling kind {self.kind!r}")


@dataclass(frozen=True)
class StageSpec:
    scenario: Scenario | None
    contingency: Contingency | None
    period: int
    case: NetworkCase


@dataclass(frozen=True)
class CouplingRow:
    """One cross-stage constraint row.

    row is the absolute index into the stacked [equalities;
    inequalities] composite constraint vector (-1 until the composite
    is assembled); the row value is always
    (stage_a Pg) - (stage_b Pg) with stage_a the later or child stage.
    gen is a position into the full generator list of the input case.
    """
    kind: str
    stage_a: int
    stage_b: int
    gen: int
    bound: float
    row: int
    is_equality: bool


@dataclass(frozen=True)
class CompositeIndexMap:
    """Where each stage's variable block starts, the coupling rows, and
    the engine that built the NLP, for `extract_solution`."""
    stages: tuple[StageSpec, ...]
    var_offset: tuple[int, ...]
    coupling_rows: tuple[CouplingRow, ...]
    weights: tuple[float, ...]      # per-stage objective weights
    layouts: tuple[AcopfLayout, ...]
    _engine: _Engine = field(repr=False, compare=False)


def _check_topology(ref: NetworkCase, other: NetworkCase) -> None:
    same = (ref.base_mva == other.base_mva
            and len(ref.buses) == len(other.buses)
            and len(ref.gens) == len(other.gens)
            and len(ref.branches) == len(other.branches)
            and all(a.id == b.id and a.btype == b.btype
                    for a, b in zip(ref.buses, other.buses))
            and all(a.bus == b.bus and a.status == b.status
                    for a, b in zip(ref.gens, other.gens))
            and all(a.fbus == b.fbus and a.tbus == b.tbus
                    and a.status == b.status
                    for a, b in zip(ref.branches, other.branches)))
    if not same:
        raise TopologyMismatch(
            "periods must share one topology (loads may differ)")


def _live_both(a: NetworkCase, b: NetworkCase) -> list[int]:
    return [i for i, (ga, gb) in enumerate(zip(a.gens, b.gens))
            if ga.status != 0 and gb.status != 0]


@dataclass(frozen=True)
class Lattice:
    """The stages of one (scenario, contingency, period) lattice.

    Stages run scenario-major, then contingency, then period; position
    0 on each axis is the base: the most probable scenario, the intact
    network and the first period.  Weights are the normalized scenario
    probabilities, repeated on every stage of a scenario.
    """
    stages: tuple[StageSpec, ...]
    weights: tuple[float, ...]
    shape: tuple[int, int, int]     # (scenarios, contingencies + 1, periods)

    def index(self, s: int, c: int, t: int) -> int:
        _, n_c, n_t = self.shape
        return (s * n_c + c) * n_t + t

    def chains(self) -> dict[tuple[int, int], range]:
        """Stage indices of each (scenario, contingency) chain of periods."""
        n_s, n_c, n_t = self.shape
        return {divmod(k, n_c): range(k * n_t, (k + 1) * n_t)
                for k in range(n_s * n_c)}


def build_lattice(scenarios: ScenarioSet | None, ctgs: ContingencySet | None,
                  periods: list[NetworkCase], dt_minutes: float) -> Lattice:
    """Apply every scenario and contingency to every period; the base
    scenario comes first and the others, like the contingencies after
    the intact network, follow by id.  Raises Disconnected unless the
    periods' shared network is connected."""
    if not periods:
        raise InvalidPlan("at least one period is required")
    if len(periods) > 1 and not 0 < dt_minutes < math.inf:
        raise InvalidPlan(
            "dt_minutes must be finite and positive for multiple periods")
    for later in periods[1:]:
        _check_topology(periods[0], later)
    require_connected(periods[0])
    scen_order: list[tuple[Scenario | None, float]] = [(None, 1.0)]
    if scenarios is not None:
        items = list(scenarios.scenarios)
        if not items:
            raise EmptyScenarioSet("no scenarios to compose")
        total = sum(s.weight for s in items)
        if not total > 0.0:
            raise EmptyScenarioSet("scenario weights sum to zero")
        base = scenarios.base_index()
        rest = sorted((s for i, s in enumerate(items) if i != base),
                      key=lambda s: s.id)
        scen_order = [(s, s.weight / total) for s in [items[base]] + rest]
    ctg_order = [None] + ([] if ctgs is None else list(ctgs.by_id()))

    stages: list[StageSpec] = []
    weights: list[float] = []
    for scen, weight in scen_order:
        scen_periods = [apply_scenario(p, scen) if scen else p
                        for p in periods]
        for ctg in ctg_order:
            stage_periods = ([apply_contingency(p, ctg) for p in scen_periods]
                             if ctg else scen_periods)
            for t, case in enumerate(stage_periods):
                stages.append(StageSpec(scenario=scen, contingency=ctg,
                                        period=t, case=case))
                weights.append(weight)
    return Lattice(stages=tuple(stages), weights=tuple(weights),
                   shape=(len(scen_order), len(ctg_order), len(periods)))


class _Builder:
    """Coupling rows over a lattice, then the composite NLP."""

    def __init__(self, name: str, lattice: Lattice):
        self.name = name
        self.specs = lattice.stages
        self.weights = lattice.weights
        self.rows: list[CouplingRow] = []

    def box_rows(self, kind: str, child: int, base: int,
                 scale: float) -> None:
        """|Pg_child - Pg_base| <= scale * ramp_30 for shared live units;
        a bound of 0 is a pin (an equality row)."""
        base_case = self.specs[base].case
        for gp in _live_both(self.specs[child].case, base_case):
            bound = base_case.gens[gp].ramp_30 * scale / base_case.base_mva
            self.rows.append(CouplingRow(kind, child, base, gp, bound, -1,
                                         bound == 0.0))

    def contingency_rows(self, child: int, base: int,
                         mode: CouplingMode) -> None:
        """A contingency box in corrective mode, else pins."""
        if mode.kind == CORRECTIVE:
            self.box_rows(CONTINGENCY_BOX, child, base, 1.0)
            return
        base_case = self.specs[base].case
        for gp in _live_both(self.specs[child].case, base_case):
            bus_pos = base_case.bus_pos[base_case.gens[gp].bus]
            if base_case.buses[bus_pos].btype == REF:
                continue    # reference machines absorb the mismatch
            self.rows.append(CouplingRow(PREVENTIVE_PIN, child, base, gp,
                                         0.0, -1, True))

    def assemble(self) -> tuple[NlpProblem, CompositeIndexMap]:
        engine = _Engine([s.case for s in self.specs], self.weights)
        layouts = engine.layouts()
        pins = [r for r in self.rows if r.is_equality]
        boxes = [r for r in self.rows if not r.is_equality]

        def var_of(r: CouplingRow, stage: int) -> int:
            return int(engine.var_off[stage] + layouts[stage].pg[r.gen])

        problem = engine.nlp(
            self.name, [(var_of(r, r.stage_a), var_of(r, r.stage_b))
                        for r in pins + boxes],
            len(pins), [r.bound for r in boxes])
        coupling = tuple(replace(r, row=int(row))
                         for r, row in zip(pins + boxes, engine.link_rows))
        return problem, CompositeIndexMap(
            stages=tuple(self.specs),
            var_offset=tuple(engine.var_off.tolist()),
            coupling_rows=coupling, weights=tuple(self.weights),
            layouts=layouts, _engine=engine)


def extract_solution(imap: CompositeIndexMap,
                     x: np.ndarray) -> tuple[SolvedCase, ...]:
    """Every stage's SolvedCase at the composite's NLP point x, in stage
    order.  Raises DimensionMismatch when x does not fit the NLP."""
    return imap._engine.solved(x)


def build_acopf(case: NetworkCase):
    """The one-stage composite of a case: (NlpProblem, CompositeIndexMap).

    Raises Disconnected when the in-service network is not a single
    connected component (NoReferenceBus is already enforced on parse).
    """
    lattice = build_lattice(None, None, [case], 30.0)
    return _Builder(f"acopf:{case.name}", lattice).assemble()


def compose_general(scenarios: ScenarioSet | None,
                    ctgs: ContingencySet | None,
                    periods: list[NetworkCase], mode: CouplingMode,
                    dt_minutes: float):
    """Full (scenario, contingency, period) lattice: ramp rows along
    every chain, contingency rows from each chain's first period to its
    scenario's base stage, scenario boxes from each scenario's base
    stage to the global base."""
    lattice = build_lattice(scenarios, ctgs, list(periods), dt_minutes)
    n_s, n_c, n_t = lattice.shape
    b = _Builder(f"lattice(ns={n_s},nc={n_c - 1},nt={n_t})", lattice)
    at = lattice.index
    for s in range(n_s):
        for c in range(n_c):
            for t in range(1, n_t):
                b.box_rows(RAMP, at(s, c, t), at(s, c, t - 1),
                           dt_minutes / 30.0)
        for c in range(1, n_c):
            b.contingency_rows(at(s, c, 0), at(s, 0, 0), mode)
        if s > 0:
            b.box_rows(SCENARIO_BOX, at(s, 0, 0), at(0, 0, 0), 1.0)
    return b.assemble()


def compose_multiperiod(cases: list[NetworkCase], dt_minutes: float):
    """Ramp-coupled horizon; one stage per period, loads may vary."""
    return compose_general(None, None, cases, CouplingMode(), dt_minutes)


def compose_scopf(base: NetworkCase, ctgs: ContingencySet,
                  mode: CouplingMode):
    """Base plus post-contingency stages coupled at the base point."""
    return compose_general(None, ctgs, [base], mode, 30.0)


def compose_multiperiod_scopf(base_periods: list[NetworkCase],
                              ctgs: ContingencySet, mode: CouplingMode,
                              dt_minutes: float):
    """Every (contingency, period) stage; contingency coupling at the
    first period only, ramp chains within each contingency."""
    return compose_general(None, ctgs, base_periods, mode, dt_minutes)


def compose_sopf_full(base: NetworkCase, scenarios: ScenarioSet,
                      ctgs: ContingencySet | None, mode: CouplingMode):
    """Three-stage tree: contingencies couple to their scenario base,
    scenario bases couple to the most probable scenario."""
    return compose_general(scenarios, ctgs, [base], mode, 30.0)


def compose_sopf_flat(base: NetworkCase, scenarios: ScenarioSet,
                      ctgs: ContingencySet | None, mode: CouplingMode):
    """Flattened stochastic composite: all (scenario, contingency)
    stages couple directly to the most probable scenario's base stage,
    contingency stages by contingency rows and scenario bases by the
    scenario boxes of the lattice."""
    lattice = build_lattice(scenarios, ctgs, [base], 30.0)
    n_s, n_c, _ = lattice.shape
    b = _Builder(f"flat(ns={n_s},nc={n_c - 1})", lattice)
    for k in range(1, len(lattice.stages)):
        if k % n_c:
            b.contingency_rows(k, 0, mode)
        else:
            b.box_rows(SCENARIO_BOX, k, 0, 1.0)
    return b.assemble()
