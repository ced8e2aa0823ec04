"""Typed network model built on top of raw case data.

Internally angles are radians and shunt/impedance data per unit on the
system base; loads and generator limits stay in MW/MVAr (the optimal
power flow layer converts to per unit).  All case transformations
(outages, wind targets, load steps) are pure: they return new
NetworkCase objects and never touch their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from . import matpower
from .matpower import int_cell
from .errors import (
    DanglingReference,
    Disconnected,
    IndexOutOfRange,
    IslandingDetected,
    MalformedRow,
    MissingSection,
    NoReferenceBus,
    TargetOnNonWind,
    UnknownBus,
    UnknownOutage,
    ZeroImpedance,
)

PQ, PV, REF, ISOLATED = 1, 2, 3, 4


@dataclass(frozen=True)
class Bus:
    id: int
    btype: int
    pd: float       # MW
    qd: float       # MVAr
    gs: float       # MW at V=1 pu
    bs: float       # MVAr at V=1 pu
    area: int
    vm: float       # pu
    va: float       # rad
    base_kv: float
    zone: int
    vmax: float
    vmin: float
    extra: tuple[float, ...] = ()


@dataclass(frozen=True)
class GenCost:
    """Polynomial cost c2*p^2 + c1*p + c0 with p in MW, value $/h."""
    c2: float
    c1: float
    c0: float
    startup: float = 0.0
    shutdown: float = 0.0
    ncost: int = 3

    def is_zero(self) -> bool:
        return self.c2 == 0.0 and self.c1 == 0.0 and self.c0 == 0.0

    def at(self, p_mw: float) -> float:
        return (self.c2 * p_mw + self.c1) * p_mw + self.c0


@dataclass(frozen=True)
class Generator:
    bus: int
    pg: float       # MW
    qg: float       # MVAr
    qmax: float
    qmin: float
    vg: float
    mbase: float
    status: int
    pmax: float
    pmin: float
    ramp_30: float  # MW over 30 minutes
    cost: GenCost
    is_wind: bool
    tail: tuple[float, ...] = ()


@dataclass(frozen=True)
class Branch:
    fbus: int
    tbus: int
    r: float
    x: float
    b: float
    rate_a: float   # MVA, 0 = unconstrained
    rate_b: float
    rate_c: float
    ratio: float    # 0 means no transformer (tap 1)
    angle: float    # rad (phase shift)
    status: int
    angmin: float   # degrees, kept verbatim
    angmax: float
    extra: tuple[float, ...] = ()

    @property
    def tap(self) -> complex:
        mag = self.ratio if self.ratio != 0.0 else 1.0
        return mag * complex(math.cos(self.angle), math.sin(self.angle))


@dataclass(frozen=True)
class NetworkCase:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    gens: tuple[Generator, ...]
    branches: tuple[Branch, ...]

    @cached_property
    def bus_pos(self) -> dict[int, int]:
        """Bus id -> position in self.buses."""
        return {b.id: i for i, b in enumerate(self.buses)}

    def gens_at(self, bus_id: int) -> list[int]:
        """Positions (in self.gens) of all gens at a bus, file order."""
        return [i for i, g in enumerate(self.gens) if g.bus == bus_id]

    def branches_between(self, fbus: int, tbus: int) -> list[int]:
        """Positions of branches with this exact orientation, file order."""
        return [i for i, br in enumerate(self.branches)
                if br.fbus == fbus and br.tbus == tbus]

    def to_raw(self) -> matpower.RawCase:
        bus_rows = tuple(
            (float(b.id), float(b.btype), b.pd, b.qd, b.gs, b.bs,
             float(b.area), b.vm, math.degrees(b.va), b.base_kv,
             float(b.zone), b.vmax, b.vmin) + b.extra
            for b in self.buses)
        gen_rows = tuple(
            (float(g.bus), g.pg, g.qg, g.qmax, g.qmin, g.vg, g.mbase,
             float(g.status), g.pmax, g.pmin) + g.tail
            for g in self.gens)
        branch_rows = tuple(
            (float(br.fbus), float(br.tbus), br.r, br.x, br.b,
             br.rate_a, br.rate_b, br.rate_c, br.ratio,
             math.degrees(br.angle), float(br.status),
             br.angmin, br.angmax) + br.extra
            for br in self.branches)
        cost_rows = []
        for g in self.gens:
            c = g.cost
            coeffs = (c.c2, c.c1, c.c0)[3 - c.ncost:]
            cost_rows.append((2.0, c.startup, c.shutdown, float(c.ncost))
                             + coeffs)
        return matpower.RawCase(
            name=self.name, base_mva=self.base_mva, bus=bus_rows,
            gen=gen_rows, branch=branch_rows, gencost=tuple(cost_rows))


def _check_limits(section: str, i: int, row: tuple[float, ...], lo: int,
                  hi: int, low: str, high: str) -> None:
    """MalformedRow when limit `low` (column lo, 0-based) exceeds `high`."""
    if row[lo] > row[hi]:
        raise MalformedRow(f"mpc.{section} row {i + 1}: column {lo + 1} "
                           f"({low}) is {row[lo]}, above column {hi + 1} "
                           f"({high}) {row[hi]}")


def _gen_from_row(i: int, row: tuple[float, ...],
                  cost_row: tuple[float, ...]) -> Generator:
    tail = row[10:]
    # 1-indexed gen column 18 carries the 30-minute ramp: tail position 7.
    ramp_30 = tail[7] if len(tail) > 7 else 0.0
    if ramp_30 < 0.0:
        raise MalformedRow(f"mpc.gen row {i + 1}: column 18 (ramp_30) is "
                           f"{ramp_30}, need a limit of at least 0")
    ncost = int_cell("gencost", i, cost_row, 3)
    coeffs = cost_row[4:4 + ncost]
    padded = (0.0,) * (3 - ncost) + tuple(coeffs)
    cost = GenCost(c2=padded[0], c1=padded[1], c0=padded[2],
                   startup=cost_row[1], shutdown=cost_row[2], ncost=ncost)
    pmin = row[9]
    status = int_cell("gen", i, row, 7)
    if status != 0:
        _check_limits("gen", i, row, 9, 8, "Pmin", "Pmax")
        _check_limits("gen", i, row, 4, 3, "Qmin", "Qmax")
    return Generator(
        bus=int_cell("gen", i, row, 0), pg=row[1], qg=row[2],
        qmax=row[3], qmin=row[4], vg=row[5], mbase=row[6],
        status=status, pmax=row[8], pmin=pmin,
        ramp_30=ramp_30, cost=cost,
        is_wind=cost.is_zero() and pmin == 0.0, tail=tail)


def from_raw(raw: matpower.RawCase) -> NetworkCase:
    """Build the typed model; degree fields become radians.

    Raises MalformedRow (an integer code that is not finite, a negative
    ramp limit, or crossed P, Q or V limits on a live unit or bus),
    MissingSection (fewer gencost rows than generators),
    DanglingReference, NoReferenceBus or ZeroImpedance.
    """
    if len(raw.gencost) < len(raw.gen):
        raise MissingSection(f"mpc.gencost has {len(raw.gencost)} rows for "
                             f"{len(raw.gen)} generators")
    buses = tuple(
        Bus(id=int_cell("bus", i, r, 0), btype=int_cell("bus", i, r, 1),
            pd=r[2], qd=r[3], gs=r[4], bs=r[5],
            area=int_cell("bus", i, r, 6), vm=r[7], va=math.radians(r[8]),
            base_kv=r[9], zone=int_cell("bus", i, r, 10), vmax=r[11],
            vmin=r[12], extra=r[13:])
        for i, r in enumerate(raw.bus))
    for i, (b, r) in enumerate(zip(buses, raw.bus)):
        if b.btype != ISOLATED:
            _check_limits("bus", i, r, 12, 11, "Vmin", "Vmax")
    ids = {b.id for b in buses}
    if not any(b.btype == REF for b in buses):
        raise NoReferenceBus(f"case {raw.name!r} has no type-3 bus")

    gens = tuple(_gen_from_row(i, row, raw.gencost[i])
                 for i, row in enumerate(raw.gen))
    for i, g in enumerate(gens):
        if g.bus not in ids:
            raise DanglingReference(f"gen row {i + 1} references bus {g.bus}")

    branches = []
    for i, r in enumerate(raw.branch):
        br = Branch(fbus=int_cell("branch", i, r, 0),
                    tbus=int_cell("branch", i, r, 1), r=r[2], x=r[3], b=r[4],
                    rate_a=r[5], rate_b=r[6], rate_c=r[7], ratio=r[8],
                    angle=math.radians(r[9]),
                    status=int_cell("branch", i, r, 10),
                    angmin=r[11], angmax=r[12], extra=r[13:])
        if br.fbus not in ids or br.tbus not in ids:
            raise DanglingReference(
                f"branch row {i + 1} references bus {br.fbus}-{br.tbus}")
        if br.status != 0 and br.r == 0.0 and br.x == 0.0:
            raise ZeroImpedance(f"branch row {i + 1} has r = x = 0")
        branches.append(br)

    return NetworkCase(name=raw.name, base_mva=raw.base_mva, buses=buses,
                       gens=gens, branches=tuple(branches))


def load_case(path: str) -> NetworkCase:
    return from_raw(matpower.parse_case_file(path))


def branch_admittance(br: Branch) -> tuple[complex, complex, complex, complex]:
    """Two-port admittances (yff, yft, ytf, ytt) of the branch pi model.

    Series y = 1/(r + jx), half charging jb/2 at each terminal, complex
    tap t on the from side: yff = (y + jb/2)/|t|^2, yft = -y/conj(t),
    ytf = -y/t, ytt = y + jb/2.
    """
    y = 1.0 / complex(br.r, br.x)
    shunt = complex(0.0, br.b / 2.0)
    t = br.tap
    yff = (y + shunt) / (t * t.conjugate())
    yft = -y / t.conjugate()
    ytf = -y / t
    ytt = y + shunt
    return yff, yft, ytf, ytt


def check_connectivity(case: NetworkCase) -> tuple[int, list[int]]:
    """Island count and per-bus island label over in-service branches.

    Isolated (type 4) buses are excluded and labeled -1.
    """
    pos = case.bus_pos
    active = [b.btype != ISOLATED for b in case.buses]
    adj: list[list[int]] = [[] for _ in case.buses]
    for br in case.branches:
        if br.status == 0:
            continue
        i, j = pos[br.fbus], pos[br.tbus]
        if active[i] and active[j]:
            adj[i].append(j)
            adj[j].append(i)

    labels = [-1] * len(case.buses)
    n_islands = 0
    for start in range(len(case.buses)):
        if not active[start] or labels[start] != -1:
            continue
        labels[start] = n_islands
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = n_islands
                    stack.append(v)
        n_islands += 1
    return n_islands, labels


def require_connected(case: NetworkCase) -> None:
    """Raise Disconnected unless every in-service branch joins two
    active buses, every in-service generator sits on an active bus, and
    the in-service network is a single island."""
    for br in case.branches:
        ends = (case.buses[case.bus_pos[b]] for b in (br.fbus, br.tbus))
        if br.status != 0 and any(b.btype == ISOLATED for b in ends):
            raise Disconnected(f"in-service branch {br.fbus}-{br.tbus} "
                               "touches an isolated bus")
    for g in case.gens:
        if g.status != 0 and case.buses[case.bus_pos[g.bus]].btype == ISOLATED:
            raise Disconnected(f"in-service generator at bus {g.bus} sits "
                               "on an isolated bus")
    n_islands, _ = check_connectivity(case)
    if n_islands != 1:
        raise Disconnected(f"case {case.name!r} has {n_islands} islands")


GEN, BRANCH = "GEN", "BRANCH"


@dataclass(frozen=True)
class Outage:
    kind: str                  # GEN or BRANCH
    bus: int                   # gen bus, or branch fbus
    tbus: int | None           # branch tbus, None for gens
    ordinal: int               # 1-based among matching elements, file order


@dataclass(frozen=True)
class Contingency:
    id: int
    outages: tuple[Outage, ...]


@dataclass(frozen=True)
class Scenario:
    id: int
    weight: float
    # ((bus, ordinal), MW) per targeted wind generator
    wind_targets: tuple[tuple[tuple[int, int], float], ...]


@dataclass(frozen=True)
class LoadProfile:
    times: tuple[float, ...]            # minutes, strictly increasing
    buses: tuple[int, ...]
    pd: tuple[tuple[float, ...], ...]   # [step][bus column] MW
    qd: tuple[tuple[float, ...], ...]   # [step][bus column] MVAr


def _resolve_gen(case: NetworkCase, bus: int, ordinal: int) -> int:
    at_bus = case.gens_at(bus)
    if not 1 <= ordinal <= len(at_bus):
        raise UnknownOutage(f"no generator #{ordinal} at bus {bus}")
    return at_bus[ordinal - 1]


def _resolve_branch(case: NetworkCase, fbus: int, tbus: int, ordinal: int) -> int:
    between = case.branches_between(fbus, tbus)
    if not 1 <= ordinal <= len(between):
        raise UnknownOutage(f"no branch #{ordinal} from bus {fbus} to {tbus}")
    return between[ordinal - 1]


def apply_contingency(case: NetworkCase, ctg: Contingency) -> NetworkCase:
    """New case with the contingency's elements switched off.

    Raises UnknownOutage for unresolvable or already-off elements and
    IslandingDetected when branch outages split the network.
    """
    gens = list(case.gens)
    branches = list(case.branches)
    touched_branch = False
    for o in ctg.outages:
        if o.kind == GEN:
            k = _resolve_gen(case, o.bus, o.ordinal)
            if gens[k].status == 0:
                raise UnknownOutage(
                    f"generator #{o.ordinal} at bus {o.bus} is already off")
            gens[k] = replace(gens[k], status=0)
        elif o.kind == BRANCH:
            k = _resolve_branch(case, o.bus, o.tbus, o.ordinal)
            if branches[k].status == 0:
                raise UnknownOutage(
                    f"branch #{o.ordinal} {o.bus}-{o.tbus} is already off")
            branches[k] = replace(branches[k], status=0)
            touched_branch = True
        else:
            raise UnknownOutage(f"outage kind {o.kind!r}")

    out = replace(case, gens=tuple(gens), branches=tuple(branches))
    if touched_branch:
        n_islands, _ = check_connectivity(out)
        if n_islands != 1:
            raise IslandingDetected(
                f"contingency {ctg.id} splits the network into "
                f"{n_islands} islands")
    return out


def apply_scenario(case: NetworkCase, scenario: Scenario) -> NetworkCase:
    """New case with wind generator Pmax set to the scenario targets."""
    gens = list(case.gens)
    for (bus, ordinal), mw in scenario.wind_targets:
        k = _resolve_gen(case, bus, ordinal)
        if not gens[k].is_wind:
            raise TargetOnNonWind(
                f"generator #{ordinal} at bus {bus} is not wind")
        gens[k] = replace(gens[k], pmax=mw, pmin=0.0)
    return replace(case, gens=tuple(gens))


def declare_wind(case: NetworkCase, keys: list[tuple[int, int]]) -> NetworkCase:
    """Mark generators as wind (zero cost, pmin 0) by (bus, ordinal).

    Explicit override for scenario files that target generators whose
    cost rows are not all zero.
    """
    gens = list(case.gens)
    for bus, ordinal in keys:
        k = _resolve_gen(case, bus, ordinal)
        g = gens[k]
        if not g.is_wind:
            cost = replace(g.cost, c2=0.0, c1=0.0, c0=0.0)
            gens[k] = replace(g, cost=cost, pmin=0.0, is_wind=True)
    return replace(case, gens=tuple(gens))


def apply_load_step(case: NetworkCase, profile: LoadProfile, t: int) -> NetworkCase:
    """New case with bus loads replaced by profile step t (absolute MW/MVAr)."""
    if not 0 <= t < len(profile.times):
        raise IndexOutOfRange(
            f"step {t} outside profile horizon of {len(profile.times)}")
    buses = list(case.buses)
    for col, bus_id in enumerate(profile.buses):
        pos = case.bus_pos.get(bus_id)
        if pos is None:
            raise UnknownBus(f"profile bus {bus_id} not in case")
        buses[pos] = replace(buses[pos], pd=profile.pd[t][col],
                             qd=profile.qd[t][col])
    return replace(case, buses=tuple(buses))
