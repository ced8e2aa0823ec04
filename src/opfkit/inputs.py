"""Text inputs for the coupling dimensions: contingencies, scenarios, loads.

Three small line formats, all UTF-8:

* contingency list: one outage per line,
  ``ctgc_id,KIND,bus_or_fbus,tbus_or_dash,ordinal`` with KIND GEN or
  BRANCH, ``#`` comments, optional header; lines sharing an id merge
  into one multi-outage contingency.
* scenario CSV: header ``scenario,weight,wind_<bus>_<ordinal>,...``;
  wind cells are available power targets in MW, finite and >= 0.
* load profile: two CSVs (P in MW, Q in MVAr) with header
  ``time_min,<busid>,...`` and identical time columns; every cell is
  a finite number (loads may be negative).

Parsing is pure and raises on any malformed content; element existence
against a particular network is checked later at application time.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

from .errors import (
    BadKind,
    ContingencyIdGap,
    DuplicateOutage,
    EmptyScenarioSet,
    MalformedHeader,
    MalformedLine,
    NegativeWeight,
    NonNumericCell,
    TimeMismatch,
    UnknownHeader,
    EmptyProfile,
)
from .network import BRANCH, GEN, Contingency, LoadProfile, Outage, Scenario

_WIND_COL = re.compile(r"wind_(\d+)_(\d+)\Z")


@dataclass(frozen=True)
class ContingencySet:
    contingencies: tuple[Contingency, ...]

    def __len__(self) -> int:
        return len(self.contingencies)

    def __iter__(self):
        return iter(self.contingencies)

    def by_id(self) -> tuple[Contingency, ...]:
        return tuple(sorted(self.contingencies, key=lambda c: c.id))

    def truncated(self, nc: int) -> "ContingencySet":
        """First nc contingencies in file order."""
        return ContingencySet(self.contingencies[:max(nc, 0)])


@dataclass(frozen=True)
class ScenarioSet:
    scenarios: tuple[Scenario, ...]

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def total_weight(self) -> float:
        return sum(s.weight for s in self.scenarios)

    def base_index(self) -> int:
        """Most probable scenario; ties resolve to the lowest id."""
        if not self.scenarios:
            raise EmptyScenarioSet("no scenarios")
        return min(range(len(self.scenarios)),
                   key=lambda i: (-self.scenarios[i].weight,
                                  self.scenarios[i].id))

    def wind_keys(self) -> tuple[tuple[int, int], ...]:
        """(bus, ordinal) pairs targeted by any scenario, first-seen order."""
        seen: dict[tuple[int, int], None] = {}
        for s in self.scenarios:
            for key, _ in s.wind_targets:
                seen.setdefault(key, None)
        return tuple(seen)

    def truncated(self, ns: int) -> "ScenarioSet":
        return ScenarioSet(self.scenarios[:max(ns, 0)])


def _int_field(value: str, what: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedLine(f"line {lineno}: {what} {value!r} is not an integer") from None


def parse_contingencies(text: str) -> ContingencySet:
    """Parse the native contingency list format."""
    outages: dict[int, list[Outage]] = {}
    order: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if fields[0].lower() == "ctgc_id":
            continue
        if len(fields) != 5:
            raise MalformedLine(
                f"line {lineno}: expected 5 fields, got {len(fields)}")
        cid = _int_field(fields[0], "contingency id", lineno)
        kind = fields[1]
        if kind not in (GEN, BRANCH):
            raise BadKind(f"line {lineno}: kind {kind!r} is not GEN or BRANCH")
        if kind == GEN:
            if fields[3] != "-":
                raise MalformedLine(
                    f"line {lineno}: generator outage takes '-' for tbus")
            outage = Outage(kind=GEN,
                            bus=_int_field(fields[2], "bus", lineno),
                            tbus=None,
                            ordinal=_int_field(fields[4], "ordinal", lineno))
        else:
            outage = Outage(kind=BRANCH,
                            bus=_int_field(fields[2], "fbus", lineno),
                            tbus=_int_field(fields[3], "tbus", lineno),
                            ordinal=_int_field(fields[4], "ordinal", lineno))
        if cid not in outages:
            outages[cid] = []
            order.append(cid)
        if outage in outages[cid]:
            raise DuplicateOutage(
                f"line {lineno}: outage repeated in contingency {cid}")
        outages[cid].append(outage)
    ids = sorted(outages)
    if ids and ids != list(range(1, len(ids) + 1)):
        raise ContingencyIdGap(
            f"contingency ids must be dense from 1, got {ids}")
    return ContingencySet(tuple(
        Contingency(id=cid, outages=tuple(outages[cid])) for cid in order))


def parse_contingencies_file(path) -> ContingencySet:
    with open(path, encoding="utf-8") as fh:
        return parse_contingencies(fh.read())


def _finite_cells(cells: list[str], where: str) -> list[float]:
    """Numbers of a CSV row; a cell that is not a finite number raises
    NonNumericCell naming where it is."""
    try:
        values = [float(c) for c in cells]
    except ValueError:
        raise NonNumericCell(f"{where} has a non-numeric cell") from None
    if not all(map(math.isfinite, values)):
        raise NonNumericCell(f"{where} has a cell that is not finite")
    return values


def _csv_rows(text: str) -> list[list[str]]:
    rows = csv.reader(io.StringIO(text))
    return [[c.strip() for c in row] for row in rows
            if row and any(c.strip() for c in row)]


def parse_scenarios(text: str) -> ScenarioSet:
    """Parse the scenario CSV; weights stay raw, normalization is the
    composer's job."""
    rows = _csv_rows(text)
    if not rows:
        raise EmptyScenarioSet("scenario file has no rows")
    header = rows[0]
    if len(header) < 2 or header[0] != "scenario" or header[1] != "weight":
        raise MalformedHeader(
            "scenario header must start 'scenario,weight'")
    keys: list[tuple[int, int]] = []
    for col in header[2:]:
        m = _WIND_COL.match(col)
        if not m:
            raise MalformedHeader(
                f"column {col!r} does not match wind_<bus>_<ordinal>")
        keys.append((int(m.group(1)), int(m.group(2))))

    scenarios: list[Scenario] = []
    seen_ids: set[int] = set()
    for rowno, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise MalformedLine(
                f"scenario row {rowno} has {len(row)} cells, "
                f"expected {len(header)}")
        try:
            sid = int(row[0])
            weight = float(row[1])
        except ValueError:
            raise NonNumericCell(f"scenario row {rowno} has a non-numeric cell") from None
        winds = _finite_cells(row[2:], f"scenario row {rowno}")
        if not weight >= 0.0 or weight != weight or weight == float("inf"):
            raise NegativeWeight(
                f"scenario {sid} weight {row[1]} must be finite and >= 0")
        if any(w < 0.0 for w in winds):
            raise MalformedLine(
                f"scenario row {rowno}: a wind target is negative")
        if sid in seen_ids:
            raise MalformedLine(f"duplicate scenario id {sid}")
        seen_ids.add(sid)
        scenarios.append(Scenario(
            id=sid, weight=weight,
            wind_targets=tuple(zip(keys, winds))))
    if not scenarios:
        raise EmptyScenarioSet("scenario file has no data rows")
    return ScenarioSet(tuple(scenarios))


def parse_scenarios_file(path) -> ScenarioSet:
    with open(path, encoding="utf-8") as fh:
        return parse_scenarios(fh.read())


def _load_table(text: str, label: str):
    rows = _csv_rows(text)
    if not rows:
        raise EmptyProfile(f"{label} profile is empty")
    header = rows[0]
    if not header or header[0] != "time_min":
        raise UnknownHeader(f"{label} profile must start with time_min")
    try:
        buses = tuple(int(h) for h in header[1:])
    except ValueError:
        raise UnknownHeader(f"{label} profile has a non-integer bus column") from None
    if not rows[1:]:
        raise EmptyProfile(f"{label} profile has no data rows")
    times: list[float] = []
    values: list[tuple[float, ...]] = []
    for rowno, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise MalformedLine(
                f"{label} row {rowno} has {len(row)} cells, "
                f"expected {len(header)}")
        cells = _finite_cells(row, f"{label} row {rowno}")
        if times and cells[0] <= times[-1]:
            raise MalformedLine(
                f"{label} row {rowno}: time {cells[0]} not increasing")
        times.append(cells[0])
        values.append(tuple(cells[1:]))
    return tuple(times), buses, tuple(values)


def parse_load_profile(ptext: str, qtext: str) -> LoadProfile:
    """Parse paired P/Q load CSVs into one profile."""
    p_times, p_buses, pd = _load_table(ptext, "P")
    q_times, q_buses, qd = _load_table(qtext, "Q")
    if p_times != q_times:
        raise TimeMismatch(
            f"P and Q profiles disagree on times: {len(p_times)} steps "
            f"vs {len(q_times)}")
    if p_buses != q_buses:
        raise UnknownHeader("P and Q profiles list different buses")
    return LoadProfile(times=p_times, buses=p_buses, pd=pd, qd=qd)


def parse_load_profile_files(ppath, qpath) -> LoadProfile:
    with open(ppath, encoding="utf-8") as fp, open(qpath, encoding="utf-8") as fq:
        return parse_load_profile(fp.read(), fq.read())
