"""MATPOWER case file reading and writing.

A case file is a MATLAB script assigning matrices to fields of a struct
named ``mpc``.  Only the numeric matrix sections are interpreted:

* ``mpc.baseMVA``  system MVA base (scalar)
* ``mpc.bus``      13+ columns: bus id, type, Pd, Qd, Gs, Bs, area, Vm,
  Va, baseKV, zone, Vmax, Vmin
* ``mpc.gen``      10+ columns: bus, Pg, Qg, Qmax, Qmin, Vg, mBase,
  status, Pmax, Pmin, then optional cost/ramp columns
* ``mpc.branch``   13+ columns: fbus, tbus, r, x, b, rateA, rateB,
  rateC, ratio, angle, status, angmin, angmax (a written solution
  appends four flow columns Pf, Qf, Pt, Qt)
* ``mpc.gencost``  polynomial rows: model(=2), startup, shutdown,
  ncost, then ncost coefficients (highest order first)

Angles are degrees and powers MW/MVAr in the file; unit conversion is
the concern of the network model, not of this module.  Parsing returns
a frozen :class:`RawCase` of plain float tuples; unknown trailing
columns survive a parse/format round trip verbatim.

``baseMVA`` must be finite and positive.  NaN is never a valid cell,
while ``Inf`` stays legal in every float cell (an unbounded limit, for
example); integer-coded cells must be finite where they are read
(`int_cell`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import MalformedRow, MissingSection, ShortRow, UnsupportedCostModel

_SECTION_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)
_BASE_RE = re.compile(r"mpc\.baseMVA\s*=\s*([^;\s]+)\s*;")
_NAME_RE = re.compile(r"function\s+mpc\s*=\s*(\w+)")

BUS_COLS = 13
GEN_COLS = 10
BRANCH_COLS = 13
GENCOST_FIXED_COLS = 4

Rows = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class RawCase:
    """Numeric contents of a case file, column meanings untouched."""

    name: str
    base_mva: float
    bus: Rows
    gen: Rows
    branch: Rows
    gencost: Rows


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _parse_matrix(body: str, section: str, min_cols: int, first_line: int) -> Rows:
    """Split a matrix body into rows of floats.

    Rows are separated by ';' or newlines; columns by whitespace or
    commas.  first_line is the 1-based line of the opening bracket,
    used for diagnostics.
    """
    rows: list[tuple[float, ...]] = []
    line_no = first_line
    for chunk in body.split(";"):
        line_no += chunk.count("\n")
        fields = chunk.replace(",", " ").split()
        if not fields:
            continue
        try:
            row = tuple(float(tok) for tok in fields)
        except ValueError as exc:
            raise MalformedRow(
                f"mpc.{section} row near line {line_no}: {exc}"
            ) from None
        if any(map(math.isnan, row)):
            col = next(c for c, v in enumerate(row) if math.isnan(v))
            raise MalformedRow(
                f"mpc.{section} row {len(rows) + 1} near line {line_no}: "
                f"column {col + 1} is nan")
        if len(row) < min_cols:
            raise ShortRow(
                f"mpc.{section} row near line {line_no}: "
                f"{len(row)} columns, need at least {min_cols}"
            )
        rows.append(row)
    return tuple(rows)


def int_cell(section: str, i: int, row: tuple[float, ...], col: int) -> int:
    """Integer code in column col of row i (0-based) of a section; a
    value that is not finite raises MalformedRow."""
    value = row[col]
    if not math.isfinite(value):
        raise MalformedRow(f"mpc.{section} row {i + 1}: column {col + 1} "
                           f"is {value}, need an integer code")
    return int(value)


def _check_gencost(rows: Rows, first_line: int) -> None:
    for i, row in enumerate(rows):
        model = int_cell("gencost", i, row, 0)
        ncost = int_cell("gencost", i, row, 3)
        if model != 2:
            raise UnsupportedCostModel(
                f"gencost row {i + 1}: model {model} (only polynomial model 2)"
            )
        if not 1 <= ncost <= 3:
            raise UnsupportedCostModel(
                f"gencost row {i + 1}: ncost {ncost} (need 1..3 coefficients)"
            )
        if len(row) < GENCOST_FIXED_COLS + ncost:
            raise ShortRow(
                f"gencost row {i + 1}: {len(row)} columns, "
                f"need {GENCOST_FIXED_COLS + ncost} for ncost {ncost}"
            )


def parse_case(text: str) -> RawCase:
    """Parse MATPOWER case text into a RawCase.

    Raises MissingSection, MalformedRow (a cell that is not a number or
    is NaN, or a baseMVA that is not finite and positive), ShortRow or
    UnsupportedCostModel with the offending section and line.
    """
    stripped = _strip_comments(text)

    name_m = _NAME_RE.search(stripped)
    name = name_m.group(1) if name_m else "case"

    base_m = _BASE_RE.search(stripped)
    if base_m is None:
        raise MissingSection("mpc.baseMVA not found")
    try:
        base_mva = float(base_m.group(1))
    except ValueError:
        base_mva = math.nan
    if not (math.isfinite(base_mva) and base_mva > 0):
        line = stripped[: base_m.start()].count("\n") + 1
        raise MalformedRow(f"mpc.baseMVA on line {line}: {base_m.group(1)!r} "
                           "is not a finite positive number")

    sections: dict[str, Rows] = {}
    min_cols = {"bus": BUS_COLS, "gen": GEN_COLS, "branch": BRANCH_COLS,
                "gencost": GENCOST_FIXED_COLS}
    for m in _SECTION_RE.finditer(stripped):
        section = m.group(1)
        if section not in min_cols:
            continue
        line = stripped[: m.start()].count("\n") + 1
        sections[section] = _parse_matrix(m.group(2), section,
                                          min_cols[section], line)
        if section == "gencost":
            _check_gencost(sections[section], line)

    for section in ("bus", "gen", "branch", "gencost"):
        if section not in sections:
            raise MissingSection(f"mpc.{section} not found")

    return RawCase(name=name, base_mva=base_mva, bus=sections["bus"],
                   gen=sections["gen"], branch=sections["branch"],
                   gencost=sections["gencost"])


def parse_case_file(path: str) -> RawCase:
    with open(path, encoding="utf-8") as fh:
        return parse_case(fh.read())


def _fmt(value: float) -> str:
    # 10 significant digits: enough for 1e-9 relative round-trip fidelity.
    # Near the largest double they would round up past it and read back
    # as inf, so magnitudes from 1e308 keep all 17.
    return "%.10g" % value if abs(value) < 1e308 else repr(float(value))


def _fmt_matrix(section: str, rows: Rows) -> str:
    lines = [f"mpc.{section} = ["]
    for row in rows:
        lines.append("\t" + "\t".join(_fmt(v) for v in row) + ";")
    lines.append("];")
    return "\n".join(lines)


def format_case(raw: RawCase) -> str:
    """Render a RawCase back to MATPOWER text (tab separated)."""
    parts = [
        f"function mpc = {raw.name}",
        "",
        f"mpc.baseMVA = {_fmt(raw.base_mva)};",
        "",
        _fmt_matrix("bus", raw.bus),
        "",
        _fmt_matrix("gen", raw.gen),
        "",
        _fmt_matrix("branch", raw.branch),
        "",
        _fmt_matrix("gencost", raw.gencost),
        "",
    ]
    return "\n".join(parts)


def write_case(solved, name: str | None = None) -> str:
    """Render a solved case (see acopf.SolvedCase) to MATPOWER text.

    Bus rows carry solved voltages, gen rows the solved dispatch, and
    branch rows the thirteen standard columns plus four appended flow
    columns Pf, Qf, Pt, Qt in MW/MVAr.
    """
    return format_case(solved.to_raw(name=name))


def write_case_file(solved, path: str, name: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_case(solved, name=name))
