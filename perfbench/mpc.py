"""Minimal MATPOWER reader and writer, kept apart from opfkit.matpower.

The benchmark builds its inputs and checks the program's outputs with
this module only, so a fault in the program's own parser or writer
cannot hide itself.  Matrices come back as float arrays with the
file's columns untouched (angles in degrees, powers in MW/MVAr).
"""

from __future__ import annotations

import re

import numpy as np

_SECTION = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)
_BASE = re.compile(r"mpc\.baseMVA\s*=\s*([^;\s]+)\s*;")
_NAME = re.compile(r"function\s+mpc\s*=\s*(\w+)")
SECTIONS = ("bus", "gen", "branch", "gencost")


def read(text: str) -> dict:
    """Sections of a case text as {'name', 'base_mva', 'bus', ...}."""
    text = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
    out: dict = {"name": _NAME.search(text).group(1),
                 "base_mva": float(_BASE.search(text).group(1))}
    for m in _SECTION.finditer(text):
        if m.group(1) not in SECTIONS:
            continue
        rows = [[float(tok) for tok in chunk.replace(",", " ").split()]
                for chunk in m.group(2).split(";")]
        rows = [r for r in rows if r]
        width = max(len(r) for r in rows)
        # gencost rows may differ in length; pad with zeros
        out[m.group(1)] = np.array([r + [0.0] * (width - len(r))
                                    for r in rows])
    missing = [s for s in SECTIONS if s not in out]
    if missing:
        raise ValueError(f"case text lacks mpc.{missing[0]}")
    return out


def read_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return read(fh.read())


def write(case: dict) -> str:
    """Case text, tab separated, 10 significant digits (deterministic)."""
    parts = [f"function mpc = {case['name']}", "",
             f"mpc.baseMVA = {case['base_mva']:.10g};", ""]
    for section in SECTIONS:
        parts.append(f"mpc.{section} = [")
        for row in case[section]:
            vals = row
            if section == "gencost":
                vals = row[:4 + int(row[3])]
            parts.append("\t" + "\t".join(f"{v:.10g}" for v in vals) + ";")
        parts += ["];", ""]
    return "\n".join(parts)
