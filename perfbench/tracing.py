"""Spans around calls into opfkit's layers, recorded from outside.

`instrument(tracer)` swaps the module attributes through which the
runner reaches each layer for wrappers that open a span, and restores
them on exit; nothing inside opfkit changes.  The `NlpProblem` handed
to `solve` is replaced by a copy whose callbacks are wrapped the same
way, so callback time and counts are measured where the solver pays
them.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

# NlpProblem callback attribute -> its span name under "nlp."
NLP_CALLBACKS = {"objective": "objective", "gradient": "gradient",
                 "constraints": "constraints", "jacobian": "jacobian",
                 "lagrangian_hessian": "hessian"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 at the top
    request: int


class Tracer:
    """In-memory span store plus the counters recorded at the same calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.request = -1
        self.active = False

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) records counters."""
        def wrapped(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if self.active and after is not None:
                after(out, args)
            return out
        return wrapped

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, span count."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        count: dict[str, int] = {}
        for i, sp in enumerate(self.spans):
            d = sp.end - sp.start
            incl[sp.name] = incl.get(sp.name, 0.0) + d
            self_s[sp.name] = self_s.get(sp.name, 0.0) + d - child[i]
            count[sp.name] = count.get(sp.name, 0) + 1
        return incl, self_s, count

    def write(self, path: str, extra: dict) -> None:
        incl, self_s, count = self.totals()
        t0 = self.spans[0].start if self.spans else 0.0
        doc = dict(extra)
        doc["layers"] = {name: {"spans": count[name], "total_s": incl[name],
                                "self_s": self_s[name]}
                         for name in sorted(incl)}
        doc["spans"] = [[sp.name, sp.start - t0, sp.end - t0, sp.parent,
                         sp.request] for sp in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _file_bytes(key: str, tracer: Tracer, path_arg: int):
    def after(_out, args):
        tracer.add(key, os.path.getsize(args[path_arg]))
    return after


def _traced_problem(tracer: Tracer, problem, nnz: dict[str, int]):
    """A copy of problem with spanned callbacks; the Jacobian and Hessian
    callbacks also keep the largest nnz they return in nnz."""
    wrapped = {}
    for attr, short in NLP_CALLBACKS.items():
        after = None
        if short in ("jacobian", "hessian"):
            after = _max_nnz(nnz, f"nlp.{short}_nnz")
        wrapped[attr] = tracer.wrap(f"nlp.{short}", getattr(problem, attr),
                                    after)
    return replace(problem, **wrapped)


def _max_nnz(nnz: dict[str, int], key: str):
    def after(out, _args):
        nnz[key] = max(nnz.get(key, 0), out.nnz)
    return after


def _solve_wrapper(tracer: Tracer, solve):
    def traced_solve(problem, options=None):
        nnz: dict[str, int] = {}
        traced = _traced_problem(tracer, problem, nnz)
        with tracer.span("ipm.solve"):
            result = solve(traced, options)
        if tracer.active:
            tracer.add("ipm.solves", 1)
            tracer.add("ipm.iterations", result.iterations)
            tracer.add("ipm.regularized_iterations",
                       sum(1 for rec in result.iter_log if rec.reg > 0.0))
            tracer.add("ipm.kkt_dim",
                       int(np.count_nonzero(problem.xl != problem.xu))
                       + problem.m_eq)
            for key, value in nnz.items():
                tracer.add(key, value)
        return result
    return traced_solve


def _count(tracer: Tracer, key: str):
    def after(_out, _args):
        tracer.add(key, 1)
    return after


def _compose_after(tracer: Tracer):
    def after(out, _args):
        _problem, imap = out
        tracer.add("composer.stages", len(imap.stages))
        tracer.add("composer.coupling_rows", len(imap.coupling_rows))
    return after


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the runner's calls into each layer through span wrappers."""
    from opfkit import composer, matpower, network, runner

    transform = _count(tracer, "network.transform_calls")
    plan = []
    for name in ("compose_general", "compose_multiperiod",
                 "compose_multiperiod_scopf", "compose_scopf",
                 "compose_sopf_flat", "compose_sopf_full"):
        plan.append((runner, name, "composer.compose", _compose_after(tracer)))
    for name in ("parse_contingencies_file", "parse_scenarios_file",
                 "parse_load_profile_files"):
        plan.append((runner, name, "inputs.parse", None))
    for name in ("declare_wind", "apply_load_step", "apply_scenario",
                 "apply_contingency"):
        plan.append((runner, name, "network.transform", transform))
    for name in ("apply_scenario", "apply_contingency"):
        plan.append((composer, name, "network.transform", transform))
    plan += [
        (runner, "extract_solution", "acopf.extract", None),
        (runner, "write_case_file", "matpower.write",
         _file_bytes("matpower.write_bytes", tracer, 1)),
        (network, "from_raw", "network.build", None),
        (matpower, "parse_case_file", "matpower.parse",
         _file_bytes("matpower.parse_bytes", tracer, 0)),
    ]
    saved = []
    try:
        for module, attr, span, after in plan:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, after))
        saved.append((runner, "solve", runner.solve))
        runner.solve = _solve_wrapper(tracer, runner.solve)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
