"""AC optimal power flow in polar voltage coordinates, over one or many
stages at once.

Each stage is one NetworkCase turned into a smooth NLP block:

    variables   VA, VM per active bus; PG, QG per in-service generator
    objective   sum of polynomial generator costs ($/h), times the
                stage weight
    equalities  per-bus active/reactive power balance
                sum Pg - Pd/base - P_inj(V, theta) = 0 (Q likewise)
    inequalities |S_from|^2 and |S_to|^2 <= (rateA/base)^2 per rated
                in-service branch
    bounds      VM in [Vmin, Vmax], PG/QG in per-unit generator limits,
                reference bus angles pinned to their case values

P_inj includes series branch flows, line charging, taps/shifts and the
bus shunt (gs + j bs) scaled by |V|^2.  Gradient, Jacobian and
Lagrangian Hessian are analytic.  Their COO positions are listed when
the NLP is composed; the first evaluation of each turns them into a
canonical CSR structure and a slot per entry, and every evaluation
after that only computes values and sums them into those slots
(duplicates in input order).  The structure arrays are shared by every
matrix a callback returns.

One engine evaluates every stage of a composite in one vectorized
pass.  It stacks the stages' bus, branch and generator arrays in stage
order; stage k owns the variable block [VA, VM, PG, QG] at var_off[k],
and its balance rows [P, Q] and flow-limit rows follow stage k - 1's in
their region, ahead of the linear coupling rows between stages.  The
objective sums each stage's costs in one segmented reduction and adds
the weighted stage sums in stage order.  The engine also gives each
stage's AcopfLayout and maps an NLP point back to every stage's
SolvedCase in one pass.

Branch flow quantities use, with theta = theta_f - theta_t and
admittance components yff = gff + j bff etc.:

    u  = gft cos + bft sin        w  = gft sin - bft cos
    u2 = gtf cos - btf sin        w2 = -(gtf sin + btf cos)
    Pf = gff Vf^2 + Vf Vt u       Qf = -bff Vf^2 + Vf Vt w
    Pt = gtt Vt^2 + Vf Vt u2      Qt = -btt Vt^2 + Vf Vt w2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import matpower
from .errors import DimensionMismatch
from .network import (
    ISOLATED,
    REF,
    NetworkCase,
    branch_admittance,
)
from .nlp import CsrPattern, NlpProblem

# unique upper-triangle positions of a 4x4 block over (tf, tt, vf, vt)
_POSITIONS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
              (2, 2), (2, 3), (3, 3))
_POS_A, _POS_B = np.array(_POSITIONS).T


def _mirrored_entries():
    """The 16 entries of each branch's symmetric block in pattern order
    (each position, then its mirror when off the diagonal): their
    position in _POSITIONS, row axis and column axis."""
    entries = []
    for i, (a, b) in enumerate(_POSITIONS):
        entries.append((i, a, b))
        if a != b:
            entries.append((i, b, a))
    return np.array(entries).T


_ENTRY_POS, _ENTRY_ROW, _ENTRY_COL = _mirrored_entries()


@dataclass(frozen=True)
class AcopfLayout:
    """One stage's variable block: columns counted from the block's start.

    Keys are positions into case.buses / case.gens.  Isolated buses and
    out-of-service generators are absent from the maps.
    """

    n_vars: int
    va: dict[int, int]
    vm: dict[int, int]
    pg: dict[int, int]
    qg: dict[int, int]


class _Stage:
    """Active buses and live generators and branches of one stage case."""

    def __init__(self, case: NetworkCase):
        self.case = case
        self.active = [i for i, b in enumerate(case.buses)
                       if b.btype != ISOLATED]
        self.slot = {pos: k for k, pos in enumerate(self.active)}
        self.live_gens = [j for j, g in enumerate(case.gens) if g.status != 0]
        self.live_branches = [k for k, br in enumerate(case.branches)
                              if br.status != 0]
        self.rated = [i for i, k in enumerate(self.live_branches)
                      if case.branches[k].rate_a > 0.0]
        self.nb, self.ng = len(self.active), len(self.live_gens)


def _start(lo: float, hi: float) -> float:
    """A unit's starting set-point: the midpoint of finite limits, else
    0 clipped into them."""
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    return min(max(0.0, lo), hi)


def _scatter(size: int, at: list[int], values: np.ndarray) -> np.ndarray:
    """A zero vector of the given size with values at positions at."""
    out = np.zeros(size)
    out[at] = values
    return out


def _blocks(counts: list[int]):
    """Stage offsets of stacked per-stage blocks, and each stacked
    element's stage and position within its stage."""
    counts = np.asarray(counts, dtype=np.intp)
    start = np.cumsum(counts) - counts
    stage = np.repeat(np.arange(counts.size), counts)
    return start, stage, np.arange(stage.size) - start[stage]


class _Grid:
    """Bus shunts (pu) and live branches over one bus numbering: branch
    flows and bus injections at given voltages."""

    def __init__(self, gs, bs, fo, to, y):
        self.gs = np.array(gs, dtype=float)
        self.bs = np.array(bs, dtype=float)
        self.nb = self.gs.size
        self.fo = np.array(fo, dtype=np.intp)
        self.to = np.array(to, dtype=np.intp)
        self.nbr = self.fo.size
        y = np.array(y, dtype=complex).reshape(-1, 4)
        self.gff, self.bff = y[:, 0].real.copy(), y[:, 0].imag.copy()
        self.gft, self.bft = y[:, 1].real.copy(), y[:, 1].imag.copy()
        self.gtf, self.btf = y[:, 2].real.copy(), y[:, 2].imag.copy()
        self.gtt, self.btt = y[:, 3].real.copy(), y[:, 3].imag.copy()

    @classmethod
    def of_case(cls, case: NetworkCase):
        """Every bus of the case by position and its in-service branches;
        also returns those branches' positions."""
        live = [k for k, br in enumerate(case.branches) if br.status != 0]
        brv = [case.branches[k] for k in live]
        base = case.base_mva
        grid = cls([b.gs / base for b in case.buses],
                   [b.bs / base for b in case.buses],
                   [case.bus_pos[br.fbus] for br in brv],
                   [case.bus_pos[br.tbus] for br in brv],
                   [branch_admittance(br) for br in brv])
        return grid, np.array(live, dtype=np.intp)

    def flows(self, va: np.ndarray, vm: np.ndarray):
        """Flow values, and the terms their derivatives are made of."""
        vf, vt = vm[self.fo], vm[self.to]
        th = va[self.fo] - va[self.to]
        cs, sn = np.cos(th), np.sin(th)
        u = self.gft * cs + self.bft * sn
        w = self.gft * sn - self.bft * cs
        u2 = self.gtf * cs - self.btf * sn
        w2 = -(self.gtf * sn + self.btf * cs)
        vv = vf * vt
        return {"u": u, "w": w, "u2": u2, "w2": w2, "vf": vf, "vt": vt,
                "vv": vv, "pf": self.gff * vf * vf + vv * u,
                "qf": -self.bff * vf * vf + vv * w,
                "pt": self.gtt * vt * vt + vv * u2,
                "qt": -self.btt * vt * vt + vv * w2}

    def first_order(self, va: np.ndarray, vm: np.ndarray):
        """Flow values and their gradients over (tf, tt, vf, vt)."""
        fo = self.flows(va, vm)
        u, w, u2, w2 = fo["u"], fo["w"], fo["u2"], fo["w2"]
        vf, vt, vv = fo["vf"], fo["vt"], fo["vv"]
        fo["gpf"] = (-vv * w, vv * w, 2 * self.gff * vf + vt * u, vf * u)
        fo["gqf"] = (vv * u, -vv * u, -2 * self.bff * vf + vt * w, vf * w)
        fo["gpt"] = (vv * w2, -vv * w2, vt * u2, 2 * self.gtt * vt + vf * u2)
        fo["gqt"] = (-vv * u2, vv * u2, vt * w2,
                     -2 * self.btt * vt + vf * w2)
        return fo

    def injections(self, va: np.ndarray, vm: np.ndarray):
        """Per-bus network injections (pu), shunts included, and the
        flows they sum."""
        fo = self.flows(va, vm)
        p = np.zeros(self.nb)
        q = np.zeros(self.nb)
        np.add.at(p, self.fo, fo["pf"])
        np.add.at(p, self.to, fo["pt"])
        np.add.at(q, self.fo, fo["qf"])
        np.add.at(q, self.to, fo["qt"])
        p += self.gs * vm * vm
        q -= self.bs * vm * vm
        return p, q, fo


class _Engine(_Grid):
    """Stacked arrays and vectorized callbacks over a list of stage cases.

    weights scale each stage's objective.  `nlp` adds the coupling rows,
    lists the Jacobian and Hessian positions and returns the NLP over
    all stages.  Every case must pass `require_connected`, which its
    callers check once per topology.
    """

    def __init__(self, cases: list[NetworkCase], weights: tuple[float, ...]):
        self.stages = [_Stage(c) for c in cases]
        pd, qd, gs, bs, xl, xu, x0 = [], [], [], [], [], [], []
        fo, to, y, rated, smax2 = [], [], [], [], []
        gslot, cost, gen_w = [], [], []
        # each stage's slices of the stacked buses, units and branches
        self.slices = []
        nbus = nbr = ngen = 0
        for st, w in zip(self.stages, weights):
            case, base = st.case, st.case.base_mva
            busv = [case.buses[p] for p in st.active]
            gv = [case.gens[j] for j in st.live_gens]
            brv = [case.branches[k] for k in st.live_branches]
            pd += [b.pd / base for b in busv]
            qd += [b.qd / base for b in busv]
            gs += [b.gs / base for b in busv]
            bs += [b.bs / base for b in busv]
            fo += [nbus + st.slot[case.bus_pos[br.fbus]] for br in brv]
            to += [nbus + st.slot[case.bus_pos[br.tbus]] for br in brv]
            y += [branch_admittance(br) for br in brv]
            rated += [nbr + i for i in st.rated]
            smax2 += [(brv[i].rate_a / base) ** 2 for i in st.rated]
            gslot += [nbus + st.slot[case.bus_pos[g.bus]] for g in gv]
            cost += [(g.cost.c2 * base * base, g.cost.c1 * base, g.cost.c0)
                     for g in gv]
            gen_w += [w] * st.ng
            # variable block [VA, VM, PG, QG]; reference angles pinned
            xl += ([b.va if b.btype == REF else -math.inf for b in busv]
                   + [b.vmin for b in busv] + [g.pmin / base for g in gv]
                   + [g.qmin / base for g in gv])
            xu += ([b.va if b.btype == REF else math.inf for b in busv]
                   + [b.vmax for b in busv] + [g.pmax / base for g in gv]
                   + [g.qmax / base for g in gv])
            x0 += ([b.va for b in busv]
                   + [min(max(b.vm, b.vmin), b.vmax) for b in busv]
                   + [_start(g.pmin, g.pmax) / base for g in gv]
                   + [_start(g.qmin, g.qmax) / base for g in gv])
            self.slices.append((slice(nbus, nbus + st.nb),
                                slice(ngen, ngen + st.ng),
                                slice(nbr, nbr + len(brv))))
            nbus, nbr, ngen = nbus + st.nb, nbr + len(brv), ngen + st.ng
        super().__init__(gs, bs, fo, to, y)
        self.ng = ngen

        self.pd, self.qd = np.array(pd), np.array(qd)
        self.rated = np.array(rated, dtype=np.intp)
        self.smax2 = np.array(smax2, dtype=float)
        self.gslot = np.array(gslot, dtype=np.intp)
        cost = np.array(cost, dtype=float).reshape(-1, 3)
        self.cost_a, self.cost_b = cost[:, 0].copy(), cost[:, 1].copy()
        self.cost_c = cost[:, 2].copy()
        self.gen_w = np.array(gen_w, dtype=float)
        self.xl, self.xu, self.x0 = np.array(xl), np.array(xu), np.array(x0)

        # stage offsets, and every bus's and unit's place in the NLP
        nb = np.array([st.nb for st in self.stages], dtype=np.intp)
        ng = np.array([st.ng for st in self.stages], dtype=np.intp)
        self.var_off, _, _ = _blocks(2 * nb + 2 * ng)
        bus_off, bstage, bk = _blocks(nb)
        gen_off, gstage, gk = _blocks(ng)
        # the first unit and the weight of each stage that has a unit
        self.cost_starts = gen_off[ng > 0]
        self.cost_w = np.array(weights, dtype=float)[ng > 0]
        self.n = self.x0.size
        self.va_col = self.var_off[bstage] + bk
        self.vm_col = self.va_col + nb[bstage]
        self.p_row = 2 * bus_off[bstage] + bk
        self.q_row = self.p_row + nb[bstage]
        self.pg_col = self.var_off[gstage] + 2 * nb[gstage] + gk
        self.qg_col = self.pg_col + ng[gstage]

    def layouts(self) -> tuple[AcopfLayout, ...]:
        """Each stage's variable block, read off the stacked columns."""
        out = []
        for st, v, (bus, gen, _) in zip(self.stages, self.var_off,
                                        self.slices):
            va, vm = (dict(zip(st.active, (c[bus] - v).tolist()))
                      for c in (self.va_col, self.vm_col))
            pg, qg = (dict(zip(st.live_gens, (c[gen] - v).tolist()))
                      for c in (self.pg_col, self.qg_col))
            out.append(AcopfLayout(2 * (st.nb + st.ng), va, vm, pg, qg))
        return tuple(out)

    def solved(self, x: np.ndarray) -> tuple[SolvedCase, ...]:
        """Every stage's SolvedCase at the NLP point x: one flows pass
        over the stacked branches, scattered to case positions."""
        if x.shape != (self.n,):
            raise DimensionMismatch(
                f"x has shape {x.shape}, the NLP expects ({self.n},)")
        va, vm = x[self.va_col], x[self.vm_col]
        fo = self.flows(va, vm)
        out = []
        for st, (bus, gen, br) in zip(self.stages, self.slices):
            case, base = st.case, st.case.base_mva
            nb, ng, nbr = len(case.buses), len(case.gens), len(case.branches)
            pg = _scatter(ng, st.live_gens, x[self.pg_col[gen]] * base)
            out.append(SolvedCase(
                case=case, vm=_scatter(nb, st.active, vm[bus]),
                va=_scatter(nb, st.active, va[bus]), pg=pg,
                qg=_scatter(ng, st.live_gens, x[self.qg_col[gen]] * base),
                **{k: _scatter(nbr, st.live_branches, fo[k][br] * base)
                   for k in ("pf", "qf", "pt", "qt")},
                objective=float(sum(case.gens[j].cost.at(pg[j])
                                    for j in st.live_gens))))
        return tuple(out)

    # --- the NLP ---------------------------------------------------------

    def nlp(self, name: str, links, n_pins: int, bounds) -> NlpProblem:
        """The NLP over all stages plus one linear row x[a] - x[b] per
        (a, b) in links: the first n_pins are equalities after the stage
        equalities, the rest lie within -bound..bound after the stage
        inequalities.  `link_rows` then holds each link's row.
        """
        self.links = np.array(links, dtype=np.intp).reshape(-1, 2)
        bounds = np.array(bounds, dtype=float)
        me_stage, mi_stage = 2 * self.nb, 2 * self.rated.size
        self.m_eq = me_stage + n_pins
        self.m_ineq = mi_stage + bounds.size
        self.link_rows = np.concatenate([
            me_stage + np.arange(n_pins),
            self.m_eq + mi_stage + np.arange(bounds.size)])
        self.link_vals = np.tile([1.0, -1.0], len(self.links))
        self.sf_row = self.m_eq + 2 * np.arange(self.rated.size)
        self._build_patterns()
        return NlpProblem(
            n=self.n, m_eq=self.m_eq, m_ineq=self.m_ineq, xl=self.xl.copy(),
            xu=self.xu.copy(),
            gl=np.concatenate([np.full(mi_stage, -np.inf), -bounds]),
            gu=np.concatenate([np.repeat(self.smax2, 2), bounds]),
            x0=self.x0.copy(), objective=self.objective,
            gradient=self.gradient, constraints=self.constraints,
            jacobian=self.jacobian, lagrangian_hessian=self.lagrangian_hessian,
            name=name)

    def _build_patterns(self) -> None:
        self.axis_cols = (self.va_col[self.fo], self.va_col[self.to],
                          self.vm_col[self.fo], self.vm_col[self.to])
        self.flow_rows = (self.p_row[self.fo], self.p_row[self.to],
                          self.q_row[self.fo], self.q_row[self.to])
        quad = np.stack(self.axis_cols, axis=1)

        # Jacobian: per live branch the four flow quantities each hit
        # one balance row in four columns; then shunts, gens, flow rows
        # and the coupling rows.
        rows = [np.repeat(r, 4) for r in self.flow_rows]
        cols = [quad.ravel()] * 4
        rows += [self.p_row, self.q_row]                            # shunts
        cols += [self.vm_col, self.vm_col]
        rows += [self.p_row[self.gslot], self.q_row[self.gslot]]    # gens
        cols += [self.pg_col, self.qg_col]
        rows += [np.repeat(self.sf_row, 4), np.repeat(self.sf_row + 1, 4)]
        cols += [quad[self.rated].ravel()] * 2
        rows.append(np.repeat(self.link_rows, 2))
        cols.append(self.links.ravel())
        self.jac_rows = np.concatenate(rows)
        self.jac_cols = np.concatenate(cols)

        # Hessian: 10 unique positions per branch, mirrored; plus the
        # shunt and objective diagonals.
        axes = np.stack(self.axis_cols)
        self.hess_rows = np.concatenate([axes[_ENTRY_ROW].ravel(),
                                         self.vm_col, self.pg_col])
        self.hess_cols = np.concatenate([axes[_ENTRY_COL].ravel(),
                                         self.vm_col, self.pg_col])

    # --- evaluation ------------------------------------------------------

    @cached_property
    def _jac(self) -> CsrPattern:
        return CsrPattern(self.jac_rows, self.jac_cols,
                          (self.m_eq + self.m_ineq, self.n))

    @cached_property
    def _hess(self) -> CsrPattern:
        return CsrPattern(self.hess_rows, self.hess_cols, (self.n, self.n))

    def objective(self, x: np.ndarray) -> float:
        pg = x[self.pg_col]
        cost = (self.cost_a * pg + self.cost_b) * pg + self.cost_c
        if not cost.size:
            return 0.0
        # stages without a unit add nothing; reduceat would give them the
        # next stage's first cost
        stage = np.add.reduceat(cost, self.cost_starts)
        return float(np.add.accumulate(self.cost_w * stage)[-1])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.n)
        pg = x[self.pg_col]
        g[self.pg_col] = self.gen_w * (2 * self.cost_a * pg + self.cost_b)
        return g

    def constraints(self, x: np.ndarray) -> np.ndarray:
        p, q, fo = self.injections(x[self.va_col], x[self.vm_col])
        cp = -(self.pd + p)
        cq = -(self.qd + q)
        np.add.at(cp, self.gslot, x[self.pg_col])
        np.add.at(cq, self.gslot, x[self.qg_col])
        out = np.empty(self.m_eq + self.m_ineq)
        out[self.p_row] = cp
        out[self.q_row] = cq
        r = self.rated
        out[self.sf_row] = fo["pf"][r] ** 2 + fo["qf"][r] ** 2
        out[self.sf_row + 1] = fo["pt"][r] ** 2 + fo["qt"][r] ** 2
        out[self.link_rows] = x[self.links[:, 0]] - x[self.links[:, 1]]
        return out

    def jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        vm = x[self.vm_col]
        fo = self.first_order(x[self.va_col], vm)
        parts = [np.stack(fo[k], axis=1).ravel()
                 for k in ("gpf", "gpt", "gqf", "gqt")]
        r = self.rated
        dsf = sum(2 * fo[vk][r, None] * np.stack(fo[gk], axis=1)[r]
                  for vk, gk in (("pf", "gpf"), ("qf", "gqf")))
        dst = sum(2 * fo[vk][r, None] * np.stack(fo[gk], axis=1)[r]
                  for vk, gk in (("pt", "gpt"), ("qt", "gqt")))
        data = [-np.concatenate(parts),                      # balance rows
                -2 * self.gs * vm, 2 * self.bs * vm,         # shunts
                np.ones(self.ng), np.ones(self.ng),          # gen columns
                dsf.ravel(), dst.ravel(), self.link_vals]
        return self._jac.wrap(np.concatenate(data))

    def _flow_hessians(self, fo):
        """Second derivatives of the four flow quantities, one (10, nbr)
        array each with rows in _POSITIONS order."""
        u, w, u2, w2 = fo["u"], fo["w"], fo["u2"], fo["w2"]
        vf, vt, vv = fo["vf"], fo["vt"], fo["vv"]
        zero = np.zeros(self.nbr)
        g2ff, b2ff = 2 * self.gff, 2 * self.bff
        g2tt, b2tt = 2 * self.gtt, 2 * self.btt
        hpf = (-vv * u, vv * u, -vt * w, -vf * w, -vv * u, vt * w, vf * w,
               g2ff, u, zero)
        hqf = (-vv * w, vv * w, vt * u, vf * u, -vv * w, -vt * u, -vf * u,
               -b2ff, w, zero)
        hpt = (-vv * u2, vv * u2, vt * w2, vf * w2, -vv * u2, -vt * w2,
               -vf * w2, zero, u2, g2tt)
        hqt = (-vv * w2, vv * w2, -vt * u2, -vf * u2, -vv * w2, vt * u2,
               vf * u2, zero, w2, -b2tt)
        return tuple(np.stack(h) for h in (hpf, hqf, hpt, hqt))

    def lagrangian_hessian(self, x: np.ndarray, obj_factor: float,
                           mult: np.ndarray) -> sp.csr_matrix:
        fo = self.first_order(x[self.va_col], x[self.vm_col])
        hpf, hqf, hpt, hqt = self._flow_hessians(fo)

        lam_pf, lam_pt, lam_qf, lam_qt = (-mult[r] for r in self.flow_rows)
        sf = np.zeros(self.nbr)
        st = np.zeros(self.nbr)
        sf[self.rated] = mult[self.sf_row]
        st[self.rated] = mult[self.sf_row + 1]

        c_pf = lam_pf + 2 * sf * fo["pf"]
        c_qf = lam_qf + 2 * sf * fo["qf"]
        c_pt = lam_pt + 2 * st * fo["pt"]
        c_qt = lam_qt + 2 * st * fo["qt"]

        gpf, gqf, gpt, gqt = (np.stack(fo[k])
                              for k in ("gpf", "gqf", "gpt", "gqt"))
        a, b = _POS_A, _POS_B
        # one row per position of _POSITIONS
        v = (c_pf * hpf + c_qf * hqf + c_pt * hpt + c_qt * hqt
             + 2 * sf * (gpf[a] * gpf[b] + gqf[a] * gqf[b])
             + 2 * st * (gpt[a] * gpt[b] + gqt[a] * gqt[b]))
        lam_p_bus = -mult[self.p_row]
        lam_q_bus = -mult[self.q_row]
        return self._hess.wrap(np.concatenate([
            v[_ENTRY_POS].ravel(),
            2 * (lam_p_bus * self.gs - lam_q_bus * self.bs),
            2 * (obj_factor * self.gen_w) * self.cost_a]))


@dataclass(frozen=True)
class SolvedCase:
    """A case together with an operating point and its line flows.

    Arrays align with case.buses / case.gens / case.branches; entries
    of out-of-service elements are zero (dispatch, flows).  Powers are
    MW / MVAr, angles radians, objective $/h.
    """

    case: NetworkCase
    vm: np.ndarray
    va: np.ndarray
    pg: np.ndarray
    qg: np.ndarray
    pf: np.ndarray
    qf: np.ndarray
    pt: np.ndarray
    qt: np.ndarray
    objective: float

    def to_raw(self, name: str | None = None) -> matpower.RawCase:
        """RawCase with solved voltages, dispatch and flow columns."""
        base = self.case.to_raw()
        bus = tuple(row[:7] + (self.vm[i], math.degrees(self.va[i]))
                    + row[9:]
                    for i, row in enumerate(base.bus))
        gen = tuple((row[0], self.pg[i], self.qg[i]) + row[3:]
                    for i, row in enumerate(base.gen))
        branch = tuple(row[:13] + (self.pf[i], self.qf[i],
                                   self.pt[i], self.qt[i])
                       for i, row in enumerate(base.branch))
        return matpower.RawCase(name=name or base.name,
                                base_mva=base.base_mva, bus=bus, gen=gen,
                                branch=branch, gencost=base.gencost)


def _branch_flows_mw(case: NetworkCase, va: np.ndarray, vm: np.ndarray):
    """Branch flows (MW / MVAr) at bus-position voltage arrays; zero on
    out-of-service branches."""
    grid, live = _Grid.of_case(case)
    flows = tuple(np.zeros(len(case.branches)) for _ in range(4))
    if live.size:
        fo = grid.flows(va, vm)
        for out, key in zip(flows, ("pf", "qf", "pt", "qt")):
            out[live] = fo[key] * case.base_mva
    return flows


def pack_solution(case: NetworkCase, layout: AcopfLayout,
                  sol: SolvedCase) -> np.ndarray:
    """Inverse of one stage of extract_solution (flows ignored)."""
    x = np.zeros(layout.n_vars)
    for pos, idx in layout.va.items():
        x[idx] = sol.va[pos]
        x[layout.vm[pos]] = sol.vm[pos]
    for gpos, idx in layout.pg.items():
        x[idx] = sol.pg[gpos] / case.base_mva
        x[layout.qg[gpos]] = sol.qg[gpos] / case.base_mva
    return x


def solution_from_case(case: NetworkCase) -> SolvedCase:
    """Treat the case's stored voltages and dispatch as a solution."""
    vm = np.array([b.vm for b in case.buses])
    va = np.array([b.va for b in case.buses])
    pg = np.array([g.pg if g.status else 0.0 for g in case.gens])
    qg = np.array([g.qg if g.status else 0.0 for g in case.gens])
    pfl, qfl, ptl, qtl = _branch_flows_mw(case, va, vm)
    obj = float(sum(g.cost.at(pg[j]) for j, g in enumerate(case.gens)
                    if g.status))
    return SolvedCase(case=case, vm=vm, va=va, pg=pg, qg=qg, pf=pfl, qf=qfl,
                      pt=ptl, qt=qtl, objective=obj)


def residuals_at(case: NetworkCase, sol: SolvedCase):
    """Per-bus power balance residuals (delta P MW, delta Q MVAr).

    delta = generation - load - network injection, evaluated at the
    solution's voltages and dispatch.  Isolated buses report zero.
    """
    for attr, count in (("vm", len(case.buses)), ("pg", len(case.gens))):
        if getattr(sol, attr).shape != (count,):
            raise DimensionMismatch(f"solution {attr} has wrong length")
    grid, _ = _Grid.of_case(case)
    p, q, _ = grid.injections(sol.va, sol.vm)
    dp = -p * case.base_mva - np.array([b.pd for b in case.buses])
    dq = -q * case.base_mva - np.array([b.qd for b in case.buses])
    for j, g in enumerate(case.gens):
        if g.status != 0:
            dp[case.bus_pos[g.bus]] += sol.pg[j]
            dq[case.bus_pos[g.bus]] += sol.qg[j]
    isolated = [i for i, b in enumerate(case.buses) if b.btype == ISOLATED]
    dp[isolated] = 0.0
    dq[isolated] = 0.0
    return dp, dq
