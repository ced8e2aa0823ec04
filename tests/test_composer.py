"""Composite builders: stage lattices, coupling rows, reduction laws."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from opfkit import (
    CouplingMode,
    SolverOptions,
    build_acopf,
    build_lattice,
    check_derivatives,
    compose_general,
    compose_multiperiod,
    compose_multiperiod_scopf,
    compose_scopf,
    compose_sopf_flat,
    compose_sopf_full,
    declare_wind,
    errors,
    extract_solution,
    parse_contingencies_file,
    parse_scenarios,
    solve,
)
from opfkit.composer import CONTINGENCY_BOX, PREVENTIVE_PIN, RAMP, SCENARIO_BOX
from opfkit.inputs import ContingencySet, ScenarioSet

from util import interior_points

CORR = CouplingMode(kind="corrective")
PREV = CouplingMode(kind="preventive")


def stage_x(imap, x, k):
    lo = imap.var_offset[k]
    return x[lo:lo + imap.layouts[k].n_vars]


def load_steps(case, nt):
    """nt periods of the case with loads scaled by 1, 1.03, 1.06, ..."""
    return [replace(case, buses=tuple(
        replace(b, pd=b.pd * (1 + 0.03 * t), qd=b.qd * (1 + 0.03 * t))
        for b in case.buses)) for t in range(nt)]


def stacked_reference(imap, x, sigma, mult):
    """Objective, gradient, constraints, Jacobian and Hessian of a
    composite at x, stacked by hand from each stage's own build_acopf
    callbacks at the CompositeIndexMap's offsets and weights."""
    n, m = imap.n_vars, imap.m_eq + imap.m_ineq
    obj, grad, cons = 0, np.zeros(n), np.zeros(m)
    jac = ([], [], [])
    hess = ([], [], [])
    for k, stage in enumerate(imap.stages):
        p, _ = build_acopf(stage.case)
        w, a = imap.weights[k], imap.var_offset[k]
        xk = x[a:a + p.n]
        rows = np.concatenate([
            imap.eq_offset[k] + np.arange(p.m_eq),
            imap.m_eq + imap.ineq_offset[k] + np.arange(p.m_ineq)])
        obj += w * p.objective(xk)
        grad[a:a + p.n] = w * p.gradient(xk)
        cons[rows] = p.constraints(xk)
        for out, mat, rmap in (
                (jac, p.jacobian(xk), rows),
                (hess, p.lagrangian_hessian(xk, sigma * w, mult[rows]),
                 a + np.arange(p.n))):
            mat = mat.tocoo()
            out[0].append(rmap[mat.row])
            out[1].append(a + mat.col)
            out[2].append(mat.data)
    for r in imap.coupling_rows:
        ab = []
        for k in (r.stage_a, r.stage_b):
            lay = imap.layouts[k]
            pos = lay.pg[r.gen] if r.gen is not None else lay.vm[r.bus]
            ab.append(imap.var_offset[k] + pos)
        cons[r.row] = x[ab[0]] - x[ab[1]]
        jac[0].append([r.row, r.row])
        jac[1].append(ab)
        jac[2].append([1.0, -1.0])

    def csr(parts, shape):
        rows, cols, vals = (np.concatenate(v) for v in parts)
        return sp.csr_matrix((vals, (rows, cols)), shape=shape)
    return (float(obj), grad, cons, csr(jac, (m, n)), csr(hess, (n, n)))


def assert_matches_stages(problem, imap, rng, points=2):
    """The composite's callbacks equal the stacked stage callbacks bit
    for bit at seeded random interior points."""
    sizes = np.array([(lay.n_vars, lay.n_eq, lay.n_ineq)
                      for lay in imap.layouts])
    offsets = np.cumsum(sizes, axis=0) - sizes
    assert imap.var_offset == tuple(offsets[:, 0])
    assert imap.eq_offset == tuple(offsets[:, 1])
    assert imap.ineq_offset == tuple(offsets[:, 2])

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return (a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())

    m = problem.m_eq + problem.m_ineq
    for x in interior_points(problem, points, rng):
        sigma = rng.uniform(0.1, 2.0)
        mult = rng.normal(size=m)
        ref = stacked_reference(imap, x, sigma, mult)
        got = (problem.objective(x), problem.gradient(x),
               problem.constraints(x), problem.jacobian(x),
               problem.lagrangian_hessian(x, sigma, mult))
        assert same(got[0], ref[0])
        assert same(got[1], ref[1])
        assert same(got[2], ref[2])
        for a, b in zip(got[3:], ref[3:]):
            assert a.shape == b.shape
            assert all(same(getattr(a, f), getattr(b, f))
                       for f in ("indptr", "indices", "data"))


class TestStageLattice:

    def test_scopf_stage_order(self, case9, ctgs):
        _, imap = compose_scopf(case9, ctgs, CORR)
        assert len(imap.stages) == 10
        assert imap.stages[0].contingency is None
        assert [s.contingency.id for s in imap.stages[1:]] == list(range(1, 10))
        assert all(w == 1.0 for w in imap.weights)

    def test_multiperiod_periods(self, case9):
        p, imap = compose_multiperiod([case9] * 3, 5.0)
        assert [s.period for s in imap.stages] == [0, 1, 2]
        assert all(s.contingency is None for s in imap.stages)
        # the dense Bunch-Kaufman solver this one replaced took the
        # same path to the same point
        r = solve(p, SolverOptions())
        assert r.status == "Optimal" and r.iterations == 15
        assert r.objective == pytest.approx(9147.738552133826, rel=1e-8)

    def test_general_lattice_order(self, case9, ctgs, scens):
        """Stages enumerate scenario-major, then contingency, then time."""
        small = ctgs.truncated(2)
        _, imap = compose_general(scens, small, [case9] * 2, PREV, 5.0)
        assert len(imap.stages) == 2 * 3 * 2
        first = imap.stages[0]
        assert first.scenario is not None and first.contingency is None
        ids = [(s.scenario.id, 0 if s.contingency is None else
                s.contingency.id, s.period) for s in imap.stages]
        assert ids == sorted(ids)

    def test_scenario_weights_normalized(self, case9, scens):
        _, imap = compose_sopf_full(case9, scens, None, CORR)
        assert imap.weights == pytest.approx((0.6, 0.4))

    def test_raw_weights_rescaled(self, case9):
        scens = parse_scenarios("scenario,weight,wind_3_1\n1,6,75\n2,4,85\n")
        _, imap = compose_sopf_full(case9, scens, None, CORR)
        assert imap.weights == pytest.approx((0.6, 0.4))


@pytest.fixture(scope="module")
def branch_ctgs(data_dir):
    return parse_contingencies_file(data_dir / "ctgc_branches.cont")


class TestLatticeProperties:
    """Shape laws of build_lattice and of the rows compose_general lays
    over it, for random lattice shapes; nothing is solved."""

    @settings(max_examples=40, deadline=None)
    @given(ns=st.integers(1, 2), nc=st.integers(0, 3), nt=st.integers(1, 3),
           kind=st.sampled_from(["corrective", "preventive"]))
    def test_stages_chains_and_rows(self, case9, scens, branch_ctgs, ns, nc,
                                    nt, kind):
        scenarios, ctgs = scens.truncated(ns), branch_ctgs.truncated(nc)
        lattice = build_lattice(scenarios, ctgs, [case9] * nt, 5.0)
        assert lattice.shape == (ns, nc + 1, nt)
        assert len(lattice.stages) == ns * (nc + 1) * nt

        ctg_order = [None] + list(ctgs.by_id())
        scen_of = {}
        pos = {}
        for k, (s, c, t) in enumerate(itertools.product(
                range(ns), range(nc + 1), range(nt))):
            assert lattice.index(s, c, t) == k
            stage = lattice.stages[k]
            assert stage.period == t
            assert stage.contingency is ctg_order[c]
            assert scen_of.setdefault(s, stage.scenario) is stage.scenario
            pos[k] = (s, c, t)
        base = scenarios.scenarios[scenarios.base_index()]
        assert scen_of[0] is base
        assert [scen_of[s].id for s in range(1, ns)] == sorted(
            x.id for x in scenarios.scenarios if x is not base)

        chains = lattice.chains()
        assert sorted(k for ks in chains.values() for k in ks) == list(
            range(len(lattice.stages)))
        for (s, c), ks in chains.items():
            assert [pos[k] for k in ks] == [(s, c, t) for t in range(nt)]

        _, imap = compose_general(scenarios, ctgs, [case9] * nt,
                                  CouplingMode(kind=kind), 5.0)
        triple = [(x.scenario, x.contingency, x.period) for x in imap.stages]
        assert triple == [(x.scenario, x.contingency, x.period)
                          for x in lattice.stages]
        assert imap.weights == lattice.weights
        # every row links the pairs its kind names, and every such pair
        # has rows (no unit of case9 is outaged by a branch contingency)
        links = {}
        for r in imap.coupling_rows:
            group = "ctg" if r.kind in (CONTINGENCY_BOX,
                                        PREVENTIVE_PIN) else r.kind
            links.setdefault(group, set()).add((pos[r.stage_a],
                                                pos[r.stage_b]))
        grid = list(itertools.product(range(ns), range(nc + 1)))
        expect = {
            RAMP: {((s, c, t), (s, c, t - 1))
                   for s, c in grid for t in range(1, nt)},
            "ctg": {((s, c, 0), (s, 0, 0)) for s, c in grid if c > 0},
            SCENARIO_BOX: {((s, 0, 0), (0, 0, 0)) for s in range(1, ns)},
        }
        assert links == {k: v for k, v in expect.items() if v}


class TestEngineMatchesStages:
    """One engine over the whole lattice gives exactly what the stage
    problems give one by one."""

    @settings(max_examples=30, deadline=None)
    @given(ns=st.integers(1, 2), nc=st.integers(0, 3), nt=st.integers(1, 3),
           kind=st.sampled_from(["corrective", "preventive"]),
           seed=st.integers(0, 2**32 - 1))
    def test_callbacks_bitwise(self, case9, scens, ctgs, ns, nc, nt, kind,
                               seed):
        # ctgc.cont opens with two generator outages: stages differ in size
        problem, imap = compose_general(
            scens.truncated(ns), ctgs.truncated(nc), load_steps(case9, nt),
            CouplingMode(kind=kind), 5.0)
        assert_matches_stages(problem, imap, np.random.default_rng(seed))

    def test_flagship_lattice(self, case9, scens, ctgs):
        problem, imap = compose_general(scens, ctgs, [case9] * 3, PREV, 5.0)
        assert len(imap.stages) == 60
        assert_matches_stages(problem, imap, np.random.default_rng(11))

    def test_flat_and_voltage_pins(self, case9, scens, ctgs):
        flat = compose_sopf_flat(case9, scens, ctgs, PREV)
        assert_matches_stages(*flat, np.random.default_rng(12))
        pins = compose_general(scens, ctgs.truncated(3), [case9],
                               CouplingMode(kind="preventive",
                                            pin_voltages=True), 30.0)
        assert_matches_stages(*pins, np.random.default_rng(13))


class TestCompositeDerivatives:

    def test_small_lattice(self, case9, scens, ctgs):
        """Analytic composite derivatives match finite differences on a
        lattice with a tap-and-shift branch, a generator and a branch
        outage, two scenarios and two periods."""
        branches = (replace(case9.branches[0], ratio=0.95,
                            angle=math.radians(2.0)),) + case9.branches[1:]
        case = replace(case9, branches=branches)
        gen2, branch45 = ctgs.by_id()[0], ctgs.by_id()[2]
        assert [o.kind for o in gen2.outages + branch45.outages] == [
            "GEN", "BRANCH"]
        p, imap = compose_general(scens, ContingencySet((gen2, branch45)),
                                  load_steps(case, 2), CORR, 5.0)
        assert len(imap.stages) == 12
        for x in interior_points(p, 3, np.random.default_rng(6)):
            assert check_derivatives(p, x).ok()


class TestCouplingRows:

    def test_corrective_box_bounds(self, case9, ctgs):
        """Box width is the full 30-minute ramp in per unit."""
        one = ctgs.truncated(3).by_id()[2:3]  # branch outage only
        p, imap = compose_scopf(case9, ContingencySet(tuple(one)), CORR)
        boxes = [r for r in imap.coupling_rows if r.kind == CONTINGENCY_BOX]
        assert len(boxes) == 3
        assert sorted(r.bound for r in boxes) == [0.3, 0.3, 4.5]
        for r in boxes:
            assert not r.is_equality
            assert p.gu[r.row - p.m_eq] == r.bound
            assert p.gl[r.row - p.m_eq] == -r.bound

    def test_preventive_pins_skip_reference_machine(self, case9, ctgs):
        gen2_out = ContingencySet(ctgs.by_id()[:1])
        _, imap = compose_scopf(case9, gen2_out, PREV)
        pins = [r for r in imap.coupling_rows if r.kind == PREVENTIVE_PIN]
        # gen 2 is outaged, gen 1 sits on the reference bus: only gen 3
        assert len(pins) == 1
        assert pins[0].gen == 2 and pins[0].is_equality

    def test_voltage_pins_optional(self, case9, ctgs):
        gen2_out = ContingencySet(ctgs.by_id()[:1])
        _, imap = compose_scopf(case9, gen2_out,
                                CouplingMode(kind="preventive",
                                             pin_voltages=True))
        pins = [r for r in imap.coupling_rows if r.kind == PREVENTIVE_PIN]
        assert len(pins) == 3                      # 1 Pg pin + 2 VM pins
        assert sum(r.bus is not None for r in pins) == 2

    def test_ramp_bounds_scale_with_dt(self, case9):
        _, imap = compose_multiperiod([case9] * 3, 5.0)
        ramps = [r for r in imap.coupling_rows if r.kind == RAMP]
        assert len(ramps) == 6                     # 2 transitions x 3 gens
        assert sorted({r.bound for r in ramps}) == [0.05, 0.75]

    def test_contingency_coupling_at_first_period_only(self, case9, ctgs):
        one = ContingencySet(tuple(ctgs.by_id()[2:3]))
        _, imap = compose_multiperiod_scopf([case9] * 2, one, CORR, 5.0)
        assert len(imap.stages) == 4
        boxes = [r for r in imap.coupling_rows if r.kind == CONTINGENCY_BOX]
        ramps = [r for r in imap.coupling_rows if r.kind == RAMP]
        assert len(boxes) == 3 and len(ramps) == 6
        # boxes tie the outage chain's first period to the base stage
        assert all((r.stage_a, r.stage_b) == (2, 0) for r in boxes)
        assert {(r.stage_a, r.stage_b) for r in ramps} == {(1, 0), (3, 2)}

    def test_scenario_box_between_bases(self, case9, scens):
        _, imap = compose_sopf_full(case9, scens, None, CORR)
        rows = [r for r in imap.coupling_rows if r.kind == SCENARIO_BOX]
        assert len(rows) == 3
        assert all(r.stage_a == 1 and r.stage_b == 0 for r in rows)

    def test_row_reads_child_minus_base(self, case9):
        p, imap = compose_multiperiod([case9] * 2, 5.0)
        x = p.x0.copy()
        ramp0 = next(r for r in imap.coupling_rows if r.gen == 0)
        child_var = imap.var_offset[1] + imap.layouts[1].pg[0]
        x[child_var] += 0.02
        assert p.constraints(x)[ramp0.row] == pytest.approx(0.02)

    def test_scale_multipliers(self, case9, ctgs):
        one = ContingencySet(tuple(ctgs.by_id()[2:3]))
        mode = CouplingMode(kind="corrective", contingency_scale=0.5)
        _, imap = compose_scopf(case9, one, mode)
        boxes = [r for r in imap.coupling_rows if r.kind == CONTINGENCY_BOX]
        assert sorted(r.bound for r in boxes) == [0.15, 0.15, 2.25]


class TestReductionLaws:

    def test_scopf_without_contingencies(self, case9, base_solve):
        _, _, base = base_solve
        p, imap = compose_scopf(case9, ContingencySet(()), CORR)
        assert len(imap.stages) == 1 and not imap.coupling_rows
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        assert r.objective == pytest.approx(base.objective, rel=1e-9)

    def test_flat_sopf_single_scenario(self, case9, scens, base_solve):
        _, _, base = base_solve
        p, imap = compose_sopf_flat(case9, scens.truncated(1), None, CORR)
        assert len(imap.stages) == 1
        r = solve(p, SolverOptions())
        assert r.objective == pytest.approx(base.objective, rel=1e-6)

    def test_single_period_horizon(self, case9, base_solve):
        _, _, base = base_solve
        p, imap = compose_multiperiod([case9], 5.0)
        assert len(imap.stages) == 1
        r = solve(p, SolverOptions())
        assert r.objective == pytest.approx(base.objective, rel=1e-9)

    def test_fully_degenerate_general(self, case9, base_solve):
        _, _, base = base_solve
        p, imap = compose_general(None, None, [case9], CouplingMode(), 30.0)
        assert len(imap.stages) == 1
        r = solve(p, SolverOptions())
        assert r.objective == pytest.approx(base.objective, rel=1e-9)


@pytest.fixture(scope="module")
def branch_ctg(ctgs):
    return ContingencySet(tuple(ctgs.by_id()[2:3]))  # 4-5 outage


class TestCoupledSolves:

    def test_corrective_respects_box(self, case9, branch_ctg):
        p, imap = compose_scopf(case9, branch_ctg, CORR)
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        base = extract_solution(imap.stages[0].case, imap.layouts[0],
                                stage_x(imap, r.x, 0))
        post = extract_solution(imap.stages[1].case, imap.layouts[1],
                                stage_x(imap, r.x, 1))
        for g, bound in ((0, 30.0), (1, 30.0), (2, 450.0)):
            assert abs(post.pg[g] - base.pg[g]) <= bound + 1e-4

    def test_preventive_pins_dispatch(self, case9, branch_ctg):
        p, imap = compose_scopf(case9, branch_ctg, PREV)
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        base = extract_solution(imap.stages[0].case, imap.layouts[0],
                                stage_x(imap, r.x, 0))
        post = extract_solution(imap.stages[1].case, imap.layouts[1],
                                stage_x(imap, r.x, 1))
        # gens 2 and 3 are pinned, the reference machine is free
        assert post.pg[1] == pytest.approx(base.pg[1], abs=1e-4)
        assert post.pg[2] == pytest.approx(base.pg[2], abs=1e-4)

    def test_preventive_dominates_corrective(self, case9, branch_ctg):
        """Pinning is a restriction of the corrective box."""
        pc, _ = compose_scopf(case9, branch_ctg, CORR)
        pp, _ = compose_scopf(case9, branch_ctg, PREV)
        rc = solve(pc, SolverOptions())
        rp = solve(pp, SolverOptions())
        assert rc.status == rp.status == "Optimal"
        assert rp.objective >= rc.objective - 1e-6 * abs(rc.objective)

    def test_flat_preventive_keeps_scenario_boxes(self, case9, scens, ctgs):
        """Flat differs from the lattice only where its contingency rows
        attach: scenario bases keep their boxes in preventive mode, so
        each scenario's wind unit may reach its own cap."""
        p, imap = compose_sopf_flat(declare_wind(case9, scens.wind_keys()),
                                    scens, ctgs, PREV)
        n_c = len(ctgs.by_id()) + 1
        rows = [r for r in imap.coupling_rows
                if (r.stage_a, r.stage_b) == (n_c, 0)]
        assert [r.kind for r in rows] == [SCENARIO_BOX] * 3
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        wind = [extract_solution(imap.stages[k].case, imap.layouts[k],
                                 stage_x(imap, r.x, k)).pg[2]
                for k in (0, n_c)]
        assert wind == pytest.approx([75.0, 85.0], abs=1e-4)


class TestComposerErrors:

    def test_empty_horizon(self):
        with pytest.raises(errors.InvalidPlan):
            compose_multiperiod([], 5.0)

    def test_nonpositive_dt(self, case9):
        with pytest.raises(errors.InvalidPlan):
            compose_multiperiod([case9, case9], 0.0)

    def test_unknown_mode_kind(self):
        with pytest.raises(errors.InvalidPlan):
            CouplingMode(kind="reactive")

    def test_topology_mismatch(self, case9):
        smaller = replace(case9, gens=case9.gens[:2])
        with pytest.raises(errors.TopologyMismatch):
            compose_multiperiod([case9, smaller], 5.0)

    def test_empty_scenarios(self, case9):
        with pytest.raises(errors.EmptyScenarioSet):
            compose_sopf_flat(case9, ScenarioSet(()), None, CORR)
