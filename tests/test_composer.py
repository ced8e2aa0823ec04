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
from opfkit.acopf import SolvedCase, _Grid
from opfkit.composer import CONTINGENCY_BOX, PREVENTIVE_PIN, RAMP, SCENARIO_BOX
from opfkit.inputs import ContingencySet, ScenarioSet

from util import interior_points, stage_columns

CORR = CouplingMode(kind="corrective")
PREV = CouplingMode(kind="preventive")


def load_steps(case, nt):
    """nt periods of the case with loads scaled by 1, 1.03, 1.06, ..."""
    return [replace(case, buses=tuple(
        replace(b, pd=b.pd * (1 + 0.03 * t), qd=b.qd * (1 + 0.03 * t))
        for b in case.buses)) for t in range(nt)]


def stage_offsets(imap):
    """Each stage's own build_acopf problem and columns, and the offsets
    of its variable block and of its equality and inequality rows in
    their regions, summed from those problems' sizes."""
    problems = [build_acopf(stage.case)[0] for stage in imap.stages]
    sizes = np.array([(p.n, p.m_eq, p.m_ineq) for p in problems])
    offsets = np.cumsum(sizes, axis=0) - sizes
    return [(p, stage_columns(stage.case), *off.tolist())
            for p, stage, off in zip(problems, imap.stages, offsets)]


def stacked_reference(problem, imap, x, sigma, mult):
    """Objective, gradient, constraints, Jacobian and Hessian of a
    composite at x, stacked by hand from each stage's own build_acopf
    callbacks at offsets summed from their sizes, with the map's
    weights."""
    n, m = problem.n, problem.m_eq + problem.m_ineq
    obj, grad, cons = 0, np.zeros(n), np.zeros(m)
    jac = ([], [], [])
    hess = ([], [], [])
    stages = stage_offsets(imap)
    for k, (p, _, a, e, i) in enumerate(stages):
        w = imap.weights[k]
        xk = x[a:a + p.n]
        rows = np.concatenate([e + np.arange(p.m_eq),
                               problem.m_eq + i + np.arange(p.m_ineq)])
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
        ab = [a + lay.pg[r.gen] for _, lay, a, _, _
              in (stages[r.stage_a], stages[r.stage_b])]
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
    assert imap.var_offset == tuple(a for _, _, a, _, _ in stage_offsets(imap))

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return (a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())

    m = problem.m_eq + problem.m_ineq
    for x in interior_points(problem, points, rng):
        sigma = rng.uniform(0.1, 2.0)
        mult = rng.normal(size=m)
        ref = stacked_reference(problem, imap, x, sigma, mult)
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
        # has rows (no unit of case9 is outaged by a branch contingency);
        # every row names a generator live on both stages, and its bound
        # is the unit's ramp over dt, its full 30-minute ramp, or 0
        links = {}
        for r in imap.coupling_rows:
            ramp_30 = case9.gens[r.gen].ramp_30
            assert all(imap.stages[k].case.gens[r.gen].status
                       for k in (r.stage_a, r.stage_b))
            assert r.bound == {
                RAMP: ramp_30 * (5.0 / 30.0) / case9.base_mva,
                CONTINGENCY_BOX: ramp_30 / case9.base_mva,
                SCENARIO_BOX: ramp_30 / case9.base_mva,
                PREVENTIVE_PIN: 0.0}[r.kind]
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

    def test_flat_composite(self, case9, scens, ctgs):
        flat = compose_sopf_flat(case9, scens, ctgs, PREV)
        assert_matches_stages(*flat, np.random.default_rng(12))


def reference_solution(imap, x, k):
    """Stage k's SolvedCase at the composite point x, built apart from
    the engine: its block of x read through the stage's documented
    columns and its flows from the stage case's own _Grid."""
    case = imap.stages[k].case
    lay = stage_columns(case)
    xk = x[imap.var_offset[k]:imap.var_offset[k] + lay.n_vars]
    base = case.base_mva
    va, vm = np.zeros(len(case.buses)), np.zeros(len(case.buses))
    for pos, col in lay.va.items():
        va[pos], vm[pos] = xk[col], xk[lay.vm[pos]]
    pg, qg = np.zeros(len(case.gens)), np.zeros(len(case.gens))
    for g, col in lay.pg.items():
        pg[g], qg[g] = xk[col] * base, xk[lay.qg[g]] * base
    grid, live = _Grid.of_case(case)
    fo = grid.flows(va, vm)
    flows = {}
    for key in ("pf", "qf", "pt", "qt"):
        flows[key] = np.zeros(len(case.branches))
        flows[key][live] = fo[key] * base
    return SolvedCase(
        case=case, vm=vm, va=va, pg=pg, qg=qg, **flows,
        objective=float(sum(case.gens[g].cost.at(pg[g]) for g in lay.pg)))


def assert_same_solution(got, ref):
    assert got.case is ref.case
    assert type(got.objective) is float and got.objective == ref.objective
    for name in ("vm", "va", "pg", "qg", "pf", "qf", "pt", "qt"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def sparse_case(case9):
    """case9 with an isolated (type-4) bus 10 that nothing touches,
    listed fourth, and an out-of-service copy of branch 7-8 listed
    third."""
    lone = replace(case9.buses[4], id=10, btype=4, pd=0.0, qd=0.0)
    buses = case9.buses[:3] + (lone,) + case9.buses[3:]
    dead = replace(case9.branches[7], status=0)
    branches = case9.branches[:2] + (dead,) + case9.branches[2:]
    return replace(case9, buses=buses, branches=branches)


class TestExtraction:
    """One extraction pass over a composite gives every stage what the
    per-stage reference gives, bit for bit."""

    def check(self, problem, imap, seed):
        x, = interior_points(problem, 1, np.random.default_rng(seed))
        solved = extract_solution(imap, x)
        assert len(solved) == len(imap.stages)
        for k, sol in enumerate(solved):
            assert_same_solution(sol, reference_solution(imap, x, k))
        return solved

    def test_flagship_lattice(self, case9, scens, ctgs):
        problem, imap = compose_general(scens, ctgs, [case9] * 3, PREV, 5.0)
        assert len(imap.stages) == 60
        self.check(problem, imap, 21)

    def test_outages_and_idle_elements(self, sparse_case, ctgs):
        """Stages 1 (gen at bus 2 out) and 2 (branch 4-5 out) of a case
        with an isolated bus and an out-of-service branch: every element
        that is out reads 0."""
        gen_out, branch_out = ctgs.by_id()[0], ctgs.by_id()[2]
        problem, imap = compose_scopf(
            sparse_case, ContingencySet((gen_out, branch_out)), CORR)
        base, no_gen, no_branch = self.check(problem, imap, 22)
        cut = sparse_case.branches_between(4, 5)[0]
        for sol in (base, no_gen, no_branch):
            assert sol.va[3] == sol.vm[3] == 0.0
            assert sol.pf[2] == sol.qf[2] == sol.pt[2] == sol.qt[2] == 0.0
        assert no_gen.pg[1] == no_gen.qg[1] == 0.0 != base.pg[1]
        assert (no_branch.pf[cut] == no_branch.qf[cut] == no_branch.pt[cut]
                == no_branch.qt[cut] == 0.0 != base.pf[cut])

    def test_wrong_shape_rejected(self, sparse_case):
        problem, imap = build_acopf(sparse_case)
        x = problem.x0
        for bad in (x[:-1], np.append(x, 0.0), np.stack([x, x])):
            with pytest.raises(errors.DimensionMismatch):
                extract_solution(imap, bad)


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

    def test_zero_bound_is_a_pin(self, case9):
        """A unit without a ramp limit (ramp_30 = 0) is pinned across
        periods by equality rows; a zero-width box gave its slack no
        interior and the solve failed at its first iteration."""
        gens = tuple(replace(g, ramp_30=0.0) for g in case9.gens)
        p, imap = compose_multiperiod([replace(case9, gens=gens)] * 2, 5.0)
        ramps = [r for r in imap.coupling_rows if r.kind == RAMP]
        assert len(ramps) == 3
        assert all(r.is_equality and r.bound == 0.0 and r.row < p.m_eq
                   for r in ramps)

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
        child_var = imap.var_offset[1] + stage_columns(case9).pg[0]
        x[child_var] += 0.02
        assert p.constraints(x)[ramp0.row] == pytest.approx(0.02)


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
        base, post = extract_solution(imap, r.x)
        for g, bound in ((0, 30.0), (1, 30.0), (2, 450.0)):
            assert abs(post.pg[g] - base.pg[g]) <= bound + 1e-4

    def test_preventive_pins_dispatch(self, case9, branch_ctg):
        p, imap = compose_scopf(case9, branch_ctg, PREV)
        r = solve(p, SolverOptions())
        assert r.status == "Optimal"
        base, post = extract_solution(imap, r.x)
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
        solved = extract_solution(imap, r.x)
        wind = [solved[k].pg[2] for k in (0, n_c)]
        assert wind == pytest.approx([75.0, 85.0], abs=1e-4)


class TestComposerErrors:

    def test_empty_horizon(self):
        with pytest.raises(errors.InvalidPlan):
            compose_multiperiod([], 5.0)

    def test_nonpositive_dt(self, case9):
        for dt in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(errors.InvalidPlan, match="finite"):
                compose_multiperiod([case9, case9], dt)

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
