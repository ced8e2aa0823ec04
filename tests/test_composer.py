"""Composite builders: stage lattices, coupling rows, reduction laws."""

from dataclasses import replace

import numpy as np
import pytest

from opfkit import (
    CouplingMode,
    SolverOptions,
    compose_general,
    compose_multiperiod,
    compose_multiperiod_scopf,
    compose_scopf,
    compose_sopf_flat,
    compose_sopf_full,
    errors,
    extract_solution,
    parse_scenarios,
    solve,
)
from opfkit.composer import CONTINGENCY_BOX, PREVENTIVE_PIN, RAMP, SCENARIO_BOX
from opfkit.inputs import ContingencySet, ScenarioSet

CORR = CouplingMode(kind="corrective")
PREV = CouplingMode(kind="preventive")


def stage_x(imap, x, k):
    lo = imap.var_offset[k]
    return x[lo:lo + imap.layouts[k].n_vars]


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
