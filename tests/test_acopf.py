"""ACOPF stage problem: shapes, bounds, derivatives, solution transport."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from opfkit import (
    CouplingMode,
    SolverOptions,
    build_acopf,
    check_derivatives,
    compose_general,
    errors,
    extract_solution,
    pack_solution,
    residuals_at,
    solution_from_case,
    solve,
)
from opfkit.acopf import _Engine

from util import interior_points, stage_columns


class TestBuild:

    def test_variable_count(self, case9):
        p, _ = build_acopf(case9)
        layout = stage_columns(case9)
        # 9 va + 9 vm + 3 pg + 3 qg
        assert p.n == layout.n_vars == 24
        assert len(layout.va) == len(layout.vm) == 9
        assert len(layout.pg) == len(layout.qg) == 3

    def test_constraint_count(self, case9):
        p, _ = build_acopf(case9)
        assert p.m_eq == 18          # P and Q balance per bus
        assert p.m_ineq == 18        # |S|^2 at both ends, all rated

    def test_reference_angle_pinned(self, case9):
        p, _ = build_acopf(case9)
        ref = next(pos for pos, b in enumerate(case9.buses) if b.btype == 3)
        i = stage_columns(case9).va[ref]
        assert p.xl[i] == p.xu[i] == 0.0

    def test_voltage_and_dispatch_bounds(self, case9):
        p, _ = build_acopf(case9)
        layout = stage_columns(case9)
        for pos, b in enumerate(case9.buses):
            assert p.xl[layout.vm[pos]] == b.vmin
            assert p.xu[layout.vm[pos]] == b.vmax
        for gpos, g in enumerate(case9.gens):
            assert p.xl[layout.pg[gpos]] == pytest.approx(g.pmin / 100.0)
            assert p.xu[layout.pg[gpos]] == pytest.approx(g.pmax / 100.0)

    def test_flow_rows_skip_unrated_branches(self, case9):
        branches = (replace(case9.branches[0], rate_a=0.0),) \
            + case9.branches[1:]
        p, _ = build_acopf(replace(case9, branches=branches))
        assert p.m_ineq == 16
        # both ends of every rated branch, in order, and none of branch 0
        limits = [(br.rate_a / 100.0) ** 2 for br in branches[1:]]
        assert list(p.gu) == list(np.repeat(limits, 2))

    def test_outaged_gen_leaves_problem(self, case9):
        gens = (case9.gens[0], replace(case9.gens[1], status=0),
                case9.gens[2])
        p, _ = build_acopf(replace(case9, gens=gens))
        assert p.n == 22
        # the live units 0 and 2 take the two PG columns
        pg = stage_columns(replace(case9, gens=gens)).pg
        assert [p.xu[pg[j]] for j in (0, 2)] == [g.pmax / 100.0 for g in
                                                 (gens[0], gens[2])]

    def test_disconnected_case_rejected(self, case9):
        branches = tuple(br for br in case9.branches
                         if (br.fbus, br.tbus) != (1, 4))
        with pytest.raises(errors.Disconnected):
            build_acopf(replace(case9, branches=branches))

    def test_objective_matches_cost_at_start(self, case9):
        p, _ = build_acopf(case9)
        layout = stage_columns(case9)
        by_hand = sum(g.cost.at(p.x0[layout.pg[i]] * 100.0)
                      for i, g in enumerate(case9.gens))
        assert p.objective(p.x0) == pytest.approx(by_hand, rel=1e-12)

    def test_stage_without_units_adds_no_cost(self, case9):
        """Stages with no live unit, first, between and last, add nothing
        and take no other stage's cost."""
        idle = replace(case9, gens=tuple(replace(g, status=0)
                                         for g in case9.gens))
        e = _Engine([idle, case9, idle, case9, idle],
                    (1.0, 0.25, 1.0, 0.5, 1.0))
        lone, _ = build_acopf(case9)
        x = np.random.default_rng(5).uniform(0.5, 1.5, e.n)
        f1, f3 = (lone.objective(x[e.var_off[k]:e.var_off[k] + lone.n])
                  for k in (1, 3))
        assert e.objective(x) == 0.25 * f1 + 0.5 * f3
        assert _Engine([idle], (1.0,)).objective(x[:18]) == 0.0


class TestResiduals:

    def test_stored_point_balances(self, case9):
        """The shipped operating point satisfies the power flow to
        listing precision."""
        sol = solution_from_case(case9)
        dp, dq = residuals_at(case9, sol)
        assert np.max(np.abs(dp)) <= 0.01
        assert np.max(np.abs(dq)) <= 0.01

    def test_perturbed_point_does_not(self, case9):
        sol = solution_from_case(case9)
        worse = replace(sol, vm=sol.vm * 1.01)
        dp, dq = residuals_at(case9, worse)
        assert max(np.max(np.abs(dp)), np.max(np.abs(dq))) > 0.01

    def test_flat_start_mismatch_is_load(self, case9):
        """With V = 1, theta = 0 and no dispatch the P residual at a
        load bus is its demand plus line charging effects."""
        sol = solution_from_case(case9)
        zeroed = replace(sol, vm=np.ones(9), va=np.zeros(9),
                         pg=np.zeros(3), qg=np.zeros(3))
        dp, _ = residuals_at(case9, zeroed)
        assert dp[case9.bus_pos[6]] == pytest.approx(-90.0, abs=1.0)


class TestDerivatives:

    def test_random_interior_points(self, case9):
        p, _ = build_acopf(case9)
        rng = np.random.default_rng(3)
        for x in interior_points(p, 5, rng):
            rep = check_derivatives(p, x)
            assert rep.grad_max_rel <= 1e-6
            assert rep.jac_max_rel <= 1e-6
            assert rep.hess_max_rel <= 1e-5

    @pytest.mark.parametrize("flagship", [False, True])
    def test_hessian_is_lower_triangle(self, case9, scens, ctgs, flagship):
        """The engine returns only the entries the solver reads: none
        above the diagonal, for one stage and for the 60-stage flagship
        composite."""
        if flagship:
            p, _ = compose_general(scens, ctgs, [case9] * 3,
                                   CouplingMode(kind="preventive"), 5.0)
        else:
            p, _ = build_acopf(case9)
        mult = np.random.default_rng(2).normal(size=p.m_eq + p.m_ineq)
        h = p.lagrangian_hessian(p.x0, 1.0, mult)
        assert h.nnz > 0 and sp.triu(h, 1).nnz == 0

    def test_tap_and_shift_branches(self, case9):
        """Transformer taps and phase shifts keep exact derivatives."""
        branches = (replace(case9.branches[0], ratio=0.95,
                            angle=math.radians(2.0)),) + case9.branches[1:]
        buses = tuple(replace(b, gs=5.0, bs=-10.0) if b.id == 4 else b
                      for b in case9.buses)
        p, _ = build_acopf(replace(case9, branches=branches, buses=buses))
        rng = np.random.default_rng(4)
        for x in interior_points(p, 3, rng):
            assert check_derivatives(p, x).ok()


class TestSolutionTransport:

    def test_pack_extract_inverse(self, case9, base_solve):
        _, imap, r = base_solve
        again = pack_solution(imap, extract_solution(imap, r.x))
        assert np.max(np.abs(again - r.x)) <= 1e-12

    def test_pack_extract_inverse_over_stages(self, case9, scens, ctgs):
        """Stages that differ in their live units pack back in stage
        order."""
        p, imap = compose_general(scens, ctgs.truncated(3), [case9] * 2,
                                  CouplingMode(), 5.0)
        x = interior_points(p, 1, np.random.default_rng(6))[0]
        again = pack_solution(imap, extract_solution(imap, x))
        assert np.max(np.abs(again - x)) <= 1e-12

    def test_pack_rejects_wrong_stage_count(self, base_solve):
        _, imap, r = base_solve
        with pytest.raises(errors.DimensionMismatch):
            pack_solution(imap, extract_solution(imap, r.x) * 2)

    def test_extract_rejects_wrong_shape(self, case9, base_solve):
        _, imap, r = base_solve
        with pytest.raises(errors.DimensionMismatch):
            extract_solution(imap, r.x[:-1])

    def test_extracted_flows_balance(self, case9, base_solve):
        _, imap, r = base_solve
        (sol,) = extract_solution(imap, r.x)
        dp, dq = residuals_at(case9, sol)
        assert max(np.max(np.abs(dp)), np.max(np.abs(dq))) <= 1e-4

    def test_objective_is_dollars_per_hour(self, case9, base_solve):
        _, imap, r = base_solve
        (sol,) = extract_solution(imap, r.x)
        by_hand = sum(case9.gens[i].cost.at(sol.pg[i]) for i in range(3))
        assert sol.objective == pytest.approx(by_hand, rel=1e-12)


class TestSolveQuality:

    def test_limits_respected(self, case9, base_solve):
        _, imap, r = base_solve
        (sol,) = extract_solution(imap, r.x)
        for pos, b in enumerate(case9.buses):
            assert b.vmin - 1e-8 <= sol.vm[pos] <= b.vmax + 1e-8
        for k, br in enumerate(case9.branches):
            if br.rate_a > 0:
                sfrom = math.hypot(sol.pf[k], sol.qf[k])
                sto = math.hypot(sol.pt[k], sol.qt[k])
                assert max(sfrom, sto) <= br.rate_a + 1e-4

    def test_warm_start_matches_cold(self, case9):
        """Solving from the stored operating point reaches the same
        objective as the default start."""
        p, imap = build_acopf(case9)
        cold = solve(p, SolverOptions())
        p.x0 = pack_solution(imap, (solution_from_case(case9),))
        warm = solve(p, SolverOptions())
        assert warm.status == cold.status == "Optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-7)
