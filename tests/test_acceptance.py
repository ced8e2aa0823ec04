"""Acceptance gate: ten end-to-end criteria, one test and one verdict line each.

The criteria pin the behaviors the package promises: the shipped 9-bus
solution satisfies its own power balance, the solver certifies KKT
points within budget, derivatives match finite differences, composite
problems reduce to the plain problem when their structure is trivial,
the flagship multi-scenario run produces the full output tree, parallel
execution is deterministic, files round-trip, and preventive coupling
is never cheaper than corrective on sets where it is a restriction.
"""

import re
import time
from dataclasses import replace

import numpy as np
import pytest

from opfkit import (
    ContingencySet,
    CouplingMode,
    LoadProfile,
    RunPlan,
    SolverOptions,
    apply_load_step,
    build_acopf,
    compare_empar_monolithic,
    compose_general,
    compose_multiperiod,
    compose_scopf,
    compose_sopf_flat,
    check_derivatives,
    extract_solution,
    from_raw,
    kkt_error,
    parse_case,
    parse_contingencies_file,
    residuals_at,
    run,
    solution_from_case,
    solve,
    write_case,
    write_output_tree,
)
from opfkit.composer import RAMP
from opfkit.matpower import format_case

import problems
from util import interior_points, stage_columns

NET = "tests/data/case9.m"
CTG = "tests/data/ctgc.cont"
CTG_BRANCHES = "tests/data/ctgc_branches.cont"
SCEN = "tests/data/scenarios.csv"

CORR = CouplingMode(kind="corrective")
PREV = CouplingMode(kind="preventive")


def _verdict(n, detail):
    print(f"criterion {n:2d}: PASS  {detail}")


class TestAcceptance:

    def test_criterion_01_shipped_solution_balances(self, case9):
        """The stored 9-bus operating point satisfies power balance to
        within the file's own 4-decimal printing precision."""
        t0 = time.perf_counter()
        sol = solution_from_case(case9)
        dp, dq = residuals_at(case9, sol)
        elapsed = time.perf_counter() - t0
        worst_p = float(np.max(np.abs(dp)))
        worst_q = float(np.max(np.abs(dq)))
        _verdict(1, f"max |dP| {worst_p:.2e} MW, max |dQ| {worst_q:.2e} "
                    f"MVAr, {elapsed:.3f} s")
        assert worst_p <= 0.01 and worst_q <= 0.01
        assert elapsed < 1.0

    def test_criterion_02_base_solve_quality(self, case9):
        """Fresh 9-bus solve: certified KKT point with every voltage in
        band and every rated branch within its MVA limit."""
        t0 = time.perf_counter()
        p, imap = build_acopf(case9)
        r = solve(p, SolverOptions(tol=1e-6, max_iter=200))
        elapsed = time.perf_counter() - t0
        assert r.status == "Optimal"
        kkt = max(kkt_error(p, r.x, r.lambda_eq, r.lambda_ineq,
                            r.z_lb, r.z_ub))
        (sol,) = extract_solution(imap, r.x)
        vm_ok = all(b.vmin - 1e-8 <= sol.vm[i] <= b.vmax + 1e-8
                    for i, b in enumerate(case9.buses))
        flow_slack = min(
            br.rate_a + 1e-4 - max(np.hypot(sol.pf[i], sol.qf[i]),
                                   np.hypot(sol.pt[i], sol.qt[i]))
            for i, br in enumerate(case9.branches) if br.rate_a > 0)
        _verdict(2, f"objective {r.objective:.4f} $/h, kkt {kkt:.2e}, "
                    f"{r.iterations} iterations, {elapsed:.2f} s")
        assert kkt <= 1e-6
        assert r.iterations <= 200
        assert vm_ok
        assert flow_slack >= 0.0
        assert elapsed < 5.0

    def test_criterion_03_derivatives_match_finite_differences(self, case9):
        """Analytic gradient/Jacobian/Hessian agree with central
        differences at 20 random interior points."""
        p, _ = build_acopf(case9)
        rng = np.random.default_rng(7)
        worst = np.zeros(3)
        for x in interior_points(p, 20, rng):
            rep = check_derivatives(p, x)
            worst = np.maximum(worst, [rep.grad_max_rel, rep.jac_max_rel,
                                       rep.hess_max_rel])
            assert rep.ok()
        _verdict(3, f"worst rel err grad {worst[0]:.2e}, "
                    f"jac {worst[1]:.2e}, hess {worst[2]:.2e}")
        assert worst[0] <= 1e-6 and worst[1] <= 1e-6 and worst[2] <= 1e-5

    def test_criterion_04_analytic_oracles(self):
        """The two quadratic programs and the active-bound problem
        solve to the hand-derived optimizers."""
        worst = 0.0
        for factory in (problems.qp_inequality, problems.qp_equality,
                        problems.qp_active_bound):
            p, expected = factory()
            r = solve(p, SolverOptions(tol=1e-10))
            assert r.status == "Optimal", p.name
            err = float(np.max(np.abs(r.x - expected["x"])))
            worst = max(worst, err)
            assert err <= 1e-8, p.name
        _verdict(4, f"worst ||x - x*||_inf {worst:.2e} over 3 problems")

    def test_criterion_05_trivial_composites_reduce(self, case9, scens,
                                                    base_solve):
        """Composites with no actual coupling reproduce the plain
        single-case objective."""
        _, _, base = base_solve
        composites = {
            "scopf nc=0": compose_scopf(case9, ContingencySet(()), CORR),
            "flat ns=1": compose_sopf_flat(case9, scens.truncated(1),
                                           None, CORR),
            "horizon nt=1": compose_multiperiod([case9], 5.0),
            "general degenerate": compose_general(None, None, [case9],
                                                  CouplingMode(), 30.0),
        }
        errs = {}
        for label, (p, imap) in composites.items():
            assert len(imap.stages) == 1
            r = solve(p, SolverOptions())
            assert r.status == "Optimal", label
            errs[label] = abs(r.objective - base.objective) \
                / abs(base.objective)
            assert errs[label] <= 1e-6, label
        _verdict(5, "rel err " + ", ".join(
            f"{k} {v:.1e}" for k, v in errs.items()))

    def test_criterion_06_replication_and_binding_ramp(self, case9,
                                                       base_solve):
        """Three identical periods cost exactly three times one period;
        a ramp limit tightened below the dispatch change a load swing
        demands becomes active and raises the cost."""
        _, _, base = base_solve
        p3, imap3 = compose_multiperiod([case9] * 3, 5.0)
        r3 = solve(p3, SolverOptions())
        assert r3.status == "Optimal"
        rep_err = abs(r3.objective - 3.0 * base.objective) \
            / abs(3.0 * base.objective)
        assert rep_err <= 1e-6
        ramp_mult = max(
            (abs(r3.lambda_ineq[cr.row - p3.m_eq])
             for cr in imap3.coupling_rows if cr.kind == RAMP),
            default=0.0)
        assert ramp_mult < 1e-6

        # a 4 MW swing at bus 6, then measure which generator moves most
        swing = LoadProfile(times=(0.0, 5.0, 10.0), buses=(6,),
                            pd=((90.0,), (94.0,), (94.0,)),
                            qd=((30.0,), (30.0,), (30.0,)))
        periods = [apply_load_step(case9, swing, t) for t in range(3)]
        p_free, imap_free = compose_multiperiod(periods, 5.0)
        r_free = solve(p_free, SolverOptions())
        assert r_free.status == "Optimal"

        def dispatch(imap, x, k):
            lo = imap.var_offset[k]
            lay = stage_columns(imap.stages[k].case)
            return {g: x[lo + lay.pg[g]] * case9.base_mva for g in lay.pg}

        d0 = dispatch(imap_free, r_free.x, 0)
        d1 = dispatch(imap_free, r_free.x, 1)
        gstar, delta = max(((g, abs(d1[g] - d0[g])) for g in d0),
                           key=lambda kv: kv[1])
        assert delta > 0.5  # the swing must actually move a generator

        # per-step bound ramp_30 * (5/30) set to half the required change
        gens = tuple(replace(g, ramp_30=3.0 * delta) if j == gstar else g
                     for j, g in enumerate(case9.gens))
        tight = replace(case9, gens=gens)
        tight_periods = [apply_load_step(tight, swing, t) for t in range(3)]
        p_t, imap_t = compose_multiperiod(tight_periods, 5.0)
        r_t = solve(p_t, SolverOptions())
        assert r_t.status == "Optimal"
        active = max(abs(r_t.lambda_ineq[cr.row - p_t.m_eq])
                     for cr in imap_t.coupling_rows
                     if cr.kind == RAMP and cr.gen == gstar)
        _verdict(6, f"replication rel err {rep_err:.1e}; tightened ramp "
                    f"multiplier {active:.2e}, cost {r_free.objective:.4f}"
                    f" -> {r_t.objective:.4f} $/h")
        assert active > 1e-6
        assert r_t.objective > r_free.objective

    def test_criterion_07_flagship_run_and_output_tree(self, tmp_path):
        """2 scenarios x (base + 9 contingencies) x 3 periods, preventive,
        solved monolithically: Optimal, 60 stage files, under 120 s."""
        plan = RunPlan(application="Sopf", netfile=NET,
                       structure="Monolithic",
                       mode=CouplingMode(kind="preventive"), nt=3,
                       ctgcfile=CTG, scenfile=SCEN,
                       outdir=str(tmp_path / "sopfout"))
        t0 = time.perf_counter()
        report = run(plan)
        outdir = write_output_tree(report)
        elapsed = time.perf_counter() - t0
        files = sorted(f.relative_to(outdir).as_posix()
                       for f in (tmp_path / "sopfout").rglob("*.m"))
        shaped = [f for f in files
                  if re.fullmatch(r"scen_\d+/cont_\d+/t_\d+\.m", f)]
        _verdict(7, f"status {report.status}, {len(files)} stage files, "
                    f"total {report.total_objective:.4f} $/h, "
                    f"{elapsed:.1f} s")
        assert report.status == "Optimal"
        assert len(files) == 60 and len(shaped) == 60
        assert report.stage_count() == 60
        assert elapsed < 120.0

    def test_criterion_08_parallel_determinism_and_relaxation(self):
        """Worker counts 1 and 8 give bitwise-identical stage objectives;
        the uncoupled total does not exceed the corrective coupled total."""
        def empar(workers):
            return run(RunPlan(application="Scopf", netfile=NET,
                               structure="Empar", mode=CORR,
                               ctgcfile=CTG, workers=workers))

        e1, e8 = empar(1), empar(8)
        pairs1 = [(s.scenario, s.contingency, s.period, s.objective)
                  for s in e1.stages]
        pairs8 = [(s.scenario, s.contingency, s.period, s.objective)
                  for s in e8.stages]
        assert pairs1 == pairs8  # bitwise, no tolerance
        mono = run(RunPlan(application="Scopf", netfile=NET,
                           structure="Monolithic", mode=CORR, ctgcfile=CTG))
        assert mono.status == "Optimal"
        warning = compare_empar_monolithic(e1, mono)
        within = e1.total_objective <= mono.total_objective \
            + 1e-4 * abs(mono.total_objective)
        _verdict(8, f"empar total {e1.total_objective:.4f} vs monolithic "
                    f"{mono.total_objective:.4f} $/h, workers 1 == 8")
        assert within or warning is not None
        assert warning is None  # on this case the relaxation bound holds

    def test_criterion_09_files_round_trip(self, case9_path, case9,
                                           base_solve):
        """parse -> write -> parse preserves every numeric field to 1e-9
        relative; a written solved case re-solves to the same objective."""
        raw0 = parse_case(case9_path.read_text())
        raw1 = parse_case(format_case(raw0))
        assert raw1.base_mva == pytest.approx(raw0.base_mva, rel=1e-9)
        for ta, tb in ((raw0.bus, raw1.bus), (raw0.gen, raw1.gen),
                       (raw0.branch, raw1.branch),
                       (raw0.gencost, raw1.gencost)):
            assert len(ta) == len(tb)
            for ra, rb in zip(ta, tb):
                assert len(ra) == len(rb)
                for va, vb in zip(ra, rb):
                    assert vb == pytest.approx(va, rel=1e-9, abs=1e-12)

        problem, imap, r = base_solve
        (solved,) = extract_solution(imap, r.x)
        reparsed = from_raw(parse_case(write_case(solved)))
        p2, _ = build_acopf(reparsed)
        r2 = solve(p2, SolverOptions())
        obj_err = abs(r2.objective - r.objective) / abs(r.objective)
        _verdict(9, f"fields preserved at 1e-9; re-solved objective "
                    f"rel err {obj_err:.1e}")
        assert r2.status == "Optimal"
        assert obj_err <= 1e-6

    def test_criterion_10_preventive_bounds_corrective(self, case9):
        """On branch-outage contingencies the preventive pins are a
        restriction of the corrective boxes, so the preventive optimum
        cannot be cheaper.  Generator outages are excluded: they free
        the reference machine from pinning, and the ordering theorem
        does not apply (see ctgc_branches.cont)."""
        ctgs = parse_contingencies_file(CTG_BRANCHES)
        results = {}
        for label, mode in (("corrective", CORR), ("preventive", PREV)):
            p, _ = compose_scopf(case9, ctgs, mode)
            r = solve(p, SolverOptions(tol=1e-6))
            assert r.status == "Optimal", label
            kkt = max(kkt_error(p, r.x, r.lambda_eq, r.lambda_ineq,
                                r.z_lb, r.z_ub))
            assert kkt <= 1e-6, label
            results[label] = r.objective
        corr, prev = results["corrective"], results["preventive"]
        _verdict(10, f"preventive {prev:.4f} >= corrective {corr:.4f} $/h "
                     f"on {len(ctgs)} branch outages")
        assert prev >= corr - 1e-6 * abs(corr)
