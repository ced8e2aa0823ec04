"""Run orchestration: plans, monolithic and parallel execution, outputs."""

import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opfkit import (
    CouplingMode,
    RunPlan,
    compare_empar_monolithic,
    errors,
    extract_solution,
    load_case,
    run,
    runner,
    write_output_tree,
)

NET = "tests/data/case9.m"
CTG = "tests/data/ctgc.cont"
SCEN = "tests/data/scenarios.csv"
PLOAD = "tests/data/load_p.csv"
QLOAD = "tests/data/load_q.csv"


def scopf_plan(**kw):
    base = dict(application="Scopf", netfile=NET, ctgcfile=CTG)
    base.update(kw)
    return RunPlan(**base)


_chain_task = runner._chain_task


def _die_on_generator_outage(payload):
    """Chain task whose worker process exits on the generator outage."""
    cases = payload[0]
    if any(g.status == 0 for g in cases[0].gens):
        os._exit(1)
    return _chain_task(payload)


_compose_chain = runner.compose_multiperiod


def _raise_on_generator_outage(cases, dt_minutes):
    """Chain composition that raises a plain ValueError on the
    generator outage."""
    if any(g.status == 0 for g in cases[0].gens):
        raise ValueError("injected chain failure")
    return _compose_chain(cases, dt_minutes)


def _without_ramp_columns(tmp_path):
    """case9 with its gen rows cut to 10 columns, as in MATPOWER files
    without ramp columns: every unit reads ramp_30 = 0."""
    lines, in_gen = [], False
    with open(NET, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("mpc.gen ="):
                in_gen = True
            elif line.startswith("];"):
                in_gen = False
            elif in_gen:
                line = "\t".join(line.rstrip(";\n").split("\t")[:11]) + ";\n"
            lines.append(line)
    net = tmp_path / "case9_no_ramp.m"
    net.write_text("".join(lines))
    return str(net)


class TestPlanValidation:

    def test_unknown_application(self):
        with pytest.raises(errors.InvalidPlan):
            RunPlan(application="Dcopf", netfile=NET).validate()

    def test_unknown_structure(self):
        with pytest.raises(errors.InvalidPlan):
            RunPlan(application="Opf", netfile=NET,
                    structure="ring").validate()

    def test_empar_needs_contingencies(self):
        with pytest.raises(errors.InvalidPlan):
            RunPlan(application="Opf", netfile=NET,
                    structure="Empar").validate()

    def test_flat_is_stochastic_only(self):
        with pytest.raises(errors.InvalidPlan):
            scopf_plan(structure="Flat").validate()

    def test_scopf_needs_ctgc_file(self):
        with pytest.raises(errors.InvalidPlan):
            RunPlan(application="Scopf", netfile=NET).validate()

    def test_sopf_needs_scenario_file(self):
        with pytest.raises(errors.InvalidPlan):
            RunPlan(application="Sopf", netfile=NET,
                    ctgcfile=CTG).validate()

    def test_full_is_no_plan_structure(self):
        """The CLI maps --structure full onto Monolithic."""
        with pytest.raises(errors.InvalidPlan):
            RunPlan(application="Sopf", netfile=NET, ctgcfile=CTG,
                    scenfile=SCEN, structure="Full").validate()

    def test_scenario_file_on_scopf_rejected(self, tmp_path):
        """A Scopf plan read a scenario file it does not use and declared
        its wind units on the case: gen 1's cost vanished and the total
        fell from 15731.81 to 1241.00."""
        assert run(scopf_plan(nc=2)).total_objective == pytest.approx(
            15731.81, abs=0.005)
        scen = tmp_path / "wind.csv"
        scen.write_text("scenario,weight,wind_1_1\n1,1.0,100\n")
        with pytest.raises(errors.InvalidPlan, match="scenario file"):
            run(scopf_plan(nc=2, scenfile=str(scen)))

    @pytest.mark.parametrize("application,files", [
        ("Opf", {"scenfile": SCEN}), ("Tcopf", {"scenfile": SCEN}),
        ("Opf", {"ctgcfile": CTG}), ("Tcopf", {"ctgcfile": CTG})])
    def test_unused_input_file_rejected(self, application, files):
        with pytest.raises(errors.InvalidPlan, match="does not use"):
            RunPlan(application=application, netfile=NET,
                    **files).validate()

    def test_load_profiles_legal_everywhere(self):
        for plan in (RunPlan(application="Opf", netfile=NET),
                     scopf_plan(), scopf_plan(application="Sopf",
                                              scenfile=SCEN)):
            replace(plan, pload=PLOAD, qload=QLOAD).validate()

    @pytest.mark.parametrize("name,value", [
        ("tol", np.nan), ("tol", np.inf), ("tol", -1.0), ("tol", 0.0),
        ("max_iter", 0), ("max_iter", -3)])
    def test_unusable_solver_limits_rejected(self, name, value):
        """A NaN tolerance ran 200 iterations into MaxIter, and an
        iteration limit of 0 wrote the start point as the result."""
        with pytest.raises(errors.InvalidPlan, match=name):
            RunPlan(application="Opf", netfile=NET,
                    **{name: value}).validate()

    def test_loads_come_in_pairs(self):
        with pytest.raises(errors.InvalidPlan):
            RunPlan(application="Tcopf", netfile=NET,
                    pload=PLOAD).validate()

    def test_default_outdir_per_application(self):
        assert RunPlan(application="Opf",
                       netfile=NET).out_directory() == "opflowout"
        assert scopf_plan().out_directory() == "scopflowout"
        assert scopf_plan(outdir="x").out_directory() == "x"


class TestMonolithic:

    def test_opf_single_stage(self, base_solve):
        _, _, base = base_solve
        report = run(RunPlan(application="Opf", netfile=NET))
        assert report.status == "Optimal"
        assert report.stage_count() == 1
        assert report.total_objective == pytest.approx(base.objective,
                                                       rel=1e-9)

    def test_tcopf_resolves_profile_horizon(self, base_solve):
        _, _, base = base_solve
        report = run(RunPlan(application="Tcopf", netfile=NET,
                             pload=PLOAD, qload=QLOAD))
        assert [s.period for s in report.stages] == [0, 1, 2]
        # the shipped profile repeats the base loads: replication law
        assert report.total_objective == pytest.approx(3 * base.objective,
                                                       rel=1e-6)

    def test_scopf_stage_table(self):
        report = run(scopf_plan(nc=2))
        assert report.status == "Optimal"
        assert [s.contingency for s in report.stages] == [0, 1, 2]
        assert all(s.period == 0 for s in report.stages)
        total = sum(s.objective for s in report.stages)
        assert report.total_objective == pytest.approx(total)

    def test_nc_truncates(self):
        report = run(scopf_plan(nc=1))
        assert report.stage_count() == 2

    def test_zero_ramp_pins_the_horizon(self, tmp_path, base_solve):
        """Every ramp row of a zero ramp had gl = gu = 0, so its slack
        started with no gap: the solve failed at iteration 0 with
        RuntimeWarnings.  As pins, three identical periods cost three
        times one."""
        net = _without_ramp_columns(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(RunPlan(application="Tcopf", netfile=net, nt=3))
        assert report.status == "Optimal"
        assert report.total_objective == pytest.approx(
            3.0 * base_solve[2].objective, rel=1e-8)

    @pytest.mark.parametrize("name", ["netfile", "ctgcfile"])
    @pytest.mark.parametrize("junk", [False, True])
    def test_unreadable_input_is_io_error(self, tmp_path, name, junk):
        """A missing file raised FileNotFoundError and 200 random bytes
        UnicodeDecodeError, not the package's IoError."""
        path = tmp_path / "input"
        if junk:
            path.write_bytes(np.random.default_rng(0).bytes(200))
        with pytest.raises(errors.IoError, match=f"cannot read {path}"):
            run(scopf_plan(**{name: str(path)}))

    @pytest.mark.parametrize("application,structure", [
        ("Scopf", "Monolithic"), ("Sopf", "Flat"), ("Sopf", "Monolithic")])
    def test_single_period_profile_sets_loads(self, tmp_path, application,
                                              structure):
        """A one-row load profile replaces the case loads in every stage,
        whichever structure composes the single period."""
        pd, qd = [110.0, 110.0, 120.0], [35.0, 32.0, 40.0]
        pload, qload = tmp_path / "p.csv", tmp_path / "q.csv"
        pload.write_text("time_min,5,6,8\n0," + ",".join(map(str, pd)) + "\n")
        qload.write_text("time_min,5,6,8\n0," + ",".join(map(str, qd)) + "\n")
        report = run(RunPlan(application=application, netfile=NET,
                             structure=structure, ctgcfile=CTG, nc=1,
                             scenfile=SCEN if application == "Sopf" else None,
                             pload=str(pload), qload=str(qload)))
        assert report.status == "Optimal"
        for st in report.stages:
            case = st.solution.case
            loads = [case.buses[case.bus_pos[b]] for b in (5, 6, 8)]
            assert [b.pd for b in loads] == pd
            assert [b.qd for b in loads] == qd

    @pytest.mark.parametrize("application,structure", [
        ("Scopf", "Monolithic"), ("Sopf", "Flat")])
    def test_starved_solve_reports_solver_status(self, application,
                                                 structure):
        """A failed coupled solve, monolithic or flat, surfaces as-is;
        Degraded is reserved for partially failed parallel runs."""
        report = run(scopf_plan(application=application, structure=structure,
                                scenfile=SCEN if application == "Sopf"
                                else None, nc=1, max_iter=2))
        assert report.status == "MaxIter"
        assert report.warnings
        assert all(s.status == "MaxIter" for s in report.stages)


class TestEmpar:

    def test_worker_counts_agree_bitwise(self):
        base = scopf_plan(structure="Empar", mode=CouplingMode())
        one = run(replace(base, workers=1))
        two = run(replace(base, workers=2))
        assert one.status == two.status == "Optimal"
        assert [s.objective for s in one.stages] \
            == [s.objective for s in two.stages]

    def test_workers_capped_at_chain_count(self):
        report = run(scopf_plan(structure="Empar", nc=0, workers=8))
        assert report.workers == 1

    def test_chains_drop_coupling(self):
        """Relaxation: the independent total cannot exceed monolithic."""
        empar = run(scopf_plan(structure="Empar", workers=1))
        mono = run(scopf_plan())
        assert empar.total_objective <= mono.total_objective + 1e-4 * max(
            1.0, abs(mono.total_objective))
        assert compare_empar_monolithic(empar, mono) is None

    def test_anchor_restricts(self):
        """Anchoring boxes each chain around the pre-solved base
        dispatch, so chain objectives can only go up.  Generator
        outages are excluded: with the base frozen unhedged, the
        surviving capacity cannot cover the load."""
        branch_only = scopf_plan(structure="Empar", workers=1,
                                 ctgcfile="tests/data/ctgc_branches.cont")
        plain = run(branch_only)
        anchored = run(replace(branch_only, empar_anchor=True))
        assert anchored.status == "Optimal"
        assert anchored.total_objective >= plain.total_objective \
            - 1e-6 * abs(plain.total_objective)

    def test_rejects_what_monolithic_rejects(self):
        """A zero step between the profile's three periods is an invalid
        plan for every structure, not a run of failed chains."""
        for structure in ("Monolithic", "Empar"):
            with pytest.raises(errors.InvalidPlan, match="dt_minutes"):
                run(scopf_plan(structure=structure, workers=1, pload=PLOAD,
                               qload=QLOAD, dt_minutes=0.0))

    def test_worker_death_degrades(self, monkeypatch):
        """A chain whose worker process dies is reported as Error stages
        with a warning instead of aborting the run."""
        monkeypatch.setattr(runner, "_chain_task", _die_on_generator_outage)
        report = run(scopf_plan(structure="Empar", nc=2, workers=2))
        assert report.status == "Degraded"
        assert [s.contingency for s in report.stages] == [0, 1, 2]
        assert report.stages[1].status == "Error"      # the GEN outage
        assert report.stages[1].solution is None
        assert all(s.status in ("Optimal", "Error") for s in report.stages)
        assert any("cont_1" in w and "died" in w for w in report.warnings)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chain_exception_degrades(self, monkeypatch, workers):
        """Any exception in one chain, not only an OpfkitError, leaves
        Error stages and a warning instead of aborting the run."""
        monkeypatch.setattr(runner, "compose_multiperiod",
                            _raise_on_generator_outage)
        report = run(scopf_plan(structure="Empar", nc=3, workers=workers))
        assert report.status == "Degraded"
        # contingencies 1 and 2 are the generator outages
        assert [s.status for s in report.stages] == ["Optimal", "Error",
                                                     "Error", "Optimal"]
        assert report.stages[1].solution is None
        assert "Traceback" in report.stages[1].message
        for c in (1, 2):
            assert any(f"cont_{c}" in w and "ValueError" in w
                       for w in report.warnings)

    def test_anchor_leaves_base_chain_free(self, tmp_path):
        """Anchoring narrows every chain but the lattice's base chain,
        which keeps the case's limits in the written file, as the global
        base stage of a monolithic run is coupled to nothing."""
        from opfkit import load_case
        out = tmp_path / "sopf"
        report = run(RunPlan(application="Sopf", netfile=NET,
                             structure="Empar", workers=1, scenfile=SCEN,
                             ctgcfile="tests/data/ctgc_branches.cont", nc=1,
                             empar_anchor=True, outdir=str(out)))
        write_output_tree(report)
        assert report.status == "Optimal"
        base = load_case(out / "scen_0" / "cont_0" / "t_0.m")
        assert [(g.pmin, g.pmax) for g in base.gens[:2]] == [(10.0, 350.0),
                                                             (10.0, 300.0)]
        for s, c in ((0, 1), (1, 0), (1, 1)):
            gens = load_case(out / f"scen_{s}" / f"cont_{c}" / "t_0.m").gens
            assert gens[0].pmin > 10.0 and gens[0].pmax < 350.0

    def test_anchor_boxes_around_lattice_base_stage(self, tmp_path):
        """Anchored chains are boxed around the lattice's base stage, the
        most probable scenario with its wind target applied, which the
        free base chain also solves; not around the case with no
        scenario applied."""
        scen = tmp_path / "scen.csv"
        scen.write_text("scenario,weight,wind_3_1\n1,0.6,40\n2,0.4,70\n")
        report = run(RunPlan(application="Sopf", netfile=NET,
                             structure="Empar", workers=1,
                             scenfile=str(scen),
                             ctgcfile="tests/data/ctgc_branches.cont", nc=1,
                             empar_anchor=True))
        assert report.status == "Optimal"
        assert report.stage_count() == 4
        gens = load_case(NET).gens
        base = report.stages[0].solution
        for stage in report.stages[1:]:
            for j in (0, 1):
                anchored = stage.solution.case.gens[j]
                assert anchored.pmin == max(gens[j].pmin,
                                            base.pg[j] - gens[j].ramp_30)
                assert anchored.pmax == min(gens[j].pmax,
                                            base.pg[j] + gens[j].ramp_30)

    def test_degraded_stage_reported(self):
        report = run(scopf_plan(structure="Empar", workers=1, max_iter=2))
        assert report.status == "Degraded"
        assert any(s.status != "Optimal" for s in report.stages)


class TestTrivialComposites:
    """Composites whose stages all equal the plain case reduce to it."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
           nt=st.integers(1, 3),
           structure=st.sampled_from(["Monolithic", "Flat", "Empar"]))
    def test_structures_agree_with_plain_acopf(self, tmp_path_factory,
                                               base_solve, weights, nt,
                                               structure):
        """Scenarios that all keep case9's own 75 MW wind target, no
        contingency and nt equal periods: every structure is Optimal,
        dispatches every stage as the plain ACOPF does, and totals nt
        plain objectives."""
        _, imap, plain = base_solve
        plain_pg = extract_solution(imap, plain.x)[0].pg
        if structure == "Flat":
            nt = 1
        scen = tmp_path_factory.mktemp("trivial") / "scen.csv"
        scen.write_text("scenario,weight,wind_3_1\n" + "".join(
            f"{i + 1},{w!r},75\n" for i, w in enumerate(weights)))
        report = run(RunPlan(application="Sopf", netfile=NET,
                             structure=structure, workers=1,
                             scenfile=str(scen), ctgcfile=CTG, nc=0, nt=nt))
        assert report.status == "Optimal"
        assert report.stage_count() == len(weights) * nt
        assert report.total_objective == pytest.approx(nt * plain.objective,
                                                       rel=1e-7)
        for stage in report.stages:
            assert np.max(np.abs(stage.solution.pg - plain_pg)) <= 1e-4


class TestOutputTree:

    def test_opf_writes_single_period(self, tmp_path):
        out = tmp_path / "opf"
        report = run(RunPlan(application="Opf", netfile=NET,
                             outdir=str(out)))
        write_output_tree(report)
        assert (out / "t_0.m").exists()
        assert (out / "summary.json").exists()

    def test_scopf_tree_per_contingency(self, tmp_path):
        out = tmp_path / "scopf"
        report = run(scopf_plan(nc=2, outdir=str(out)))
        write_output_tree(report)
        names = sorted(p.relative_to(out).as_posix()
                       for p in out.rglob("*.m"))
        assert names == ["cont_0/t_0.m", "cont_1/t_0.m", "cont_2/t_0.m"]

    def test_sopf_tree_per_scenario(self, tmp_path):
        out = tmp_path / "sopf"
        report = run(RunPlan(application="Sopf", netfile=NET, ctgcfile=CTG,
                             scenfile=SCEN, nc=1, outdir=str(out)))
        write_output_tree(report)
        names = sorted(p.relative_to(out).as_posix()
                       for p in out.rglob("*.m"))
        assert names == ["scen_0/cont_0/t_0.m", "scen_0/cont_1/t_0.m",
                         "scen_1/cont_0/t_0.m", "scen_1/cont_1/t_0.m"]

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "opf"
        report = run(RunPlan(application="Opf", netfile=NET,
                             outdir=str(out)))
        write_output_tree(report)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["application"] == "Opf"
        assert summary["status"] == "Optimal"
        stage = summary["stages"][0]
        for key in ("scenario", "contingency", "period", "status",
                    "objective", "weight", "iterations", "kkt"):
            assert key in stage

    def test_written_stage_is_reparseable(self, tmp_path, case9):
        from opfkit import load_case, residuals_at, solution_from_case
        out = tmp_path / "opf"
        report = run(RunPlan(application="Opf", netfile=NET,
                             outdir=str(out)))
        write_output_tree(report)
        again = load_case(out / "t_0.m")
        sol = solution_from_case(again)
        dp, dq = residuals_at(again, sol)
        assert max(abs(dp).max(), abs(dq).max()) <= 0.01
