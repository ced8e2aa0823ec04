"""Run orchestration: plans, monolithic and parallel execution, outputs."""

import json
import os
from dataclasses import replace

import pytest

from opfkit import (
    CouplingMode,
    RunPlan,
    compare_empar_monolithic,
    errors,
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

    def test_starved_solve_reports_solver_status(self):
        """A failed monolithic solve surfaces as-is; Degraded is
        reserved for partially failed parallel runs."""
        report = run(scopf_plan(nc=1, max_iter=2))
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

    def test_degraded_stage_reported(self):
        report = run(scopf_plan(structure="Empar", workers=1, max_iter=2))
        assert report.status == "Degraded"
        assert any(s.status != "Optimal" for s in report.stages)


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
