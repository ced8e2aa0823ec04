"""The independent checker accepts real outputs and rejects corrupted ones."""

import os
import shutil

import pytest

from perfbench import checker, mpc
from perfbench.tests.conftest import ROOT
from perfbench.workloads import opf_batch, sopf_empar

DATA = os.path.join(ROOT, "tests", "data")


def _solve(request):
    from opfkit import runner
    report = runner.run(request.plan)
    return report, runner.write_output_tree(report)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("batch"))
    wl = opf_batch(ROOT, work, seed=4)
    req = wl.requests[0]
    report, outdir = _solve(req)
    return wl, req, report, outdir


def _corrupt(outdir, rel, edit, tmp_path):
    """Copy a tree, apply edit(case) to one stage file, return the copy."""
    copy = str(tmp_path / "tree")
    shutil.copytree(outdir, copy)
    path = os.path.join(copy, *rel)
    case = mpc.read_file(path)
    edit(case)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mpc.write(case))
    return copy


def test_real_output_passes(batch):
    wl, req, report, outdir = batch
    assert report.status == "Optimal"
    assert checker.check_tree(outdir, req.expect) == []
    problem = wl.setup()[0]
    assert checker.check_kkt(problem, report.solves[0], 1e-6) == []


def test_pg_moved_by_one_mw_is_rejected(batch, tmp_path):
    _, req, _, outdir = batch

    def edit(case):
        case["gen"][1, checker.PG] += 1.0
    faults = checker.check_tree(_corrupt(outdir, ("t_0.m",), edit, tmp_path),
                                req.expect)
    assert any("power balance" in f for f in faults)
    assert any("cost" in f for f in faults)


def test_changed_load_is_rejected(batch, tmp_path):
    _, req, _, outdir = batch

    def edit(case):
        case["bus"][4, checker.PD] += 5.0
    faults = checker.check_tree(_corrupt(outdir, ("t_0.m",), edit, tmp_path),
                                req.expect)
    assert any("loads differ" in f for f in faults)
    assert any("power balance" in f for f in faults)


def test_wrong_multipliers_fail_kkt(batch):
    wl, _, report, _ = batch
    from dataclasses import replace
    bad = replace(report.solves[0], lambda_eq=report.solves[0].lambda_eq * 1.1)
    assert checker.check_kkt(wl.setup()[0], bad, 1e-6)


def test_summary_total_must_match_stage_costs(batch, tmp_path):
    import json
    _, req, _, outdir = batch
    copy = str(tmp_path / "tree")
    shutil.copytree(outdir, copy)
    path = os.path.join(copy, "summary.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["total_objective"] += 1.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert any("total" in f for f in checker.check_tree(copy, req.expect))


@pytest.fixture(scope="module")
def lattice(tmp_path_factory):
    """A small EMPAR lattice: the checker's multi-stage paths."""
    work = str(tmp_path_factory.mktemp("empar"))
    wl = sopf_empar(ROOT, work, seed=2)
    req = wl.requests[0]
    report, outdir = _solve(req)
    return req, report, outdir


def test_lattice_output_passes(lattice):
    req, report, outdir = lattice
    assert len(report.stages) == len(req.expect.stages) == 60
    assert checker.check_tree(outdir, req.expect) == []


def test_wrong_wind_cap_and_outage_are_rejected(lattice, tmp_path):
    req, _, outdir = lattice

    def edit(case):
        case["gen"][2, checker.PMAX] += 3.0      # the wind unit at bus 3
        case["branch"][3, checker.BSTATUS] = 0
    faults = checker.check_tree(
        _corrupt(outdir, ("scen_1", "cont_2", "t_1.m"), edit, tmp_path),
        req.expect)
    assert any("scenario cap" in f for f in faults)
    assert any("branch statuses" in f for f in faults)


def test_broken_ramp_is_rejected(lattice, tmp_path):
    req, _, outdir = lattice
    rel = ("scen_0", "cont_0", "t_1.m")
    limit = mpc.read_file(os.path.join(outdir, *rel))["gen"][0, checker.RAMP30]

    def edit(case):
        case["gen"][0, checker.PG] += limit      # 6x the 5-minute ramp
    faults = checker.check_tree(_corrupt(outdir, rel, edit, tmp_path),
                                req.expect)
    assert any("ramp limit" in f for f in faults)


def test_preventive_pin_and_scenario_box(tmp_path):
    """Coupling checks on a hand-made lattice, without a solve."""
    base = mpc.read_file(os.path.join(DATA, "case9.m"))
    cases = [mpc.read(mpc.write(base)) for _ in range(3)]
    expect = checker.TreeExpect(
        stages=[], lattice={(0, 0, 0): 0, (0, 1, 0): 1, (1, 0, 0): 2},
        preventive=True, scenario_boxes=True)
    assert checker._coupling(cases, expect) == []
    cases[1]["gen"][1, checker.PG] += 1.0        # gen at bus 2 is not ref
    cases[2]["gen"][1, checker.PG] += 31.0       # box is ramp_30 = 30 MW
    faults = checker._coupling(cases, expect)
    assert any("preventive pin" in f for f in faults)
    assert any("scenario box" in f for f in faults)
