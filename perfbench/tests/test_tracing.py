"""Span bookkeeping, instrumentation of the runner and missing layers."""

import pytest

from perfbench.tests.conftest import ROOT
from perfbench.tracing import Tracer, instrument
from perfbench.workloads import CORE_LAYERS, opf_batch


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.active = True
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    incl, self_s, count = tr.totals()
    assert count == {"outer": 1, "inner": 2}
    assert self_s["outer"] == pytest.approx(incl["outer"] - incl["inner"])
    assert [sp.parent for sp in tr.spans] == [-1, 0, 0]


def test_inactive_tracer_records_nothing():
    tr = Tracer()
    with tr.span("x"):
        pass
    assert tr.spans == [] and tr.counts == {}


def _traced_request(tmp_path):
    from opfkit import runner
    tmp_path.mkdir()
    wl = opf_batch(ROOT, str(tmp_path), seed=5)
    tr = Tracer()
    with instrument(tr):
        tr.active = True
        with tr.span("runner.run"):
            report = runner.run(wl.requests[0].plan)
        with tr.span("runner.write_tree"):
            runner.write_output_tree(report)
        tr.active = False
    return tr


def test_every_core_layer_records_and_counts_repeat(tmp_path):
    first = _traced_request(tmp_path / "a")
    second = _traced_request(tmp_path / "b")
    _, _, spans = first.totals()
    assert [name for name in CORE_LAYERS if name not in spans] == []
    assert first.counts == second.counts
    assert first.totals()[2] == second.totals()[2]
    # sizes come from the solver's own callbacks: one solve, case9
    assert first.counts["nlp.jacobian_nnz"] > 0
    assert first.counts["nlp.hessian_nnz"] > 0


def test_instrument_restores_the_runner(tmp_path):
    from opfkit import matpower, network, runner
    before = (runner.solve, runner.compose_multiperiod,
              network.from_raw, matpower.parse_case_file)
    _traced_request(tmp_path / "a")
    assert before == (runner.solve, runner.compose_multiperiod,
                      network.from_raw, matpower.parse_case_file)


def test_missing_layer_is_reported_not_zero():
    from perfbench.run import per_layer
    from perfbench.workloads import Workload
    tr = Tracer()
    tr.active = True
    with tr.span("runner.run"):
        pass
    wl = Workload("w", [], lambda: [], CORE_LAYERS)
    metrics, missing = per_layer(tr, wl, 1, 0.0, 0.0)
    assert metrics is None
    assert "ipm.solve" in missing and "runner.run" not in missing


def test_request_clears_an_earlier_tree(tmp_path):
    import os
    from perfbench.run import _request
    wl = opf_batch(ROOT, str(tmp_path), seed=5)
    req = wl.requests[0]
    outdir = req.plan.out_directory()
    os.makedirs(outdir)
    stale = os.path.join(outdir, "stale.m")
    open(stale, "w").close()
    _wall, _record, faults, failed = _request(req, None, None, 0)
    assert not failed and faults == []
    assert not os.path.exists(stale)
