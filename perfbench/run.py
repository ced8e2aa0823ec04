"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload opf-batch --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, inputs and output trees go to `.perfbench_run/` there.  With
`--trace 0` the last line holds the end-to-end metrics, measured with
no instrumentation.  With `--trace 1` the requests run under span
wrappers and the last line holds the per-layer metrics; the spans and
each layer's self time are written to
`.perfbench_run/trace-<workload>-<seed>.json`.  No thread or BLAS
environment variable is set: the program runs as a user's shell runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from opfkit import runner  # noqa: E402

from perfbench.checker import check_kkt, check_tree  # noqa: E402
from perfbench.tracing import Tracer, instrument  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Set-up is sampled before the first round and again after every round,
# so its median spans the whole run as the request timings do.  The
# first samples after a round run on cold caches and are slower; each
# window is long enough to keep them a minority.
SETUP_FIRST_SECONDS = 0.5
SETUP_ROUND_SECONDS = 0.3
EXIT_MISSING_LAYER = 3
# No new round starts after this much wall time, so that a run on a
# heavily loaded host still ends well inside three minutes.
RUN_CAP_SECONDS = 120.0


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and LAPACK work.

    The first LAPACK call of a process also starts the BLAS threads, so
    one factorization runs before the clock starts.
    """
    a = np.random.default_rng(0).random((300, 300))
    a = a @ a.T + 300.0 * np.eye(300)
    np.linalg.cholesky(a)
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(10):
        np.linalg.cholesky(a)
    return time.perf_counter() - t0


def _cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _request(req, problem, tracer, rid: int):
    """One request as cli.main makes it.

    Returns (wall, record or None, faults, failed); the record is
    (wall, cpu) of a request that returned a report.
    """
    if tracer is None:
        span = lambda _name: contextlib.nullcontext()  # noqa: E731
    else:
        span = tracer.span
        tracer.request, tracer.active = rid, True
    # a stage file left by an earlier round must not stand in for one
    # this request failed to write
    shutil.rmtree(req.plan.out_directory(), ignore_errors=True)
    c0, t0 = _cpu(), time.perf_counter()
    try:
        with span("runner.run"):
            report = runner.run(req.plan)
        with span("runner.write_tree"):
            outdir = runner.write_output_tree(report)
    except Exception:                           # counted, never fatal
        traceback.print_exc()
        return time.perf_counter() - t0, None, [], True
    finally:
        if tracer is not None:
            tracer.active = False
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    record = (wall, cpu)
    if report.status != "Optimal":
        print(f"request {rid}: status {report.status}", file=sys.stderr)
        return wall, record, [], True
    faults = check_tree(outdir, req.expect)
    if problem is not None:
        faults += check_kkt(problem, report.solves[0], req.plan.tol)
    for fault in faults:
        print(f"request {rid}: {fault}", file=sys.stderr)
    return wall, record, faults, bool(faults)


def _setup(wl, samples: list[float], min_seconds: float) -> None:
    """Set-up samples (at least one) until min_seconds have been spent."""
    spent = 0.0
    while spent < min_seconds or spent == 0.0:
        t0 = time.perf_counter()
        wl.problems = wl.setup()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]


class _Tally:
    """Requests of one kind within a run: records and outcome counts."""

    def __init__(self) -> None:
        self.records: list[tuple[float, float]] = []
        self.attempted = self.failed = self.wrong = 0
        self.timed = 0.0


def _round(wl, tracer, setup: list[float], tally: _Tally) -> float:
    """One whole round of the workload; returns its request time."""
    start = tally.timed
    for i, req in enumerate(wl.requests):
        problem = wl.problems[i] if wl.problems else None
        wall, record, faults, bad = _request(req, problem, tracer,
                                             tally.attempted)
        tally.attempted += 1
        tally.failed += bad
        tally.wrong += bool(faults)
        tally.timed += wall
        if record is not None:
            tally.records.append(record)
    _setup(wl, setup, SETUP_ROUND_SECONDS)
    return tally.timed - start


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(records, setup_s: float) -> dict:
    walls = [r[0] for r in records]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "latency_p95_s": (_p95(walls), "s"),
        "cpu_s": (statistics.median(r[1] for r in records), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, wl, ops: int, overhead_s: float, probe_s: float):
    """Per-request layer figures; sizes are per solve."""
    incl, self_s, spans = tracer.totals()
    counts = tracer.counts
    missing = [name for name in wl.layers if name not in spans]
    if missing:
        return None, missing
    solves = counts["ipm.solves"]

    def per_op(v):
        return v / ops

    m = {
        "ipm.solve_s": (per_op(incl["ipm.solve"]), "s"),
        "ipm.self_s": (per_op(self_s["ipm.solve"]), "s"),
        "ipm.kkt_dim": (counts["ipm.kkt_dim"] / solves, "count"),
        "ipm.iterations": (per_op(counts["ipm.iterations"]), "count"),
        "ipm.regularized_iterations": (
            per_op(counts["ipm.regularized_iterations"]), "count"),
        "ipm.merit_evals_per_iter": (
            spans["nlp.constraints"] / counts["ipm.iterations"], "calls/iter"),
    }
    for cb in ("objective", "gradient", "constraints", "jacobian", "hessian"):
        m[f"nlp.{cb}_calls"] = (per_op(spans[f"nlp.{cb}"]), "count")
        m[f"nlp.{cb}_s"] = (per_op(incl[f"nlp.{cb}"]), "s")
    m["nlp.jacobian_nnz"] = (counts["nlp.jacobian_nnz"] / solves, "count")
    m["nlp.hessian_nnz"] = (counts["nlp.hessian_nnz"] / solves, "count")
    m["composer.compose_s"] = (per_op(incl["composer.compose"]), "s")
    m["composer.stages"] = (per_op(counts["composer.stages"]), "count")
    m["composer.coupling_rows"] = (
        per_op(counts["composer.coupling_rows"]), "count")
    for layer, key in (("matpower.parse", "matpower.parse_s"),
                       ("matpower.write", "matpower.write_s"),
                       ("inputs.parse", "inputs.parse_s"),
                       ("network.build", "network.build_s"),
                       ("network.transform", "network.transform_s"),
                       ("acopf.extract", "acopf.extract_s")):
        # a layer this workload does not run takes no time
        m[key] = (per_op(incl.get(layer, 0.0)), "s")
    for key in ("matpower.parse_bytes", "matpower.write_bytes"):
        m[key] = (per_op(counts.get(key, 0.0)), "B")
    m["network.transform_calls"] = (
        per_op(counts.get("network.transform_calls", 0.0)), "count")
    m["runner.run_s"] = (per_op(incl["runner.run"]), "s")
    m["runner.self_s"] = (per_op(self_s["runner.run"]), "s")
    m["runner.write_tree_s"] = (per_op(incl["runner.write_tree"]), "s")
    m["runner.subproblems"] = (per_op(solves), "count")
    m["host.probe_s"] = (probe_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, []


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    base = os.path.join(ROOT, ".perfbench_run")
    work = os.path.join(base, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    start = time.perf_counter()
    probe_start = host_probe()
    wl = WORKLOADS[args.workload](ROOT, work, args.seed)

    def more(tally: _Tally) -> bool:
        return (tally.timed < args.seconds
                and time.perf_counter() - start < RUN_CAP_SECONDS)

    setup: list[float] = []
    _setup(wl, setup, SETUP_FIRST_SECONDS)

    if args.trace:
        # untraced and traced rounds alternate; their paired difference
        # is the tracing overhead
        plain, tally, tracer, gaps = _Tally(), _Tally(), Tracer(), []
        while more(tally):
            base_s = _round(wl, None, setup, plain)
            with instrument(tracer):
                gaps.append(_round(wl, tracer, setup, tally) - base_s)
        overhead = statistics.median(gaps) / len(wl.requests)
        probe_s = 0.5 * (probe_start + host_probe())
        metrics, missing = per_layer(tracer, wl, len(tally.records),
                                     overhead, probe_s)
        tracer.write(os.path.join(
            base, f"trace-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "requests": len(tally.records),
             "metrics": {k: v[0] for k, v in (metrics or {}).items()}})
        if missing:
            print("layers that recorded no span: " + ", ".join(missing),
                  file=sys.stderr)
            return EXIT_MISSING_LAYER
        for key in ("attempted", "failed", "wrong"):
            setattr(tally, key, getattr(tally, key) + getattr(plain, key))
    else:
        tally = _Tally()
        while more(tally):
            _round(wl, None, setup, tally)
        metrics = end_to_end(tally.records, statistics.median(setup))
        probe_s = 0.5 * (probe_start + host_probe())
    walls = sorted(r[0] for r in tally.records)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} requests, "
          f"{tally.failed} failed, host probe {probe_s:.4f} s, "
          f"{len(setup)} set-up samples, request wall min/median/max "
          f"{walls[0]:.4f}/{statistics.median(walls):.4f}/{walls[-1]:.4f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
