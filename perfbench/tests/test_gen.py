"""Seeded input generators: determinism, connectivity and size."""

import os

import numpy as np
import pytest

from perfbench import gen, mpc
from perfbench.tests.conftest import ROOT

CASE9 = os.path.join(ROOT, "tests", "data", "case9.m")


@pytest.fixture(scope="module")
def template():
    return mpc.read_file(CASE9)


def _texts(template, seed):
    snaps = [mpc.write(c) for c in gen.batch_snapshots(template, seed)]
    emp = gen.empar_inputs(template, seed)
    return (snaps, [emp["scenarios_csv"], emp["pload_csv"], emp["qload_csv"]],
            mpc.write(gen.tiled_case(template, seed)))


def test_one_seed_gives_byte_identical_inputs(template):
    assert _texts(template, 7) == _texts(template, 7)


def test_seeds_differ(template):
    a, b = _texts(template, 7), _texts(template, 8)
    assert a[0] != b[0] and a[1] != b[1] and a[2] != b[2]


def test_written_inputs_read_back(template):
    snap = gen.batch_snapshots(template, 3)[0]
    again = mpc.read(mpc.write(snap))
    assert np.array_equal(again["bus"], snap["bus"])


def test_batch_levels_cover_every_stratum(template):
    snaps = gen.batch_snapshots(template, 11)
    base = template["bus"][:, 2].sum()
    levels = sorted(s["bus"][:, 2].sum() / base for s in snaps)
    lo, hi = gen.BATCH_LEVELS
    # every stratum holds one snapshot, up to the per-bus jitter
    width = (hi - lo) / len(snaps)
    assert len(snaps) == gen.BATCH_SIZE
    assert min(levels) >= lo * (1 - gen.BATCH_BUS_JITTER)
    assert max(levels) <= hi * (1 + gen.BATCH_BUS_JITTER)
    assert np.all(np.diff(levels) < 3 * width + 2 * gen.BATCH_BUS_JITTER * hi)


def _islands(case):
    ids = {int(b): i for i, b in enumerate(case["bus"][:, 0])}
    parent = list(range(len(ids)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i
    for br in case["branch"]:
        if br[10] != 0:
            parent[find(ids[int(br[0])])] = find(ids[int(br[1])])
    return len({find(i) for i in range(len(ids))})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tiled_case_is_connected_and_past_dense_switch(template, seed):
    from opfkit import SolverOptions, build_acopf, from_raw, parse_case
    case = gen.tiled_case(template, seed)
    assert _islands(case) == 1
    assert np.count_nonzero(case["bus"][:, 1] == 3) == 1
    problem, _ = build_acopf(from_raw(parse_case(mpc.write(case))))
    kkt_dim = np.count_nonzero(problem.xl != problem.xu) + problem.m_eq
    assert kkt_dim > SolverOptions().dense_switch


def test_empar_profile_is_gentle(template):
    inp = gen.empar_inputs(template, 5)
    pd = inp["pd"]
    step = np.abs(pd[1:] / pd[:-1] - 1.0)
    assert np.all(step <= gen.EMPAR_LOAD_STEP + 1e-9)
    lo, hi = gen.EMPAR_WIND_MW
    assert np.all((inp["wind_mw"] >= lo) & (inp["wind_mw"] <= hi))


def test_every_batch_snapshot_solves(template, tmp_path):
    from opfkit import SolverOptions, build_acopf, from_raw, parse_case, solve
    for snap in gen.batch_snapshots(template, 1):
        problem, _ = build_acopf(from_raw(parse_case(mpc.write(snap))))
        assert solve(problem, SolverOptions()).status == "Optimal"
