"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and draws from its own
numpy stream, so one seed always gives byte-identical files.  Loads are
drawn by stratified sampling: the spread of difficulty inside one input
set is the same for every seed, which keeps timings comparable across
seeds while the exact values change.
"""

from __future__ import annotations

import numpy as np

from . import mpc

BATCH_SIZE = 50                 # snapshots per opf-batch round
BATCH_LEVELS = (0.5, 1.5)       # total load as a multiple of case9's
BATCH_BUS_JITTER = 0.10         # per-bus relative jitter around the level

EMPAR_SCENARIOS = 2
EMPAR_WIND_BUS = 3              # case9's zero-cost unit at bus 3
EMPAR_WIND_MW = (68.0, 78.0)
EMPAR_PERIODS = 3
EMPAR_DT_MIN = 5.0
EMPAR_LOAD_STEP = 0.03          # profile moves at most 3% per bus per step

TILED_COPIES = 80
TILED_LOAD_JITTER = 0.05

# stream tags keep the three generators independent for one seed
_BATCH, _EMPAR, _TILED = 1, 2, 3


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _copy(case: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in case.items()}


def batch_snapshots(template: dict, seed: int) -> list[dict]:
    """BATCH_SIZE load snapshots of the template, in request order.

    Snapshot i scales every load by a level drawn from stratum i of
    BATCH_LEVELS, times a per-bus jitter; the strata are visited in a
    seeded order.
    """
    rng = _rng(seed, _BATCH)
    lo, hi = BATCH_LEVELS
    order = rng.permutation(BATCH_SIZE)
    levels = lo + (hi - lo) * (order + rng.random(BATCH_SIZE)) / BATCH_SIZE
    nb = template["bus"].shape[0]
    out = []
    for i, level in enumerate(levels):
        case = _copy(template)
        case["name"] = f"snap_{i:03d}"
        factor = level * (1.0 + BATCH_BUS_JITTER
                          * (2.0 * rng.random(nb) - 1.0))
        case["bus"][:, 2] = np.round(case["bus"][:, 2] * factor, 6)
        case["bus"][:, 3] = np.round(case["bus"][:, 3] * factor, 6)
        out.append(case)
    return out


def empar_inputs(template: dict, seed: int) -> dict:
    """Scenario CSV and P/Q load-profile CSVs for the sopf-empar run.

    Returns the three texts plus the values they encode, so the checker
    can compare written stages against them.
    """
    rng = _rng(seed, _EMPAR)
    lo, hi = EMPAR_WIND_MW
    strata = (np.arange(EMPAR_SCENARIOS) + rng.random(EMPAR_SCENARIOS))
    wind = np.round(lo + (hi - lo) * strata / EMPAR_SCENARIOS, 3)
    weights = np.round(0.2 + 0.6 * rng.random(EMPAR_SCENARIOS), 3)
    scen_lines = [f"scenario,weight,wind_{EMPAR_WIND_BUS}_1"]
    scen_lines += [f"{s + 1},{weights[s]:.10g},{wind[s]:.10g}"
                   for s in range(EMPAR_SCENARIOS)]

    bus = template["bus"]
    loaded = np.flatnonzero((bus[:, 2] != 0.0) | (bus[:, 3] != 0.0))
    ids = bus[loaded, 0].astype(int)
    steps = 1.0 + EMPAR_LOAD_STEP * (2.0 * rng.random(
        (EMPAR_PERIODS, loaded.size)) - 1.0)
    steps[0] = 1.0
    factor = np.cumprod(steps, axis=0)
    pd = np.round(bus[loaded, 2] * factor, 6)
    qd = np.round(bus[loaded, 3] * factor, 6)
    times = EMPAR_DT_MIN * np.arange(EMPAR_PERIODS)

    def table(values):
        head = "time_min," + ",".join(str(i) for i in ids)
        rows = [f"{times[t]:.10g}," + ",".join(f"{v:.10g}" for v in values[t])
                for t in range(EMPAR_PERIODS)]
        return "\n".join([head] + rows) + "\n"

    return {"scenarios_csv": "\n".join(scen_lines) + "\n",
            "pload_csv": table(pd), "qload_csv": table(qd),
            "wind_mw": wind, "weights": weights, "profile_buses": ids,
            "pd": pd, "qd": qd}


def tiled_case(template: dict, seed: int) -> dict:
    """TILED_COPIES copies of the template joined in a chain by tie branches.

    Bus b of copy k gets id 100 k + b.  Only copy 0 keeps a reference
    bus; the other copies' reference buses become PV buses.  Copy k is
    tied to copy k + 1 by one branch between seeded buses with a seeded
    reactance, and every copy's loads get a seeded jitter.
    """
    rng = _rng(seed, _TILED)
    bus0, gen0 = template["bus"], template["gen"]
    br0, cost0 = template["branch"], template["gencost"]
    nb = bus0.shape[0]
    if bus0[:, 0].max() >= 100:
        raise ValueError("tiling needs template bus ids below 100")
    buses, gens, branches, costs = [], [], [], []
    for k in range(TILED_COPIES):
        b = bus0.copy()
        b[:, 0] += 100 * k
        if k:
            b[b[:, 1] == 3, 1] = 2
        jitter = 1.0 + TILED_LOAD_JITTER * (2.0 * rng.random(nb) - 1.0)
        b[:, 2] = np.round(b[:, 2] * jitter, 6)
        b[:, 3] = np.round(b[:, 3] * jitter, 6)
        g = gen0.copy()
        g[:, 0] += 100 * k
        br = br0[:, :13].copy()
        br[:, :2] += 100 * k
        buses.append(b)
        gens.append(g)
        branches.append(br)
        costs.append(cost0)
    ties = []
    for k in range(TILED_COPIES - 1):
        fb = 100 * k + bus0[rng.integers(nb), 0]
        tb = 100 * (k + 1) + bus0[rng.integers(nb), 0]
        x = round(0.05 + 0.05 * rng.random(), 6)
        ties.append([fb, tb, round(x / 10.0, 6), x, 0.02, 0.0, 0.0, 0.0,
                     0.0, 0.0, 1.0, -360.0, 360.0])
    return {"name": f"tiled{TILED_COPIES}", "base_mva": template["base_mva"],
            "bus": np.vstack(buses), "gen": np.vstack(gens),
            "branch": np.vstack(branches + [np.array(ties)]),
            "gencost": np.vstack(costs)}
