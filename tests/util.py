"""Helpers shared by solver and acceptance tests."""

from types import SimpleNamespace

import numpy as np

from opfkit.network import ISOLATED


def stage_columns(case):
    """One stage's variable block, laid out apart from the engine by its
    documented order: VA, then VM, over the active (non-isolated) buses,
    then PG, then QG, over the live units.  va, vm, pg and qg map a bus
    or unit position to its column counted from the block's start."""
    active = [i for i, b in enumerate(case.buses) if b.btype != ISOLATED]
    live = [j for j, g in enumerate(case.gens) if g.status != 0]
    nb, ng = len(active), len(live)
    return SimpleNamespace(
        n_vars=2 * (nb + ng),
        va={pos: k for k, pos in enumerate(active)},
        vm={pos: nb + k for k, pos in enumerate(active)},
        pg={pos: 2 * nb + k for k, pos in enumerate(live)},
        qg={pos: 2 * nb + ng + k for k, pos in enumerate(live)})


def interior_points(problem, k, rng):
    """k strictly interior points of the problem's box.

    Free coordinates draw from (-0.5, 0.5); fixed coordinates keep
    their pinned value; finite bounds shrink to the middle 80%.
    """
    lo = np.where(np.isfinite(problem.xl), problem.xl, -0.5)
    hi = np.where(np.isfinite(problem.xu), problem.xu, 0.5)
    width = hi - lo
    pts = []
    for _ in range(k):
        u = rng.uniform(0.1, 0.9, size=problem.n)
        x = lo + u * width
        fixed = problem.xl == problem.xu
        x[fixed] = problem.xl[fixed]
        pts.append(x)
    return pts
