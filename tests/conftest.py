import math

import numpy as np
import pytest

from terramob.agents import AgentProfile, speed
from terramob.local_adapt import N_ACTIONS, BypassEvaluation, deviation_cells
from terramob.planner import PathPlan
from terramob.terrain import (
    DEFAULT_NODATA, OFFSET_TO_ACTION, SQRT2, CellIndex, ElevationGrid,
)


def rough_grid(seed: int, nrows: int = 32, ncols: int = 32,
               cellsize: float = 30.0, nodata_frac: float = 0.08,
               relief: float = 35.0) -> ElevationGrid:
    """Smoothed random terrain with a sprinkling of nodata holes.

    Corners are kept traversable so they can serve as start/goal cells.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, relief, (nrows, ncols))
    for _ in range(2):
        padded = np.pad(values, 1, mode="edge")
        values = sum(
            padded[i:i + nrows, j:j + ncols] for i in range(3) for j in range(3)
        ) / 9.0
    holes = rng.random((nrows, ncols)) < nodata_frac
    holes[0, 0] = holes[nrows - 1, ncols - 1] = False
    values[holes] = DEFAULT_NODATA
    return ElevationGrid(ncols, nrows, 0.0, 0.0, cellsize, DEFAULT_NODATA, values)


def validate_plan(plan: PathPlan, grid: ElevationGrid, p: AgentProfile) -> None:
    """Raise ValueError if a plan violates its structural guarantees."""
    if not plan.waypoints:
        raise ValueError("plan has no waypoints")
    for c in plan.waypoints:
        if not grid.traversable(c):
            raise ValueError(f"waypoint {tuple(c)} is not traversable")
    if len(plan.edge_times) != len(plan.waypoints) - 1:
        raise ValueError("edge_times length mismatch")
    total = 0.0
    dist = 0.0
    for a, b, t in zip(plan.waypoints, plan.waypoints[1:], plan.edge_times):
        if (b[0] - a[0], b[1] - a[1]) not in OFFSET_TO_ACTION:
            raise ValueError(f"cells {tuple(a)} and {tuple(b)} are not "
                             "adjacent")
        run, _slope, v = _reference_edge(p, grid, a, b)
        if not v > 0.0:
            raise ValueError(f"edge {tuple(a)} -> {tuple(b)} is impassable")
        if run / v != t:
            raise ValueError(f"edge {tuple(a)} -> {tuple(b)} time mismatch")
        total += t
        dist += run
    # a plan's totals add its edges left to right, exactly as here
    if total != plan.total_time or dist != plan.total_distance:
        raise ValueError("plan totals do not match edges")


def success_rate(ev: BypassEvaluation) -> float:
    """Share of an evaluation's episodes that reached the goal."""
    return ev.successes / ev.episodes if ev.episodes else 0.0


def _reference_edge(p, grid, a, b):
    """``(run, slope, speed)`` of the grid edge a -> b of adjacent cells:
    the edge rule that ``agents.EdgeTable`` and ``planner.astar`` inline.

    ``run`` is the horizontal length in meters (cellsize, times sqrt(2) on
    a diagonal), ``slope`` the grade in percent and ``speed`` the profile's
    walking speed in m/s. Speed is 0.0, and the edge impassable, when
      - either endpoint is out of bounds or nodata (slope reads 0.0);
      - it is a diagonal whose two flanking cells, ``(b.row, a.col)`` and
        ``(a.row, b.col)``, are both nodata (a sealed corner, which
        ``terrain.line_of_sight`` also treats as opaque; slope reads 0.0);
      - its slope exceeds the profile's ``max_slope``.
    """
    ar, ac = a[0], a[1]
    br, bc = b[0], b[1]
    dr = br - ar
    dc = bc - ac
    diagonal = dr != 0 and dc != 0
    run = grid.cellsize * (SQRT2 if diagonal else 1.0)
    nrows, ncols = grid.nrows, grid.ncols
    if not (0 <= ar < nrows and 0 <= ac < ncols
            and 0 <= br < nrows and 0 <= bc < ncols):
        return run, 0.0, 0.0
    flat = grid.flat
    va = flat[ar * ncols + ac]
    vb = flat[br * ncols + bc]
    nodata = grid.nodata
    if va == nodata or vb == nodata or (
            diagonal and flat[br * ncols + ac] == nodata
            and flat[ar * ncols + bc] == nodata):
        return run, 0.0, 0.0
    slope = abs(vb - va) / run * 100.0
    return run, slope, speed(p, slope)


def _reference_effort(edge_time, slope):
    """Exertion for time spent on a slope: time * (1 + slope/100), which
    ``World._advance_agent`` inlines."""
    return edge_time * (1.0 + slope / 100.0)


def _reference_cell_of_point(grid, x, y):
    """The cell holding the point (x, y), which ``World._advance_agent``
    inlines."""
    col = math.floor((x - grid.xll) / grid.cellsize)
    row = grid.nrows - 1 - math.floor((y - grid.yll) / grid.cellsize)
    return CellIndex(row, col)


def _reference_reward(kind, amount, w):
    """The reward of one classified step, as ``RewardWeights`` states it;
    ``amount`` carries the step's seconds (delay) or cells (deviation)."""
    if kind == "collision":
        return -w.collision
    if kind == "delay":
        return -w.delay_per_second * amount
    if kind == "deviation":
        return -w.deviation_per_cell * amount
    if kind == "rejoin":
        return w.rejoin
    if kind == "none":
        return 0.0
    raise ValueError(f"unknown event kind {kind!r}")


def _reward_bound(env, w):
    """The largest |reward| a training step on ``env`` can earn: the
    slowest step (a stay costs one route edge) and the farthest cell from
    the route bound the delay and the deviation."""
    grid, edges = env.grid, env.edges
    cells = [CellIndex(r, c) for r in range(grid.nrows)
             for c in range(grid.ncols)]
    slowest = max([env.stay_time] + [e[1] for cell in cells
                                     for e in edges[cell] if e is not None])
    farthest = max(deviation_cells(cell, env.plan) for cell in cells)
    return max(w.collision, w.rejoin, w.delay_per_second * slowest,
               w.deviation_per_cell * farthest)


def _reference_q_update(q, s, a, r, s_next, p):
    """The temporal-difference backup of training on numpy scalars."""
    current = q[s, a]
    target = r + p.gamma * float(q[s_next].max())
    q[s, a] = current + p.alpha * (target - current)


def _reference_select_action(q, s, epsilon, rng):
    """The pick of training on numpy scalars: the row's ``argmax``, or
    with probability ``epsilon`` a uniform draw from ``rng``."""
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(N_ACTIONS))
    return int(q[s].argmax())


@pytest.fixture
def flat10():
    from terramob.terrain import make_synthetic
    return make_synthetic("flat", nrows=10, ncols=10, cellsize=30.0, h=0.0)
