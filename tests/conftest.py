import numpy as np
import pytest

from terramob.agents import AgentProfile, edge
from terramob.local_adapt import N_ACTIONS, BypassEvaluation, deviation_cells
from terramob.planner import PathPlan
from terramob.terrain import DEFAULT_NODATA, CellIndex, ElevationGrid


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
        run, _slope, v = edge(p, grid, a, b)  # raises if not adjacent
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


def collision_rate(ev: BypassEvaluation) -> float:
    """Share of an evaluation's episodes that ended in a collision."""
    return ev.collisions / ev.episodes if ev.episodes else 0.0


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
