"""Time-optimal global route search over elevation grids.

Edges are weighted by per-profile traversal time, the heuristic is octile
distance divided by the profile's flat-terrain speed (admissible because no
edge can be walked faster), and ties are broken deterministically: larger g
first, then (row, col) order.

A* carries its own inlined edge-cost and heuristic kernel over flat node ids.
The uniform-cost oracle (``dijkstra_all``) goes through ``edge_cost`` and the
scalar ``agents.traversal_time`` instead, so the optimality tests compare two
separately written kernels.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import IO

from .agents import KIND_HUMAN, MIN_SLOPE_REDUCTION, AgentProfile, traversal_time
from .terrain import (
    CellIndex,
    ElevationGrid,
    NEIGHBOR_OFFSETS,
    SQRT2,
    step_run,
)


class NoPathError(Exception):
    """Goal unreachable under the profile's movement constraints."""


@dataclass
class PathPlan:
    """A committed global route: adjacent waypoints with per-edge times."""

    waypoints: list[CellIndex]
    edge_times: list[float]
    total_time: float
    total_distance: float
    profile_name: str


@dataclass
class SearchStats:
    nodes_expanded: int
    open_peak: int
    wall_time: float


OBJECTIVES = ("time", "distance")


def octile_distance_m(a: CellIndex, b: CellIndex, cellsize: float) -> float:
    """Length in meters of the shortest 8-connected path, ignoring terrain."""
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    return (min(dr, dc) * SQRT2 + abs(dr - dc)) * cellsize


def heuristic(c: CellIndex, goal: CellIndex, p: AgentProfile, cellsize: float) -> float:
    """Remaining-time lower bound: octile meters over the flat-terrain speed."""
    return octile_distance_m(c, goal, cellsize) / p.s_flat


def edge_cost(
    grid: ElevationGrid,
    p: AgentProfile,
    a: CellIndex,
    b: CellIndex,
    objective: str = "time",
) -> float:
    """Search weight of one edge: seconds, or meters in distance mode.

    Impassability (slope limit, nodata) is the same in both modes; only the
    minimized quantity changes.
    """
    t = traversal_time(p, grid, a, b)
    if objective == "time" or not math.isfinite(t):
        return t
    return step_run(grid, a, b)


def astar(
    grid: ElevationGrid,
    p: AgentProfile,
    start: CellIndex,
    goal: CellIndex,
    objective: str = "time",
) -> tuple[PathPlan, SearchStats]:
    """Optimal path from start to goal.

    The default objective minimizes total traversal time; ``"distance"``
    minimizes path length in meters instead (same impassability rules).
    Raises NoPathError when the goal cannot be reached, ValueError when an
    endpoint is not traversable. start == goal yields the trivial plan.

    Nodes are flat ids ``row * ncols + col`` and grid values are read one
    at a time, so a search costs nothing proportional to the grid size. The
    edge cost and the heuristic are inlined: they repeat the arithmetic of
    ``traversal_time`` and ``heuristic`` operation for operation, so every
    edge weight is bit-identical to the scalar speed law.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")

    start = CellIndex(int(start[0]), int(start[1]))
    goal = CellIndex(int(goal[0]), int(goal[1]))
    for label, c in (("start", start), ("goal", goal)):
        if not grid.traversable(c):
            raise ValueError(f"{label} cell {tuple(c)} is not traversable")

    t0 = time.perf_counter()
    if start == goal:
        plan = PathPlan([start], [], 0.0, 0.0, p.name)
        return plan, SearchStats(1, 0, time.perf_counter() - t0)

    nrows, ncols = grid.nrows, grid.ncols
    cellsize = grid.cellsize
    nodata = grid.nodata
    value = grid.values.item
    # (dr, dc, id offset, run) in NEIGHBOR_OFFSETS order, which fixes the
    # order neighbors are pushed and so the search's tie-breaking.
    steps = [(dr, dc, dr * ncols + dc,
              cellsize * (SQRT2 if dr != 0 and dc != 0 else 1.0))
             for dr, dc in NEIGHBOR_OFFSETS]

    # Speed-law constants. r_drop is 1 - r_at_ref with r_at_ref computed as
    # traversal_time computes it (1 - reduction/100 rounds differently from
    # reduction/100). Humans carry no load factor; multiplying by 1.0 is exact.
    timed = objective == "time"
    s_flat = p.s_flat
    ref_slope = p.ref_slope
    max_slope = p.max_slope
    if p.kind == KIND_HUMAN:
        r_drop = 1.0 - (1.0 - p.reduction_at_ref / 100.0)
        r_load = 1.0
    else:
        r_drop = 1.0 - p.r_slope_at_ref
        r_load = p.r_load
    # Heuristic: octile meters, over the flat speed in time mode (x / 1.0 is
    # exact, so distance mode shares the expression).
    h_speed = s_flat if timed else 1.0
    goal_row, goal_col = goal

    def bound(row: int, col: int) -> float:
        dr = abs(row - goal_row)
        dc = abs(col - goal_col)
        if dr < dc:
            return (dr * SQRT2 + (dc - dr)) * cellsize / h_speed
        return (dc * SQRT2 + (dr - dc)) * cellsize / h_speed

    start_id = start.row * ncols + start.col
    goal_id = goal.row * ncols + goal.col
    g_best: dict[int, float] = {start_id: 0.0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    # Heap key (f, -g, id): equal f prefers deeper nodes, then row-major
    # cell order (the id order), so the search is fully deterministic.
    open_heap = [(bound(start.row, start.col), 0.0, start_id)]
    heappush, heappop = heapq.heappush, heapq.heappop
    expanded = 0
    open_peak = 1

    while open_heap:
        _, neg_g, node = heappop(open_heap)
        g = -neg_g
        if node in closed or g > g_best[node]:
            continue
        closed.add(node)
        expanded += 1
        if node == goal_id:
            plan = _build_plan(grid, p, parent, start_id, goal_id)
            stats = SearchStats(expanded, open_peak, time.perf_counter() - t0)
            return plan, stats
        row, col = divmod(node, ncols)
        va = value(node)
        for dr, dc, offset, run in steps:
            nrow = row + dr
            ncol = col + dc
            if not (0 <= nrow < nrows and 0 <= ncol < ncols):
                continue
            nb = node + offset
            if nb in closed:
                continue
            vb = value(nb)
            if vb == nodata:
                continue
            slope = abs(vb - va) / run * 100.0
            if slope > max_slope:
                continue
            if timed:
                # r <= 1 already: the slope is non-negative and r_drop >= 0.
                r = 1.0 - r_drop * (slope / ref_slope)
                if r < MIN_SLOPE_REDUCTION:
                    r = MIN_SLOPE_REDUCTION
                ng = g + run / (s_flat * (r * r_load))
            else:
                ng = g + run
            if ng < g_best.get(nb, math.inf):
                g_best[nb] = ng
                parent[nb] = node
                heappush(open_heap, (ng + bound(nrow, ncol), -ng, nb))
        if len(open_heap) > open_peak:
            open_peak = len(open_heap)

    raise NoPathError(f"no path from {tuple(start)} to {tuple(goal)} for {p.name}")


def _build_plan(
    grid: ElevationGrid,
    p: AgentProfile,
    parent: dict[int, int],
    start_id: int,
    goal_id: int,
) -> PathPlan:
    ids = [goal_id]
    while ids[-1] != start_id:
        ids.append(parent[ids[-1]])
    ids.reverse()
    cells = [CellIndex(*divmod(i, grid.ncols)) for i in ids]
    edge_times = [traversal_time(p, grid, a, b) for a, b in zip(cells, cells[1:])]
    distance = sum(step_run(grid, a, b) for a, b in zip(cells, cells[1:]))
    return PathPlan(cells, edge_times, sum(edge_times), distance, p.name)


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
        cost = traversal_time(p, grid, a, b)  # raises if not adjacent
        if not math.isfinite(cost):
            raise ValueError(f"edge {tuple(a)} -> {tuple(b)} is impassable")
        if cost != t:
            raise ValueError(f"edge {tuple(a)} -> {tuple(b)} time mismatch")
        total += t
        dist += step_run(grid, a, b)
    if abs(total - plan.total_time) > 1e-9 or abs(dist - plan.total_distance) > 1e-9:
        raise ValueError("plan totals do not match edges")


def dijkstra_all(
    grid: ElevationGrid,
    p: AgentProfile,
    source: CellIndex,
    objective: str = "time",
) -> dict[CellIndex, float]:
    """Uniform-cost distances from ``source`` to every reachable cell.

    Written independently of the A* code path so it can serve as an oracle.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    source = CellIndex(int(source[0]), int(source[1]))
    if not grid.traversable(source):
        raise ValueError(f"source cell {tuple(source)} is not traversable")
    dist: dict[CellIndex, float] = {source: 0.0}
    done: set[CellIndex] = set()
    heap: list[tuple[float, int, int]] = [(0.0, source.row, source.col)]
    while heap:
        d, row, col = heapq.heappop(heap)
        cell = CellIndex(row, col)
        if cell in done:
            continue
        done.add(cell)
        for dr, dc in NEIGHBOR_OFFSETS:
            nb = CellIndex(row + dr, col + dc)
            if not grid.in_bounds(nb) or nb in done:
                continue
            cost = edge_cost(grid, p, cell, nb, objective)
            if not math.isfinite(cost):
                continue
            nd = d + cost
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb.row, nb.col))
    return dist


def dijkstra_oracle(
    grid: ElevationGrid,
    p: AgentProfile,
    start: CellIndex,
    goal: CellIndex,
    objective: str = "time",
) -> float:
    """Optimal cost by uniform-cost search; NoPathError if unreachable."""
    goal = CellIndex(int(goal[0]), int(goal[1]))
    if not grid.traversable(goal):
        raise ValueError(f"goal cell {tuple(goal)} is not traversable")
    dist = dijkstra_all(grid, p, start, objective)
    if goal not in dist:
        raise NoPathError(f"no path from {tuple(start)} to {tuple(goal)} for {p.name}")
    return dist[goal]


def local_step_cost(
    grid: ElevationGrid,
    p: AgentProfile,
    at: CellIndex,
    action: int,
) -> float:
    """Traversal time of one move action from ``at``; inf when impassable."""
    if not 0 <= action < len(NEIGHBOR_OFFSETS):
        raise ValueError(f"action {action} is not a move direction")
    dr, dc = NEIGHBOR_OFFSETS[action]
    dest = CellIndex(at[0] + dr, at[1] + dc)
    if not grid.in_bounds(dest):
        raise ValueError(f"action {action} leaves the grid from {tuple(at)}")
    return traversal_time(p, grid, at, dest)


def write_plan_csv(plan: PathPlan, grid: ElevationGrid, f: IO[str]) -> None:
    """Waypoint listing with grid, projected, and cumulative-time columns."""
    f.write("index,row,col,easting,northing,elevation_m,edge_time_s,cum_time_s\n")
    cum = 0.0
    for i, cell in enumerate(plan.waypoints):
        x, y = grid.cell_center(cell)
        edge = 0.0 if i == 0 else plan.edge_times[i - 1]
        cum += edge
        z = grid.elevation(cell)
        f.write(
            f"{i},{cell.row},{cell.col},{x!r},{y!r},{z!r},{edge!r},{cum!r}\n"
        )
