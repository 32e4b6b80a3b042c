"""Time-optimal global route search over elevation grids.

Edges are weighted by per-profile traversal time, the heuristic is octile
distance divided by the profile's flat-terrain speed (admissible because no
edge can be walked faster), and ties are broken deterministically: larger g
first, then (row, col) order.

A* carries its own inlined copy of the edge rule (``agents.edge``:
bounds, nodata, sealed corners, slope limit), of the speed law
(``agents.speed``) and of the heuristic over flat node ids
``row * ncols + col``, which is faster than calling them per edge. It
reads elevations through the grid's zero-copy flat view
(``ElevationGrid.flat``), and a node off the grid's border, whose eight
neighbors are all on the grid, skips the bounds test; a border node
walks only the steps that stay on the grid. A* keeps the time of the
edge it relaxes a node along, next to the node's parent, and a plan's edge
times are those: a plan calls no ``agents.edge``. Its totals add the edges
left to right, never with ``sum``, which compensates float rounding since
Python 3.12, so they are the same on every Python version. A flat edge
(equal heights) takes ``run / speed(p, 0.0)``, computed once per search
for each step; that is exact, since its slope is +0.0 (``abs(±0.0)``),
within every profile's positive ``max_slope``. The uniform-cost
oracle (``dijkstra_all``) weighs each edge with ``agents.edge`` itself (its
run in meters in distance mode), so the optimality tests compare two
separately written kernels. ``agents.EdgeTable``'s row fill repeats the
rule's geometry and calls ``agents.speed``; a test compares it with
``agents.edge`` entry by entry.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO

from .agents import MIN_SLOPE_REDUCTION, AgentProfile, edge, speed
from .terrain import CellIndex, ElevationGrid, NEIGHBOR_OFFSETS, SQRT2


class NoPathError(Exception):
    """Goal unreachable under the profile's movement constraints."""


@dataclass
class PathPlan:
    """A committed global route: adjacent waypoints with per-edge times.

    An optimal route visits no cell twice, so a plan refuses a repeated
    cell (ValueError) and keeps ``index``, each waypoint's position in the
    route. ``deviations`` memoizes ``local_adapt.deviation_cells`` for
    off-route cells, which looks new ones up in ``rows`` (built on first
    use). All three are derived from ``waypoints``, which must not change.
    """

    waypoints: list[CellIndex]
    edge_times: list[float]
    total_time: float
    total_distance: float
    index: dict[CellIndex, int] = field(init=False, compare=False, repr=False)
    deviations: dict[CellIndex, int] = field(init=False, compare=False,
                                             repr=False)

    def __post_init__(self):
        self.index = {cell: k for k, cell in enumerate(self.waypoints)}
        if len(self.index) != len(self.waypoints):
            raise ValueError("plan visits a cell more than once")
        self.deviations = {}

    @cached_property
    def rows(self) -> dict[int, list[int]]:
        """Each row the route crosses -> its waypoints' columns, sorted."""
        rows: dict[int, list[int]] = {}
        for r, c in sorted(self.waypoints):
            rows.setdefault(r, []).append(c)
        return rows


@dataclass
class SearchStats:
    nodes_expanded: int
    open_peak: int


OBJECTIVES = ("time", "distance")


def octile_distance_m(a: CellIndex, b: CellIndex, cellsize: float) -> float:
    """Length in meters of the shortest 8-connected path, ignoring terrain."""
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    return (min(dr, dc) * SQRT2 + abs(dr - dc)) * cellsize


def heuristic(c: CellIndex, goal: CellIndex, p: AgentProfile, cellsize: float) -> float:
    """Remaining-time lower bound: octile meters over the flat-terrain speed."""
    return octile_distance_m(c, goal, cellsize) / p.s_flat


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
    endpoint is not traversable or when the longest route's time at the
    slowest speed is not finite (an overflow would read as no path).
    start == goal yields the trivial plan.

    Nodes are flat ids ``row * ncols + col``, and grid values are read one
    at a time from ``grid.flat``, the grid's zero-copy view built with the
    grid, so a search costs nothing proportional to the grid size: its
    heap, maps and closed set hold only the nodes it reaches. The edge
    cost and the heuristic are inlined: they repeat the arithmetic of
    ``agents.edge`` and ``heuristic`` operation for operation, so every
    edge weight is bit-identical to ``run / speed`` of ``agents.edge``, and
    every edge ``agents.edge`` refuses is skipped. The bounds part of that
    rule is decided once per expansion: an interior node walks all eight
    steps unchecked, a border node only those that stay on the grid. A
    neighbor as high as the expanded node (never nodata) is a flat edge,
    whose slope is +0.0 and within every profile's ``max_slope``: its time
    is the step's ``run / speed(p, 0.0)``, computed once per search, so it
    skips the slope and speed arithmetic; the sealed-corner test still
    applies to it.

    Under both objectives the search keeps each relaxed node's edge time
    next to its parent: these are the plan's ``edge_times``, and the
    minimized total is the goal's g.
    ``test_astar_matches_oracle_on_border_and_interior_nodes``
    (tests/test_fuzz.py) pins them to ``run / speed`` of ``agents.edge``.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    # no simple route is longer than every cell at a diagonal's run
    longest = grid.nrows * grid.ncols * grid.cellsize * SQRT2
    if not math.isfinite(longest / speed(p, p.max_slope)):
        raise ValueError(f"a route over {grid.nrows}x{grid.ncols} cells of "
                         f"{grid.cellsize!r} m for {p.name} would take "
                         "longer than a float can hold")

    start = CellIndex(int(start[0]), int(start[1]))
    goal = CellIndex(int(goal[0]), int(goal[1]))
    for label, c in (("start", start), ("goal", goal)):
        if not grid.traversable(c):
            raise ValueError(f"{label} cell {tuple(c)} is not traversable")

    if start == goal:
        return PathPlan([start], [], 0.0, 0.0), SearchStats(1, 0)

    nrows, ncols = grid.nrows, grid.ncols
    last_row, last_col = nrows - 1, ncols - 1
    cellsize = grid.cellsize
    nodata = grid.nodata
    flat = grid.flat
    # (id offset, run, dr, dc, seal, flat time) in NEIGHBOR_OFFSETS order,
    # which fixes the order neighbors are pushed and so the search's
    # tie-breaking. seal holds the id offsets of a diagonal's two flanking
    # cells, else None. flat time is the step's time between equal heights:
    # their slope is +0.0, whose speed is speed(p, 0.0).
    v0 = speed(p, 0.0)
    steps = []
    for dr, dc in NEIGHBOR_OFFSETS:
        diagonal = dr != 0 and dc != 0
        run = cellsize * (SQRT2 if diagonal else 1.0)
        steps.append((dr * ncols + dc, run, dr, dc,
                      (dr * ncols, dc) if diagonal else None, run / v0))

    timed = objective == "time"
    s_flat = p.s_flat
    ref_slope = p.ref_slope
    max_slope = p.max_slope
    slope_drop = p.slope_drop
    load_factor = p.load_factor
    min_r = MIN_SLOPE_REDUCTION
    inf = math.inf
    # Heuristic: octile meters, over the flat speed in time mode (x / 1.0 is
    # exact, so distance mode shares the expression). The push below
    # inlines ``octile_distance_m`` operation for operation.
    h_speed = s_flat if timed else 1.0
    goal_row, goal_col = goal

    start_id = start.row * ncols + start.col
    goal_id = goal.row * ncols + goal.col
    g_best: dict[int, float] = {start_id: 0.0}
    best = g_best.get
    parent: dict[int, int] = {}
    edge_time: dict[int, float] = {}  # node -> time of its edge from parent
    closed: set[int] = set()
    # Heap key (f, -g, id): equal f prefers deeper nodes, then row-major
    # cell order (the id order), so the search is fully deterministic.
    open_heap = [(octile_distance_m(start, goal, cellsize) / h_speed, 0.0,
                  start_id)]
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
            plan = _build_plan(grid, parent, edge_time, start_id, goal_id)
            return plan, SearchStats(expanded, open_peak)
        row, col = divmod(node, ncols)
        # An interior node has all 8 neighbors on the grid; a border node
        # walks only the steps that stay on it.
        if 0 < row < last_row and 0 < col < last_col:
            around = steps
        else:
            around = [s for s in steps
                      if 0 <= row + s[2] < nrows and 0 <= col + s[3] < ncols]
        va = flat[node]
        for offset, run, dr, dc, seal, flat_w in around:
            nb = node + offset
            if nb in closed:
                continue
            vb = flat[nb]
            if vb == va:
                # a flat edge: va is not nodata, and +0.0 is within every
                # profile's max_slope (> 0)
                w = flat_w
            elif vb == nodata:
                continue
            else:
                slope = abs(vb - va) / run * 100.0
                if slope > max_slope:
                    continue
                r = 1.0 - slope_drop * (slope / ref_slope)
                if r < min_r:
                    r = min_r
                w = run / (s_flat * (r * load_factor))
            ng = g + (w if timed else run)
            if ng < best(nb, inf):
                # sealed corner: both flanks of a diagonal are nodata; tested
                # only on relaxing edges, where it is cheapest
                if (seal is not None and flat[node + seal[0]] == nodata
                        and flat[node + seal[1]] == nodata):
                    continue
                g_best[nb] = ng
                parent[nb] = node
                edge_time[nb] = w
                hr = abs(row + dr - goal_row)
                hc = abs(col + dc - goal_col)
                if hr < hc:
                    h = (hr * SQRT2 + (hc - hr)) * cellsize / h_speed
                else:
                    h = (hc * SQRT2 + (hr - hc)) * cellsize / h_speed
                heappush(open_heap, (ng + h, -ng, nb))
        if len(open_heap) > open_peak:
            open_peak = len(open_heap)

    raise NoPathError(f"no path from {tuple(start)} to {tuple(goal)} for {p.name}")


def _build_plan(
    grid: ElevationGrid,
    parent: dict[int, int],
    edge_time: dict[int, float],
    start_id: int,
    goal_id: int,
) -> PathPlan:
    """The route ``parent`` leads back along, with the edge times the search
    summed (``edge_time``) and the runs of its steps. Both totals add the
    edges left to right in path order, as the search did, so the total of
    the minimized quantity is the goal's g bit for bit."""
    ids = [goal_id]
    while ids[-1] != start_id:
        ids.append(parent[ids[-1]])
    ids.reverse()
    cells = [CellIndex(*divmod(i, grid.ncols)) for i in ids]
    edge_times = [edge_time[i] for i in ids[1:]]
    total = distance = 0.0
    for a, b, t in zip(cells, cells[1:], edge_times):
        total += t
        distance += grid.cellsize * (SQRT2 if a.row != b.row and a.col != b.col
                                     else 1.0)
    return PathPlan(cells, edge_times, total, distance)


def dijkstra_all(
    grid: ElevationGrid,
    p: AgentProfile,
    source: CellIndex,
    objective: str = "time",
) -> dict[CellIndex, float]:
    """Uniform-cost distances from ``source`` to every reachable cell.

    Written independently of the A* code path so it can serve as an oracle.
    Impassability (``agents.edge``: bounds, nodata, sealed corners, slope
    limit) is the same under both objectives; only the minimized quantity
    changes.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    source = CellIndex(int(source[0]), int(source[1]))
    if not grid.traversable(source):
        raise ValueError(f"source cell {tuple(source)} is not traversable")
    timed = objective == "time"
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
            run, _slope, v = edge(p, grid, cell, nb)
            if v <= 0.0:
                continue
            nd = d + (run / v if timed else run)
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
