"""Learned local detours around dynamic blockages.

A tabular action-value function over a small discrete state (neighbor
occupancy x waypoint direction x deviation bucket) picks bypass moves
whenever the next step of an agent's committed global route is obstructed;
otherwise a cost-greedy rule keeps the agent on the route. A table is a
plain ``(N_STATES, N_ACTIONS)`` float array whose rows are indexed by the
state code of ``build_local_state``; tables are trained offline on
randomized corridor episodes and frozen for simulation. While it trains,
``train_bypass`` holds the table as plain float lists, one per state
visited, made on first read, and returns them as that array.
``_train_episode`` is the one definition of the training rules: the pick
(the first maximum of a row, or an exploring draw), the reward of a step
(``RewardWeights``) and the temporal-difference backup; it computes each
cell's state code and deviation once per episode. ``local_step`` is the
run-time rule of a route follower, simulated or held out: the route, else
the table's best open move, else a sidestep by cost; a held-out rollout
runs it only where a bar can change the move. It reads a frozen table's
moves from a ``TableMoves``, which computes each state's ``bypass_move``
once.

"Obstructed" is decided by one blocking predicate, a ``Callable[[CellIndex],
bool]`` that ``local_step``, ``build_local_state`` and ``greedy_step``
take: the simulation passes ``World._blocker(agent)`` and a corridor
episode its bar's own ``frozenset`` membership test, so no Python frame
runs per query. The local step rules read a cell's 8 moves from an
``agents.EdgeTable`` of the grid and profile, whose entry is None for
every move the agent cannot make (off the grid, nodata, a sealed corner,
too steep). Every rule tests only that: the state code sets the bits of
the None entries and asks the predicate only about the others, and
``greedy_step`` takes only open entries. ``local_step`` returns only
ACTION_STAY or an open move onto a cell not blocked, which no caller
checks again; only a training pick, any action, can be a collision.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import IO, Callable

import numpy as np

from . import planner
from .agents import AgentProfile, EdgeTable
from .planner import PathPlan, heuristic
from .terrain import (
    CellIndex,
    DIRECTION_NAMES,
    NEIGHBOR_OFFSETS,
    OFFSET_TO_ACTION,
    make_synthetic,
)

ACTIONS: tuple[tuple[int, int], ...] = NEIGHBOR_OFFSETS + ((0, 0),)
ACTION_NAMES = DIRECTION_NAMES + ("stay",)
ACTION_STAY = 8
N_ACTIONS = len(ACTIONS)

N_OCCUPANCY = 256  # 2^8 neighbor patterns
N_DIRECTIONS = 8
N_DEVIATION_BUCKETS = 4
N_STATES = N_OCCUPANCY * N_DIRECTIONS * N_DEVIATION_BUCKETS  # 8192

# Upper bound on the steps one run may request: a simulation's
# max_sim_time / dt (86400 s at dt 0.01 is 8.64 M steps) and a training
# run's episodes * max_steps_per_episode.
MAX_SIM_STEPS = 10**7


@dataclass(frozen=True)
class RewardWeights:
    """Magnitudes of the reward of one training step, which is the first
    that applies of:

    - a move into a closed entry or a bar cell: ``-collision``;
    - a step onto the route at or past the tracked waypoint (a rejoin):
      ``+rejoin``;
    - a step that ends off the route: ``-deviation_per_cell`` times the
      cells from there to the route (``deviation_cells``);
    - a move or a stay from the route onto it: ``-delay_per_second`` times
      the step's seconds;
    - a step from off the route back onto it: 0.0.
    """

    collision: float = 10.0
    delay_per_second: float = 0.1
    deviation_per_cell: float = 0.5
    rejoin: float = 5.0

    def __post_init__(self):
        for name in ("collision", "delay_per_second", "deviation_per_cell",
                     "rejoin"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class LearningParams:
    alpha: float = 0.1
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int = 2000
    episodes: int = 5000
    max_steps_per_episode: int = 80
    seed: int = 0

    def __post_init__(self):
        # alpha == 0 is allowed so a zero step size is exactly the identity
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_decay_episodes < 0:
            raise ValueError("epsilon_decay_episodes must be non-negative")
        if self.episodes < 0:
            raise ValueError("episodes must be non-negative")
        if self.max_steps_per_episode <= 0:
            raise ValueError("max_steps_per_episode must be positive")
        steps = self.episodes * self.max_steps_per_episode
        if steps > MAX_SIM_STEPS:
            raise ValueError(
                f"episodes * max_steps_per_episode (--episodes * --max-steps)"
                f" is {steps:.3g} steps; at most {MAX_SIM_STEPS} are allowed")

    def epsilon_at(self, episode: int) -> float:
        if self.epsilon_decay_episodes == 0 or episode >= self.epsilon_decay_episodes:
            return self.epsilon_end
        frac = episode / self.epsilon_decay_episodes
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


# A training table: plain float rows, one per visited state, each
# assigned in place.
QRows = dict[int, list[float]]


# The candidate moves of each occupancy pattern (bits 0-7 of a state
# code), in action order: the moves whose bit is clear, and ACTION_STAY.
_OPEN_MOVES: tuple[tuple[int, ...], ...] = tuple(
    tuple(a for a in range(N_ACTIONS) if a == ACTION_STAY or not occ >> a & 1)
    for occ in range(N_OCCUPANCY))


def bypass_move(q: np.ndarray, s: int) -> int | None:
    """A frozen table's first maximum in state ``s`` over ACTION_STAY and
    the moves whose bit (0-7) is clear; None if each of those is 0.0."""
    row = q[s].tolist()
    moves = _OPEN_MOVES[s & 0xFF]
    values = [row[a] for a in moves]
    return moves[values.index(max(values))] if any(values) else None


class TableMoves(dict):
    """The moves of the frozen table ``q``: ``moves[s]`` is
    ``bypass_move(q, s)``, made on the first read of ``s`` and kept, so it
    is exact only while ``q`` does not change: ``evaluate_bypass`` makes
    one per call, ``sim.build_world`` one per table file."""

    __slots__ = ("q",)

    def __init__(self, q: np.ndarray):
        self.q = q

    def __missing__(self, s: int) -> int | None:
        a = self[s] = bypass_move(self.q, s)
        return a


# ---------------------------------------------------------------------------
# Route tracking
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _offset_direction(dr: int, dc: int) -> int:
    """Compass bucket (action-index order) of the row/column offset from a
    cell to its waypoint; memoized, since the offsets an agent sees are few."""
    if dr == 0 and dc == 0:
        return 0
    ang = math.degrees(math.atan2(-dr, dc))  # grid north is -row
    return int(round((90.0 - ang) / 45.0)) % 8


def deviation_cells(cell: CellIndex, plan: PathPlan) -> int:
    """Chebyshev distance (king moves) from a cell to the nearest waypoint.

    0 for a waypoint; other cells are memoized on the plan. A new cell walks
    ``PathPlan.rows`` outward from its own row, bisecting each row's columns,
    until the row offset reaches the best distance found.
    """
    if cell in plan.index:
        return 0
    dev = plan.deviations.get(cell)
    if dev is None:
        rows, (r, c) = plan.rows, cell
        lo, hi = min(rows), max(rows)
        k, far, dev = max(lo - r, r - hi, 0), max(r - lo, hi - r), math.inf
        while k < dev and k <= far:
            for cols in map(rows.get, (r - k, r + k) if k else (r,)):
                if cols:
                    j = bisect_left(cols, c)
                    near = min(cols[j] - c if j < len(cols) else math.inf,
                               c - cols[j - 1] if j else math.inf)
                    dev = min(dev, max(k, near))
            k += 1
        plan.deviations[cell] = dev
    return dev


def build_local_state(
    edges: EdgeTable,
    blocked: Callable[[CellIndex], bool],
    cell: CellIndex,
    plan: PathPlan,
    waypoint_index: int,
) -> int:
    """The state code around an agent, a row index of a value table.

    Bit i (0-7, action order) is set when the move to neighbor i is closed
    (a None entry of ``edges``) or the neighbor is ``blocked``; bits 8-10
    hold the waypoint direction and bits 11-12 the deviation bucket (0, 1,
    2 cells off-route, 3 for more).
    """
    code = 0
    for i, e in enumerate(edges[cell]):
        if e is None or blocked(e[0]):
            code |= 1 << i
    wp = plan.waypoints[min(waypoint_index, len(plan.waypoints) - 1)]
    dev = min(deviation_cells(cell, plan), N_DEVIATION_BUCKETS - 1)
    direction = _offset_direction(wp[0] - cell[0], wp[1] - cell[1])
    return code | (direction << 8) | (dev << 11)


def greedy_step(
    edges: EdgeTable,
    at: CellIndex,
    target: CellIndex,
    blocked: Callable[[CellIndex], bool] | None = None,
) -> int:
    """Cheapest feasible move toward ``target``: edge time plus time bound.

    The moves out of ``at`` are scored in action order and the first strict
    minimum wins. Closed moves (None entries) and ``blocked`` cells are
    skipped; ACTION_STAY when no move is feasible.
    """
    profile = edges.profile
    cellsize = edges.grid.cellsize
    best_action = ACTION_STAY
    best_cost = math.inf
    for a, e in enumerate(edges[at]):
        if e is None or (blocked is not None and blocked(e[0])):
            continue
        cost = e[1] + heuristic(e[0], target, profile, cellsize)
        if cost < best_cost:
            best_cost = cost
            best_action = a
    return best_action


def local_step(moves: TableMoves | None, edges: EdgeTable,
               blocked: Callable[[CellIndex], bool], cell: CellIndex,
               plan: PathPlan, waypoint_index: int) -> tuple[bool, int]:
    """(chi, action) of a route follower carrying the moves of a frozen
    table (or None); chi is whether its tracked waypoint is ``blocked``.

    While the waypoint is clear: the plan edge from the waypoint before it
    while that edge is open, else the ``greedy_step`` toward the waypoint,
    or ACTION_STAY (the follower yields) when that step's cell is blocked.
    While it is blocked: the table's move (``bypass_move``'s), or with no
    table or none for this state, a ``greedy_step`` sidestep toward the
    first waypoint not blocked (else the goal). Every move is ACTION_STAY
    or an open entry onto a cell not blocked."""
    wp = plan.waypoints[waypoint_index]
    if not blocked(wp):
        if waypoint_index and cell == plan.waypoints[waypoint_index - 1]:
            a = OFFSET_TO_ACTION[(wp[0] - cell[0], wp[1] - cell[1])]
            if edges[cell][a] is not None:
                return False, a
        a = greedy_step(edges, cell, wp)
        if a != ACTION_STAY and blocked(edges[cell][a][0]):
            return False, ACTION_STAY
        return False, a
    action = None if moves is None else moves[
        build_local_state(edges, blocked, cell, plan, waypoint_index)]
    if action is None:
        aim = next((w for w in plan.waypoints[waypoint_index:]
                    if not blocked(w)), plan.waypoints[-1])
        action = greedy_step(edges, cell, aim, blocked)
    return True, action


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class EpisodeStats:
    episode: int
    ep_return: float
    success: bool
    steps: int


@dataclass
class BypassInstance:
    hybrid_time: float
    oracle_time: float
    success: bool
    collided: bool  # always False: local_step never enters the bar


@dataclass
class BypassEvaluation:
    episodes: int
    successes: int
    collisions: int  # always 0: the instances' collided
    instances: list[BypassInstance]


class CorridorEnv:
    """Flat training corridor; ``sample_obstacle`` draws an episode's bar.

    The corridor is a fixed 7 x 30 grid of 30 m cells with its edge table
    ``edges`` for ``profile``. The global route runs straight down the
    middle row; each episode drops a vertical bar of 1, 3, or 5 cells
    across it at a random column, which stays for the whole episode. The
    corridor never changes: the episode code takes the bar as an argument
    and its blocking predicate is the bar's own membership test, so a
    query runs no Python frame. A training pick may walk into the wall or
    the bar (a collision); ``local_step`` never does. It keeps
    ``route_elapsed[j]``, the time after the first ``j`` of the route's
    ``plan.edge_times`` (added left to right from 0.0), ``bars``, one
    ``frozenset`` per distinct bar drawn, so that equal bars are one object
    with one cached hash, and ``oracle_times``, each bar's replanning time
    once ``oracle_time`` first asks for it; at most 120 bars can be drawn.
    """

    def __init__(self, profile: AgentProfile):
        self.profile = profile
        self.grid = make_synthetic("flat", nrows=7, ncols=30, cellsize=30.0,
                                   h=0.0)
        self.edges = EdgeTable(self.grid, profile)
        self.mid = self.grid.nrows // 2
        # straight down the middle row, the unique optimum on flat ground
        self.plan, _stats = planner.astar(
            self.grid, profile, CellIndex(self.mid, 0),
            CellIndex(self.mid, self.grid.ncols - 1))
        self.stay_time = self.plan.edge_times[0]  # one flat edge
        self.route_elapsed = list(accumulate(self.plan.edge_times,
                                             initial=0.0))
        # (column, first row, last row) -> the bar's one frozenset
        self.bars: dict[tuple[int, int, int], frozenset[CellIndex]] = {}
        self.oracle_times: dict[frozenset[CellIndex], float] = {}

    def sample_obstacle(self, rng: np.random.Generator) -> frozenset[CellIndex]:
        """Vertical bar across the route, always leaving a gap on both
        sides; an equal bar drawn again is the same object."""
        height = (1, 3, 5)[int(rng.integers(3))]
        col = int(rng.integers(3, self.grid.ncols - 3))
        if height == 3:
            center = self.mid + int(rng.integers(-1, 2))
        else:
            center = self.mid
        half = height // 2
        key = (col, center - half, center + half)
        bar = self.bars.get(key)
        if bar is None:
            bar = self.bars[key] = frozenset(
                CellIndex(r, col) for r in range(key[1], key[2] + 1))
        return bar

    def oracle_time(self, bar: frozenset[CellIndex]) -> float:
        """Route time of an A* replan with ``bar`` masked, run once per bar."""
        t = self.oracle_times.get(bar)
        if t is None:
            plan, _stats = planner.astar(
                self.grid.with_nodata(bar), self.profile,
                self.plan.waypoints[0], self.plan.waypoints[-1])
            t = self.oracle_times[bar] = plan.total_time
        return t


def _rollout(env: CorridorEnv, moves: TableMoves | None,
             bar: frozenset[CellIndex]) -> tuple[bool, bool, float]:
    """Whole-route rollout past ``bar`` by ``local_step`` with ``moves``,
    with no reward.

    A stay costs ``env.stay_time``; ``local_step`` never moves into the
    corridor wall or the bar, so collided is always False. Ends at the goal
    or after 6 steps per waypoint; returns (success, collided, elapsed
    seconds). From a waypoint whose next one is clear, ``local_step``
    takes the plan edge, so it runs only from the waypoint before the
    first barred one to the rejoin past the last; the steps before are
    ``env.route_elapsed``, those after add ``plan.edge_times``.
    """
    edges, plan, index = env.edges, env.plan, env.plan.index
    wps = plan.waypoints
    barred = [k for k in map(index.get, bar) if k]  # after the start
    if not barred:
        return True, False, env.route_elapsed[-1]
    first, last = min(barred), max(barred)
    blocked = bar.__contains__
    cell, wi, elapsed = wps[first - 1], first, env.route_elapsed[first - 1]
    goal, cap = wps[-1], 6 * len(wps)
    for steps in range(first - 1, cap):
        if wi > last:
            break
        _chi, a = local_step(moves, edges, blocked, cell, plan, wi)
        if a == ACTION_STAY:
            elapsed += env.stay_time
        else:
            e = edges[cell][a]
            cell = e[0]
            elapsed += e[1]
        k = index.get(cell)
        if k is not None and k >= wi:  # rejoined
            wi = k + 1
        if cell == goal:
            return True, False, elapsed
    else:
        return False, False, elapsed
    for steps, t in enumerate(plan.edge_times[wi - 1:], start=steps):
        if steps == cap:
            return False, False, elapsed
        elapsed += t
    return True, False, elapsed


def _train_episode(env: CorridorEnv, q: QRows, bar: frozenset[CellIndex],
                   weights: RewardWeights, params: LearningParams,
                   epsilon: float,
                   rng: np.random.Generator) -> tuple[float, bool, int]:
    """One training episode on ``bar``; returns (return, success, steps).

    It starts on the cell before the bar, so the agent is bypassing from
    its first step, and ends on rejoin, collision or
    ``params.max_steps_per_episode`` steps. Every step is a table step: the
    bar covers waypoint ``wi``, which moves only on the rejoin that ends it.
    Until then a cell's state code and deviation depend on the cell alone,
    so ``seen`` keeps them for the episode. A step is the one definition of
    the training rules:

    - the pick: with probability ``epsilon`` a uniform draw of the nine
      actions from ``rng`` (read only when ``epsilon > 0``), else the first
      maximum of row ``s``;
    - the move (a stay costs ``env.stay_time``; a None entry or a bar cell
      is a collision) and the rejoin test, one ``PathPlan.index`` lookup;
    - the reward that ``RewardWeights`` states;
    - the backup ``q[s][a] + alpha * ((r + gamma * max(q[s_next]))
      - q[s][a])``, with ``s_next = s`` after a collision.
    """
    edges, plan, index = env.edges, env.plan, env.plan.index
    blocked = bar.__contains__
    alpha, gamma = params.alpha, params.gamma
    wi = next(iter(bar)).col
    cell = plan.waypoints[wi - 1]
    s, dev = build_local_state(edges, blocked, cell, plan, wi), 0
    seen = {cell: (s, dev)}  # cell -> (state code, deviation_cells)
    total_r = 0.0
    for step in range(1, params.max_steps_per_episode + 1):
        row = q[s]
        if epsilon > 0 and rng.random() < epsilon:
            a = int(rng.integers(N_ACTIONS))
        else:
            a = row.index(max(row))
        current = row[a]
        if a == ACTION_STAY:
            dest, move_time = cell, env.stay_time
        else:
            e = edges[cell][a]
            if e is None or e[0] in bar:
                r = -weights.collision
                row[a] = current + alpha * ((r + gamma * max(row)) - current)
                return total_r + r, False, step
            dest, move_time = e[0], e[1]
        k = index.get(dest)
        rejoined = k is not None and k >= wi
        if rejoined:
            r = weights.rejoin
            # the successor state tracks the next waypoint, k + 1
            s_next = build_local_state(edges, blocked, dest, plan, k + 1)
        else:
            prev_dev = dev
            known = seen.get(dest)
            if known is None:
                known = seen[dest] = (
                    build_local_state(edges, blocked, dest, plan, wi),
                    deviation_cells(dest, plan))
            s_next, dev = known
            if dev > 0:
                r = -weights.deviation_per_cell * dev
            elif prev_dev == 0:  # on the route, no gain
                r = -weights.delay_per_second * move_time
            else:
                r = 0.0
        total_r += r
        row[a] = current + alpha * ((r + gamma * max(q[s_next])) - current)
        if rejoined:
            return total_r, True, step
        s, cell = s_next, dest
    return total_r, False, params.max_steps_per_episode


def train_bypass(
    env: CorridorEnv,
    weights: RewardWeights,
    params: LearningParams,
) -> tuple[np.ndarray, list[EpisodeStats]]:
    """Episodic training against randomized bar placements.

    Episodes start just before the blockage and end on rejoin, collision,
    or the step cap; the per-episode return/success series doubles as the
    learning curve. Backups go into plain float rows, made when a state is
    first read; the returned table is an array with those rows and zeros
    elsewhere.
    """
    q: QRows = defaultdict(lambda: [0.0] * N_ACTIONS)
    rng = np.random.default_rng(params.seed)
    curve: list[EpisodeStats] = []
    for ep in range(params.episodes):
        total_r, success, steps = _train_episode(
            env, q, env.sample_obstacle(rng), weights, params,
            params.epsilon_at(ep), rng)
        curve.append(EpisodeStats(ep, total_r, success, steps))
    table = np.zeros((N_STATES, N_ACTIONS))
    for s, row in q.items():
        table[s] = row
    return table, curve


def evaluate_bypass(
    q: np.ndarray,
    env: CorridorEnv,
    episodes: int = 200,
    seed: int = 10_000,
) -> BypassEvaluation:
    """Greedy full-route rollouts on fresh bar placements.

    Each instance also carries the bar's replanning time,
    ``env.oracle_time``, so callers can compare the bypass detour against
    full replanning; ``env`` keeps that time, so each distinct bar is
    replanned once over all calls on it. The moves of ``q`` are kept in
    one ``TableMoves`` per call, never past it: a caller may change ``q``
    between calls. A rollout is a pure function of ``q`` and the bar, so
    each distinct bar is rolled out once per call; a bar drawn again gets
    a new instance with the first one's values. ``episodes`` must be
    non-negative.
    """
    if episodes < 0:
        raise ValueError("episodes must be non-negative")
    rng = np.random.default_rng(seed)
    moves = TableMoves(q)
    instances: list[BypassInstance] = []
    successes = 0
    collisions = 0
    # bar -> (elapsed, oracle time, success, collided)
    scored: dict[frozenset[CellIndex], tuple[float, float, bool, bool]] = {}
    for _ in range(episodes):
        bar = env.sample_obstacle(rng)
        values = scored.get(bar)
        if values is None:
            success, collided, elapsed = _rollout(env, moves, bar)
            values = scored[bar] = (
                elapsed, env.oracle_time(bar), success, collided)
        instances.append(BypassInstance(*values))
        successes += values[2]
        collisions += values[3]
    return BypassEvaluation(episodes, successes, collisions, instances)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_QTABLE_MAGIC = "terramob-qtable 1"


def save_qtable(
    q: np.ndarray,
    f: IO[str],
    *,
    gamma: float,
    alpha: float,
    seed: int,
    episodes: int,
) -> None:
    """Versioned flat text format: header, then one line per nonzero entry.
    The whole file is one ``write``."""
    rows, cols = np.nonzero(q)
    lines = [_QTABLE_MAGIC, f"states {N_STATES}", f"actions {N_ACTIONS}",
             f"gamma {gamma!r}", f"alpha {alpha!r}", f"seed {seed}",
             f"episodes {episodes}", f"entries {len(rows)}"]
    lines += [f"{s} {a} {v!r}" for s, a, v in zip(
        rows.tolist(), cols.tolist(), q[rows, cols].tolist())]
    f.write("\n".join(lines) + "\n")


def load_qtable(f: IO[str]) -> tuple[np.ndarray, dict]:
    """Read a ``save_qtable`` file: exactly ``entries`` distinct entry lines,
    then nothing but blank lines. Every refusal names the line at fault."""
    def refuse(lineno: int, message: str) -> ValueError:
        return ValueError(f"qtable line {lineno}: {message}")

    header = f.readline().rstrip("\n")
    if header != _QTABLE_MAGIC:
        raise refuse(1, f"not a qtable file (header {header!r})")
    meta: dict = {}
    header_fields = (("states", int), ("actions", int), ("gamma", float),
                     ("alpha", float), ("seed", int), ("episodes", int),
                     ("entries", int))
    this_build = {"states": N_STATES, "actions": N_ACTIONS}
    for lineno, (key, cast) in enumerate(header_fields, start=2):
        name, _, value = f.readline().rstrip("\n").partition(" ")
        if name != key:
            raise refuse(lineno, f"expected header field {key!r}, got {name!r}")
        try:
            meta[key] = cast(value)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise refuse(lineno, f"{key} must be {kind}, got {value!r}") from None
        if key in this_build and meta[key] != this_build[key]:
            raise refuse(lineno, "state-space descriptor does not match this"
                                 f" build ({key} {meta[key]}, expected"
                                 f" {this_build[key]})")
    if meta["entries"] < 0:
        raise refuse(lineno, f"entries must be non-negative, got"
                             f" {meta['entries']}")
    q = np.zeros((N_STATES, N_ACTIONS))
    seen: set[tuple[int, int]] = set()
    for lineno in range(lineno + 1, lineno + 1 + meta["entries"]):
        fields = f.readline().split()
        if len(fields) != 3:
            raise refuse(lineno, "expected an entry 'state action value',"
                                 f" got {len(fields)} fields")
        s_str, a_str, v_str = fields
        try:
            si, ai = int(s_str), int(a_str)
        except ValueError:
            raise refuse(lineno, "state and action must be integers, got"
                                 f" {s_str!r} {a_str!r}") from None
        if not (0 <= si < N_STATES and 0 <= ai < N_ACTIONS):
            raise refuse(lineno, f"entry ({si}, {ai}) out of range")
        if (si, ai) in seen:
            raise refuse(lineno, f"entry ({si}, {ai}) is repeated")
        seen.add((si, ai))
        try:
            value = float(v_str)
        except ValueError:
            raise refuse(lineno, f"value must be a number, got {v_str!r}"
                         ) from None
        if not math.isfinite(value):
            raise refuse(lineno, f"entry ({si}, {ai}) is not finite")
        q[si, ai] = value
    for lineno, line in enumerate(f, start=lineno + 1):
        if line.strip():
            raise refuse(lineno, f"more entries than the {meta['entries']}"
                                 " declared")
    return q, meta


def write_learning_curve(curve: list[EpisodeStats], f: IO[str]) -> None:
    f.write("episode,return,success,steps\n")
    for row in curve:
        f.write(f"{row.episode},{row.ep_return!r},{int(row.success)},{row.steps}\n")
