"""Discrete-time multi-agent runs over terrain.

Agents move continuously along grid edges of their committed global route,
switch to the learned bypass policy whenever the next routed step is
obstructed, and rejoin the route without ever replanning globally. Pursuers
re-aim greedily at their target's last seen cell and give up after a
sustained loss of sight or an exhausted effort budget. Everything is
deterministic for a given configuration and seed. ``World._advance_agent``
holds the rules for a step's effort, time * (1 + slope / 100), and for
the cell that holds a position; tests/conftest.py keeps their references.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import IO, Callable, NamedTuple

from . import planner
from .agents import (
    AgentProfile, EdgeTable, builtin_profiles, profile_from_spec, speed,
)
from .local_adapt import (
    ACTION_NAMES,
    ACTION_STAY,
    MAX_SIM_STEPS,
    TableMoves,
    deviation_cells,
    greedy_step,
    load_qtable,
    local_step,
)
from .planner import NoPathError, PathPlan
from .terrain import (
    DEFAULT_EYE_HEIGHT,
    CellIndex,
    ElevationGrid,
    line_of_sight,
    load_grid,
    whole_number,
)

MODE_FOLLOWING = "following"
MODE_ADAPTING = "adapting"
MODE_ARRIVED = "arrived"
MODE_INTERCEPTED = "intercepted"
MODE_ABANDONED = "abandoned"
TERMINAL_MODES = (MODE_ARRIVED, MODE_INTERCEPTED, MODE_ABANDONED)

# an outcome is the agent's terminal mode, except for an agent with no route
# (abandoned at 0 s) and one still moving at max_sim_time
OUTCOME_NO_PATH = "no_path"
OUTCOME_TIMEOUT = "timeout"

PURSUIT_INTERCEPTION = "interception"
PURSUIT_ABANDONED_LOS = "abandonment_los"
PURSUIT_ABANDONED_EFFORT = "abandonment_effort"
PURSUIT_TIMEOUT = "max_sim_time"


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def check_run_length(dt: float, max_sim_time: float,
                     dt_name: str = "sim.dt") -> None:
    """Raise ConfigError unless the run is finite, non-empty and capped.

    Both times must be finite and positive, and ``max_sim_time / dt`` at
    most MAX_SIM_STEPS. ``dt_name`` names where dt came from.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"{dt_name} must be positive and finite")
    if not (math.isfinite(max_sim_time) and max_sim_time > 0):
        raise ConfigError("sim.max_sim_time must be positive and finite")
    if max_sim_time / dt > MAX_SIM_STEPS:
        raise ConfigError(
            f"sim.max_sim_time / {dt_name} is {max_sim_time / dt:.3g} steps;"
            f" at most {MAX_SIM_STEPS} are allowed")


# ---------------------------------------------------------------------------
# Scene elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Obstacle:
    """Cell footprint that is present during its scheduled intervals."""

    cells: frozenset[CellIndex]
    schedule: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = -math.inf
        for start, end in self.schedule:
            if not start < end:
                raise ValueError("schedule intervals need start < end")
            if start < prev_end:
                raise ValueError("schedule intervals must be ordered, disjoint")
            prev_end = end

    def active(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.schedule)


@dataclass(frozen=True)
class PursuitRule:
    pursuer: str
    target: str
    los_loss_limit: float
    effort_budget: float
    capture_radius: float

    def __post_init__(self):
        if self.pursuer == self.target:
            raise ValueError(f"agent {self.pursuer!r} cannot pursue itself")
        if not self.los_loss_limit > 0:  # NaN fails each check
            raise ValueError("los_loss_limit must be positive")
        if not self.effort_budget >= 0:
            raise ValueError("effort_budget must be non-negative")
        if not self.capture_radius > 0:
            raise ValueError("capture_radius must be positive")


class TraceRecord(NamedTuple):
    """One trace row; the fields are the CSV's columns, in order."""

    t_s: float
    row: int
    col: int
    easting: float
    northing: float
    elevation_m: float
    mode: str
    chi: bool
    action: str
    speed_mps: float
    d_t_cells: int
    effort: float


def write_trace_csv(records: list[TraceRecord], f: IO[str],
                    t_texts: dict[float, str] | None = None) -> None:
    """Write the header and one line per record, each float as its repr.

    Consecutive rows mostly repeat their cell and objects (an agent
    standing, or walking one edge), so a field is formatted again only when
    it changes: the cell by value, the rest when a new object (``0.0 ==
    -0.0``, but their reprs differ). ``t_s`` text is kept by value in
    ``t_texts``, which the files of one run may share, as the rows of a
    step hold one clock; zeros are formatted afresh.
    """
    t_texts = {} if t_texts is None else t_texts
    lines = ["t_s,row,col,easting,northing,elevation_m,mode,chi,action,"
             "speed_mps,d_t_cells,effort\n"]
    r = c = z = x = y = m = k = a = v = e = object()  # matches nothing
    for t, row, col, ex, ny, ez, mode, chi, action, sp, dev, ef in records:
        t_text = t_texts.get(t)
        if t_text is None:
            t_text = repr(t)
            if t:
                t_texts[t] = t_text
        if row != r or col != c:
            r, c, cell_text = row, col, f"{row},{col}"
        if ez is not z:
            z, z_text = ez, repr(ez)
        if ex is not x:
            x, x_text = ex, repr(ex)
        if ny is not y:
            y, y_text = ny, repr(ny)
        if mode is not m or chi is not k or action is not a or sp is not v:
            m, k, a, v = mode, chi, action, sp
            mid_text = f"{mode},{int(chi)},{action},{sp!r}"
        if ef is not e:
            e, e_text = ef, repr(ef)
        lines.append(f"{t_text},{cell_text},{x_text},{y_text},{z_text},"
                     f"{mid_text},{dev},{e_text}\n")
    f.write("".join(lines))


@dataclass(slots=True)
class AgentRuntime:
    """Mutable per-agent simulation state."""

    id: str
    profile: AgentProfile
    plan: PathPlan | None
    qtable: TableMoves | None = None  # shared by the agents of one file
    edges: EdgeTable | None = None  # the World sets its profile's table
    waypoint_index: int = 0
    mode: str = MODE_FOLLOWING
    outcome: str | None = None
    position: tuple[float, float] = (0.0, 0.0)
    cell: CellIndex = CellIndex(0, 0)
    effort_spent: float = 0.0
    distance_m: float = 0.0
    end_clock: float | None = None
    chase_partner: str | None = None   # target id of this pursuer's Pursuit
    chase_cell: CellIndex | None = None
    chase_xy: tuple[float, float] | None = None  # live position while in sight
    edge_source: CellIndex | None = None
    edge_target: CellIndex | None = None
    edge_target_xy: tuple[float, float] = (0.0, 0.0)
    edge_speed: float = 0.0  # 0.0 while standing
    edge_slope: float = 0.0
    last_chi: bool = False
    last_action: str = "none"
    trace: list[TraceRecord] = field(default_factory=list)
    done_traced: bool = False


def _finish(agent: AgentRuntime, mode: str, clock: float) -> None:
    """Enter a terminal mode at ``clock``; the mode is also the outcome."""
    agent.mode = mode
    agent.outcome = mode
    agent.end_clock = clock


@dataclass
class Pursuit:
    """One pursuit of a World: its rule, both agents and the chase state.

    A pursuer is named by at most one rule (``ScenarioConfig.from_dict``
    enforces it), so the pursuer's ``chase_cell`` is its target's last
    seen cell and the record need not keep a copy.
    """

    rule: PursuitRule
    pursuer: AgentRuntime
    target: AgentRuntime
    los_down_s: float = 0.0
    outcome: str | None = None
    time_s: float | None = None
    # last (pursuer cell, target cell) asked and its line_of_sight answer;
    # exact because the grid and observer height are fixed for a World
    los_cells: tuple[CellIndex, CellIndex] | None = None
    los_visible: bool = False

    def end(self, outcome: str, clock: float, pursuer_mode: str) -> None:
        """Decide the pursuit at ``clock``; the pursuer ends in a mode."""
        self.outcome = outcome
        self.time_s = clock
        _finish(self.pursuer, pursuer_mode, clock)


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------

class World:
    """Single-writer simulation state; agents are updated in id order."""

    def __init__(
        self,
        grid: ElevationGrid,
        agents: list[AgentRuntime],
        obstacles: list[Obstacle],
        pursuit_rules: list[PursuitRule],
        dt: float,
        observer_height: float = DEFAULT_EYE_HEIGHT,
    ):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.agents = sorted(agents, key=lambda a: a.id)
        # one edge table per profile, shared by the agents that have it
        tables = {a.profile: EdgeTable(grid, a.profile) for a in self.agents}
        for a in self.agents:
            a.edges = tables[a.profile]
        self.obstacles = list(obstacles)
        by_id = {a.id: a for a in self.agents}
        self.pursuits = [Pursuit(rule, by_id[rule.pursuer], by_id[rule.target])
                         for rule in pursuit_rules]
        for p in self.pursuits:
            p.pursuer.chase_partner = p.target.id
        self.dt = dt
        self.observer_height = observer_height
        self.clock = 0.0
        # step-start snapshot read by _blocks: active obstacle cells and
        # (id, x, y, radius**2) per agent disc
        self._walls: set[CellIndex] = set()
        self._discs: list[tuple[str, float, float, float]] = []
        self._radii2 = [(a, a.profile.body_radius * a.profile.body_radius)
                        for a in self.agents]
        # the active obstacles change only where a schedule interval starts
        # or ends, so _walls is rebuilt only once t0 reaches the next of
        # these boundaries after its last rebuild
        self._bounds = sorted({b for ob in self.obstacles
                               for interval in ob.schedule for b in interval})
        self._walls_until = -math.inf
        # one float object per cell, so the trace writer formats a cell's
        # elevation once per stay in it
        self._elevations: dict[CellIndex, float] = {}
        for a in self.agents:
            a.trace.append(self._trace_record(a, 0.0))
        # a pursuit may be decided before the first step
        for p in self.pursuits:
            self._pursuit_update(p, 0.0)
        # agents not in a terminal mode, as of the end of the last step
        self.active = sum(a.mode not in TERMINAL_MODES for a in self.agents)

    # -- blocking query -------------------------------------------------------

    def _blocks(self, me: str, partner: str | None, lower_ids_only: bool,
                cell: CellIndex) -> bool:
        """The one blocked-cell rule, for agent ``me`` chasing ``partner``.

        A cell is blocked by an obstacle active at the step's start time or
        by the step-start disc of any agent other than ``me`` and its chase
        partner (with ``lower_ids_only``, only of agents whose id sorts
        before ``me``): a disc blocks the cells whose closed rectangle it
        touches. Agents in a terminal mode at the step's start (arrived,
        intercepted, abandoned, ``no_path`` included) have left the scene
        and have no disc. Both come from the snapshot ``step`` takes once
        per step, so every decision of a step sees the same scene. A disc's
        id is checked before its geometry. Only valid inside ``step``.
        """
        if cell in self._walls:
            return True
        g = self.grid
        x0 = g.xll + cell.col * g.cellsize
        y1 = g.yll + (g.nrows - cell.row) * g.cellsize
        x1 = x0 + g.cellsize
        y0 = y1 - g.cellsize
        # dx, dy equal x - min(max(x, x0), x1) and its y twin up to a sign,
        # which squaring drops
        for aid, x, y, r2 in self._discs:
            if aid == partner or (aid >= me if lower_ids_only else aid == me):
                continue
            dx = x0 - x if x < x0 else (x - x1 if x > x1 else 0.0)
            dy = y0 - y if y < y0 else (y - y1 if y > y1 else 0.0)
            if dx ** 2 + dy ** 2 <= r2:
                return True
        return False

    def _blocker(self, agent: AgentRuntime) -> Callable[[CellIndex], bool]:
        """``_blocks`` for one decision of ``agent``, as the step rules'
        predicate."""
        return partial(self._blocks, agent.id, agent.chase_partner, False)

    # -- one simulation step --------------------------------------------------

    def step(self) -> None:
        dt = self.dt
        t0 = self.clock
        if t0 >= self._walls_until:
            self._walls = set().union(
                *(ob.cells for ob in self.obstacles if ob.active(t0)))
            self._walls_until = next((b for b in self._bounds if b > t0),
                                     math.inf)
        self._discs = [(a.id, *a.position, r2) for a, r2 in self._radii2
                       if a.mode not in TERMINAL_MODES]
        for agent in self.agents:
            if agent.mode not in TERMINAL_MODES:
                self._advance_agent(agent, dt, t0)
        self.clock = clock = t0 + dt
        for p in self.pursuits:
            self._pursuit_update(p, dt)
        active = 0
        for agent in self.agents:
            if agent.done_traced:
                continue
            agent.trace.append(self._trace_record(agent, clock))
            if agent.mode in TERMINAL_MODES:
                agent.done_traced = True
            else:
                active += 1
        self.active = active

    def _advance_agent(self, agent: AgentRuntime, dt: float, t0: float) -> None:
        # a committed edge whose destination got blocked is walked back once.
        # The edge was passable when committed and stays so; agents yield in
        # id order, so a pair on crossing edges cannot both walk back forever.
        if (
            agent.edge_source is not None
            and agent.cell == agent.edge_source
            and self._blocks(agent.id, agent.chase_partner, True,
                             agent.edge_target)
        ):
            back = agent.edge_source
            agent.edge_target = back
            agent.edge_target_xy = self.grid.cell_center(back)
            agent.edge_source = None
        remaining = dt
        while remaining > 1e-12 and agent.mode not in TERMINAL_MODES:
            if agent.edge_target is None and not self._decide(agent):
                break
            x, y = agent.position
            tx, ty = agent.edge_target_xy
            dx = tx - x
            dy = ty - y
            dist = math.hypot(dx, dy)
            # edge_speed > 0 with a target: _commit, "close", walk-back
            t_need = dist / agent.edge_speed
            # effort accrues as time * (1 + slope / 100), and an agent's
            # cell is the one holding its position
            if t_need <= remaining:
                agent.position = (tx, ty)
                agent.cell = agent.edge_target
                agent.distance_m += dist
                agent.effort_spent += t_need * (1.0 + agent.edge_slope / 100.0)
                remaining -= t_need
                agent.edge_target = None
                agent.edge_source = None
                self._at_center(agent, t0, dt, remaining)
            else:
                moved = agent.edge_speed * remaining
                # a zero step keeps its coordinate's object: x + 0.0 is x but
                # for x = -0.0, and no position is -0.0 (a cell centre and any
                # exactly zero sum round to +0.0)
                if dx:
                    x += dx / dist * moved
                if dy:
                    y += dy / dist * moved
                agent.position = (x, y)
                agent.distance_m += moved
                agent.effort_spent += remaining * (1.0 + agent.edge_slope / 100.0)
                g = self.grid
                row = g.nrows - 1 - math.floor((y - g.yll) / g.cellsize)
                col = math.floor((x - g.xll) / g.cellsize)
                if (row, col) != agent.cell:
                    agent.cell = CellIndex(row, col)
                remaining = 0.0

    def _decide(self, agent: AgentRuntime) -> bool:
        """Pick and commit the next edge (a chase's ``greedy_step`` or a
        follower's ``local_step``, each ACTION_STAY or a move the agent may
        take); False means stand for this step."""
        if agent.chase_cell is not None:
            agent.last_chi = False
            if agent.cell == agent.chase_cell:
                # inside the last-seen cell: close on the live position, or
                # hold the spot when sight has been lost
                xy = agent.chase_xy
                if xy is None or math.hypot(xy[0] - agent.position[0],
                                            xy[1] - agent.position[1]) < 1e-9:
                    return self._commit(agent, ACTION_STAY)
                agent.edge_source = None
                agent.edge_target = agent.cell
                agent.edge_target_xy = xy
                agent.edge_speed = speed(agent.profile, 0.0)
                agent.edge_slope = 0.0
                agent.last_action = "close"
                return True
            return self._commit(agent, greedy_step(
                agent.edges, agent.cell, agent.chase_cell,
                self._blocker(agent)))

        # a deciding route follower has a plan and a waypoint ahead
        plan = agent.plan
        chi, action = local_step(agent.qtable, agent.edges,
                                 self._blocker(agent), agent.cell, plan,
                                 agent.waypoint_index)
        agent.last_chi = chi
        agent.mode = (MODE_ADAPTING if chi or deviation_cells(agent.cell, plan)
                      else MODE_FOLLOWING)
        return self._commit(agent, action)

    def _commit(self, agent: AgentRuntime, action: int) -> bool:
        """Start walking the edge of ``action``, which the step rules found
        open and not blocked; False means stand instead, on ACTION_STAY."""
        if action == ACTION_STAY:
            agent.edge_speed = 0.0
            agent.last_action = "stay"
            return False
        dest, _time, agent.edge_speed, agent.edge_slope = (
            agent.edges[agent.cell][action])
        agent.edge_source = agent.cell
        agent.edge_target = dest
        agent.edge_target_xy = self.grid.cell_center(dest)
        agent.last_action = ACTION_NAMES[action]
        return True

    def _at_center(self, agent: AgentRuntime, t0: float, dt: float,
                   remaining: float) -> None:
        if agent.chase_cell is not None:
            return
        # a rejoin: back on the route at or past the tracked waypoint
        plan = agent.plan
        k = plan.index.get(agent.cell)
        if k is None or k < agent.waypoint_index:
            return
        agent.waypoint_index = k + 1
        if agent.mode == MODE_ADAPTING:
            agent.mode = MODE_FOLLOWING
        if k == len(plan.waypoints) - 1:
            _finish(agent, MODE_ARRIVED, t0 + (dt - remaining))

    # -- pursuit ---------------------------------------------------------------

    def _pursuit_update(self, p: Pursuit, dt: float) -> None:
        if p.outcome is not None:
            return
        pu, tg, rule = p.pursuer, p.target, p.rule
        gap = math.hypot(
            pu.position[0] - tg.position[0], pu.position[1] - tg.position[1]
        )
        if gap <= rule.capture_radius:
            _finish(tg, MODE_INTERCEPTED, self.clock)
            p.end(PURSUIT_INTERCEPTION, self.clock, MODE_ARRIVED)
            return
        if pu.mode in TERMINAL_MODES:
            return
        cells = (pu.cell, tg.cell)
        if cells != p.los_cells:
            h = self.observer_height
            p.los_cells = cells
            p.los_visible = line_of_sight(self.grid, pu.cell, tg.cell, h, h)
        if p.los_visible:
            p.los_down_s = 0.0
            pu.chase_cell = tg.cell
            pu.chase_xy = tg.position
            # a pursuer that sees its target never walks its edge back
            pu.edge_source = None
        else:
            # chase_cell stays on the cell where the target was last seen
            p.los_down_s += dt
            pu.chase_xy = None
            if p.los_down_s >= rule.los_loss_limit:
                p.end(PURSUIT_ABANDONED_LOS, self.clock, MODE_ABANDONED)
                return
        if pu.effort_spent > rule.effort_budget:
            p.end(PURSUIT_ABANDONED_EFFORT, self.clock, MODE_ABANDONED)

    def _trace_record(self, agent: AgentRuntime, t: float) -> TraceRecord:
        cell = agent.cell
        if agent.chase_cell is not None or agent.plan is None:
            dev = 0
        else:
            dev = deviation_cells(cell, agent.plan)
        z = self._elevations.get(cell)
        if z is None:
            z = self._elevations[cell] = self.grid.elevation(cell)
        # one row per agent-step: skip namedtuple's Python-level __new__
        return tuple.__new__(TraceRecord, (
            t, *cell, *agent.position, z, agent.mode, agent.last_chi,
            agent.last_action, agent.edge_speed, dev, agent.effort_spent))


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentSpec:
    id: str
    profile: str
    start: CellIndex
    goal: CellIndex
    qtable: str | None = None


@dataclass(frozen=True)
class RouteSpec:
    name: str
    start: CellIndex
    goal: CellIndex


@dataclass(frozen=True)
class TransportSpec:
    profile_a: str
    profile_b: str
    routes: tuple[RouteSpec, ...]


# What converting one JSON entry can raise: a missing key, a wrong type, a
# bad value, or a float too large for int() (JSON allows 1e999).
_ENTRY_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _cell(what: str, pair) -> CellIndex:
    """A config cell ``[row, col]``; each coordinate is a whole number."""
    return CellIndex(*[whole_number(f"{what} coordinate", v) for v in pair])


def _list_entry(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list")
    return value


@dataclass
class ScenarioConfig:
    """Parsed scenario file; see the README for the JSON layout."""

    terrain: str | dict
    seed: int
    agents: list[AgentSpec] = field(default_factory=list)
    profiles: list = field(default_factory=list)
    obstacles: list[Obstacle] = field(default_factory=list)
    pursuit_rules: list[PursuitRule] = field(default_factory=list)
    dt: float = 1.0
    max_sim_time: float = 86400.0
    observer_height: float = DEFAULT_EYE_HEIGHT
    transport: TransportSpec | None = None
    outputs: str | None = None
    strict: bool = False
    base_dir: Path = field(default_factory=Path.cwd)

    @classmethod
    def from_dict(cls, obj: dict, base_dir: str | Path = ".") -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        try:
            terrain = obj["terrain"]
        except KeyError:
            raise ConfigError("config needs a 'terrain' entry") from None
        if not isinstance(terrain, (str, dict)):
            raise ConfigError("'terrain' must be a path ending in .asc, a"
                              " recipe string or a recipe object")
        sim = obj.get("sim", {})
        if not isinstance(sim, dict):
            raise ConfigError("'sim' must be an object")
        if "seed" not in sim:
            raise ConfigError("config needs sim.seed (runs must be seeded)")
        try:
            seed = int(sim["seed"])
            dt = float(sim.get("dt", cls.dt))
            max_sim_time = float(sim.get("max_sim_time", cls.max_sim_time))
            observer_height = float(sim.get("observer_height", cls.observer_height))
        except _ENTRY_ERRORS as exc:
            raise ConfigError(f"sim: {exc}") from None
        check_run_length(dt, max_sim_time)
        if not math.isfinite(observer_height):
            raise ConfigError("sim.observer_height must be finite")
        strict = obj.get("strict", False)
        if not isinstance(strict, bool):
            raise ConfigError("'strict' must be true or false")

        agents = []
        seen_ids = set()
        for i, a in enumerate(_list_entry(obj, "agents")):
            try:
                spec = AgentSpec(
                    id=str(a["id"]),
                    profile=a["profile"],
                    start=_cell("start", a["start"]),
                    goal=_cell("goal", a["goal"]),
                    qtable=a.get("qtable"),
                )
            except _ENTRY_ERRORS as exc:
                raise ConfigError(f"agents[{i}]: {exc}") from None
            if not isinstance(spec.qtable, (str, type(None))):
                raise ConfigError(f"'agents[{i}].qtable' must be a string")
            if spec.id in seen_ids:
                raise ConfigError(f"duplicate agent id {spec.id!r}")
            seen_ids.add(spec.id)
            agents.append(spec)

        obstacles = []
        for i, ob in enumerate(_list_entry(obj, "obstacles")):
            try:
                cells = frozenset(_cell("cell", rc) for rc in ob["cells"])
                schedule = tuple(
                    (float(s), float(e)) for s, e in ob["schedule"]
                )
                obstacles.append(Obstacle(cells, schedule))
            except _ENTRY_ERRORS as exc:
                raise ConfigError(f"obstacles[{i}]: {exc}") from None

        rules = []
        for i, r in enumerate(_list_entry(obj, "pursuit_rules")):
            try:
                rules.append(PursuitRule(
                    pursuer=str(r["pursuer"]),
                    target=str(r["target"]),
                    los_loss_limit=float(r["los_loss_limit"]),
                    effort_budget=float(r["effort_budget"]),
                    capture_radius=float(r["capture_radius"]),
                ))
            except _ENTRY_ERRORS as exc:
                raise ConfigError(f"pursuit_rules[{i}]: {exc}") from None
        pursuers = set()
        for r in rules:
            for label, aid in (("pursuer", r.pursuer), ("target", r.target)):
                if aid not in seen_ids:
                    raise ConfigError(f"pursuit {label} {aid!r} is not an agent")
            if r.pursuer in pursuers:
                raise ConfigError(f"pursuer {r.pursuer!r} is named by two rules")
            pursuers.add(r.pursuer)

        outputs = obj.get("outputs")
        if not isinstance(outputs, (str, type(None))):
            raise ConfigError("'outputs' must be a string")

        transport = None
        if "transport" in obj:
            tr = obj["transport"]
            try:
                routes = []
                for j, rt in enumerate(tr["routes"]):
                    if not isinstance(rt, dict):
                        raise ValueError(f"routes[{j}] must be an object")
                    routes.append(RouteSpec(
                        name=str(rt.get("name", f"route_{j}")),
                        start=_cell(f"routes[{j}].start", rt["start"]),
                        goal=_cell(f"routes[{j}].goal", rt["goal"]),
                    ))
                transport = TransportSpec(tr["a"], tr["b"], tuple(routes))
            except _ENTRY_ERRORS as exc:
                raise ConfigError(f"transport: {exc}") from None

        return cls(
            terrain=terrain,
            seed=seed,
            agents=agents,
            profiles=_list_entry(obj, "profiles"),
            obstacles=obstacles,
            pursuit_rules=rules,
            dt=dt,
            max_sim_time=max_sim_time,
            observer_height=observer_height,
            transport=transport,
            outputs=outputs,
            strict=strict,
            base_dir=Path(base_dir),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return cls.from_dict(obj, base_dir=path.parent)

    def resolve_grid(self) -> ElevationGrid:
        return load_grid(self.terrain, self.base_dir)

    def profile_registry(self) -> dict[str, AgentProfile]:
        registry = {p.name: p for p in builtin_profiles()}
        for i, spec in enumerate(self.profiles):
            p = _resolve_profile(spec, f"profiles[{i}]")
            registry[p.name] = p
        return registry


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

SCHEMA = "terramob.simreport/1"


@dataclass
class SimReport:
    seed: int
    dt: float
    sim_time_s: float
    agents: list[dict]
    pursuits: list[dict]
    transport_rows: list[dict]
    comparisons: list[dict]

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, **vars(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _resolve_profile(spec, where: str) -> AgentProfile:
    """``profile_from_spec`` with a bad spec reported as a ConfigError."""
    try:
        return profile_from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _agent_row(agent: AgentRuntime, clock: float) -> dict:
    duration = agent.end_clock if agent.end_clock is not None else clock
    return {
        "id": agent.id,
        "profile": agent.profile.name,
        "outcome": agent.outcome or OUTCOME_TIMEOUT,
        "duration_s": duration,
        "distance_m": agent.distance_m,
        "avg_speed_mps": agent.distance_m / duration if duration > 0 else 0.0,
        "effort": agent.effort_spent,
    }


def _profile_ref(ref, registry: dict[str, AgentProfile],
                 where: str) -> AgentProfile:
    """A registry name or an inline spec; errors name the config entry."""
    if isinstance(ref, str):
        if ref not in registry:
            raise ConfigError(f"{where}: unknown profile {ref!r}")
        return registry[ref]
    return _resolve_profile(ref, where)


def _runtime(
    grid: ElevationGrid,
    agent_id: str,
    profile: AgentProfile,
    start: CellIndex,
    goal: CellIndex,
    qtable_path: Path | None = None,
    tables: dict[Path, TableMoves] | None = None,
) -> AgentRuntime:
    """Check the endpoints, load the bypass table (read once into ``tables``
    and wrapped in one ``TableMoves``), and plan the route."""
    for label, cell in (("start", start), ("goal", goal)):
        if not grid.traversable(cell):
            raise ConfigError(
                f"agent {agent_id!r}: {label} {tuple(cell)} is not traversable"
            )
    if qtable_path is not None and qtable_path not in tables:
        with open(qtable_path) as f:
            tables[qtable_path] = TableMoves(load_qtable(f)[0])
    runtime = AgentRuntime(
        id=agent_id,
        profile=profile,
        plan=None,
        qtable=None if qtable_path is None else tables[qtable_path],
        cell=start,
        position=grid.cell_center(start),
    )
    try:
        plan, _stats = planner.astar(grid, profile, start, goal)
        runtime.plan = plan
        runtime.waypoint_index = 1
        if len(plan.waypoints) == 1:
            _finish(runtime, MODE_ARRIVED, 0.0)
    except NoPathError:
        _finish(runtime, MODE_ABANDONED, 0.0)
        runtime.outcome = OUTCOME_NO_PATH
    return runtime


def build_world(config: ScenarioConfig,
                grid: ElevationGrid | None = None) -> World:
    grid = config.resolve_grid() if grid is None else grid
    registry = config.profile_registry()
    runtimes = []
    tables: dict[Path, TableMoves] = {}
    for i, spec in enumerate(config.agents):
        profile = _profile_ref(spec.profile, registry, f"agents[{i}].profile")
        runtimes.append(_runtime(
            grid, spec.id, profile, spec.start, spec.goal,
            config.base_dir / spec.qtable if spec.qtable else None, tables,
        ))

    for ob in config.obstacles:
        for cell in ob.cells:
            if not grid.in_bounds(cell):
                raise ConfigError(f"obstacle cell {tuple(cell)} out of bounds")

    return World(grid, runtimes, config.obstacles, config.pursuit_rules,
                 dt=config.dt, observer_height=config.observer_height)


def _simulate(world: World, max_sim_time: float) -> None:
    while world.active and world.clock < max_sim_time - 1e-9:
        world.step()


def run_scenario(
    config: ScenarioConfig,
) -> tuple[SimReport, dict[str, list[TraceRecord]]]:
    """Simulate the configured agents to termination or the time limit, then
    the transport comparison if the config has a transport section."""
    grid = config.resolve_grid()
    world = build_world(config, grid)
    _simulate(world, config.max_sim_time)
    agents = [_agent_row(a, world.clock) for a in world.agents]
    pursuits = [{
        "pursuer": p.rule.pursuer,
        "target": p.rule.target,
        "outcome": p.outcome or PURSUIT_TIMEOUT,
        "time_s": p.time_s if p.time_s is not None else world.clock,
    } for p in world.pursuits]
    traces = {a.id: a.trace for a in world.agents}
    transport_rows, comparisons = [], []
    if config.transport is not None:
        transport_rows, comparisons, extra = compare_transport(config, grid)
        traces.update(extra)
    report = SimReport(seed=config.seed, dt=config.dt, sim_time_s=world.clock,
                       agents=agents, pursuits=pursuits,
                       transport_rows=transport_rows, comparisons=comparisons)
    return report, traces


def compare_transport(
    config: ScenarioConfig,
    grid: ElevationGrid | None = None,
) -> tuple[list[dict], list[dict], dict[str, list[TraceRecord]]]:
    """Run both transport profiles over each route and tabulate the contrast.

    Each (route, profile) pair is simulated in isolation on the shared
    terrain, so the comparison reflects terrain and mobility alone.
    """
    if config.transport is None:
        raise ConfigError("config has no transport section")
    registry = config.profile_registry()
    sides = [
        (label, _profile_ref(ref, registry, f"transport.{label}"))
        for label, ref in (("a", config.transport.profile_a),
                           ("b", config.transport.profile_b))
    ]
    grid = config.resolve_grid() if grid is None else grid

    mode_rows: list[dict] = []
    comparisons: list[dict] = []
    traces: dict[str, list[TraceRecord]] = {}
    for route in config.transport.routes:
        comparison = {
            "route": route.name,
            "start": f"({route.start.row}, {route.start.col})",
            "end": f"({route.goal.row}, {route.goal.col})",
        }
        rows = []
        for label, profile in sides:
            agent = _runtime(grid, f"{route.name}__{label}_{profile.name}",
                             profile, route.start, route.goal)
            world = World(grid, [agent], [], [], dt=config.dt,
                          observer_height=config.observer_height)
            _simulate(world, config.max_sim_time)
            row = _agent_row(agent, world.clock)
            rows.append(row)
            traces[agent.id] = agent.trace
            planned = row["outcome"] != OUTCOME_NO_PATH
            comparison.update({
                f"{label}_name": profile.name,
                f"{label}_outcome": row["outcome"],
                f"{label}_duration_s": row["duration_s"] if planned else None,
                f"{label}_distance_m": row["distance_m"] if planned else None,
            })

        row_a, row_b = rows
        reduction = difference_s = difference_m = None
        if row_a["outcome"] == MODE_ARRIVED == row_b["outcome"]:
            difference_s = row_a["duration_s"] - row_b["duration_s"]
            difference_m = row_a["distance_m"] - row_b["distance_m"]
            reduction = difference_s / row_a["duration_s"] * 100.0
        comparison.update(difference_s=difference_s, difference_m=difference_m,
                          reduction_percent=reduction)
        comparisons.append(comparison)
        for (_label, prof), row in zip(sides, rows):
            mode_rows.append({
                "route": route.name,
                "mode": prof.name,
                "slope_percent": prof.ref_slope,
                "load_kg": prof.load_kg,
                "vessels": prof.vessels,
                "avg_speed_mps": row["avg_speed_mps"],
                "duration_s": row["duration_s"],
                "distance_m": row["distance_m"],
                "reduction_percent": reduction,
            })
    return mode_rows, comparisons, traces


# ---------------------------------------------------------------------------
# Plain-text rendering
# ---------------------------------------------------------------------------

def format_duration(seconds: float) -> str:
    minutes = round(seconds / 60.0)
    sign = "-" if minutes < 0 else ""
    minutes = abs(minutes)
    return f"{sign}{minutes // 60}:{minutes % 60:02d} h"


def format_distance(meters: float) -> str:
    km = round(meters / 1000.0, 1) + 0.0  # avoid a "-0.0" from float noise
    return f"{km:.1f} km"


def render_comparison_table(comparisons: list[dict]) -> str:
    """Side-by-side transport table: durations h:mm, distances km."""
    if not comparisons:
        return "no routes\n"
    a_label = comparisons[0].get("a_name", "a")
    b_label = comparisons[0].get("b_name", "b")
    headers = ["route", "start", "end", f"{a_label} duration",
               f"{b_label} duration", "difference", "reduction_%"]
    rows = []
    for c in comparisons:
        rows.append([
            str(c.get("route", "")),
            str(c.get("start", "")),
            str(c.get("end", "")),
            _duration_cell(c.get("a_duration_s"), c.get("a_distance_m"),
                           c.get("a_outcome")),
            _duration_cell(c.get("b_duration_s"), c.get("b_distance_m"),
                           c.get("b_outcome")),
            _duration_cell(c.get("difference_s"), c.get("difference_m"), None),
            "n/a" if c.get("reduction_percent") is None
            else f"{c['reduction_percent']:.1f}",
        ])
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    return "\n".join(lines) + "\n"


def _duration_cell(duration_s, distance_m, outcome) -> str:
    if duration_s is None:
        return outcome or "n/a"
    cell = format_duration(duration_s)
    if distance_m is not None:
        cell += f" ({format_distance(distance_m)})"
    return cell
