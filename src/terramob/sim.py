"""Discrete-time multi-agent runs over terrain.

Agents move continuously along grid edges of their committed global route,
switch to the learned bypass policy whenever the next routed step is
obstructed, and rejoin the route without ever replanning globally. Pursuers
re-aim greedily at their target's last seen cell and give up after a
sustained loss of sight or an exhausted effort budget. Everything is
deterministic for a given configuration and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import numpy as np

from . import planner
from .agents import (
    AgentProfile,
    builtin_profiles,
    profile_from_spec,
    speed,
    traversal_time,
)
from .local_adapt import (
    ACTION_NAMES,
    ACTION_STAY,
    ACTIONS,
    QTable,
    build_local_state,
    detect_block,
    deviation_cells,
    hierarchical_policy,
    load_qtable,
    rejoin_check,
)
from .planner import NoPathError, PathPlan, heuristic
from .terrain import (
    CellIndex,
    ElevationGrid,
    grid_from_recipe,
    line_of_sight,
    parse_ascii_grid,
    slope_percent,
)

MODE_FOLLOWING = "following"
MODE_ADAPTING = "adapting"
MODE_ARRIVED = "arrived"
MODE_INTERCEPTED = "intercepted"
MODE_ABANDONED = "abandoned"
TERMINAL_MODES = (MODE_ARRIVED, MODE_INTERCEPTED, MODE_ABANDONED)

OUTCOME_ARRIVED = "arrived"
OUTCOME_INTERCEPTED = "intercepted"
OUTCOME_ABANDONED = "abandoned"
OUTCOME_NO_PATH = "no_path"
OUTCOME_TIMEOUT = "timeout"

PURSUIT_INTERCEPTION = "interception"
PURSUIT_ABANDONED_LOS = "abandonment_los"
PURSUIT_ABANDONED_EFFORT = "abandonment_effort"
PURSUIT_TIMEOUT = "max_sim_time"

_ZERO_Q = QTable.zeros()


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def effort_accrual(profile: AgentProfile, edge_time: float, slope: float) -> float:
    """Exertion proxy for time spent on a slope: time * (1 + slope/100)."""
    if edge_time < 0:
        raise ValueError("edge_time must be non-negative")
    if slope < 0:
        raise ValueError("slope must be non-negative")
    return edge_time * (1.0 + slope / 100.0)


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
        if self.los_loss_limit <= 0:
            raise ValueError("los_loss_limit must be positive")
        if self.effort_budget < 0:
            raise ValueError("effort_budget must be non-negative")
        if self.capture_radius <= 0:
            raise ValueError("capture_radius must be positive")


@dataclass
class PursuitState:
    last_seen: CellIndex | None = None
    los_down_s: float = 0.0
    outcome: str | None = None
    time_s: float | None = None


@dataclass
class TraceRecord:
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


def write_trace_csv(records: list[TraceRecord], f: IO[str]) -> None:
    f.write(
        "t_s,row,col,easting,northing,elevation_m,mode,chi,action,"
        "speed_mps,d_t_cells,effort\n"
    )
    for r in records:
        f.write(
            f"{r.t_s!r},{r.row},{r.col},{r.easting!r},{r.northing!r},"
            f"{r.elevation_m!r},{r.mode},{int(r.chi)},{r.action},"
            f"{r.speed_mps!r},{r.d_t_cells},{r.effort!r}\n"
        )


@dataclass
class AgentRuntime:
    """Mutable per-agent simulation state."""

    id: str
    profile: AgentProfile
    plan: PathPlan | None
    qtable: QTable | None = None
    qtable_ref: str = ""
    waypoint_index: int = 0
    mode: str = MODE_FOLLOWING
    outcome: str | None = None
    position: np.ndarray = field(default_factory=lambda: np.zeros(2))
    cell: CellIndex = CellIndex(0, 0)
    effort_spent: float = 0.0
    distance_m: float = 0.0
    start_clock: float = 0.0
    end_clock: float | None = None
    chase_partner: str | None = None   # pursuit target id, when this is a pursuer
    chase_cell: CellIndex | None = None
    chase_xy: tuple[float, float] | None = None  # live position while in sight
    edge_source: CellIndex | None = None
    edge_target: CellIndex | None = None
    edge_target_xy: tuple[float, float] = (0.0, 0.0)
    edge_speed: float = 0.0
    edge_slope: float = 0.0
    last_chi: bool = False
    last_action: str = "none"
    last_speed: float = 0.0
    trace: list[TraceRecord] = field(default_factory=list)
    done_traced: bool = False


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
        dt: float = 1.0,
        observer_height: float = 1.7,
    ):
        self.grid = grid
        self.agents = sorted(agents, key=lambda a: a.id)
        self.obstacles = list(obstacles)
        self.pursuit_rules = list(pursuit_rules)
        self.pursuit_states = [PursuitState() for _ in pursuit_rules]
        self.dt = dt
        self.observer_height = observer_height
        self.clock = 0.0
        self._by_id = {a.id: a for a in self.agents}
        self._snapshot: dict[str, tuple[np.ndarray, CellIndex]] | None = None
        self._decision_time = 0.0
        for a in self.agents:
            a.trace.append(self._trace_record(a, 0.0))

    def agent(self, agent_id: str) -> AgentRuntime:
        return self._by_id[agent_id]

    def any_active(self) -> bool:
        return any(a.mode not in TERMINAL_MODES for a in self.agents)

    # -- blocking queries ---------------------------------------------------

    def cell_blocked(self, cell: CellIndex, exclude_id: str | None = None) -> bool:
        exclude = {exclude_id} if exclude_id else set()
        return self._blocked_multi(cell, exclude)

    def _blocked_multi(self, cell: CellIndex, exclude: set[str]) -> bool:
        t = self._decision_time
        for ob in self.obstacles:
            if ob.active(t) and cell in ob.cells:
                return True
        for other in self.agents:
            if other.id in exclude:
                continue
            if self._snapshot is not None:
                pos, _ = self._snapshot[other.id]
            else:
                pos = other.position
            if self._disc_hits_cell(pos, other.profile.body_radius, cell):
                return True
        return False

    def _disc_hits_cell(self, pos: np.ndarray, radius: float,
                        cell: CellIndex) -> bool:
        g = self.grid
        x0 = g.xll + cell.col * g.cellsize
        y1 = g.yll + (g.nrows - cell.row) * g.cellsize
        x1 = x0 + g.cellsize
        y0 = y1 - g.cellsize
        cx = min(max(float(pos[0]), x0), x1)
        cy = min(max(float(pos[1]), y0), y1)
        return (pos[0] - cx) ** 2 + (pos[1] - cy) ** 2 <= radius * radius

    def _entry_ok(self, agent: AgentRuntime, dest: CellIndex) -> bool:
        if not self.grid.traversable(dest):
            return False
        if not math.isfinite(traversal_time(agent.profile, self.grid,
                                            agent.cell, dest)):
            return False
        exclude = {agent.id}
        if agent.chase_partner:
            exclude.add(agent.chase_partner)
        return not self._blocked_multi(dest, exclude)

    # -- one simulation step --------------------------------------------------

    def step(self, dt: float | None = None) -> None:
        dt = self.dt if dt is None else dt
        if not dt > 0:
            raise ValueError("dt must be positive")
        t0 = self.clock
        self._decision_time = t0
        self._snapshot = {
            a.id: (a.position.copy(), a.cell) for a in self.agents
        }
        for agent in self.agents:
            if agent.mode in TERMINAL_MODES:
                continue
            self._advance_agent(agent, dt, t0)
        self._snapshot = None
        self.clock = t0 + dt
        for i, rule in enumerate(self.pursuit_rules):
            self._pursuit_update(i, rule, dt)
        for agent in self.agents:
            if agent.done_traced:
                continue
            agent.trace.append(self._trace_record(agent, self.clock))
            if agent.mode in TERMINAL_MODES:
                agent.done_traced = True

    def _advance_agent(self, agent: AgentRuntime, dt: float, t0: float) -> None:
        # a committed edge whose destination got blocked is walked back once
        if (
            agent.edge_target is not None
            and agent.edge_source is not None
            and agent.cell == agent.edge_source
            and not self._entry_ok(agent, agent.edge_target)
        ):
            back = agent.edge_source
            agent.edge_target = back
            agent.edge_target_xy = self.grid.cell_center(back)
            agent.edge_source = None
        remaining = dt
        while remaining > 1e-12 and agent.mode not in TERMINAL_MODES:
            if agent.edge_target is None:
                if not self._decide(agent):
                    agent.last_speed = 0.0
                    break
            tx, ty = agent.edge_target_xy
            dx = tx - agent.position[0]
            dy = ty - agent.position[1]
            dist = math.hypot(dx, dy)
            t_need = dist / agent.edge_speed if agent.edge_speed > 0 else math.inf
            if t_need <= remaining:
                agent.position[0] = tx
                agent.position[1] = ty
                agent.cell = agent.edge_target
                agent.distance_m += dist
                agent.effort_spent += effort_accrual(
                    agent.profile, t_need, agent.edge_slope
                )
                remaining -= t_need
                agent.edge_target = None
                agent.edge_source = None
                self._at_center(agent, t0, dt, remaining)
            else:
                moved = agent.edge_speed * remaining
                agent.position[0] += dx / dist * moved
                agent.position[1] += dy / dist * moved
                agent.distance_m += moved
                agent.effort_spent += effort_accrual(
                    agent.profile, remaining, agent.edge_slope
                )
                agent.cell = self.grid.cell_of_point(
                    float(agent.position[0]), float(agent.position[1])
                )
                remaining = 0.0

    def _decide(self, agent: AgentRuntime) -> bool:
        """Pick and commit the next edge; False means stand for this step."""
        if agent.chase_cell is not None:
            agent.last_chi = False
            if agent.cell == agent.chase_cell:
                # inside the last-seen cell: close on the live position, or
                # hold the spot when sight has been lost
                if agent.chase_xy is None:
                    agent.last_action = "stay"
                    return False
                dist = math.hypot(agent.chase_xy[0] - agent.position[0],
                                  agent.chase_xy[1] - agent.position[1])
                if dist < 1e-9:
                    agent.last_action = "stay"
                    return False
                result = speed(agent.profile, 0.0)
                agent.edge_source = None
                agent.edge_target = agent.cell
                agent.edge_target_xy = agent.chase_xy
                agent.edge_speed = result.speed
                agent.edge_slope = 0.0
                agent.last_action = "close"
                agent.last_speed = result.speed
                return True
            action = self._greedy_action(agent, agent.chase_cell)
            if action is None:
                agent.last_action = "stay"
                return False
            return self._commit(agent, action)

        plan = agent.plan
        wi = agent.waypoint_index
        if plan is None or wi >= len(plan.waypoints):
            agent.last_action = "stay"
            return False
        chi = detect_block(self, agent.id, plan, wi)
        agent.last_chi = chi
        state = build_local_state(self.grid, self, agent.id, agent.cell, plan, wi)
        if chi:
            agent.mode = MODE_ADAPTING
            if agent.qtable is not None:
                action = hierarchical_policy(
                    True, plan, wi, agent.qtable, state,
                    self.grid, agent.profile, agent.cell,
                )
            else:
                # untrained agents sidestep by cost instead of a zero argmax
                action = self._greedy_action(agent, plan.waypoints[wi])
        else:
            agent.mode = (
                MODE_FOLLOWING
                if deviation_cells(agent.cell, plan) == 0
                else MODE_ADAPTING
            )
            action = hierarchical_policy(
                False, plan, wi, agent.qtable or _ZERO_Q, state,
                self.grid, agent.profile, agent.cell,
            )
        if action is None or action == ACTION_STAY:
            agent.last_action = "stay"
            return False
        dr, dc = ACTIONS[action]
        dest = CellIndex(agent.cell[0] + dr, agent.cell[1] + dc)
        if not self._entry_ok(agent, dest):
            # blocked or invalid move: stand (the later-ordered mover yields)
            agent.last_action = "stay"
            return False
        return self._commit(agent, action)

    def _greedy_action(self, agent: AgentRuntime, goal_cell: CellIndex) -> int | None:
        """Cheapest feasible step toward a cell: edge time plus time bound."""
        best = None
        best_cost = math.inf
        for a, (dr, dc) in enumerate(ACTIONS[:8]):
            dest = CellIndex(agent.cell[0] + dr, agent.cell[1] + dc)
            if not self._entry_ok(agent, dest):
                continue
            step_t = traversal_time(agent.profile, self.grid, agent.cell, dest)
            cost = step_t + heuristic(dest, goal_cell, agent.profile,
                                      self.grid.cellsize)
            if cost < best_cost:
                best_cost = cost
                best = a
        return best

    def _commit(self, agent: AgentRuntime, action: int) -> bool:
        dr, dc = ACTIONS[action]
        dest = CellIndex(agent.cell[0] + dr, agent.cell[1] + dc)
        sample = slope_percent(self.grid, agent.cell, dest)
        result = speed(agent.profile, sample.percent)
        agent.edge_source = agent.cell
        agent.edge_target = dest
        agent.edge_target_xy = self.grid.cell_center(dest)
        agent.edge_speed = result.speed
        agent.edge_slope = sample.percent
        agent.last_action = ACTION_NAMES[action]
        agent.last_speed = result.speed
        return True

    def _at_center(self, agent: AgentRuntime, t0: float, dt: float,
                   remaining: float) -> None:
        if agent.chase_cell is not None:
            return
        plan = agent.plan
        rejoined, k = rejoin_check(agent.cell, plan, agent.waypoint_index)
        if not rejoined:
            return
        agent.waypoint_index = k + 1
        if agent.mode == MODE_ADAPTING:
            agent.mode = MODE_FOLLOWING
        if k == len(plan.waypoints) - 1:
            agent.mode = MODE_ARRIVED
            agent.outcome = OUTCOME_ARRIVED
            agent.end_clock = t0 + (dt - remaining)

    # -- pursuit ---------------------------------------------------------------

    def _pursuit_update(self, index: int, rule: PursuitRule, dt: float) -> None:
        st = self.pursuit_states[index]
        if st.outcome is not None:
            return
        pu = self.agent(rule.pursuer)
        tg = self.agent(rule.target)
        gap = math.hypot(
            pu.position[0] - tg.position[0], pu.position[1] - tg.position[1]
        )
        if gap <= rule.capture_radius:
            st.outcome = PURSUIT_INTERCEPTION
            st.time_s = self.clock
            tg.mode = MODE_INTERCEPTED
            tg.outcome = OUTCOME_INTERCEPTED
            tg.end_clock = self.clock
            pu.mode = MODE_ARRIVED
            pu.outcome = OUTCOME_ARRIVED
            pu.end_clock = self.clock
            return
        if pu.mode in TERMINAL_MODES:
            return
        h = self.observer_height
        if line_of_sight(self.grid, pu.cell, tg.cell, h, h):
            st.last_seen = tg.cell
            st.los_down_s = 0.0
            pu.chase_cell = tg.cell
            pu.chase_xy = (float(tg.position[0]), float(tg.position[1]))
            pu.edge_source = None  # allow the next decision to re-aim
        else:
            st.los_down_s += dt
            pu.chase_xy = None
            if st.last_seen is not None:
                pu.chase_cell = st.last_seen
            if st.los_down_s >= rule.los_loss_limit:
                st.outcome = PURSUIT_ABANDONED_LOS
                st.time_s = self.clock
                pu.mode = MODE_ABANDONED
                pu.outcome = OUTCOME_ABANDONED
                pu.end_clock = self.clock
                return
        if pu.effort_spent > rule.effort_budget:
            st.outcome = PURSUIT_ABANDONED_EFFORT
            st.time_s = self.clock
            pu.mode = MODE_ABANDONED
            pu.outcome = OUTCOME_ABANDONED
            pu.end_clock = self.clock

    def _trace_record(self, agent: AgentRuntime, t: float) -> TraceRecord:
        if agent.chase_cell is not None or agent.plan is None:
            dev = 0
        else:
            dev = deviation_cells(agent.cell, agent.plan)
        return TraceRecord(
            t_s=t,
            row=agent.cell.row,
            col=agent.cell.col,
            easting=float(agent.position[0]),
            northing=float(agent.position[1]),
            elevation_m=self.grid.elevation(agent.cell),
            mode=agent.mode,
            chi=agent.last_chi,
            action=agent.last_action,
            speed_mps=agent.last_speed,
            d_t_cells=dev,
            effort=agent.effort_spent,
        )


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
    observer_height: float = 1.7
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
        sim = obj.get("sim", {})
        if "seed" not in sim:
            raise ConfigError("config needs sim.seed (runs must be seeded)")
        dt = float(sim.get("dt", 1.0))
        if dt <= 0:
            raise ConfigError("sim.dt must be positive")
        max_sim_time = float(sim.get("max_sim_time", 86400.0))
        if max_sim_time <= 0:
            raise ConfigError("sim.max_sim_time must be positive")

        agents = []
        seen_ids = set()
        for i, a in enumerate(obj.get("agents", [])):
            try:
                spec = AgentSpec(
                    id=str(a["id"]),
                    profile=a["profile"],
                    start=CellIndex(*[int(v) for v in a["start"]]),
                    goal=CellIndex(*[int(v) for v in a["goal"]]),
                    qtable=a.get("qtable"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"agents[{i}]: {exc}") from None
            if spec.id in seen_ids:
                raise ConfigError(f"duplicate agent id {spec.id!r}")
            seen_ids.add(spec.id)
            agents.append(spec)

        obstacles = []
        for i, ob in enumerate(obj.get("obstacles", [])):
            try:
                cells = frozenset(
                    CellIndex(int(r), int(c)) for r, c in ob["cells"]
                )
                schedule = tuple(
                    (float(s), float(e)) for s, e in ob["schedule"]
                )
                obstacles.append(Obstacle(cells, schedule))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"obstacles[{i}]: {exc}") from None

        rules = []
        for i, r in enumerate(obj.get("pursuit_rules", [])):
            try:
                rules.append(PursuitRule(
                    pursuer=str(r["pursuer"]),
                    target=str(r["target"]),
                    los_loss_limit=float(r["los_loss_limit"]),
                    effort_budget=float(r["effort_budget"]),
                    capture_radius=float(r["capture_radius"]),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"pursuit_rules[{i}]: {exc}") from None
        for r in rules:
            for label, aid in (("pursuer", r.pursuer), ("target", r.target)):
                if aid not in seen_ids:
                    raise ConfigError(f"pursuit {label} {aid!r} is not an agent")

        transport = None
        if "transport" in obj:
            tr = obj["transport"]
            try:
                routes = tuple(
                    RouteSpec(
                        name=str(rt.get("name", f"route_{j}")),
                        start=CellIndex(*[int(v) for v in rt["start"]]),
                        goal=CellIndex(*[int(v) for v in rt["goal"]]),
                    )
                    for j, rt in enumerate(tr["routes"])
                )
                transport = TransportSpec(tr["a"], tr["b"], routes)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"transport: {exc}") from None

        return cls(
            terrain=terrain,
            seed=int(sim["seed"]),
            agents=agents,
            profiles=list(obj.get("profiles", [])),
            obstacles=obstacles,
            pursuit_rules=rules,
            dt=dt,
            max_sim_time=max_sim_time,
            observer_height=float(sim.get("observer_height", 1.7)),
            transport=transport,
            outputs=obj.get("outputs"),
            strict=bool(obj.get("strict", False)),
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
        if isinstance(self.terrain, dict):
            return grid_from_recipe(self.terrain)
        text = str(self.terrain)
        if text.endswith(".asc"):
            return parse_ascii_grid((self.base_dir / text).read_text())
        return grid_from_recipe(text)

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
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "dt": self.dt,
            "sim_time_s": self.sim_time_s,
            "agents": self.agents,
            "pursuits": self.pursuits,
            "transport_rows": self.transport_rows,
            "comparisons": self.comparisons,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _resolve_profile(spec, where: str) -> AgentProfile:
    """``profile_from_spec`` with a bad spec reported as a ConfigError."""
    try:
        return profile_from_spec(spec)
    except KeyError as exc:  # unknown base name; str() would add quotes
        raise ConfigError(f"{where}: {exc.args[0]}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _agent_row(agent: AgentRuntime, clock: float) -> dict:
    end = agent.end_clock if agent.end_clock is not None else clock
    duration = end - agent.start_clock
    return {
        "id": agent.id,
        "profile": agent.profile.name,
        "outcome": agent.outcome or OUTCOME_TIMEOUT,
        "duration_s": duration,
        "distance_m": agent.distance_m,
        "avg_speed_mps": agent.distance_m / duration if duration > 0 else 0.0,
        "effort": agent.effort_spent,
    }


def build_world(config: ScenarioConfig) -> World:
    grid = config.resolve_grid()
    registry = config.profile_registry()
    runtimes = []
    for i, spec in enumerate(config.agents):
        if isinstance(spec.profile, str):
            if spec.profile not in registry:
                raise ConfigError(f"unknown profile {spec.profile!r}")
            profile = registry[spec.profile]
        else:
            profile = _resolve_profile(spec.profile, f"agents[{i}].profile")
        for label, cell in (("start", spec.start), ("goal", spec.goal)):
            if not grid.traversable(cell):
                raise ConfigError(
                    f"agent {spec.id!r}: {label} {tuple(cell)} is not traversable"
                )
        qtable = None
        if spec.qtable:
            with open(config.base_dir / spec.qtable) as f:
                qtable, _meta = load_qtable(f)
        runtime = AgentRuntime(
            id=spec.id,
            profile=profile,
            plan=None,
            qtable=qtable,
            qtable_ref=spec.qtable or "",
            cell=spec.start,
            position=np.array(grid.cell_center(spec.start), dtype=float),
        )
        try:
            plan, _stats = planner.astar(grid, profile, spec.start, spec.goal)
            runtime.plan = plan
            runtime.waypoint_index = 1
            if len(plan.waypoints) == 1:
                runtime.mode = MODE_ARRIVED
                runtime.outcome = OUTCOME_ARRIVED
                runtime.end_clock = 0.0
        except NoPathError:
            runtime.mode = MODE_ABANDONED
            runtime.outcome = OUTCOME_NO_PATH
            runtime.end_clock = 0.0
        runtimes.append(runtime)

    for ob in config.obstacles:
        for cell in ob.cells:
            if not grid.in_bounds(cell):
                raise ConfigError(f"obstacle cell {tuple(cell)} out of bounds")

    world = World(
        grid,
        runtimes,
        config.obstacles,
        config.pursuit_rules,
        dt=config.dt,
        observer_height=config.observer_height,
    )
    for rule in config.pursuit_rules:
        world.agent(rule.pursuer).chase_partner = rule.target
    return world


def _simulate(world: World, dt: float, max_sim_time: float) -> None:
    for i, rule in enumerate(world.pursuit_rules):
        world._pursuit_update(i, rule, 0.0)
    while world.clock < max_sim_time - 1e-9 and world.any_active():
        world.step(dt)


def run_scenario(
    config: ScenarioConfig,
) -> tuple[SimReport, dict[str, list[TraceRecord]]]:
    """Simulate the configured agents to termination or the time limit."""
    world = build_world(config)
    _simulate(world, config.dt, config.max_sim_time)
    agents = [_agent_row(a, world.clock) for a in world.agents]
    pursuits = []
    for rule, st in zip(world.pursuit_rules, world.pursuit_states):
        pursuits.append({
            "pursuer": rule.pursuer,
            "target": rule.target,
            "outcome": st.outcome or PURSUIT_TIMEOUT,
            "time_s": st.time_s if st.time_s is not None else world.clock,
        })
    report = SimReport(
        seed=config.seed,
        dt=config.dt,
        sim_time_s=world.clock,
        agents=agents,
        pursuits=pursuits,
        transport_rows=[],
        comparisons=[],
    )
    traces = {a.id: a.trace for a in world.agents}
    return report, traces


def compare_transport(
    config: ScenarioConfig,
) -> tuple[list[dict], list[dict], dict[str, list[TraceRecord]]]:
    """Run both transport profiles over each route and tabulate the contrast.

    Each (route, profile) pair is simulated in isolation on the shared
    terrain, so the comparison reflects terrain and mobility alone.
    """
    if config.transport is None:
        raise ConfigError("config has no transport section")
    registry = config.profile_registry()
    sides = []
    for label, ref in (("a", config.transport.profile_a),
                       ("b", config.transport.profile_b)):
        if isinstance(ref, str):
            if ref not in registry:
                raise ConfigError(f"unknown transport profile {ref!r}")
            sides.append((label, registry[ref]))
        else:
            sides.append((label, _resolve_profile(ref, f"transport.{label}")))

    mode_rows: list[dict] = []
    comparisons: list[dict] = []
    traces: dict[str, list[TraceRecord]] = {}
    for route in config.transport.routes:
        results = {}
        for label, profile in sides:
            agent_id = f"{route.name}__{label}_{profile.name}"
            sub = ScenarioConfig(
                terrain=config.terrain,
                seed=config.seed,
                agents=[AgentSpec(agent_id, profile.name, route.start, route.goal)],
                profiles=[spec for spec in config.profiles],
                dt=config.dt,
                max_sim_time=config.max_sim_time,
                observer_height=config.observer_height,
                base_dir=config.base_dir,
            )
            if profile.name not in sub.profile_registry():
                sub.profiles.append(_profile_as_dict(profile))
            report, sub_traces = run_scenario(sub)
            results[label] = (profile, report.agents[0])
            traces.update(sub_traces)

        (pa, row_a), (pb, row_b) = results["a"], results["b"]
        both_arrived = (
            row_a["outcome"] == OUTCOME_ARRIVED
            and row_b["outcome"] == OUTCOME_ARRIVED
        )
        reduction = None
        difference_s = None
        difference_m = None
        if both_arrived:
            difference_s = row_a["duration_s"] - row_b["duration_s"]
            difference_m = row_a["distance_m"] - row_b["distance_m"]
            reduction = difference_s / row_a["duration_s"] * 100.0
        comparisons.append({
            "route": route.name,
            "start": f"({route.start.row}, {route.start.col})",
            "end": f"({route.goal.row}, {route.goal.col})",
            "a_name": pa.name,
            "a_outcome": row_a["outcome"],
            "a_duration_s": row_a["duration_s"] if row_a["outcome"] != OUTCOME_NO_PATH else None,
            "a_distance_m": row_a["distance_m"] if row_a["outcome"] != OUTCOME_NO_PATH else None,
            "b_name": pb.name,
            "b_outcome": row_b["outcome"],
            "b_duration_s": row_b["duration_s"] if row_b["outcome"] != OUTCOME_NO_PATH else None,
            "b_distance_m": row_b["distance_m"] if row_b["outcome"] != OUTCOME_NO_PATH else None,
            "difference_s": difference_s,
            "difference_m": difference_m,
            "reduction_percent": reduction,
        })
        for (prof, row) in (results["a"], results["b"]):
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


def _profile_as_dict(p: AgentProfile) -> dict:
    out = {
        "name": p.name, "kind": p.kind, "s_flat": p.s_flat,
        "ref_slope": p.ref_slope, "load_kg": p.load_kg, "vessels": p.vessels,
        "max_slope": p.max_slope, "body_radius": p.body_radius, "role": p.role,
    }
    if p.reduction_at_ref is not None:
        out["reduction_at_ref"] = p.reduction_at_ref
    if p.r_slope_at_ref is not None:
        out["r_slope_at_ref"] = p.r_slope_at_ref
    if p.r_load is not None:
        out["r_load"] = p.r_load
    return out


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
