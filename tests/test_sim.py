import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from terramob.agents import builtin_profile
from terramob.cli import main
from terramob.local_adapt import (
    N_ACTIONS, N_STATES, TableMoves, build_local_state, save_qtable,
)
from terramob.planner import astar
from terramob.sim import (
    MAX_SIM_STEPS,
    AgentRuntime,
    ConfigError,
    Obstacle,
    PursuitRule,
    ScenarioConfig,
    World,
    _runtime,
    _simulate,
    build_world,
    compare_transport,
    format_distance,
    format_duration,
    render_comparison_table,
    run_scenario,
    write_trace_csv,
)
from terramob.terrain import CellIndex, ElevationGrid, serialize_ascii_grid

from conftest import _reference_cell_of_point, _reference_effort


def flat_cfg(**overrides):
    base = {
        "terrain": {"recipe": "flat", "nrows": 7, "ncols": 12,
                    "cellsize": 30.0, "h": 0.0},
        "agents": [{"id": "a1", "profile": "fit_adults",
                    "start": [3, 0], "goal": [3, 9]}],
        "sim": {"dt": 1.0, "max_sim_time": 600, "seed": 1},
    }
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


class TestEffortAccrual:
    """A World step's effort on an edge: time * (1 + slope / 100)."""

    @staticmethod
    def walk(run, speed, slope):
        """The effort of one step in which an agent walks ``run`` meters
        east at ``speed`` on ``slope`` percent to a cell centre, where it
        stands (a chase whose sight is lost)."""
        grid = ElevationGrid(3, 1, 0.0, 0.0, 30.0, -9999.0, np.zeros((1, 3)))
        target = CellIndex(0, 2)
        tx, ty = grid.cell_center(target)
        agent = AgentRuntime(
            id="a", profile=builtin_profile("fit_adults"), plan=None,
            position=(tx - run, ty), cell=target, chase_cell=target,
            edge_target=target, edge_target_xy=(tx, ty), edge_speed=speed,
            edge_slope=slope)
        World(grid, [agent], [], [], dt=60.0).step()
        return agent.effort_spent

    def test_flat_edge(self):
        assert self.walk(30.0, 1.5, 0.0) == 20.0

    def test_15_percent_edge(self):
        # 30 m at 1.125 m/s take 26.67 s
        assert self.walk(30.0, 1.125, 15.0) == pytest.approx(30.667, abs=1e-3)

    def test_zero_duration(self):
        assert self.walk(0.0, 1.5, 10.0) == 0.0

    def test_matches_reference_effort(self):
        for run, speed, slope in [(30.0, 1.5, 0.0), (30.0, 0.9, 7.5),
                                  (42.42640687119285, 1.2, 20.0),
                                  (12.5, 0.4, 35.0)]:
            assert self.walk(run, speed, slope) == pytest.approx(
                _reference_effort(run / speed, slope), rel=1e-12)


class TestObstacle:
    def test_schedule_activation(self):
        ob = Obstacle(frozenset({CellIndex(1, 1)}), ((10.0, 20.0), (30.0, 40.0)))
        assert not ob.active(5.0)
        assert ob.active(10.0)
        assert ob.active(19.9)
        assert not ob.active(20.0)
        assert ob.active(35.0)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError):
            Obstacle(frozenset({CellIndex(0, 0)}), ((0.0, 10.0), (5.0, 15.0)))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Obstacle(frozenset({CellIndex(0, 0)}), ((5.0, 5.0),))


class TestStep:
    def test_single_agent_advances_at_flat_speed(self):
        world = build_world(flat_cfg())
        agent = world.agents[0]
        x0 = float(agent.position[0])
        world.step()
        assert float(agent.position[0]) - x0 == pytest.approx(1.5)
        assert float(agent.position[1]) == pytest.approx(agent.position[1])
        assert agent.mode == "following"

    def test_obstacle_on_next_edge_switches_to_adapting(self):
        cfg = flat_cfg(obstacles=[{"cells": [[3, 1]], "schedule": [[0, 500]]}])
        world = build_world(cfg)
        world.step()
        agent = world.agents[0]
        assert agent.last_chi is True
        assert agent.mode == "adapting"

    def test_identical_seeds_identical_traces(self):
        cfg = flat_cfg()
        r1, t1 = run_scenario(cfg)
        r2, t2 = run_scenario(flat_cfg())
        assert t1 == t2
        assert r1.to_json() == r2.to_json()

    def test_speed_ceiling(self):
        report, traces = run_scenario(flat_cfg())
        rows = traces["a1"]
        s_flat = builtin_profile("fit_adults").s_flat
        for prev, cur in zip(rows, rows[1:]):
            moved = math.hypot(cur.easting - prev.easting,
                               cur.northing - prev.northing)
            assert moved <= s_flat * (cur.t_s - prev.t_s) + 1e-9

    def test_monotone_clock_and_waypoints(self):
        report, traces = run_scenario(flat_cfg())
        rows = traces["a1"]
        assert all(b.t_s > a.t_s for a, b in zip(rows, rows[1:]))

    def test_arrival_duration_matches_plan(self):
        cfg = flat_cfg()
        report, _ = run_scenario(cfg)
        grid = cfg.resolve_grid()
        plan, _ = astar(grid, builtin_profile("fit_adults"),
                        CellIndex(3, 0), CellIndex(3, 9))
        row = report.agents[0]
        assert row["outcome"] == "arrived"
        assert abs(row["duration_s"] - plan.total_time) < 1e-6
        assert row["distance_m"] == pytest.approx(plan.total_distance)

    def test_static_obstacle_bypassed_without_table(self):
        cfg = flat_cfg(obstacles=[{"cells": [[3, 5]], "schedule": [[0, 10000]]}])
        report, traces = run_scenario(cfg)
        assert report.agents[0]["outcome"] == "arrived"
        for row in traces["a1"]:
            assert (row.row, row.col) != (3, 5)
        # off-route rows only appear while adapting
        for row in traces["a1"]:
            if row.row != 3:
                assert row.mode == "adapting"

    def test_midedge_appearance_forces_walk_back(self):
        cfg = flat_cfg(obstacles=[{"cells": [[3, 5]], "schedule": [[85, 10000]]}])
        report, traces = run_scenario(cfg)
        assert report.agents[0]["outcome"] == "arrived"
        for row in traces["a1"]:
            if row.t_s >= 85.0:
                assert (row.row, row.col) != (3, 5)

    def test_vanishing_obstacle_releases_the_route(self):
        # blocked only briefly: the agent adapts, then resumes following
        cfg = flat_cfg(obstacles=[{"cells": [[3, 5]], "schedule": [[0, 90]]}])
        report, traces = run_scenario(cfg)
        assert report.agents[0]["outcome"] == "arrived"
        modes = [row.mode for row in traces["a1"]]
        assert "adapting" in modes
        assert modes[-1] == "arrived"
        clear_plan = flat_cfg()
        baseline, _ = run_scenario(clear_plan)
        # the detour costs something relative to an unobstructed run
        assert report.agents[0]["duration_s"] >= baseline.agents[0]["duration_s"]

    def test_blocked_agent_with_table_takes_its_argmax(self):
        cfg = flat_cfg(obstacles=[{"cells": [[3, 1]], "schedule": [[0, 500]]}])
        world = build_world(cfg)
        agent = world.agents[0]
        state = build_local_state(agent.edges, {CellIndex(3, 1)}.__contains__,
                                  agent.cell, agent.plan, agent.waypoint_index)
        q = np.zeros((N_STATES, N_ACTIONS))
        q[state, 3] = 4.0  # se, not the zero argmax
        agent.qtable = TableMoves(q)
        world.step()
        assert agent.last_chi is True
        assert agent.last_action == "se"

    def test_off_route_follower_yields_to_a_blocked_step(self):
        # two cells above its route, the follower's waypoint (3, 1) is
        # clear, but its cheapest step toward it, south onto (2, 1), is an
        # obstacle cell until 5 s: it stands until then, then moves on
        cfg = flat_cfg(obstacles=[{"cells": [[2, 1]], "schedule": [[0, 5]]}])
        world = build_world(cfg)
        agent = world.agents[0]
        agent.cell = CellIndex(1, 1)
        agent.position = world.grid.cell_center(agent.cell)
        for _ in range(6):
            world.step()
        rows = agent.trace[1:]
        assert [(r.chi, r.action, r.speed_mps) for r in rows] == (
            [(False, "stay", 0.0)] * 5 + [(False, "s", 1.5)])
        assert all((r.row, r.col, r.mode) == (1, 1, "adapting") for r in rows)

    def test_agents_naming_one_table_file_share_its_moves(self, tmp_path):
        q = np.zeros((N_STATES, N_ACTIONS))
        q[7, 2] = 1.0
        with open(tmp_path / "q.txt", "w") as f:
            save_qtable(q, f, gamma=0.95, alpha=0.1, seed=0, episodes=0)
        with open(tmp_path / "r.txt", "w") as f:
            save_qtable(q, f, gamma=0.95, alpha=0.1, seed=0, episodes=0)
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "flat", "nrows": 7, "ncols": 12,
                        "cellsize": 30.0, "h": 0.0},
            "agents": [{"id": f"a{r}", "profile": "fit_adults",
                        "start": [r, 0], "goal": [r, 9], "qtable": name}
                       for r, name in ((1, "q.txt"), (3, "q.txt"),
                                       (5, "r.txt"))],
            "sim": {"dt": 1.0, "max_sim_time": 100, "seed": 1},
        }, base_dir=tmp_path)
        a, b, c = build_world(cfg).agents
        # one memo per file: equal tables in two files are two memos
        assert type(a.qtable) is TableMoves and a.qtable is b.qtable
        assert c.qtable is not a.qtable and c.qtable.q is not a.qtable.q
        assert np.array_equal(a.qtable.q, q)

    @pytest.mark.parametrize("a_start, a_goal, b_duration", [
        ([2, 5], [2, 8], 160.0),  # shared goal: b timed out after 3000 m
        ([0, 4], [2, 4], 160.0),  # goal on b's route: b took 200 s
    ])
    def test_finished_agent_leaves_the_scene(self, a_start, a_goal,
                                             b_duration):
        cfg = flat_cfg(
            terrain={"recipe": "flat", "nrows": 5, "ncols": 9,
                     "cellsize": 30.0, "h": 0.0},
            agents=[{"id": "a", "profile": "fit_adults",
                     "start": a_start, "goal": a_goal},
                    {"id": "b", "profile": "fit_adults",
                     "start": [2, 0], "goal": [2, 8]}],
            sim={"dt": 1.0, "max_sim_time": 2000, "seed": 1})
        report, _traces = run_scenario(cfg)
        b = report.agents[1]
        assert b["outcome"] == "arrived"
        assert b["duration_s"] == pytest.approx(b_duration)
        assert b["distance_m"] == pytest.approx(240.0)

    def test_untrained_bypass_aims_past_the_blocked_waypoint(self):
        # a one-cell bar on a straight route; aiming at the bar itself
        # took an orthogonal staircase of 270 m
        cfg = flat_cfg(
            terrain={"recipe": "flat", "nrows": 6, "ncols": 8, "h": 0.0},
            agents=[{"id": "a", "profile": "fit_adults",
                     "start": [2, 0], "goal": [2, 7]}],
            obstacles=[{"cells": [[2, 4]], "schedule": [[0, 1000]]}])
        report, _traces = run_scenario(cfg)
        a = report.agents[0]
        assert a["outcome"] == "arrived"
        assert a["distance_m"] == pytest.approx(150.0 + 60.0 * math.sqrt(2))
        assert a["duration_s"] == pytest.approx(a["distance_m"] / 1.5)

    def test_bar_beside_a_hole_costs_no_detour(self, tmp_path):
        # the route bends round the nodata hole at (1,2) beside a standing
        # bar at (0,3); the agent adapts there and walks the route it
        # would walk without the bar
        values = np.arange(4.0)[:, None] + np.arange(5.0)
        values[1, 2] = -9999.0
        (tmp_path / "rows.asc").write_text(serialize_ascii_grid(
            ElevationGrid(5, 4, 0.0, 0.0, 30.0, -9999.0, values)))

        def walk(obstacles):
            return run_scenario(ScenarioConfig.from_dict({
                "terrain": "rows.asc",
                "agents": [{"id": "h", "profile": "fit_adults",
                            "start": [1, 0], "goal": [1, 4]}],
                "obstacles": obstacles,
                "sim": {"dt": 1.0, "max_sim_time": 600, "seed": 1},
            }, base_dir=tmp_path))

        clear, _ = walk([])
        barred, traces = walk([{"cells": [[0, 3]], "schedule": [[0, 1000]]}])
        (free,), (h,) = clear.agents, barred.agents
        assert free["outcome"] == h["outcome"] == "arrived"
        assert "adapting" in {row.mode for row in traces["h"]}
        assert h["distance_m"] == pytest.approx(free["distance_m"])

    def test_agents_carrying_a_trained_table_sidestep_diagonally(
            self, tmp_path):
        # two agents name one short training's table, each blocked by a
        # one-cell bar: each passes it on the diagonals
        assert main(["train", "--episodes", "200", "--seed", "7",
                     "--out", str(tmp_path / "qt")]) == 0
        cfg = flat_cfg(
            terrain={"recipe": "flat", "nrows": 6, "ncols": 8, "h": 0.0},
            agents=[{"id": a, "profile": "fit_adults", "start": [r, 0],
                     "goal": [r, 7], "qtable": "qt/qtable.txt"}
                    for a, r in (("q", 2), ("r", 4))],
            obstacles=[{"cells": [[r, 4]], "schedule": [[0, 1000]]}
                       for r in (2, 4)])
        cfg.base_dir = tmp_path
        report, _traces = run_scenario(cfg)
        for a in report.agents:
            assert a["outcome"] == "arrived"
            assert a["distance_m"] == pytest.approx(150.0 + 60.0 * math.sqrt(2))

    def test_crossing_diagonals_yield_by_id(self):
        # both reach the shared corner in the same step and each disc
        # touches the other's destination; only the higher id walks back
        cfg = flat_cfg(
            terrain={"recipe": "flat", "nrows": 4, "ncols": 4, "h": 0.0},
            agents=[{"id": "a", "profile": "fit_adults",
                     "start": [1, 1], "goal": [2, 2]},
                    {"id": "b", "profile": "fit_adults",
                     "start": [1, 2], "goal": [2, 1]}],
            sim={"dt": 1.0, "max_sim_time": 600, "seed": 1})
        report, _traces = run_scenario(cfg)
        a, b = report.agents
        assert a["outcome"] == "arrived" and b["outcome"] == "arrived"
        assert a["distance_m"] == pytest.approx(30.0 * math.sqrt(2))
        assert b["distance_m"] > a["distance_m"]

    def test_cone_crossing_every_agent_arrives(self):
        agents = [{"id": f"a{i:03d}", "profile": "fit_adults",
                   "start": [7 * i % 64, 0], "goal": [63 - 7 * i % 64, 63]}
                  for i in range(8)]
        cfg = flat_cfg(
            terrain={"recipe": "cone", "nrows": 64, "ncols": 64,
                     "peak": 200.0, "radius": 900.0},
            agents=agents,
            sim={"dt": 1.0, "max_sim_time": 20000, "seed": 1})
        report, _traces = run_scenario(cfg)
        assert [a["outcome"] for a in report.agents] == ["arrived"] * 8
        assert report.sim_time_s < 2400.0

    def test_trace_holds_plain_floats(self):
        # numpy scalars in the grid geometry must not reach the trace text
        grid = ElevationGrid(4, 4, np.float64(0.0), 0.0, np.float64(30.0),
                             -9999.0, np.zeros((4, 4)))
        world = build_world(flat_cfg(agents=[
            {"id": "a", "profile": "fit_adults", "start": [0, 0],
             "goal": [3, 3]}]), grid)
        for _ in range(3):
            world.step()
        buf = io.StringIO()
        write_trace_csv(world.agents[0].trace, buf)
        assert "np." not in buf.getvalue()

    def test_invalid_dt(self):
        grid = build_world(flat_cfg()).grid
        with pytest.raises(ValueError, match="dt must be positive"):
            World(grid, [], [], [], dt=0.0)

    def test_no_path_agent_reported(self, tmp_path):
        from terramob.terrain import make_synthetic, serialize_ascii_grid
        grid = make_synthetic("flat", nrows=7, ncols=12, cellsize=30.0, h=0.0)
        moat = grid.with_nodata([CellIndex(r, 5) for r in range(7)])
        (tmp_path / "moat.asc").write_text(serialize_ascii_grid(moat))
        cfg = ScenarioConfig.from_dict({
            "terrain": "moat.asc",
            "agents": [{"id": "a1", "profile": "fit_adults",
                        "start": [3, 0], "goal": [3, 9]}],
            "sim": {"dt": 1.0, "max_sim_time": 100, "seed": 1},
        }, base_dir=tmp_path)
        report, _ = run_scenario(cfg)
        assert report.agents[0]["outcome"] == "no_path"
        assert report.agents[0]["duration_s"] == 0.0

    def test_sealed_corner_agent_reported_no_path(self, tmp_path):
        # 3x3 checkerboard: (0,0) reaches (2,2) only through sealed corners
        from terramob.terrain import make_synthetic
        grid = make_synthetic("flat", nrows=3, ncols=3, cellsize=30.0, h=0.0)
        board = grid.with_nodata([CellIndex(0, 1), CellIndex(1, 0),
                                  CellIndex(1, 2), CellIndex(2, 1)])
        (tmp_path / "board.asc").write_text(serialize_ascii_grid(board))
        cfg = ScenarioConfig.from_dict({
            "terrain": "board.asc",
            "agents": [{"id": "a1", "profile": "fit_adults",
                        "start": [0, 0], "goal": [2, 2]}],
            "sim": {"dt": 1.0, "max_sim_time": 100, "seed": 1},
        }, base_dir=tmp_path)
        report, _ = run_scenario(cfg)
        assert report.agents[0]["outcome"] == "no_path"


def walls_cfg(seed: int, dt: float) -> ScenarioConfig:
    """Two agents crossing bars whose schedules start at 0, run back to
    back, end off the ``dt`` grid and share a cell, plus seeded bars."""
    rng = random.Random(seed)
    obstacles = [
        {"cells": [[3, 1], [2, 1]], "schedule": [[0.0, 2.5], [2.5, 7.25]]},
        {"cells": [[3, 1]], "schedule": [[7.25, 31.5], [40.0, 52.75]]},
    ]
    for _ in range(rng.randint(1, 3)):
        cells = [[rng.randint(0, 6), rng.randint(1, 8)]
                 for _ in range(rng.randint(1, 3))]
        t = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 20.0)
        schedule = []
        for _ in range(rng.randint(1, 3)):
            end = t + rng.choice([0.25, 2.5, rng.uniform(0.1, 40.0)])
            schedule.append([t, end])
            t = end if rng.random() < 0.5 else end + rng.uniform(0.1, 10.0)
        obstacles.append({"cells": cells, "schedule": schedule})
    return flat_cfg(
        agents=[{"id": "a1", "profile": "fit_adults", "start": [3, 0],
                 "goal": [3, 9]},
                {"id": "a2", "profile": "elderly", "start": [0, 5],
                 "goal": [6, 5]}],
        obstacles=obstacles,
        sim={"dt": dt, "max_sim_time": 600, "seed": seed})


class TestWallsSnapshot:
    """``World.step`` rebuilds its obstacle snapshot only at schedule
    boundaries; the snapshot must still be the obstacles active at t0."""

    @pytest.mark.parametrize("dt", [1.0, 0.75])
    @pytest.mark.parametrize("seed", range(8))
    def test_walls_are_the_obstacles_active_at_step_start(self, seed, dt):
        world = build_world(walls_cfg(seed, dt))
        for _ in range(int(80 / dt)):
            t0 = world.clock
            world.step()
            assert world._walls == set().union(
                *(ob.cells for ob in world.obstacles if ob.active(t0)))

    @pytest.mark.parametrize("seed", range(4))
    def test_blocked_run_repeats_and_matches_a_rebuild_every_step(self, seed):
        cfg = walls_cfg(seed, 1.0)
        report, traces = run_scenario(cfg)
        again, traces_again = run_scenario(cfg)
        assert report.to_json() == again.to_json()
        assert traces == traces_again
        assert any(row.chi for row in traces["a1"])
        world = build_world(cfg)
        while world.clock < cfg.max_sim_time - 1e-9 and world.active:
            world._walls_until = -math.inf
            world.step()
        assert {a.id: a.trace for a in world.agents} == traces


class TestBlocker:
    """``World._blocker`` (every decision) and the walk-back query
    (``World._blocks`` with ``lower_ids_only``) against their rule written
    with min/max clamps, on snapshots with unsorted and repeated ids, a
    chase partner and walls."""

    @staticmethod
    def reference(world, agent, lower_ids_only, cell):
        if cell in world._walls:
            return True
        g = world.grid
        x0 = g.xll + cell.col * g.cellsize
        y1 = g.yll + (g.nrows - cell.row) * g.cellsize
        x1, y0 = x0 + g.cellsize, y1 - g.cellsize
        for aid, x, y, r2 in world._discs:
            if aid in (agent.id, agent.chase_partner) or (
                    lower_ids_only and aid > agent.id):
                continue
            cx, cy = min(max(x, x0), x1), min(max(y, y0), y1)
            if (x - cx) ** 2 + (y - cy) ** 2 <= r2:
                return True
        return False

    # disc centres on, just off and inside the 30 m cell lines, radii that
    # make some of them touch a rectangle exactly
    coords = st.tuples(st.integers(0, 4), st.sampled_from(
        [-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 15.0, 29.75, 30.0]))
    discs = st.lists(st.tuples(
        st.sampled_from(["a", "b", "c", "d"]), coords, coords,
        st.sampled_from([0.25, 0.5, 20.0])), max_size=4)

    @settings(max_examples=150, deadline=None)
    @given(discs, st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          max_size=2))
    def test_matches_closed_rectangle_rule(self, discs, walls):
        cfg = flat_cfg(
            terrain={"recipe": "flat", "nrows": 4, "ncols": 4, "h": 0.0},
            agents=[{"id": i, "profile": "fit_adults", "start": [0, k],
                     "goal": [3, k]} for k, i in enumerate("abcd")],
            sim={"dt": 1.0, "max_sim_time": 600, "seed": 1})
        world = build_world(cfg)
        world.agents[2].chase_partner = "a"  # agent "c"
        world._walls = {CellIndex(*w) for w in walls}
        world._discs = [(aid, c * 30.0 + dx, r * 30.0 + dy, rad ** 2)
                        for aid, (c, dx), (r, dy), rad in discs]
        for agent in world.agents:
            blocked = world._blocker(agent)
            for cell in np.ndindex(4, 4):
                cell = CellIndex(*cell)
                assert blocked(cell) == self.reference(
                    world, agent, False, cell)
                walked_back = world._blocks(agent.id, agent.chase_partner,
                                            True, cell)
                assert walked_back == self.reference(world, agent, True, cell)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A directory holding ``qt/qtable.txt`` from ``terramob train
    --episodes 5000 --seed 7``."""
    work = tmp_path_factory.mktemp("trained")
    assert main(["train", "--episodes", "5000", "--seed", "7",
                 "--out", str(work / "qt")]) == 0
    return work


def _outcomes(work, values, cellsize, agents, bar, until, max_sim_time):
    """Each agent's (outcome, duration_s): ``agents`` holds the (start,
    goal, carries the table in ``work``) of ``fit_adults`` agents walking
    on the ``values`` grid past ``bar``, present for [0, ``until``] s."""
    nrows, ncols = values.shape
    (work / "grid.asc").write_text(serialize_ascii_grid(ElevationGrid(
        ncols, nrows, 0.0, 0.0, cellsize, -9999.0, values)))
    specs = [{"id": f"a{i}", "profile": "fit_adults", "start": start,
              "goal": goal, **({"qtable": "qt/qtable.txt"} if qtable else {})}
             for i, (start, goal, qtable) in enumerate(agents)]
    cfg = ScenarioConfig.from_dict({
        "terrain": "grid.asc", "agents": specs,
        "obstacles": [{"cells": bar, "schedule": [[0.0, until]]}],
        "sim": {"dt": 1.0, "max_sim_time": max_sim_time, "seed": 1},
    }, base_dir=work)
    report, _traces = run_scenario(cfg)
    return [(a["outcome"], a["duration_s"]) for a in report.agents]


class TestTrainedAgentOnSteepGround:
    """A trained agent's state marks a move steeper than ``max_slope``
    closed, as it marks a hole; its table's move is the best open one, and
    a state training never reached sidesteps by cost, so it does not stand
    before a closed move."""

    def test_steep_rows_beside_the_bar(self, trained_dir):
        # a 7 x 20 grid of 30 m cells whose rows 4-6 stand 100 m high
        values = np.zeros((7, 20))
        values[4:] = 100.0

        def walk(qtable):
            (got,) = _outcomes(trained_dir, values, 30.0,
                               [([3, 0], [3, 19], qtable)], [[3, 10]],
                               2000.0, 6000)
            return got

        untrained = walk(qtable=False)
        assert untrained == ("arrived", pytest.approx(396.5685424949234))
        outcome, duration = walk(qtable=True)
        assert outcome == "arrived" and duration <= 1.1 * untrained[1]

    def test_spike_beside_a_three_cell_bar(self, trained_dir):
        # 7.5 m cells; the 9 m spike at (1,5) makes every step onto it
        # 120 % steep
        values = np.zeros((7, 10))
        values[1, 5] = 9.0
        ((outcome, _duration),) = _outcomes(
            trained_dir, values, 7.5, [([3, 0], [3, 9], True)],
            [[2, 5], [3, 5], [4, 5]], 1000.0, 600)
        assert outcome == "arrived"

    def test_short_table_beside_a_spike_and_a_one_cell_bar(self, tmp_path):
        # the benchmark's table and a 9 m spike at (5,5). South of the bar
        # the spike's closed bit gives a state this short training never
        # reached; its row is all zero, so the tabled agent sidesteps by
        # cost instead of walking n into the bar. An untrained agent plans
        # round the spike beside it.
        assert main(["train", "--episodes", "100", "--epsilon-decay", "40",
                     "--seed", "7", "--out", str(tmp_path / "qt")]) == 0
        values = np.zeros((7, 10))
        values[5, 5] = 9.0
        outcomes = _outcomes(
            tmp_path, values, 7.5,
            [([3, 0], [3, 9], True), ([5, 0], [5, 9], False)], [[3, 5]],
            1000.0, 600)
        assert [outcome for outcome, _duration in outcomes] == ["arrived"] * 2


class TestInlinedStepArithmetic:
    """Both branches of a ``World.step`` move agree bit for bit with the
    references of its effort and cell rules (tests/conftest.py)."""

    origins = st.floats(-1e6, 1e6)
    cellsizes = st.sampled_from([0.5, 1.0, 30.0]) | st.floats(0.01, 500.0)
    targets = st.tuples(st.integers(0, 5), st.integers(0, 5))
    speeds = st.sampled_from([1.5]) | st.floats(0.05, 3.0)
    slopes = st.sampled_from([0.0, 7.5]) | st.floats(0, 60)
    dts = st.sampled_from([10.0, 1.0, 0.25]) | st.floats(1e-3, 200.0)

    @staticmethod
    def grid(xll, yll, cellsize):
        return ElevationGrid(6, 6, xll, yll, cellsize, -9999.0,
                             np.zeros((6, 6)))

    @staticmethod
    def check_step(grid, start, target, speed, slope, dt):
        target = CellIndex(*target)
        tx, ty = grid.cell_center(target)
        # a chase on the target cell with sight lost: after arriving there
        # the agent stands, so the step's effort is one accrual
        agent = AgentRuntime(
            id="a", profile=builtin_profile("fit_adults"), plan=None,
            position=start, cell=target, chase_cell=target,
            edge_target=target, edge_target_xy=(tx, ty), edge_speed=speed,
            edge_slope=slope)
        world = World(grid, [agent], [], [], dt=dt)
        world.step()
        dx, dy = tx - start[0], ty - start[1]
        dist = math.hypot(dx, dy)
        if dist / speed <= dt:
            assert agent.position == (tx, ty) and agent.cell == target
            want = _reference_effort(dist / speed, slope)
        else:
            moved = speed * dt
            assert agent.position == (start[0] + dx / dist * moved,
                                      start[1] + dy / dist * moved)
            assert agent.cell == _reference_cell_of_point(
                grid, *agent.position)
            want = _reference_effort(dt, slope)
        assert agent.effort_spent.hex() == want.hex()

    @settings(max_examples=300, deadline=None)
    @given(origins, origins, cellsizes,
           st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
           targets, speeds, slopes, dts)
    def test_matches_effort_accrual_and_cell_of_point(
            self, xll, yll, cellsize, at, target, speed, slope, dt):
        start = (xll + at[0] * 6 * cellsize, yll + at[1] * 6 * cellsize)
        self.check_step(self.grid(xll, yll, cellsize), start, target, speed,
                        slope, dt)

    @settings(max_examples=300, deadline=None)
    @given(origins, origins, cellsizes, st.integers(1, 5), targets,
           st.booleans(), speeds, slopes, dts)
    def test_axis_aligned_move_ending_on_a_cell_line(
            self, xll, yll, cellsize, line, target, along_x, speed, slope,
            dt):
        # where floor() of the cell arithmetic is most sensitive to rounding
        grid = self.grid(xll, yll, cellsize)
        tx, ty = grid.cell_center(CellIndex(*target))
        moved = speed * dt
        if along_x:
            b = xll + line * cellsize
            start = (b - moved if b < tx else b + moved, ty)
        else:
            b = yll + line * cellsize
            start = (tx, b - moved if b < ty else b + moved)
        self.check_step(grid, start, target, speed, slope, dt)


@st.composite
def origin_crossings(draw):
    """Agents crossing, both ways, the lines x = 0 and y = 0 of a grid whose
    origin puts a cell centre (odd k) or an edge midpoint (even k) on each
    of them, with a bar that may force walk-backs."""
    nrows, ncols = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    kx = draw(st.integers(1, 2 * ncols - 1))
    ky = draw(st.integers(1, 2 * nrows - 1))
    terrain = draw(st.sampled_from([
        {"recipe": "flat", "h": 0.0},
        {"recipe": "cone", "peak": 20.0, "radius": 120.0}]))
    terrain.update(nrows=nrows, ncols=ncols, cellsize=30.0,
                   xll=-15.0 * kx, yll=-15.0 * ky)
    agents = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # west-east or east-west
            ends = [[draw(st.integers(0, nrows - 1)), 0],
                    [draw(st.integers(0, nrows - 1)), ncols - 1]]
        else:  # north-south or south-north
            ends = [[0, draw(st.integers(0, ncols - 1))],
                    [nrows - 1, draw(st.integers(0, ncols - 1))]]
        start, goal = ends[::-1] if draw(st.booleans()) else ends
        agents.append({"id": f"a{i}", "start": start, "goal": goal,
                       "profile": draw(st.sampled_from(
                           ["fit_adults", "elderly", "families"]))})
    bar = [draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))]
    t0 = draw(st.sampled_from([5.0, 20.0, 45.0]))
    return flat_cfg(terrain=terrain, agents=agents,
                    obstacles=[{"cells": [bar], "schedule": [[t0, t0 + 60]]}],
                    sim={"dt": draw(st.sampled_from([1.0, 0.5, 2.5])),
                         "max_sim_time": 400, "seed": 1})


class TestZeroCoordinates:
    """The step keeps the object of a coordinate whose step is zero, which
    writes the same trace bytes only if no position is ever -0.0."""

    @settings(max_examples=60, deadline=None)
    @given(origin_crossings())
    # a0, kept off its goal by the bar, walks north and back south through
    # (1, 1) within one step: its new edge targets the cell object its
    # last edge started from
    @example(flat_cfg(
        terrain={"recipe": "flat", "nrows": 3, "ncols": 3, "cellsize": 30.0,
                 "h": 0.0, "xll": -15.0, "yll": -15.0},
        agents=[{"id": "a0", "profile": "fit_adults", "start": [0, 2],
                 "goal": [2, 0]},
                {"id": "a1", "profile": "fit_adults", "start": [0, 0],
                 "goal": [2, 0]}],
        obstacles=[{"cells": [[2, 0]], "schedule": [[20.0, 80.0]]}],
        sim={"dt": 1.0, "max_sim_time": 400, "seed": 1}))
    def test_no_position_is_negative_zero(self, cfg):
        world = build_world(cfg)
        # the agents that reach a cell centre in a step; cells are shared
        # edge-table objects, so a new edge can target the object of the
        # old one (X -> Y, then Y -> X) and identity cannot tell
        centred = set()
        at_center = world._at_center

        def spy(agent, *args):
            centred.add(agent.id)
            at_center(agent, *args)

        world._at_center = spy
        while world.clock < cfg.max_sim_time - 1e-9 and world.active:
            centred.clear()
            world.step()
            for a in world.agents:
                # the step moved the agent along one edge, forward or walked
                # back, without reaching a cell centre
                if a.edge_target is None or a.id in centred:
                    continue
                row, prev = a.trace[-1], a.trace[-2]
                for field in ("easting", "northing"):
                    if getattr(row, field) == getattr(prev, field):
                        assert getattr(row, field) is getattr(prev, field)
        for a in world.agents:
            for row in a.trace:
                for v in (row.easting, row.northing):
                    assert math.copysign(1.0, v) == 1.0 or v != 0.0


class TestPursuit:
    @staticmethod
    def flat_chase_cfg():
        return ScenarioConfig.from_dict({
            "terrain": {"recipe": "flat", "nrows": 5, "ncols": 40,
                        "cellsize": 30.0, "h": 0.0},
            "agents": [
                {"id": "p", "profile": "hostile", "start": [2, 2], "goal": [2, 12]},
                {"id": "t", "profile": "elderly", "start": [2, 12], "goal": [2, 32]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 1e6, "effort_budget": 1e6,
                               "capture_radius": 2.0}],
            "sim": {"dt": 1.0, "max_sim_time": 2000, "seed": 3},
        })

    def test_flat_interception_closed_form(self):
        report, _ = run_scenario(self.flat_chase_cfg())
        pu = report.pursuits[0]
        assert pu["outcome"] == "interception"
        predicted = (10 * 30.0 - 2.0) / (1.8 - 1.0)
        assert abs(pu["time_s"] - predicted) / predicted < 0.05
        outcomes = {a["id"]: a["outcome"] for a in report.agents}
        assert outcomes == {"p": "arrived", "t": "intercepted"}

    def test_directly_built_world_chases_as_build_world_does(self):
        # the World itself makes the target its pursuer's chase partner, so
        # the target's disc does not block the pursuer's greedy steps
        cfg = self.flat_chase_cfg()
        grid = cfg.resolve_grid()
        agents = [
            _runtime(grid, "p", builtin_profile("hostile"),
                     CellIndex(2, 2), CellIndex(2, 12)),
            _runtime(grid, "t", builtin_profile("elderly"),
                     CellIndex(2, 12), CellIndex(2, 32)),
        ]
        direct = World(grid, agents, [], cfg.pursuit_rules, dt=cfg.dt)
        assert agents[0].chase_partner == "t"
        _simulate(direct, cfg.max_sim_time)
        built = build_world(cfg)
        _simulate(built, cfg.max_sim_time)
        (d,), (b,) = direct.pursuits, built.pursuits
        assert d.outcome == b.outcome == "interception"
        assert d.time_s == b.time_s == 373.0

    def test_chase_cell_holds_the_last_seen_cell_while_hidden(self):
        # the target walks behind the ridge and on to its goal; the pursuer
        # keeps aiming at the cell where it last saw it
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "ridge", "nrows": 21, "ncols": 31,
                        "cellsize": 30.0, "height": 60.0, "position": 15},
            "agents": [
                {"id": "p", "profile": "hostile", "start": [2, 2], "goal": [2, 16]},
                {"id": "t", "profile": "fit_adults", "start": [2, 16],
                 "goal": [18, 17]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 120.0, "effort_budget": 1e6,
                               "capture_radius": 2.0}],
            "sim": {"dt": 1.0, "max_sim_time": 3600, "seed": 5},
        })
        world = build_world(cfg)
        (p,) = world.pursuits
        seen, hidden_cells = None, set()
        while p.outcome is None:
            world.step()
            if p.los_visible:
                seen = p.target.cell
                assert p.pursuer.chase_cell == seen
            elif p.outcome is None:
                assert seen is not None
                assert p.pursuer.chase_cell == seen
                assert p.pursuer.chase_xy is None
                hidden_cells.add(p.target.cell)
        assert p.outcome == "abandonment_los"
        assert len(hidden_cells - {seen}) >= 3

    @pytest.mark.xfail(strict=True, reason="a pursuit can still capture a "
                       "target that has arrived (ROADMAP item 5)")
    def test_an_arrived_target_is_not_intercepted(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "flat", "nrows": 8, "ncols": 8, "h": 0.0},
            "agents": [
                {"id": "p", "profile": "elderly", "start": [6, 0], "goal": [0, 3]},
                {"id": "t", "profile": "fit_adults", "start": [0, 0],
                 "goal": [0, 3]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 1e6, "effort_budget": 1e6,
                               "capture_radius": 2.0}],
            "sim": {"dt": 1.0, "max_sim_time": 3000, "seed": 1},
        })
        report, traces = run_scenario(cfg)
        outcomes = {a["id"]: a["outcome"] for a in report.agents}
        assert outcomes["t"] == traces["t"][-1].mode

    def test_line_of_sight_asked_once_per_cell_pair_change(self, monkeypatch):
        from terramob import sim
        los = sim.line_of_sight
        calls = []

        def counting_los(grid, a, b, h_a, h_b):
            calls.append((a, b))
            return los(grid, a, b, h_a, h_b)

        monkeypatch.setattr(sim, "line_of_sight", counting_los)
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "ramp", "nrows": 12, "ncols": 40,
                        "cellsize": 30.0, "slope": 4.0},
            "agents": [
                {"id": "p", "profile": "hostile", "start": [2, 2], "goal": [2, 12]},
                {"id": "t", "profile": "elderly", "start": [2, 12],
                 "goal": [10, 32]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 1e6, "effort_budget": 1e6,
                               "capture_radius": 2.0}],
            "sim": {"dt": 1.0, "max_sim_time": 3000, "seed": 3},
        })
        report, traces = run_scenario(cfg)
        assert report.pursuits[0]["outcome"] == "interception"
        # one pursuit update per trace row; the interception row asks no
        # sight line
        pairs = [((a.row, a.col), (b.row, b.col))
                 for a, b in zip(traces["p"][:-1], traces["t"][:-1])]
        changes = [q for i, q in enumerate(pairs) if i == 0 or q != pairs[i - 1]]
        assert len(pairs) > 2 * len(changes)
        assert calls == changes

    def test_unseen_target_on_route_does_not_block_its_pursuer(self, tmp_path):
        # the pursuer's route runs through its target's cell; the 50 m pillars
        # at (1,2) and (2,1) seal the diagonal's corner, so the target is out
        # of sight and the pursuer follows its route, which the chase partner
        # does not block
        rows = [[0.0] * 6 for _ in range(5)]
        rows[1][2] = rows[2][1] = 50.0
        grid = ElevationGrid(6, 5, 0.0, 0.0, 30.0, -9999.0, np.array(rows))
        (tmp_path / "pillars.asc").write_text(serialize_ascii_grid(grid))
        cfg = ScenarioConfig.from_dict({
            "terrain": "pillars.asc",
            "agents": [
                {"id": "p", "profile": "hostile", "start": [1, 1], "goal": [3, 3]},
                {"id": "t", "profile": "elderly", "start": [2, 2], "goal": [2, 2]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 1e6, "effort_budget": 1e6,
                               "capture_radius": 1.0}],
            "sim": {"dt": 1.0, "max_sim_time": 200, "seed": 1},
        }, base_dir=tmp_path)
        report, traces = run_scenario(cfg)
        assert report.pursuits[0]["outcome"] == "interception"
        assert report.pursuits[0]["time_s"] == 24.0
        chase = traces["p"][:-1]
        assert (chase[-1].row, chase[-1].col) == (2, 2)  # walked into t's cell
        assert all(r.mode == "following" and not r.chi for r in chase)
        assert traces["p"][-1].mode == "arrived"

    def test_ridge_occlusion_abandonment(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "ridge", "nrows": 21, "ncols": 31,
                        "cellsize": 30.0, "height": 60.0, "position": 15},
            "agents": [
                {"id": "p", "profile": "hostile", "start": [2, 2], "goal": [2, 16]},
                {"id": "t", "profile": "fit_adults", "start": [2, 16],
                 "goal": [18, 17]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 120.0, "effort_budget": 1e6,
                               "capture_radius": 2.0}],
            "sim": {"dt": 1.0, "max_sim_time": 3600, "seed": 5},
        })
        report, _ = run_scenario(cfg)
        pu = report.pursuits[0]
        assert pu["outcome"] == "abandonment_los"
        assert pu["time_s"] >= 120.0
        outcomes = {a["id"]: a["outcome"] for a in report.agents}
        assert outcomes["p"] == "abandoned"
        assert outcomes["t"] == "arrived"

    def test_zero_effort_budget_immediate_abandonment(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "flat", "nrows": 5, "ncols": 20,
                        "cellsize": 30.0, "h": 0.0},
            "agents": [
                {"id": "p", "profile": "hostile", "start": [2, 0], "goal": [2, 10]},
                {"id": "t", "profile": "elderly", "start": [2, 10], "goal": [2, 19]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 1e6, "effort_budget": 0.0,
                               "capture_radius": 2.0}],
            "sim": {"dt": 1.0, "max_sim_time": 600, "seed": 5},
        })
        report, _ = run_scenario(cfg)
        pu = report.pursuits[0]
        assert pu["outcome"] == "abandonment_effort"
        assert pu["time_s"] == 1.0

    def test_pursuit_terminates_in_exactly_one_outcome(self):
        for seed in (3, 5):
            cfg = ScenarioConfig.from_dict({
                "terrain": {"recipe": "flat", "nrows": 5, "ncols": 30,
                            "cellsize": 30.0, "h": 0.0},
                "agents": [
                    {"id": "p", "profile": "hostile", "start": [2, 0],
                     "goal": [2, 10]},
                    {"id": "t", "profile": "fit_adults", "start": [2, 10],
                     "goal": [2, 29]},
                ],
                "pursuit_rules": [{"pursuer": "p", "target": "t",
                                   "los_loss_limit": 300.0,
                                   "effort_budget": 5e5,
                                   "capture_radius": 2.0}],
                "sim": {"dt": 1.0, "max_sim_time": 3000, "seed": seed},
            })
            report, _ = run_scenario(cfg)
            assert report.pursuits[0]["outcome"] in (
                "interception", "abandonment_los", "abandonment_effort",
                "max_sim_time",
            )


class TestTransport:
    def test_needs_a_transport_section(self):
        cfg = flat_cfg()
        with pytest.raises(ConfigError, match="^config has no transport"
                                              " section$"):
            compare_transport(cfg)

    def test_two_corridor_comparison(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "two_corridor", "nrows": 13, "ncols": 21,
                        "cellsize": 30.0, "gentle": 10.0, "steep": 25.0},
            "sim": {"dt": 1.0, "max_sim_time": 7200, "seed": 11},
            "transport": {"a": "ox_cart", "b": "mule",
                          "routes": [{"name": "corridor", "start": [6, 0],
                                      "goal": [6, 20]}]},
        })
        mode_rows, comparisons, traces = compare_transport(cfg)
        c = comparisons[0]
        assert c["a_name"] == "ox_cart" and c["b_name"] == "mule"
        assert c["b_duration_s"] < c["a_duration_s"]
        assert c["reduction_percent"] > 0
        assert c["reduction_percent"] == pytest.approx(
            (c["a_duration_s"] - c["b_duration_s"]) / c["a_duration_s"] * 100.0
        )
        assert len(mode_rows) == 2
        assert {r["mode"] for r in mode_rows} == {"ox_cart", "mule"}
        cart_row = next(r for r in mode_rows if r["mode"] == "ox_cart")
        assert cart_row["load_kg"] == 400.0 and cart_row["vessels"] == 4

    def test_identical_profiles_zero_reduction(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "flat", "nrows": 7, "ncols": 12,
                        "cellsize": 30.0, "h": 0.0},
            "sim": {"dt": 1.0, "max_sim_time": 600, "seed": 2},
            "transport": {"a": "mule", "b": "mule",
                          "routes": [{"name": "r", "start": [3, 0],
                                      "goal": [3, 11]}]},
        })
        _rows, comparisons, _tr = compare_transport(cfg)
        assert comparisons[0]["reduction_percent"] == 0.0

    def test_inline_override_keeping_builtin_name(self):
        # the override keeps the name "mule" but must still be simulated
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "ramp", "nrows": 5, "ncols": 20,
                        "cellsize": 30.0, "slope": 8.0},
            "sim": {"dt": 1.0, "max_sim_time": 3600, "seed": 2},
            "transport": {"a": {"base": "mule", "r_load": 0.5}, "b": "mule",
                          "routes": [{"name": "r", "start": [2, 0],
                                      "goal": [2, 19]}]},
        })
        _rows, comparisons, _tr = compare_transport(cfg)
        c = comparisons[0]
        assert c["a_duration_s"] == pytest.approx(1.5 * c["b_duration_s"])
        assert c["a_distance_m"] == pytest.approx(c["b_distance_m"])
        assert c["reduction_percent"] == pytest.approx(100.0 / 3.0)

    def test_no_path_propagates_per_mode(self):
        # the steep corridor grid with a cart-impossible start: block the
        # gentle corridor so the cart has no route at all
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "two_corridor", "nrows": 13, "ncols": 21,
                        "cellsize": 30.0, "gentle": 20.0, "steep": 25.0},
            "sim": {"dt": 1.0, "max_sim_time": 7200, "seed": 2},
            "transport": {"a": "ox_cart", "b": "mule",
                          "routes": [{"name": "r", "start": [6, 0],
                                      "goal": [6, 20]}]},
        })
        _rows, comparisons, _tr = compare_transport(cfg)
        c = comparisons[0]
        assert c["a_outcome"] == "no_path"
        assert c["b_outcome"] == "arrived"
        assert c["reduction_percent"] is None


class TestProfileOverrides:
    def test_scenario_profile_override_changes_outcome(self):
        # a cart variant tolerant of 25% slopes takes the steep corridor
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "two_corridor", "nrows": 13, "ncols": 21,
                        "cellsize": 30.0, "gentle": 10.0, "steep": 25.0},
            "profiles": [{"name": "mountain_cart", "base": "ox_cart",
                          "max_slope": 28.0}],
            "agents": [
                {"id": "stock", "profile": "ox_cart",
                 "start": [6, 0], "goal": [6, 20]},
                {"id": "tuned", "profile": "mountain_cart",
                 "start": [6, 0], "goal": [6, 20]},
            ],
            "sim": {"dt": 1.0, "max_sim_time": 7200, "seed": 4},
        })
        report, _ = run_scenario(cfg)
        rows = {a["id"]: a for a in report.agents}
        assert rows["tuned"]["duration_s"] < rows["stock"]["duration_s"]
        assert builtin_profile("ox_cart").max_slope == 15.0

    def test_inline_profile_in_scenario(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": {"recipe": "flat", "nrows": 5, "ncols": 8,
                        "cellsize": 30.0, "h": 0.0},
            "profiles": [{"name": "runner", "kind": "human", "s_flat": 3.0,
                          "ref_slope": 15.0, "reduction_at_ref": 10.0,
                          "role": "civilian"}],
            "agents": [{"id": "r", "profile": "runner",
                        "start": [2, 0], "goal": [2, 7]}],
            "sim": {"dt": 1.0, "max_sim_time": 300, "seed": 4},
        })
        report, _ = run_scenario(cfg)
        assert report.agents[0]["outcome"] == "arrived"
        assert report.agents[0]["duration_s"] == pytest.approx(7 * 30.0 / 3.0)


class TestConfigValidation:
    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig.from_dict({
                "terrain": "flat:h=0,nrows=3,ncols=3", "sim": {"dt": 1.0},
            })

    def test_missing_terrain(self):
        with pytest.raises(ConfigError, match="terrain"):
            ScenarioConfig.from_dict({"sim": {"seed": 1}})

    def test_duplicate_agent_ids(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ScenarioConfig.from_dict({
                "terrain": "flat:h=0,nrows=5,ncols=5",
                "agents": [
                    {"id": "x", "profile": "mule", "start": [0, 0], "goal": [1, 1]},
                    {"id": "x", "profile": "mule", "start": [0, 0], "goal": [2, 2]},
                ],
                "sim": {"seed": 1},
            })

    def test_unknown_pursuit_agent(self):
        with pytest.raises(ConfigError, match="not an agent"):
            ScenarioConfig.from_dict({
                "terrain": "flat:h=0,nrows=5,ncols=5",
                "agents": [{"id": "x", "profile": "mule",
                            "start": [0, 0], "goal": [1, 1]}],
                "pursuit_rules": [{"pursuer": "x", "target": "ghost",
                                   "los_loss_limit": 10, "effort_budget": 10,
                                   "capture_radius": 1.0}],
                "sim": {"seed": 1},
            })

    def test_pursuer_named_by_two_rules(self):
        rule = {"pursuer": "p", "los_loss_limit": 1e6, "effort_budget": 1e9,
                "capture_radius": 2.0}
        with pytest.raises(ConfigError,
                           match="pursuer 'p' is named by two rules"):
            ScenarioConfig.from_dict({
                "terrain": "flat:h=0,nrows=12,ncols=12",
                "agents": [
                    {"id": "p", "profile": "hostile",
                     "start": [6, 0], "goal": [6, 11]},
                    {"id": "t1", "profile": "elderly",
                     "start": [0, 11], "goal": [11, 11]},
                    {"id": "t2", "profile": "elderly",
                     "start": [11, 11], "goal": [11, 0]},
                ],
                "pursuit_rules": [dict(rule, target="t1"),
                                  dict(rule, target="t2")],
                "sim": {"seed": 1, "max_sim_time": 3000},
            })

    def test_integral_float_cell_reads_as_int(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": "flat:h=0,nrows=5,ncols=5",
            "agents": [{"id": "x", "profile": "mule",
                        "start": [1.0, 0], "goal": [4, 4.0]}],
            "obstacles": [{"cells": [[2.0, 2]], "schedule": [[0, 10]]}],
            "sim": {"seed": 1},
        })
        (spec,), (obstacle,) = cfg.agents, cfg.obstacles
        assert (spec.start, spec.goal) == ((1, 0), (4, 4))
        assert obstacle.cells == {(2, 2)}
        cells = [*spec.start, *spec.goal, *next(iter(obstacle.cells))]
        assert all(type(v) is int for v in cells)

    def test_out_of_bounds_start(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": "flat:h=0,nrows=5,ncols=5",
            "agents": [{"id": "x", "profile": "mule",
                        "start": [99, 0], "goal": [1, 1]}],
            "sim": {"seed": 1},
        })
        with pytest.raises(ConfigError, match="not traversable"):
            build_world(cfg)

    def test_unknown_profile(self):
        cfg = ScenarioConfig.from_dict({
            "terrain": "flat:h=0,nrows=5,ncols=5",
            "agents": [{"id": "x", "profile": "griffin",
                        "start": [0, 0], "goal": [1, 1]}],
            "sim": {"seed": 1},
        })
        with pytest.raises(ConfigError, match="unknown profile"):
            build_world(cfg)

    def test_bad_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            ScenarioConfig.from_dict({
                "terrain": "flat:h=0,nrows=5,ncols=5",
                "sim": {"seed": 1, "dt": 0.0},
            })

    def test_step_cap(self):
        def cfg(dt, max_sim_time):
            return ScenarioConfig.from_dict({
                "terrain": "flat:h=0,nrows=5,ncols=5",
                "sim": {"seed": 1, "dt": dt, "max_sim_time": max_sim_time},
            })
        assert cfg(0.01, 86400.0).dt == 0.01  # 8.64 M steps are allowed
        with pytest.raises(ConfigError, match="steps"):
            cfg(86400.0 / (MAX_SIM_STEPS + 1), 86400.0)

    def test_pursuit_rule_validation(self):
        with pytest.raises(ValueError):
            PursuitRule("a", "b", los_loss_limit=0.0, effort_budget=1.0,
                        capture_radius=1.0)
        # a zero effort budget is allowed (degenerate but meaningful)
        PursuitRule("a", "b", los_loss_limit=1.0, effort_budget=0.0,
                    capture_radius=1.0)


class TestRendering:
    def test_fifty_percent_reduction(self):
        comparisons = [{
            "route": "r1", "start": "A", "end": "B",
            "a_name": "ox_cart", "a_duration_s": 36000.0,
            "a_distance_m": 30000.0, "a_outcome": "arrived",
            "b_name": "mule", "b_duration_s": 18000.0,
            "b_distance_m": 20000.0, "b_outcome": "arrived",
            "difference_s": 18000.0, "difference_m": 10000.0,
            "reduction_percent": 50.0,
        }]
        text = render_comparison_table(comparisons)
        assert "10:00 h (30.0 km)" in text
        assert "5:00 h (20.0 km)" in text
        assert "50.0" in text

    def test_empty_comparisons_banner(self):
        assert render_comparison_table([]) == "no routes\n"

    def test_duration_format(self):
        assert format_duration(61200.0) == "17:00 h"
        assert format_duration(27600.0) == "7:40 h"
        assert format_duration(-27600.0) == "-7:40 h"
        assert format_distance(42000.0) == "42.0 km"

    def test_trace_csv_header(self):
        _report, traces = run_scenario(flat_cfg())
        buf = io.StringIO()
        write_trace_csv(traces["a1"], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ("t_s,row,col,easting,northing,elevation_m,mode,"
                            "chi,action,speed_mps,d_t_cells,effort")
        assert len(lines) == len(traces["a1"]) + 1

    def test_report_json_schema(self):
        report, _ = run_scenario(flat_cfg())
        doc = json.loads(report.to_json())
        assert doc["schema"] == "terramob.simreport/1"
        assert doc["agents"][0]["id"] == "a1"
