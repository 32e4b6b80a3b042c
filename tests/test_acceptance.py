"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single ``[acceptance N] ...: PASS`` line (run with ``pytest -s`` to see them).
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import terramob.planner as planner
from terramob.agents import builtin_profile, builtin_profiles, speed
from terramob.cli import main
from terramob.local_adapt import (
    ACTION_STAY,
    CorridorEnv,
    LearningParams,
    N_ACTIONS,
    N_STATES,
    RewardWeights,
    _train_episode,
    build_local_state,
    bypass_move,
    deviation_cells,
    evaluate_bypass,
    save_qtable,
    train_bypass,
)
from terramob.planner import NoPathError, astar, dijkstra_all, dijkstra_oracle, heuristic
from terramob.sim import ScenarioConfig, compare_transport, run_scenario
from terramob.terrain import (
    CellIndex,
    ElevationGrid,
    line_of_sight,
    make_synthetic,
    parse_ascii_grid,
    serialize_ascii_grid,
    two_corridor_endpoints,
    viewshed,
)
from conftest import (
    _reference_q_update,
    _reference_reward,
    _reward_bound,
    rough_grid,
    success_rate,
)


def _report(criterion: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance {criterion}] {label}: {status}")
    assert not failures, f"criterion {criterion} ({label}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def trained_bypass():
    env = CorridorEnv(builtin_profile("fit_adults"))
    q, curve = train_bypass(env, RewardWeights(), LearningParams(seed=7))
    return env, q, curve


def test_criterion_1_mobility_tables():
    failures = []
    expected = {
        "fit_adults": 1.125,
        "elderly": 0.50,
        "families": 0.78,
        "hostile": 1.44,
        "ox_cart": 0.84,
        "mule": 0.96,
    }
    profiles = builtin_profiles()
    if len(profiles) != 6:
        failures.append(f"expected 6 built-ins, got {len(profiles)}")
    for p in profiles:
        got = speed(p, p.ref_slope)
        want = expected[p.name]
        if abs(got - want) > 0.005:
            failures.append(f"{p.name}: {got} vs {want}")
    _report(1, "mobility-table reproduction (+/-0.005 m/s)", failures)


def test_criterion_2_astar_optimality():
    failures = []
    for p in builtin_profiles():
        for seed in range(100):
            grid = rough_grid(20_000 + seed)
            start, goal = CellIndex(0, 0), CellIndex(31, 31)
            try:
                a = astar(grid, p, start, goal)[0].total_time
            except NoPathError:
                a = None
            try:
                d = dijkstra_oracle(grid, p, start, goal)
            except NoPathError:
                d = None
            if a != d:
                failures.append(f"{p.name} seed {seed}: astar {a} oracle {d}")
    # heuristic admissibility, exhaustive over 16x16 grids
    for p in builtin_profiles():
        for seed in (77, 78):
            grid = rough_grid(seed, nrows=16, ncols=16)
            goal = CellIndex(15, 15)
            dist = dijkstra_all(grid, p, goal)  # symmetric edge weights
            for cell, d in dist.items():
                h = heuristic(cell, goal, p, grid.cellsize)
                if h > d + 1e-9:
                    failures.append(f"inadmissible {p.name} {cell}: {h} > {d}")
    _report(2, "A* == Dijkstra on 100 random 32x32 grids per profile; "
               "heuristic admissible on 16x16", failures)


def test_criterion_3_hybrid_contract(trained_bypass, tmp_path, monkeypatch):
    env, qtable, _curve = trained_bypass
    failures = []

    # (a) one global plan per agent per simulation run
    calls = {"n": 0}
    real_astar = planner.astar

    def counting_astar(*args, **kwargs):
        calls["n"] += 1
        return real_astar(*args, **kwargs)

    monkeypatch.setattr(planner, "astar", counting_astar)
    qpath = tmp_path / "bypass.qt"
    with open(qpath, "w") as f:
        save_qtable(qtable, f, gamma=0.95, alpha=0.1, seed=7, episodes=5000)
    cfg = ScenarioConfig.from_dict({
        "terrain": {"recipe": "flat", "nrows": 7, "ncols": 30,
                    "cellsize": 30.0, "h": 0.0},
        "agents": [
            {"id": "runner", "profile": "fit_adults", "start": [3, 0],
             "goal": [3, 29], "qtable": "bypass.qt"},
            {"id": "p", "profile": "hostile", "start": [6, 0], "goal": [6, 15]},
            {"id": "t", "profile": "elderly", "start": [6, 15], "goal": [6, 29]},
        ],
        "obstacles": [{"cells": [[2, 12], [3, 12], [4, 12]],
                       "schedule": [[0.0, 100000.0]]}],
        "pursuit_rules": [{"pursuer": "p", "target": "t",
                           "los_loss_limit": 1e6, "effort_budget": 1e6,
                           "capture_radius": 2.0}],
        "sim": {"dt": 1.0, "max_sim_time": 3000, "seed": 9},
    }, base_dir=tmp_path)
    report, _traces = run_scenario(cfg)
    monkeypatch.setattr(planner, "astar", real_astar)
    if calls["n"] != 3:
        failures.append(f"astar invoked {calls['n']} times for 3 agents")
    runner = next(a for a in report.agents if a["id"] == "runner")
    if runner["outcome"] != "arrived":
        failures.append(f"runner outcome {runner['outcome']}")

    # (b) bypass success on held-out placements
    ev = evaluate_bypass(qtable, env, episodes=200, seed=4242)
    if success_rate(ev) < 0.95:
        failures.append(f"held-out success {success_rate(ev):.3f} < 0.95")

    # (c) hybrid time within 1.25x of a full-replanning oracle
    worst = 0.0
    for inst in ev.instances:
        if not inst.success:
            continue
        ratio = inst.hybrid_time / inst.oracle_time
        worst = max(worst, ratio)
        if ratio > 1.25:
            failures.append(f"hybrid/oracle ratio {ratio:.3f} > 1.25")
            break
    print(f"\n    held-out success {success_rate(ev):.3f}, "
          f"worst hybrid/oracle ratio {worst:.3f}")
    _report(3, "hybrid contract: one plan per agent, >=95% bypass, "
               "<=1.25x replanning oracle", failures)


def _one_step_backups(env, bar, row, w, params):
    """(start state, table before, table after) of a greedy one-step
    ``_train_episode`` from the waypoint before ``bar`` over a random table
    whose row of the start state is ``row``."""
    wi = next(iter(bar)).col
    s = build_local_state(env.edges, bar.__contains__,
                          env.plan.waypoints[wi - 1], env.plan, wi)
    table = np.random.default_rng(4).normal(size=(N_STATES, N_ACTIONS))
    table[s] = row
    q = dict(enumerate(table.tolist()))
    _train_episode(env, q, bar, w, replace(params, max_steps_per_episode=1),
                   0.0, np.random.default_rng(0))
    return s, table, np.array([q[i] for i in range(N_STATES)])


def test_criterion_4_q_learning_properties():
    # each property is asserted on the training that runs: train_bypass
    # and the _train_episode it calls
    failures = []
    rng = np.random.default_rng(12)

    # boundedness: from zeros, every entry stays within r_max / (1 - gamma)
    runs = (("fit_adults", RewardWeights(), LearningParams(
                alpha=0.35, gamma=0.95, episodes=8000,
                epsilon_decay_episodes=8000, seed=12)),
            ("mule", RewardWeights(collision=2.0, delay_per_second=0.5,
                                   deviation_per_cell=3.0, rejoin=20.0),
             LearningParams(alpha=1.0, gamma=0.9, episodes=8000,
                            epsilon_decay_episodes=8000, seed=13)))
    backups = 0
    for name, w, params in runs:
        env = CorridorEnv(builtin_profile(name))
        q, curve = train_bypass(env, w, params)
        backups += sum(c.steps for c in curve)
        bound = _reward_bound(env, w) / (1.0 - params.gamma)
        if not np.abs(q).max() <= bound:
            failures.append(f"{name}: |Q| {np.abs(q).max():.3f} exceeds"
                            f" {bound:.3f}")
    if backups < 100_000:
        failures.append(f"only {backups} training backups")

    # alpha = 0 identity over whole episodes, exploring and greedy
    env = CorridorEnv(builtin_profile("fit_adults"))
    w = RewardWeights()
    table = rng.normal(size=(N_STATES, N_ACTIONS))
    q = dict(enumerate(table.tolist()))
    still = LearningParams(alpha=0.0)
    for ep in range(200):
        _train_episode(env, q, env.sample_obstacle(rng), w, still,
                       0.5 if ep % 2 else 0.0, rng)
    if np.array([q[i] for i in range(N_STATES)]).tobytes() != table.tobytes():
        failures.append("alpha=0 training changed the table")

    # locality: a one-step episode backs up only its (s, a) entry
    bar = frozenset({CellIndex(env.mid, 10)})
    params = LearningParams(alpha=0.5, gamma=0.9)
    base = rng.normal(size=N_ACTIONS)
    for a in range(N_ACTIONS):
        row = base.copy()
        row[a] = base.max() + 1.0  # the greedy pick
        s, before, after = _one_step_backups(env, bar, row, w, params)
        changed = np.argwhere(before != after).tolist()
        if changed != [[s, a]]:
            failures.append(f"action {a}'s step backed up {changed}")

    # argmax shift invariance: the epsilon = 0 pick of training and a
    # frozen table's bypass_move
    picks, moves = set(), set()
    frozen = np.zeros((N_STATES, N_ACTIONS))
    s = 0b10100101 | 3 << 8  # four moves closed
    for shift in (0.0, -3.0, 0.5, 42.0):
        _s, before, after = _one_step_backups(env, bar, base + shift, w,
                                              params)
        picks.add(tuple(np.argwhere(before != after)[:, 1]))
        frozen[s] = base + shift
        moves.add(bypass_move(frozen, s))
    if len(picks) != 1 or len(moves) != 1:
        failures.append(f"a row shift moved the pick {picks} or the"
                        f" bypass move {moves}")
    _report(4, f"Q-boundedness ({backups} training backups), alpha=0"
               " identity, locality, argmax shift invariance", failures)


def test_criterion_4_training_backs_up_as_q_update():
    # a one-step episode's backup leaves the row _reference_q_update
    # gives on the same (s, a, r, s_next), with the reward of
    # _reference_reward, for each action out of the waypoint before the
    # bar, and a collision backs up with s_next = s. The bar cell is beside
    # the route, so the step onto the waypoint ahead rejoins.
    failures = []
    env = CorridorEnv(builtin_profile("fit_adults"))
    edges, plan = env.edges, env.plan
    bar = frozenset({CellIndex(env.mid - 1, 10)})
    blocked, wi = bar.__contains__, 10
    start = plan.waypoints[wi - 1]
    w = RewardWeights(collision=7.0, delay_per_second=0.3,
                      deviation_per_cell=0.9, rejoin=4.0)
    params = LearningParams(alpha=0.35, gamma=0.9, max_steps_per_episode=1)
    s = build_local_state(edges, blocked, start, plan, wi)
    base = np.random.default_rng(4).normal(size=(N_STATES, N_ACTIONS))
    kinds = set()
    for a in range(N_ACTIONS):
        table = base.copy()
        table[s, a] = table[s].max() + 1.0  # the greedy pick
        q = dict(enumerate(table.tolist()))
        ret, _success, _steps = _train_episode(
            env, q, bar, w, params, 0.0, np.random.default_rng(0))
        e = None if a == ACTION_STAY else edges[start][a]
        if a == ACTION_STAY:
            kind, s_next = "stay", s
            r = _reference_reward("delay", env.stay_time, w)
        elif e is None or blocked(e[0]):
            kind, s_next = "collision", s
            r = _reference_reward("collision", 0.0, w)
        else:
            k = plan.index.get(e[0])
            rejoined = k is not None and k >= wi
            dev = deviation_cells(e[0], plan)
            kind, r = (("rejoin", _reference_reward("rejoin", 0.0, w))
                       if rejoined else
                       ("move", _reference_reward("deviation", dev, w)) if dev
                       else ("move", _reference_reward("delay", e[1], w)))
            s_next = build_local_state(edges, blocked, e[0], plan,
                                       k + 1 if rejoined else wi)
        kinds.add(kind)
        _reference_q_update(table, s, a, r, s_next, params)
        if ret != r or q != dict(enumerate(table.tolist())):
            failures.append(f"action {a} ({kind}) backs up otherwise")
    if kinds != {"stay", "move", "rejoin", "collision"}:
        failures.append(f"actions covered only {sorted(kinds)}")
    _report(4, "each training backup is the reference q_update's", failures)


def test_criterion_5_transport_desk_scale():
    failures = []
    grid = make_synthetic("two_corridor", nrows=13, ncols=21,
                          cellsize=30.0, gentle=10.0, steep=25.0)
    start, goal = two_corridor_endpoints(grid)
    mid = grid.nrows // 2

    cart = builtin_profile("ox_cart")
    mule = builtin_profile("mule")
    cart_plan, _ = astar(grid, cart, start, goal)
    mule_plan, _ = astar(grid, mule, start, goal)
    if any(w.row == mid and 0 < w.col < grid.ncols - 1
           for w in cart_plan.waypoints):
        failures.append("cart entered the steep corridor")
    if not all(w.row == mid for w in mule_plan.waypoints):
        failures.append("mule left the steep corridor")

    cfg = ScenarioConfig.from_dict({
        "terrain": {"recipe": "two_corridor", "nrows": 13, "ncols": 21,
                    "cellsize": 30.0, "gentle": 10.0, "steep": 25.0},
        "sim": {"dt": 1.0, "max_sim_time": 7200, "seed": 11},
        "transport": {"a": "ox_cart", "b": "mule",
                      "routes": [{"name": "corridor", "start": [6, 0],
                                  "goal": [6, 20]}]},
    })
    _rows, comparisons, _traces = compare_transport(cfg)
    c = comparisons[0]
    if not c["b_duration_s"] < c["a_duration_s"]:
        failures.append("mule not faster than cart")
    # per-agent duration equals the sum of edge_distance / edge_speed
    if abs(c["a_duration_s"] - cart_plan.total_time) >= 1e-6:
        failures.append(
            f"cart duration off by {abs(c['a_duration_s'] - cart_plan.total_time)}"
        )
    if abs(c["b_duration_s"] - mule_plan.total_time) >= 1e-6:
        failures.append(
            f"mule duration off by {abs(c['b_duration_s'] - mule_plan.total_time)}"
        )

    # documentation fixture: a straight 24 km route at the published mule
    # speed lands below the 7.5-9 h reference band, within 15 percent of it
    mule_speed = round(speed(mule, 25.0), 2)
    if mule_speed != 0.96:
        failures.append(f"mule reference speed {mule_speed} != 0.96")
    hours = 24_000.0 / mule_speed / 3600.0
    if abs(hours - 6.94) > 0.01:
        failures.append(f"straight-route duration {hours:.3f} h != 6.94 h")
    if not (hours < 7.5 and hours >= 0.85 * 7.5):
        failures.append(f"{hours:.2f} h not within 15% below the 7.5-9 h band")
    _report(5, "two-corridor transport: cart confined, mule faster, "
               "duration identity < 1e-6 s, reference band", failures)


def test_criterion_6_pursuit_evasion():
    failures = []

    cfg = ScenarioConfig.from_dict({
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
    report, _ = run_scenario(cfg)
    first = report.pursuits[0]
    predicted = (10 * 30.0 - 2.0) / (1.8 - 1.0)
    if first["outcome"] != "interception":
        failures.append(f"open-ground outcome {first['outcome']}")
    elif abs(first["time_s"] - predicted) / predicted > 0.05:
        failures.append(
            f"interception at {first['time_s']} vs closed form {predicted:.1f}"
        )
    rerun, _ = run_scenario(cfg)
    if rerun.to_json() != report.to_json():
        failures.append("pursuit run not deterministic under the same seed")

    ridge_cfg = ScenarioConfig.from_dict({
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
    ridge_report, _ = run_scenario(ridge_cfg)
    if ridge_report.pursuits[0]["outcome"] != "abandonment_los":
        failures.append(
            f"ridge outcome {ridge_report.pursuits[0]['outcome']}"
        )

    budget_cfg = ScenarioConfig.from_dict({
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
    budget_report, _ = run_scenario(budget_cfg)
    b = budget_report.pursuits[0]
    if b["outcome"] != "abandonment_effort" or b["time_s"] > 1.0:
        failures.append(f"zero budget gave {b['outcome']} at {b['time_s']}")
    _report(6, "pursuit: interception within 5% of closed form, ridge "
               "LOS abandonment, zero-budget abandonment", failures)


def test_criterion_7_terrain_los_suite():
    failures = []

    # ASCII round trip, byte fidelity on canonical form
    grid = rough_grid(3, nrows=12, ncols=9)
    text = serialize_ascii_grid(grid)
    again = parse_ascii_grid(text)
    if serialize_ascii_grid(again) != text:
        failures.append("serialize(parse(text)) != text")
    if not np.array_equal(again.values, grid.values):
        failures.append("values changed across the round trip")

    # LOS symmetry with equal heights
    sym_grid = rough_grid(21, nrows=12, ncols=12, nodata_frac=0.05)
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 200:
        a = CellIndex(int(rng.integers(12)), int(rng.integers(12)))
        b = CellIndex(int(rng.integers(12)), int(rng.integers(12)))
        if sym_grid.is_nodata(a) or sym_grid.is_nodata(b):
            continue
        checked += 1
        if line_of_sight(sym_grid, a, b) != line_of_sight(sym_grid, b, a):
            failures.append(f"asymmetric LOS {a} {b}")
            break

    # viewshed equals per-cell LOS, exhaustive on a 64x64 grid
    vs_grid = rough_grid(64, nrows=64, ncols=64, nodata_frac=0.03)
    origin = CellIndex(32, 32)
    radius = 900.0
    mask = viewshed(vs_grid, origin, radius)
    for r in range(64):
        for c in range(64):
            cell = CellIndex(r, c)
            in_radius = math.hypot((r - 32) * 30.0, (c - 32) * 30.0) <= radius
            if vs_grid.is_nodata(cell) or not in_radius:
                expected = False
            else:
                expected = line_of_sight(vs_grid, origin, cell)
            if bool(mask[r, c]) != expected:
                failures.append(f"viewshed mismatch at {cell}")
                break
        if failures:
            break

    # the ridge-profile occlusion case
    profile_grid = ElevationGrid(
        5, 1, 0.0, 0.0, 30.0, -9999.0,
        np.array([[0.0, 0.0, 50.0, 0.0, 0.0]]),
    )
    if line_of_sight(profile_grid, CellIndex(0, 0), CellIndex(0, 4)):
        failures.append("ridge profile did not occlude")
    _report(7, "terrain suite: round trip, LOS symmetry, viewshed==LOS "
               "on 64x64, ridge occlusion", failures)


def test_criterion_8_determinism(tmp_path):
    failures = []
    scenario = {
        "terrain": {"recipe": "two_corridor", "nrows": 13, "ncols": 21,
                    "cellsize": 30.0, "gentle": 10.0, "steep": 25.0},
        "agents": [{"id": "walker", "profile": "fit_adults",
                    "start": [6, 0], "goal": [6, 20]}],
        "sim": {"dt": 1.0, "max_sim_time": 7200, "seed": 11},
        "transport": {"a": "ox_cart", "b": "mule",
                      "routes": [{"name": "corridor", "start": [6, 0],
                                  "goal": [6, 20]}]},
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(scenario))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
    if rc1 != 0 or rc2 != 0:
        failures.append(f"simulate exit codes {rc1}, {rc2}")
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    if files1 != files2:
        failures.append("output file sets differ")
    for rel in files1:
        if (out1 / rel).read_bytes() != (out2 / rel).read_bytes():
            failures.append(f"{rel} differs between runs")
    _report(8, "byte-identical reports and traces for identical "
               "config and seed", failures)
