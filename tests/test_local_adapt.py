import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terramob.agents import builtin_profile
from terramob.local_adapt import (
    ACTION_STAY,
    ACTIONS,
    CorridorEnv,
    LearningParams,
    LocalState,
    N_STATES,
    QTable,
    RewardWeights,
    StepEvent,
    build_local_state,
    detect_block,
    deviation_cells,
    evaluate_bypass,
    follow_route,
    greedy_step,
    load_qtable,
    q_update,
    rejoin_check,
    reward,
    save_qtable,
    select_action,
    train_bypass,
    waypoint_direction,
    write_learning_curve,
)
from terramob.planner import PathPlan
from terramob.terrain import CellIndex, make_synthetic


def blocked_by(*cells):
    return set(cells).__contains__


def straight_plan(row=3, ncols=10, cellsize=30.0, speed=1.5):
    cells = [CellIndex(row, c) for c in range(ncols)]
    edge = cellsize / speed
    return PathPlan(cells, [edge] * (ncols - 1), edge * (ncols - 1),
                    cellsize * (ncols - 1), "fit_adults")


# ---------------------------------------------------------------------------
# State encoding
# ---------------------------------------------------------------------------

class TestLocalState:
    def test_state_space_size(self):
        assert N_STATES == 2 ** 8 * 8 * 4 == 8192

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            occ = tuple(bool(b) for b in rng.integers(0, 2, 8))
            s = LocalState(occ, int(rng.integers(8)), int(rng.integers(4)))
            assert LocalState.decode(s.encode()) == s

    def test_codes_cover_range(self):
        lo = LocalState((False,) * 8, 0, 0).encode()
        hi = LocalState((True,) * 8, 7, 3).encode()
        assert lo == 0 and hi == N_STATES - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalState((False,) * 7, 0, 0)
        with pytest.raises(ValueError):
            LocalState((False,) * 8, 8, 0)
        with pytest.raises(ValueError):
            LocalState((False,) * 8, 0, 4)

    def test_waypoint_direction_buckets(self):
        at = CellIndex(5, 5)
        cases = {
            (4, 5): 0, (4, 6): 1, (5, 6): 2, (6, 6): 3,
            (6, 5): 4, (6, 4): 5, (5, 4): 6, (4, 4): 7,
        }
        for target, expected in cases.items():
            assert waypoint_direction(at, CellIndex(*target)) == expected
        assert waypoint_direction(at, CellIndex(1, 6)) == 0  # nearly due north

    def test_deviation_cells(self):
        plan = straight_plan()
        assert deviation_cells(CellIndex(3, 4), plan) == 0
        assert deviation_cells(CellIndex(1, 4), plan) == 2
        assert deviation_cells(CellIndex(7, 0), plan) == 4


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

class TestReward:
    def test_none_is_zero(self):
        assert reward(StepEvent("none"), RewardWeights()) == 0.0

    def test_deviation_two_cells(self):
        w = RewardWeights(deviation_per_cell=0.5)
        assert reward(StepEvent("deviation", 2.0), w) == pytest.approx(-1.0)

    def test_rejoin_positive(self):
        assert reward(StepEvent("rejoin"), RewardWeights(rejoin=5.0)) == 5.0

    def test_collision_and_clear_and_delay(self):
        w = RewardWeights()
        assert reward(StepEvent("collision"), w) == -10.0
        assert reward(StepEvent("clear"), w) == 2.0
        assert reward(StepEvent("delay", 20.0), w) == pytest.approx(-2.0)

    def test_negative_amounts_rejected(self):
        with pytest.raises(ValueError):
            StepEvent("delay", -1.0)
        with pytest.raises(ValueError):
            StepEvent("deviation", -0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StepEvent("explosion")


# ---------------------------------------------------------------------------
# Q updates
# ---------------------------------------------------------------------------

def _state(code):
    return LocalState.decode(code)


class TestQUpdate:
    def test_alpha_zero_is_identity(self):
        q = QTable.zeros()
        q.values[:] = np.random.default_rng(0).normal(size=q.values.shape)
        before = q.values.copy()
        q_update(q, _state(5), 2, 7.0, _state(9), LearningParams(alpha=0.0))
        assert np.array_equal(q.values, before)
        assert q.visits[5, 2] == 1  # the visit is still recorded

    def test_single_step_from_zero(self):
        q = QTable.zeros()
        params = LearningParams(alpha=1.0, gamma=0.9)
        q_update(q, _state(0), 3, 1.0, _state(1), params)
        assert q.values[0, 3] == pytest.approx(1.0)

    def test_update_locality(self):
        q = QTable.zeros()
        params = LearningParams(alpha=0.5, gamma=0.9)
        q_update(q, _state(17), 4, -3.0, _state(42), params)
        nz = np.nonzero(q.values)
        assert list(zip(*nz)) == [(17, 4)]
        assert q.visits[17, 4] == 1 and q.visits.sum() == 1

    def test_fixed_point_convergence(self):
        q = QTable.zeros()
        params = LearningParams(alpha=0.5, gamma=0.9)
        s, s_next = _state(7), _state(9)
        q.values[9, :] = 2.0  # frozen successor row
        for _ in range(200):
            q_update(q, s, 1, 1.5, s_next, params)
        assert q.values[7, 1] == pytest.approx(1.5 + 0.9 * 2.0, abs=1e-6)

    def test_boundedness_random_stream(self):
        rng = np.random.default_rng(8)
        q = QTable.zeros()
        w = RewardWeights()
        params = LearningParams(alpha=0.3, gamma=0.95)
        r_max = 0.0
        for _ in range(20_000):
            kind = ["collision", "delay", "deviation", "rejoin", "clear",
                    "none"][int(rng.integers(6))]
            amount = float(rng.uniform(0.0, 30.0)) if kind == "delay" else (
                float(rng.integers(0, 4)) if kind == "deviation" else 0.0
            )
            r = reward(StepEvent(kind, amount), w)
            r_max = max(r_max, abs(r))
            q_update(q, _state(int(rng.integers(N_STATES))),
                     int(rng.integers(9)), r,
                     _state(int(rng.integers(N_STATES))), params)
        bound = r_max / (1.0 - params.gamma)
        assert np.abs(q.values).max() <= bound + 1e-9

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            q_update(QTable.zeros(), _state(0), 9, 0.0, _state(0),
                     LearningParams())


# ---------------------------------------------------------------------------
# Action selection
# ---------------------------------------------------------------------------

class TestSelectAction:
    def test_greedy_unique_max(self):
        q = QTable.zeros()
        q.values[0, 6] = 3.0
        rng = np.random.default_rng(0)
        assert select_action(q, _state(0), 0.0, rng) == 6

    def test_epsilon_one_is_seeded_uniform(self):
        q = QTable.zeros()
        seq1 = [select_action(q, _state(0), 1.0, np.random.default_rng(4))
                for _ in range(1)]
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        a = [select_action(q, _state(0), 1.0, rng_a) for _ in range(20)]
        b = [select_action(q, _state(0), 1.0, rng_b) for _ in range(20)]
        assert a == b
        assert len(set(a)) > 1

    def test_all_equal_row_ties_to_index_zero(self):
        q = QTable.zeros()
        q.values[3, :] = 1.25
        assert select_action(q, _state(3), 0.0, np.random.default_rng(0)) == 0

    def test_feasible_restriction(self):
        q = QTable.zeros()
        q.values[0, 0] = 10.0
        rng = np.random.default_rng(0)
        assert select_action(q, _state(0), 0.0, rng, feasible=[2, 5]) == 2

    def test_no_feasible_actions_stays(self):
        q = QTable.zeros()
        assert select_action(q, _state(0), 0.0, np.random.default_rng(0),
                             feasible=[]) == ACTION_STAY

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_argmax_invariant_under_row_shift(self, shift):
        q = QTable.zeros()
        rng = np.random.default_rng(11)
        q.values[40, :] = rng.normal(size=9)
        base = select_action(q, _state(40), 0.0, np.random.default_rng(0))
        q.values[40, :] += shift
        assert select_action(q, _state(40), 0.0,
                             np.random.default_rng(0)) == base


# ---------------------------------------------------------------------------
# Route tracking and the step rules
# ---------------------------------------------------------------------------

class TestDetectBlock:
    def test_empty_world(self):
        plan = straight_plan()
        assert not detect_block(blocked_by(), plan, 4)

    def test_obstacle_on_next_waypoint(self):
        plan = straight_plan()
        assert detect_block(blocked_by(CellIndex(3, 4)), plan, 4)

    def test_obstacle_off_path(self):
        plan = straight_plan()
        assert not detect_block(blocked_by(CellIndex(1, 4)), plan, 4)

    def test_exhausted_plan(self):
        plan = straight_plan()
        assert not detect_block(blocked_by(CellIndex(3, 9)), plan, 10)


class TestRejoinCheck:
    def test_on_plan_forward(self):
        plan = straight_plan()
        assert rejoin_check(CellIndex(3, 6), plan, 4) == (True, 6)

    def test_off_path(self):
        plan = straight_plan()
        assert rejoin_check(CellIndex(2, 6), plan, 4) == (False, 4)

    def test_behind_current_index(self):
        plan = straight_plan()
        assert rejoin_check(CellIndex(3, 2), plan, 4) == (False, 4)


@st.composite
def route_and_cells(draw):
    """A non-repeating route (one straight leg or several bent ones), cells
    to query, each asked twice, and a waypoint index."""
    cells = [CellIndex(draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))]
    legs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 8)),
                         min_size=1, max_size=5))
    for action, run in legs:
        dr, dc = ACTIONS[action]
        for _ in range(run):
            nxt = CellIndex(cells[-1].row + dr, cells[-1].col + dc)
            if nxt in cells:
                break
            cells.append(nxt)
    n = len(cells)
    plan = PathPlan(cells, [1.0] * (n - 1), float(n - 1), float(n - 1), "x")
    queries = draw(st.lists(
        st.one_of(st.sampled_from(cells),
                  st.builds(CellIndex, st.integers(-15, 15),
                            st.integers(-15, 15))),
        min_size=1, max_size=12))
    wi = draw(st.integers(0, n + 1))
    return plan, queries + queries[::-1], wi


class TestRouteLookups:
    @settings(max_examples=300, deadline=None)
    @given(route_and_cells())
    def test_match_brute_force_scans(self, case):
        plan, queries, wi = case
        for cell in queries:
            dev = min(max(abs(cell.row - w.row), abs(cell.col - w.col))
                      for w in plan.waypoints)
            assert deviation_cells(cell, plan) == dev
            forward = [k for k in range(wi, len(plan.waypoints))
                       if plan.waypoints[k] == cell]
            expected = (True, forward[0]) if forward else (False, wi)
            assert rejoin_check(cell, plan, wi) == expected


class TestFollowRoute:
    def test_clear_straight_plan_takes_plan_edge(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        action = follow_route(env.plan, 5, env.grid, env.profile,
                              CellIndex(3, 4))
        assert ACTIONS[action] == (0, 1)  # east along the route

    def test_off_route_equal_cost_tie_breaks_low_index(self):
        grid = make_synthetic("flat", nrows=10, ncols=10, h=0.0)
        grid = grid.with_nodata([CellIndex(4, 6)])
        plan = PathPlan([CellIndex(3, 7)], [], 0.0, 0.0, "fit_adults")
        action = follow_route(plan, 0, grid, builtin_profile("fit_adults"),
                              CellIndex(5, 5))
        # N and E tie once the direct NE step is a hole; N has the lower index
        assert action == 0


class TestBuildLocalState:
    def test_blocked_and_off_grid_neighbors_are_occupied(self):
        plan = straight_plan(row=0)
        s = build_local_state(make_synthetic("flat", nrows=4, ncols=10, h=0.0),
                              blocked_by(CellIndex(0, 5)), CellIndex(0, 4),
                              plan, 5)
        # N, NE and NW are off the grid; E is blocked
        assert s.occupancy == (True, True, True, False, False, False, False,
                               True)
        assert s.waypoint_dir == 2 and s.deviation_bucket == 0


class TestGreedyStep:
    def test_blocked_cells_are_skipped(self):
        grid = make_synthetic("flat", nrows=10, ncols=10, h=0.0)
        p = builtin_profile("fit_adults")
        at, target = CellIndex(5, 5), CellIndex(5, 9)
        assert greedy_step(grid, p, at, target) == 2  # east
        # NE and SE tie once east is blocked; NE has the lower index
        assert greedy_step(grid, p, at, target,
                           blocked=lambda c: c == CellIndex(5, 6)) == 1
        assert greedy_step(grid, p, at, target,
                           blocked=lambda c: True) == ACTION_STAY


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TestTraining:
    def test_zero_episodes_zero_table(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        q, curve = train_bypass(env, RewardWeights(),
                                LearningParams(episodes=0))
        assert not q.values.any()
        assert curve == []

    def test_seeded_determinism(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        params = LearningParams(episodes=300, seed=3)
        q1, c1 = train_bypass(env, RewardWeights(), params)
        q2, c2 = train_bypass(env, RewardWeights(), params)
        assert np.array_equal(q1.values, q2.values)
        assert np.array_equal(q1.visits, q2.visits)
        assert [(s.ep_return, s.success) for s in c1] == \
               [(s.ep_return, s.success) for s in c2]

    def test_training_learns_to_bypass(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        params = LearningParams(episodes=2500, seed=5,
                                epsilon_decay_episodes=1200)
        q, curve = train_bypass(env, RewardWeights(), params)
        late = curve[-300:]
        assert sum(s.success for s in late) / len(late) >= 0.9
        ev = evaluate_bypass(q, env, episodes=100, seed=777)
        assert ev.success_rate >= 0.9
        # trained argmax never walks into the bar: no collisions at eval
        assert ev.collisions == 0

    def test_collision_penalty_ablation(self):
        # without the collision penalty, ending an episode by walking into
        # the bar looks cheap, so the trained policy collides far more often
        env = CorridorEnv(builtin_profile("fit_adults"))
        params = LearningParams(episodes=2000, seed=5,
                                epsilon_decay_episodes=1000)
        q_default, _ = train_bypass(env, RewardWeights(), params)
        q_ablated, _ = train_bypass(env, RewardWeights(collision=0.0), params)
        ev_default = evaluate_bypass(q_default, env, episodes=150, seed=321)
        ev_ablated = evaluate_bypass(q_ablated, env, episodes=150, seed=321)
        assert ev_ablated.collision_rate > ev_default.collision_rate
        assert ev_ablated.collision_rate >= 0.2

    def test_vanishing_obstacle_fires_clear_event(self):
        from terramob.local_adapt import _run_episode
        env = CorridorEnv(builtin_profile("fit_adults"))
        col = 10
        env.begin_episode(frozenset({CellIndex(env.mid, col)}), until=2)
        # a huge clear bonus makes the event visible in the return
        weights = RewardWeights(clear=1000.0)
        total, success, collided, _steps, _t = _run_episode(
            env, QTable.zeros(), weights, LearningParams(), np.random.default_rng(0),
            epsilon=0.0, learn=False, full_route=False, step_cap=40,
        )
        assert success and not collided
        assert total > 900.0  # the bonus fired exactly once

    def test_persistent_obstacle_never_clears(self):
        from terramob.local_adapt import _run_episode
        env = CorridorEnv(builtin_profile("fit_adults"))
        env.begin_episode(frozenset({CellIndex(env.mid, 10)}))
        weights = RewardWeights(clear=1000.0)
        total, success, _c, _s, _t = _run_episode(
            env, QTable.zeros(), weights, LearningParams(), np.random.default_rng(0),
            epsilon=0.0, learn=False, full_route=False, step_cap=40,
        )
        assert total < 900.0

    def test_learning_curve_csv(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        q, curve = train_bypass(env, RewardWeights(),
                                LearningParams(episodes=5, seed=1))
        buf = io.StringIO()
        write_learning_curve(curve, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "episode,return,success,steps"
        assert len(lines) == 6

    def test_epsilon_schedule(self):
        p = LearningParams(epsilon_start=1.0, epsilon_end=0.05,
                           epsilon_decay_episodes=100)
        assert p.epsilon_at(0) == 1.0
        assert p.epsilon_at(50) == pytest.approx(0.525)
        assert p.epsilon_at(100) == 0.05
        assert p.epsilon_at(5000) == 0.05

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LearningParams(alpha=1.5)
        with pytest.raises(ValueError):
            LearningParams(gamma=1.0)
        with pytest.raises(ValueError):
            LearningParams(epsilon_start=1.5)


class TestPersistence:
    def test_round_trip(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        q, _ = train_bypass(env, RewardWeights(),
                            LearningParams(episodes=200, seed=9))
        buf = io.StringIO()
        save_qtable(q, buf, gamma=0.95, alpha=0.1, seed=9, episodes=200)
        buf.seek(0)
        loaded, meta = load_qtable(buf)
        assert np.array_equal(loaded.values, q.values)
        assert meta["seed"] == 9 and meta["episodes"] == 200
        assert meta["gamma"] == 0.95

    def test_only_nonzero_entries_stored(self):
        q = QTable.zeros()
        q.values[100, 3] = 1.5
        buf = io.StringIO()
        save_qtable(q, buf, gamma=0.9, alpha=0.5, seed=0, episodes=0)
        body = buf.getvalue().splitlines()
        assert "entries 1" in body
        assert body[-1] == "100 3 1.5"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            load_qtable(io.StringIO("not a table\n"))

    @pytest.mark.parametrize("entry", ["99999 0 1.0", "-1 0 7.0", "0 9 1.0",
                                       "0 -1 1.0"])
    def test_entry_out_of_range_rejected(self, entry):
        buf = io.StringIO()
        save_qtable(QTable.zeros(), buf, gamma=0.9, alpha=0.5, seed=0,
                    episodes=0)
        text = buf.getvalue().replace("entries 0", "entries 1") + entry + "\n"
        with pytest.raises(ValueError, match="out of range"):
            load_qtable(io.StringIO(text))
