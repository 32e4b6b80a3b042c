import io
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terramob import planner
from terramob.agents import EdgeTable, builtin_profile, builtin_profiles
from terramob.local_adapt import (
    ACTION_STAY,
    ACTIONS,
    BypassInstance,
    CorridorEnv,
    LearningParams,
    MAX_SIM_STEPS,
    N_ACTIONS,
    N_STATES,
    RewardWeights,
    TableMoves,
    build_local_state,
    bypass_move,
    deviation_cells,
    evaluate_bypass,
    greedy_step,
    load_qtable,
    local_step,
    save_qtable,
    _offset_direction,
    _rollout,
    _train_episode,
    train_bypass,
    write_learning_curve,
)
from terramob.planner import PathPlan
from terramob.sim import ScenarioConfig, build_world
from terramob.terrain import CellIndex, make_synthetic

from conftest import (
    _reference_edge,
    _reference_select_action,
    _reward_bound,
    success_rate,
)


def blocked_by(*cells):
    return set(cells).__contains__


def fit_edges(grid):
    """A fit adult's edge table of ``grid``."""
    return EdgeTable(grid, builtin_profile("fit_adults"))


def straight_plan(row=3, ncols=10, cellsize=30.0, speed=1.5):
    cells = [CellIndex(row, c) for c in range(ncols)]
    edge = cellsize / speed
    return PathPlan(cells, [edge] * (ncols - 1), edge * (ncols - 1),
                    cellsize * (ncols - 1))


# ---------------------------------------------------------------------------
# State encoding
# ---------------------------------------------------------------------------

class TestLocalState:
    def test_state_space_size(self):
        assert N_STATES == 2 ** 8 * 8 * 4 == 8192

    def test_code_bit_fields(self):
        grid = make_synthetic("flat", nrows=12, ncols=12, h=0.0)
        plan = PathPlan([CellIndex(r, 5) for r in range(11, -1, -1)],
                        [20.0] * 11, 220.0, 330.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            occ = rng.integers(0, 2, 8)
            cell = CellIndex(int(rng.integers(1, 11)), int(rng.integers(1, 11)))
            blocked = blocked_by(*(CellIndex(cell.row + dr, cell.col + dc)
                                   for (dr, dc), b in zip(ACTIONS, occ) if b))
            wi = int(rng.integers(12))
            s = build_local_state(fit_edges(grid), blocked, cell, plan, wi)
            assert [(s >> i) & 1 for i in range(8)] == occ.tolist()
            wp = plan.waypoints[wi]
            assert (s >> 8) & 0x7 == _offset_direction(wp.row - cell.row,
                                                       wp.col - cell.col)
            assert s >> 11 == min(abs(cell.col - 5), 3)

    def test_codes_cover_range(self):
        grid = make_synthetic("flat", nrows=10, ncols=10, h=0.0)
        plan = PathPlan([CellIndex(r, 5) for r in range(9, -1, -1)],
                        [20.0] * 9, 180.0, 270.0)
        # on the route, nothing blocked, next waypoint due north
        edges = fit_edges(grid)
        lo = build_local_state(edges, blocked_by(), CellIndex(5, 5), plan, 5)
        # four cells off the route, all blocked, next waypoint to the NW
        hi = build_local_state(edges, lambda c: True, CellIndex(8, 9), plan, 9)
        assert lo == 0 and hi == N_STATES - 1

    def test_waypoint_direction_buckets(self):
        cases = {
            (-1, 0): 0, (-1, 1): 1, (0, 1): 2, (1, 1): 3,
            (1, 0): 4, (1, -1): 5, (0, -1): 6, (-1, -1): 7,
        }
        for offset, expected in cases.items():
            assert _offset_direction(*offset) == expected
        assert _offset_direction(-4, 1) == 0  # nearly due north
        assert _offset_direction(0, 0) == 0  # on the waypoint

    def test_deviation_cells(self):
        plan = straight_plan()
        assert deviation_cells(CellIndex(3, 4), plan) == 0
        assert deviation_cells(CellIndex(1, 4), plan) == 2
        assert deviation_cells(CellIndex(7, 0), plan) == 4


# ---------------------------------------------------------------------------
# Training rules: the reward, backup and pick of _train_episode
# ---------------------------------------------------------------------------

def zeros():
    return np.zeros((N_STATES, N_ACTIONS))


N, E, S, W = 0, 2, 4, 6  # action indices


@pytest.fixture(scope="module")
def corridor():
    return CorridorEnv(builtin_profile("fit_adults"))


# An episode on either bar starts on waypoint 9 and tracks waypoint 10.
# The step east collides with the bar on the route and rejoins past the
# bar beside it.
def on_route(env):
    return frozenset({CellIndex(env.mid, 10)})


def beside(env):
    return frozenset({CellIndex(env.mid - 1, 10)})


def state_at(env, bar, cell=None, wi=10):
    """The state code of ``cell`` (the start) in an episode on ``bar``."""
    cell = cell or env.plan.waypoints[wi - 1]
    return build_local_state(env.edges, bar.__contains__, cell, env.plan, wi)


def zero_rows():
    """A training table with no row yet; a zero row's pick is north."""
    return defaultdict(lambda: [0.0] * N_ACTIONS)


def run_episode(env, q, bar, weights=RewardWeights(), steps=1, alpha=0.5,
                gamma=0.9, epsilon=0.0, rng=None):
    params = LearningParams(alpha=alpha, gamma=gamma,
                            max_steps_per_episode=steps)
    return _train_episode(env, q, bar, weights, params, epsilon,
                          rng or np.random.default_rng(0))


def picked(env, row, epsilon=0.0, rng=None):
    """The action a one-step episode on the route's bar picks when the
    start state's row is ``row``: the one entry its backup changed (every
    step out of the start earns a non-zero reward)."""
    bar = on_route(env)
    s = state_at(env, bar)
    q = zero_rows()
    q[s] = [float(v) for v in row]
    run_episode(env, q, bar, epsilon=epsilon, rng=rng)
    changed = [a for a in range(N_ACTIONS) if q[s][a] != row[a]]
    assert len(changed) == 1
    return changed[0]


class TestTrainingReward:
    def test_a_step_back_onto_the_route_earns_zero(self, corridor):
        # north off the route, then south back onto waypoint 9, behind the
        # tracked waypoint: -0.5 for the cell off, 0.0 for the return
        bar = on_route(corridor)
        q = zero_rows()
        q[state_at(corridor, bar, CellIndex(corridor.mid - 1, 9))][S] = 1.0
        w = RewardWeights(deviation_per_cell=0.5)
        assert run_episode(corridor, q, bar, w, steps=2) == (-0.5, False, 2)

    def test_deviation_one_then_two_cells(self, corridor):
        w = RewardWeights(deviation_per_cell=0.5)
        assert run_episode(corridor, zero_rows(), on_route(corridor), w,
                           steps=2) == (-1.5, False, 2)

    def test_rejoin_positive(self, corridor):
        bar = beside(corridor)
        q = zero_rows()
        q[state_at(corridor, bar)][E] = 1.0
        assert run_episode(corridor, q, bar,
                           RewardWeights(rejoin=5.0)) == (5.0, True, 1)

    def test_collision_and_delay(self, corridor):
        bar, w = on_route(corridor), RewardWeights()
        s = state_at(corridor, bar)
        q = zero_rows()
        q[s][E] = 1.0
        assert run_episode(corridor, q, bar, w) == (-10.0, False, 1)
        q = zero_rows()
        q[s][ACTION_STAY] = 1.0  # a stay on the route is a delay
        assert corridor.stay_time == 20.0
        assert run_episode(corridor, q, bar, w) == (-2.0, False, 1)


class TestTrainingBackup:
    def test_alpha_zero_is_identity(self, corridor):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(N_STATES, N_ACTIONS))
        q = dict(enumerate(table.tolist()))
        for _ in range(20):
            _train_episode(corridor, q, corridor.sample_obstacle(rng),
                           RewardWeights(), LearningParams(alpha=0.0), 0.3,
                           rng)
        assert np.array(list(q.values())).tobytes() == table.tobytes()

    def test_single_step_from_zero(self, corridor):
        # at alpha = 1 the entry becomes the target: the rejoin reward
        # plus gamma times a zero successor row
        bar = beside(corridor)
        s = state_at(corridor, bar)
        q = zero_rows()
        q[s][E] = 1.0
        run_episode(corridor, q, bar, RewardWeights(rejoin=5.0), alpha=1.0)
        assert q[s][E] == 5.0

    def test_update_locality(self, corridor):
        bar, q = on_route(corridor), zero_rows()
        run_episode(corridor, q, bar)
        touched = [(s, a) for s, row in q.items()
                   for a, v in enumerate(row) if v]
        assert touched == [(state_at(corridor, bar), N)]

    def test_fixed_point_convergence(self, corridor):
        # rejoins from one state into a successor row that never changes
        bar = beside(corridor)
        s = state_at(corridor, bar)
        s_next = state_at(corridor, bar, CellIndex(corridor.mid, 10), wi=11)
        q = zero_rows()
        q[s][E] = 1.0
        q[s_next] = [2.0] * N_ACTIONS
        for _ in range(200):
            run_episode(corridor, q, bar, RewardWeights(rejoin=1.5))
        assert q[s][E] == pytest.approx(1.5 + 0.9 * 2.0, abs=1e-6)
        assert q[s_next] == [2.0] * N_ACTIONS

    def test_boundedness_on_a_training_run(self):
        env = CorridorEnv(builtin_profile("mule"))
        w = RewardWeights(collision=3.0, delay_per_second=0.4,
                          deviation_per_cell=1.2, rejoin=8.0)
        params = LearningParams(alpha=0.3, gamma=0.95, episodes=1000, seed=8)
        q, _curve = train_bypass(env, w, params)
        assert np.abs(q).max() <= _reward_bound(env, w) / (1.0 - params.gamma)

    @pytest.mark.parametrize("name", [p.name for p in builtin_profiles()])
    def test_training_reads_only_table_states(self, name):
        # every state a training run reads or backs up is a row of the
        # array it returns, and that array holds exactly those rows
        class Rows(dict):
            def __missing__(self, s):
                assert type(s) is int and 0 <= s < N_STATES
                row = self[s] = [0.0] * N_ACTIONS
                return row

        env = CorridorEnv(builtin_profile(name))
        w = RewardWeights()
        params = LearningParams(episodes=300, epsilon_decay_episodes=150,
                                seed=2)
        q, rng = Rows(), np.random.default_rng(params.seed)
        for ep in range(params.episodes):
            _train_episode(env, q, env.sample_obstacle(rng), w, params,
                           params.epsilon_at(ep), rng)
        table, _curve = train_bypass(env, w, params)
        assert all(len(row) == N_ACTIONS for row in q.values())
        expected = np.zeros((N_STATES, N_ACTIONS))
        expected[list(q)] = list(q.values())
        assert table.tobytes() == expected.tobytes()
        assert table.any()


class TestTrainingPick:
    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("name", ["epsilon_start", "epsilon_end"])
    def test_epsilon_outside_0_1_is_refused(self, name, value):
        # training draws with probability epsilon, so the schedule's ends
        # are refused before any episode runs
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\]$"):
            LearningParams(**{name: value})

    def test_greedy_unique_max(self, corridor):
        row = [0.0] * N_ACTIONS
        row[W] = 3.0
        assert picked(corridor, row) == W

    def test_epsilon_one_is_seeded_uniform(self, corridor):
        row = [0.0] * N_ACTIONS
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        a = [picked(corridor, row, 1.0, rng_a) for _ in range(20)]
        b = [picked(corridor, row, 1.0, rng_b) for _ in range(20)]
        assert a == b
        assert len(set(a)) > 1

    def test_first_of_two_maxima(self, corridor):
        row = [0.0, 2.0, -1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert picked(corridor, row) == 1

    def test_all_equal_row_ties_to_index_zero(self, corridor):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert picked(corridor, [1.25] * N_ACTIONS, 0.0, rng) == 0
        assert rng.bit_generator.state == state  # greedy: no draw

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_argmax_invariant_under_row_shift(self, corridor, shift):
        row = np.random.default_rng(11).normal(size=N_ACTIONS)
        assert picked(corridor, row + shift) == picked(corridor, row)


class TestBypassMove:
    """A frozen table's move skips the moves whose state bit is set:
    closed or blocked."""

    def test_first_maximum_among_open_moves(self):
        q = zeros()
        q[[0b101, 0b100], :] = [4.0, 1.0, 4.0, 1.0, 0.0, 0.0, 2.0, 0.0, -1.0]
        assert bypass_move(q, 0b101) == 6  # n and e are closed
        assert bypass_move(q, 0b100) == 0

    def test_stay_is_never_closed(self):
        q = zeros()
        s = 0xFF | 5 << 8  # every move closed
        q[s, :] = [3.0] * 8 + [-2.0]
        assert bypass_move(q, s) == ACTION_STAY

    @given(st.integers(0, N_STATES - 1),
           st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                    min_size=N_ACTIONS, max_size=N_ACTIONS))
    @settings(max_examples=300, deadline=None)
    def test_never_a_move_whose_bit_is_set(self, s, values):
        q = zeros()
        q[s, :] = values
        a = bypass_move(q, s)
        open_moves = [b for b in range(N_ACTIONS)
                      if b == ACTION_STAY or not s >> b & 1]
        assert (a is None) == (not any(values[b] for b in open_moves))
        if a is not None:
            assert a in open_moves
            assert values[a] == max(values[b] for b in open_moves)
            assert all(values[b] < values[a] for b in open_moves if b < a)

    @pytest.mark.parametrize("closed_value", [0.0, 7.0])
    def test_none_when_every_open_entry_is_zero(self, closed_value):
        # an untrained row, or one trained only on moves closed here
        q = zeros()
        s = 0b11 | 2 << 11
        q[s, :2] = closed_value
        assert bypass_move(q, s) is None


# ---------------------------------------------------------------------------
# Route tracking and the step rules
# ---------------------------------------------------------------------------

class TestDetectBlock:
    """``local_step``'s chi: the tracked waypoint is blocked."""

    @staticmethod
    def chi(*cells):
        edges = fit_edges(make_synthetic("flat", nrows=7, ncols=10, h=0.0))
        return local_step(None, edges, blocked_by(*cells), CellIndex(3, 3),
                          straight_plan(), 4)[0]

    def test_empty_world(self):
        assert self.chi() is False

    def test_obstacle_on_next_waypoint(self):
        assert self.chi(CellIndex(3, 4)) is True

    def test_obstacle_off_path(self):
        assert self.chi(CellIndex(1, 4)) is False


class TestRejoinCheck:
    """A simulated agent arriving on a cell rejoins when the cell is a
    waypoint at or past the one it tracks (``World._at_center``)."""

    @staticmethod
    def tracked_after_arriving(cell, waypoint_index=4):
        world = build_world(ScenarioConfig.from_dict({
            "terrain": {"recipe": "flat", "nrows": 7, "ncols": 10, "h": 0.0},
            "agents": [{"id": "a", "profile": "fit_adults",
                        "start": [3, 0], "goal": [3, 9]}],
            "sim": {"dt": 1.0, "max_sim_time": 600, "seed": 1}}))
        agent = world.agents[0]
        assert agent.plan.waypoints == straight_plan().waypoints
        agent.cell, agent.waypoint_index = cell, waypoint_index
        world._at_center(agent, 0.0, 1.0, 0.0)
        return agent.waypoint_index

    def test_on_plan_forward(self):
        assert self.tracked_after_arriving(CellIndex(3, 6)) == 7

    def test_off_path(self):
        assert self.tracked_after_arriving(CellIndex(2, 6)) == 4

    def test_behind_current_index(self):
        assert self.tracked_after_arriving(CellIndex(3, 2)) == 4


@st.composite
def route_and_cells(draw):
    """A non-repeating route, cells to query, each asked twice, and a
    waypoint index.

    The route is one straight leg, several bent ones, or a serpentine: runs
    of up to 9 cells along rows (or columns) joined by short steps across,
    so the route returns to the same columns (or rows) many times. Queried
    cells are waypoints, cells near the route, and cells up to 1000 rows
    and columns away from it."""
    cells = [CellIndex(draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))]
    if draw(st.booleans()):
        legs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 8)),
                             min_size=1, max_size=5))
    else:
        along, across = draw(st.sampled_from([(2, 4), (4, 2)]))  # E or S
        run = draw(st.integers(1, 9))
        legs = []
        for turn in range(draw(st.integers(1, 8))):
            legs += [(along if turn % 2 == 0 else (along + 4) % 8, run),
                     (across, draw(st.integers(1, 2)))]
    for action, run in legs:
        dr, dc = ACTIONS[action]
        for _ in range(run):
            nxt = CellIndex(cells[-1].row + dr, cells[-1].col + dc)
            if nxt in cells:
                break
            cells.append(nxt)
    n = len(cells)
    plan = PathPlan(cells, [1.0] * (n - 1), float(n - 1), float(n - 1))
    near = st.integers(-15, 15)
    far = st.integers(-1000, 1000)
    queries = draw(st.lists(
        st.one_of(st.sampled_from(cells), st.builds(CellIndex, near, near),
                  st.builds(CellIndex, near | far, near | far)),
        min_size=1, max_size=12))
    wi = draw(st.integers(0, n + 1))
    return plan, queries + queries[::-1], wi


class TestRouteLookups:
    @settings(max_examples=300, deadline=None)
    @given(route_and_cells())
    def test_match_brute_force_scans(self, case):
        plan, queries, wi = case
        assert "rows" not in vars(plan)  # the row index is built lazily
        for cell in queries:
            dev = min(max(abs(cell.row - w.row), abs(cell.col - w.col))
                      for w in plan.waypoints)
            assert deviation_cells(cell, plan) == dev
            forward = [k for k in range(wi, len(plan.waypoints))
                       if plan.waypoints[k] == cell]
            k = plan.index.get(cell)
            assert (k if k is not None and k >= wi else None) == (
                forward[0] if forward else None)
        off_route = {c for c in queries if c not in plan.index}
        assert set(plan.deviations) == off_route
        assert ("rows" in vars(plan)) == bool(off_route)
        # asking again reads the memo: with the row index emptied, every
        # answer still holds, so no cell was looked up in it twice
        vars(plan)["rows"] = {}
        for cell in queries:
            assert deviation_cells(cell, plan) == min(
                max(abs(cell.row - w.row), abs(cell.col - w.col))
                for w in plan.waypoints)


class TestFollowRoute:
    """``local_step``'s move while the tracked waypoint is clear."""

    def test_clear_straight_plan_takes_plan_edge(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        chi, action = local_step(None, env.edges, blocked_by(),
                                 CellIndex(3, 4), env.plan, 5)
        assert not chi and ACTIONS[action] == (0, 1)  # east along the route

    def test_off_route_equal_cost_tie_breaks_low_index(self):
        grid = make_synthetic("flat", nrows=10, ncols=10, h=0.0)
        grid = grid.with_nodata([CellIndex(4, 6)])
        plan = PathPlan([CellIndex(3, 7)], [], 0.0, 0.0)
        # N and E tie once the direct NE step is a hole; N has the lower index
        assert local_step(None, fit_edges(grid), blocked_by(),
                          CellIndex(5, 5), plan, 0) == (False, 0)


class TestBuildLocalState:
    def test_blocked_and_off_grid_neighbors_are_occupied(self):
        plan = straight_plan(row=0)
        grid = make_synthetic("flat", nrows=4, ncols=10, h=0.0)
        s = build_local_state(fit_edges(grid), blocked_by(CellIndex(0, 5)),
                              CellIndex(0, 4), plan, 5)
        # N, NE and NW (bits 0, 1, 7) are off the grid; E (bit 2) is
        # blocked; the waypoint is due east (2 << 8); on the route (0 << 11)
        assert s == 0b111 | 1 << 7 | 2 << 8 == 647

    def test_hole_punched_after_a_query_shows_only_on_the_copy(self):
        grid = make_synthetic("flat", nrows=5, ncols=5, h=0.0)
        plan = straight_plan(row=2, ncols=5)
        cell, north = CellIndex(2, 2), CellIndex(1, 2)
        edges = fit_edges(grid)
        before = build_local_state(edges, blocked_by(), cell, plan, 3)
        assert greedy_step(edges, cell, CellIndex(0, 2)) == 0  # north
        holed = fit_edges(grid.with_nodata([north]))
        assert build_local_state(edges, blocked_by(), cell, plan, 3) == before
        assert greedy_step(edges, cell, CellIndex(0, 2)) == 0
        assert build_local_state(holed, blocked_by(), cell, plan, 3) == (
            before | 1)  # bit 0: the north neighbor is now a hole
        assert greedy_step(holed, cell, CellIndex(0, 2)) == 1  # NE


class TestGreedyStep:
    def test_blocked_cells_are_skipped(self):
        grid = make_synthetic("flat", nrows=10, ncols=10, h=0.0)
        edges = fit_edges(grid)
        at, target = CellIndex(5, 5), CellIndex(5, 9)
        assert greedy_step(edges, at, target) == 2  # east
        # NE and SE tie once east is blocked; NE has the lower index
        assert greedy_step(edges, at, target,
                           blocked=lambda c: c == CellIndex(5, 6)) == 1
        assert greedy_step(edges, at, target,
                           blocked=lambda c: True) == ACTION_STAY


class TestLocalStep:
    """The one run-time rule: follow the route while it is clear, else the
    table's open move, else a sidestep by cost."""

    EAST = ACTIONS.index((0, 1))

    def setup_method(self):
        self.env = CorridorEnv(builtin_profile("fit_adults"))
        self.cell = CellIndex(self.env.mid, 4)  # waypoint 5 is next

    def step(self, q, bar):
        env = self.env
        return local_step(q, env.edges, bar.__contains__, self.cell, env.plan,
                          5)

    def test_a_clear_route_is_followed(self):
        assert self.step(None, frozenset()) == (False, self.EAST)
        q = zeros()
        q[:, :] = 1.0  # a table is read only while the route is blocked
        assert self.step(TableMoves(q), frozenset()) == (False, self.EAST)

    @pytest.mark.parametrize("blocked_waypoints, aim, heading", [
        ((5,), (4, 5), (-1, 1)), ((5, 6), (3, 5), (-1, 0)),
        (range(5, 14), (2, 0), (-1, -1))])
    def test_without_a_table_it_sidesteps_toward_an_open_waypoint(
            self, blocked_waypoints, aim, heading):
        # a route east along row 5, north up column 5, then west along row
        # 2: the sidestep aims at the first waypoint not blocked, else at
        # the goal, which lies the other way
        cells = ([CellIndex(5, c) for c in range(6)]
                 + [CellIndex(r, 5) for r in (4, 3)]
                 + [CellIndex(2, c) for c in range(5, -1, -1)])
        plan = PathPlan(cells, [0.0] * (len(cells) - 1), 0.0, 0.0)
        edges = fit_edges(make_synthetic("flat", nrows=10, ncols=10, h=0.0))
        bar = frozenset(cells[k] for k in blocked_waypoints)
        at = CellIndex(5, 4)
        move = greedy_step(edges, at, CellIndex(*aim), bar.__contains__)
        assert ACTIONS[move] == heading
        for moves in (None, TableMoves(zeros())):  # no table, or a zero row
            assert local_step(moves, edges, bar.__contains__, at, plan,
                              5) == (True, move)

    def test_a_table_gives_its_best_open_move(self):
        env = self.env
        bar = frozenset({env.plan.waypoints[5]})
        s = build_local_state(env.edges, bar.__contains__, self.cell, env.plan,
                              5)
        q = zeros()
        q[s, :] = [0.0, 0.5, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        # east leads into the bar, so its bit is set and it is skipped
        assert self.step(TableMoves(q), bar) == (True, bypass_move(q, s)) == (
            True, 4)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TestCorridorEnv:
    @pytest.mark.parametrize("name", [p.name for p in builtin_profiles()])
    def test_stay_time_is_one_flat_edge(self, name):
        p = builtin_profile(name)
        env = CorridorEnv(p)
        a, b = CellIndex(env.mid, 0), CellIndex(env.mid, 1)
        run, _slope, v = _reference_edge(p, env.grid, a, b)
        assert env.stay_time == run / v

    def test_a_move_is_refused_into_the_bar_or_the_wall(self):
        # the move check of both episode functions: a None entry or a bar
        # cell is refused, and any other entry is _reference_edge's move
        env = CorridorEnv(builtin_profile("fit_adults"))
        bar = env.sample_obstacle(np.random.default_rng(2))
        cells = [CellIndex(r, c) for r in range(env.grid.nrows)
                 for c in range(env.grid.ncols)]
        refused = set()
        for cell in cells:
            for a, (dr, dc) in enumerate(ACTIONS[:ACTION_STAY]):
                dest = CellIndex(cell.row + dr, cell.col + dc)
                e = env.edges[cell][a]
                if e is None or e[0] in bar:
                    refused.add(dest)
                else:
                    run, _slope, v = _reference_edge(env.profile, env.grid,
                                                     cell, dest)
                    assert e[:2] == (dest, run / v)
        on_grid = {c for c in refused
                   if 0 <= c.row < env.grid.nrows
                   and 0 <= c.col < env.grid.ncols}
        assert on_grid == bar
        # a one-step training episode out of the cell before the bar
        # collides on exactly the moves into it
        start = env.plan.waypoints[next(iter(bar)).col - 1]
        weights = RewardWeights(collision=100.0)
        params = LearningParams(max_steps_per_episode=1)
        for a, (dr, dc) in enumerate(ACTIONS):
            q = defaultdict(lambda a=a: [float(i == a)
                                         for i in range(N_ACTIONS)])
            ret, success, steps = _train_episode(
                env, q, bar, weights, params, 0.0, np.random.default_rng())
            dest = CellIndex(start.row + dr, start.col + dc)
            assert (ret == -100.0) == (dest in bar)
            assert not success and steps == 1

    def test_the_draws_are_the_120_bars(self):
        # 24 columns x (one 1-cell, three 3-cell, one 5-cell placement):
        # the bound of the corridor's oracle memo
        env = CorridorEnv(builtin_profile("fit_adults"))
        m = env.mid
        spans = [(m, m), (m - 2, m), (m - 1, m + 1), (m, m + 2),
                 (m - 2, m + 2)]
        bars = {frozenset(CellIndex(r, col) for r in range(lo, hi + 1))
                for col in range(3, env.grid.ncols - 3) for lo, hi in spans}
        assert len(bars) == 120
        rng = np.random.default_rng(0)
        assert {env.sample_obstacle(rng) for _ in range(5000)} == bars

    def test_equal_bars_are_one_object(self):
        # bars from any generator share one frozenset per bar, kept on the
        # corridor: its hash is computed once for every later lookup
        env = CorridorEnv(builtin_profile("fit_adults"))
        first = {}
        for bits in (np.random.PCG64, np.random.Philox, np.random.MT19937,
                     np.random.SFC64, np.random.PCG64DXSM):
            rng = np.random.Generator(bits(11))
            for _ in range(2000):
                bar = env.sample_obstacle(rng)
                assert first.setdefault(bar, bar) is bar
        assert len(env.bars) <= 120
        assert set(env.bars.values()) == set(first)
        assert all(first[bar] is bar for bar in env.bars.values())

    @pytest.mark.parametrize("name", ["fit_adults", "mule"])
    def test_every_oracle_time_is_the_uniform_cost_optimum(self, name):
        env = CorridorEnv(builtin_profile(name))
        rng = np.random.default_rng(0)
        bars = {env.sample_obstacle(rng) for _ in range(5000)}
        start, goal = env.plan.waypoints[0], env.plan.waypoints[-1]
        for bar in bars:
            assert env.oracle_time(bar) == planner.dijkstra_oracle(
                env.grid.with_nodata(bar), env.profile, start, goal)
        assert env.oracle_times.keys() == bars

    def test_episodes_leave_the_corridor_unchanged(self):
        # the corridor is a constant: each episode's bar is an argument
        env = CorridorEnv(builtin_profile("fit_adults"))
        before = {name: id(value) for name, value in vars(env).items()}
        q, _ = train_bypass(env, RewardWeights(),
                            LearningParams(episodes=50, seed=1))
        evaluate_bypass(q, env, episodes=50, seed=2)
        assert {name: id(value) for name, value in vars(env).items()} == before


class TestTraining:
    def test_zero_episodes_zero_table(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        q, curve = train_bypass(env, RewardWeights(),
                                LearningParams(episodes=0))
        assert not q.any()
        assert curve == []

    def test_table_is_a_full_float_array(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        q, _ = train_bypass(env, RewardWeights(), LearningParams(episodes=20))
        assert type(q) is np.ndarray
        assert q.shape == (N_STATES, N_ACTIONS) and q.dtype == np.float64
        assert q.any()

    def test_seeded_determinism(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        params = LearningParams(episodes=300, seed=3)
        q1, c1 = train_bypass(env, RewardWeights(), params)
        q2, c2 = train_bypass(env, RewardWeights(), params)
        assert np.array_equal(q1, q2)
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
        assert success_rate(ev) >= 0.9

    def test_collision_penalty_ablation(self):
        # without the collision penalty, ending an episode by walking into
        # the bar looks cheap: training keeps walking into it, and the table
        # it leaves gets a held-out agent past far fewer bars.
        env = CorridorEnv(builtin_profile("fit_adults"))
        params = LearningParams(episodes=2000, seed=5,
                                epsilon_decay_episodes=1000)
        q_default, c_default = train_bypass(env, RewardWeights(), params)
        q_ablated, c_ablated = train_bypass(env, RewardWeights(collision=0.0),
                                            params)

        def late_collisions(curve):  # an episode cut short without a rejoin
            return sum(not s.success and s.steps < params.max_steps_per_episode
                       for s in curve[-500:])

        assert late_collisions(c_ablated) >= 100  # 213 at this seed
        assert late_collisions(c_ablated) > 4 * late_collisions(c_default)  # 23
        ev_default = evaluate_bypass(q_default, env, episodes=150, seed=321)
        ev_ablated = evaluate_bypass(q_ablated, env, episodes=150, seed=321)
        assert success_rate(ev_default) >= 0.9  # 150 of 150 at this seed
        assert success_rate(ev_ablated) <= success_rate(ev_default) - 0.2  # 78

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

    def test_training_steps_are_capped(self):
        # the cap is on requested work: episodes * max_steps_per_episode
        assert LearningParams(episodes=MAX_SIM_STEPS // 80).episodes == 125_000
        with pytest.raises(ValueError, match="at most 10000000"):
            LearningParams(episodes=MAX_SIM_STEPS // 80 + 1)
        with pytest.raises(ValueError, match="--max-steps"):
            LearningParams(episodes=10**12, max_steps_per_episode=10**9)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LearningParams(alpha=1.5)
        with pytest.raises(ValueError):
            LearningParams(gamma=1.0)
        with pytest.raises(ValueError):
            LearningParams(epsilon_start=1.5)


def count_astar(monkeypatch):
    """The grid of each ``planner.astar`` call made from now on."""
    calls = []
    real_astar = planner.astar

    def counted(grid, *args):
        calls.append(grid)
        return real_astar(grid, *args)

    monkeypatch.setattr(planner, "astar", counted)
    return calls


def _hexed(ev):
    """A ``BypassEvaluation``'s instances, times compared by float.hex."""
    return [(i.hybrid_time.hex(), i.oracle_time.hex(), i.success)
            for i in ev.instances]


class TestEvaluateBypass:
    @pytest.fixture(scope="class")
    def trained(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        q, _ = train_bypass(env, RewardWeights(),
                            LearningParams(episodes=300, seed=3,
                                           epsilon_decay_episodes=150))
        return q

    def test_each_distinct_bar_is_scored_once(self, trained, monkeypatch):
        env = CorridorEnv(builtin_profile("fit_adults"))
        rng = np.random.default_rng(99)
        bars = [env.sample_obstacle(rng) for _ in range(200)]
        assert len(set(bars)) < len(bars) / 2  # most bars come back
        calls = count_astar(monkeypatch)
        ev = evaluate_bypass(trained, env, episodes=200, seed=99)
        assert len(calls) == len(set(bars))
        # a new instance per episode, each equal to its own bar's scoring
        assert len({id(i) for i in ev.instances}) == 200
        monkeypatch.undo()
        fresh = CorridorEnv(builtin_profile("fit_adults"))
        start, goal = fresh.plan.waypoints[0], fresh.plan.waypoints[-1]
        moves = TableMoves(trained)
        for bar, got in zip(bars, ev.instances, strict=True):
            success, elapsed = _rollout(fresh, moves, bar)
            oracle, _ = planner.astar(fresh.grid.with_nodata(bar),
                                      fresh.profile, start, goal)
            assert got == BypassInstance(elapsed, oracle.total_time, success)
        assert ev.successes == sum(i.success for i in ev.instances)
        assert 0 < ev.successes < 200  # both outcomes are pinned

    def test_the_corridor_replans_each_bar_once_over_calls(
            self, trained, monkeypatch):
        env = CorridorEnv(builtin_profile("fit_adults"))
        first, then = ({env.sample_obstacle(rng) for _ in range(60)}
                       for rng in map(np.random.default_rng, (5, 6)))
        assert first & then  # the two calls share bars
        calls = count_astar(monkeypatch)
        evaluate_bypass(trained, env, episodes=60, seed=5)
        second = evaluate_bypass(trained, env, episodes=60, seed=6)
        assert len(calls) == len(first | then)
        monkeypatch.undo()
        alone = evaluate_bypass(trained, CorridorEnv(env.profile),
                                episodes=60, seed=6)

        assert _hexed(second) == _hexed(alone)

    def test_a_table_changed_between_calls_is_read_again(self, trained):
        # a call keeps no move past its end: after the rows its rollouts
        # read are cleared, the same corridor scores the changed table as
        # a fresh corridor does
        env = CorridorEnv(builtin_profile("fit_adults"))
        q = trained.copy()
        before = evaluate_bypass(q, env, episodes=60, seed=5)
        read, rng = TableMoves(q), np.random.default_rng(5)
        for _ in range(60):
            _rollout(env, read, env.sample_obstacle(rng))
        assert any(a is not None for a in read.values())
        q[list(read)] = 0.0  # every read falls back to the sidestep
        after = evaluate_bypass(q, env, episodes=60, seed=5)
        alone = evaluate_bypass(q, CorridorEnv(env.profile), episodes=60,
                                seed=5)

        assert _hexed(after) == _hexed(alone) != _hexed(before)

    def test_a_table_scored_after_another_equals_a_fresh_corridor(
            self, trained):
        # the corridor keeps the state codes table A's calls made; table
        # B reads them, and its rollouts are those of a fresh corridor
        env = CorridorEnv(builtin_profile("fit_adults"))
        other = np.random.default_rng(1).normal(size=trained.shape)
        evaluate_bypass(trained, env, episodes=200, seed=5)
        assert env.codes
        shared = evaluate_bypass(other, env, episodes=200, seed=6)
        alone = evaluate_bypass(other, CorridorEnv(env.profile),
                                episodes=200, seed=6)

        assert _hexed(shared) == _hexed(alone)

    @pytest.mark.parametrize("name", ["fit_adults", "mule", "ox_cart"])
    def test_rollouts_keep_no_empty_state_codes(self, name):
        # a rollout fetches a waypoint's codes only while it can read them,
        # not after its last rejoin; what the corridor keeps changes no
        # rollout
        env = CorridorEnv(builtin_profile(name))
        kept = [evaluate_bypass(zeros(), env, episodes=40, seed=k)
                for k in range(30)]
        assert env.codes and all(env.codes.values())
        alone = [evaluate_bypass(zeros(), CorridorEnv(env.profile),
                                 episodes=40, seed=k) for k in range(30)]

        assert list(map(_hexed, kept)) == list(map(_hexed, alone))

    @pytest.mark.parametrize("name", ["fit_adults", "mule"])
    def test_training_and_scoring_share_a_corridor_in_either_order(
            self, name):
        params = LearningParams(episodes=300, seed=3,
                                epsilon_decay_episodes=150)

        def written(q, curve):
            table, rows = io.StringIO(), io.StringIO()
            save_qtable(q, table, gamma=0.95, alpha=0.1, seed=3,
                        episodes=300)
            write_learning_curve(curve, rows)
            return table.getvalue(), rows.getvalue()

        # scoring, then training on the same corridor
        q, curve = train_bypass(CorridorEnv(builtin_profile(name)),
                                RewardWeights(), params)
        scored = CorridorEnv(builtin_profile(name))
        evaluate_bypass(q, scored, episodes=200, seed=8)
        assert written(*train_bypass(scored, RewardWeights(), params)) == (
            written(q, curve))
        # training, then scoring on the same corridor
        used = CorridorEnv(builtin_profile(name))
        train_bypass(used, RewardWeights(), params)
        assert used.codes
        assert _hexed(evaluate_bypass(q, used, episodes=200, seed=9)) == (
            _hexed(evaluate_bypass(q, CorridorEnv(builtin_profile(name)),
                                   episodes=200, seed=9)))

    def test_a_table_that_picks_the_bar_sidesteps_it(self):
        # the row of the first blocked state holds only the step into the
        # bar: the rollout skips it, as a simulated agent does, and
        # sidesteps by cost like an untrained one instead of colliding
        env = CorridorEnv(builtin_profile("fit_adults"))
        bar = frozenset({CellIndex(env.mid, 10)})
        s = build_local_state(env.edges, bar.__contains__,
                              CellIndex(env.mid, 9), env.plan, 10)
        q = zeros()
        q[s, ACTIONS.index((0, 1))] = 1.0
        assert ACTIONS[_reference_select_action(q, s, 0.0, None)] == (0, 1)
        success, elapsed = _rollout(env, TableMoves(q), bar)
        assert success
        assert (success, elapsed) == _rollout(env, TableMoves(zeros()), bar)

    def test_negative_episodes_refused(self, trained):
        env = CorridorEnv(builtin_profile("fit_adults"))
        with pytest.raises(ValueError, match="episodes"):
            evaluate_bypass(trained, env, episodes=-3)
        assert evaluate_bypass(trained, env, episodes=0).instances == []


class TestPersistence:
    def test_round_trip(self):
        env = CorridorEnv(builtin_profile("fit_adults"))
        q, _ = train_bypass(env, RewardWeights(),
                            LearningParams(episodes=200, seed=9))
        buf = io.StringIO()
        save_qtable(q, buf, gamma=0.95, alpha=0.1, seed=9, episodes=200)
        buf.seek(0)
        loaded, meta = load_qtable(buf)
        assert np.array_equal(loaded, q)
        assert meta["seed"] == 9 and meta["episodes"] == 200
        assert meta["gamma"] == 0.95

    def test_only_nonzero_entries_stored(self):
        q = zeros()
        q[100, 3] = 1.5
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
        save_qtable(zeros(), buf, gamma=0.9, alpha=0.5, seed=0,
                    episodes=0)
        text = buf.getvalue().replace("entries 0", "entries 1") + entry + "\n"
        with pytest.raises(ValueError, match="out of range"):
            load_qtable(io.StringIO(text))

    @pytest.mark.parametrize("entry", ["0 0 nan", "0 1 inf", "5 2 -inf"])
    def test_entry_not_finite_rejected(self, entry):
        # np.argmax would return the first NaN: a nan entry steers a table
        buf = io.StringIO()
        save_qtable(zeros(), buf, gamma=0.9, alpha=0.5, seed=0,
                    episodes=0)
        text = buf.getvalue().replace("entries 0", "entries 1") + entry + "\n"
        with pytest.raises(ValueError, match="not finite"):
            load_qtable(io.StringIO(text))

    HEADER = ("terramob-qtable 1\nstates 8192\nactions 9\ngamma 0.95\n"
              "alpha 0.1\nseed 0\nepisodes 0\n")

    @pytest.mark.parametrize("text, message", [
        ("not a table\n", "line 1: not a qtable file (header 'not a table')"),
        (HEADER.replace("gamma", "gama"),
         "line 4: expected header field 'gamma', got 'gama'"),
        (HEADER.replace("seed 0", "seed x"),
         "line 6: seed must be an integer, got 'x'"),
        (HEADER.replace("alpha 0.1", "alpha fast"),
         "line 5: alpha must be a number, got 'fast'"),
        (HEADER.replace("actions 9", "actions 8"),
         "line 3: state-space descriptor does not match this build"
         " (actions 8, expected 9)"),
        (HEADER + "entries -3\n", "line 8: entries must be non-negative,"
         " got -3"),
        (HEADER + "entries 2\n0 0 1.0\n",
         "line 10: expected an entry 'state action value', got 0 fields"),
        (HEADER + "entries 1\n0 1\n",
         "line 9: expected an entry 'state action value', got 2 fields"),
        (HEADER + "entries 1\n0 x 1\n",
         "line 9: state and action must be integers, got '0' 'x'"),
        (HEADER + "entries 1\n0 9 1.0\n", "line 9: entry (0, 9) out of range"),
        (HEADER + "entries 2\n0 0 1.0\n0 0 2.0\n",
         "line 10: entry (0, 0) is repeated"),
        (HEADER + "entries 1\n0 0 high\n",
         "line 9: value must be a number, got 'high'"),
        (HEADER + "entries 1\n0 1 inf\n", "line 9: entry (0, 1) is not finite"),
        (HEADER + "entries 1\n0 0 1.0\n\n0 1 2.0\n",
         "line 11: more entries than the 1 declared"),
    ])
    def test_every_refusal_names_its_line(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            load_qtable(io.StringIO(text))
        assert str(excinfo.value) == "qtable " + message
