import io
import math

import numpy as np
import pytest

from terramob.agents import builtin_profile, builtin_profiles, profile_from_spec
from terramob.planner import (
    NoPathError,
    PathPlan,
    astar,
    dijkstra_all,
    dijkstra_oracle,
    heuristic,
    octile_distance_m,
    write_plan_csv,
)
from terramob.terrain import CellIndex, make_synthetic, two_corridor_endpoints
from conftest import rough_grid, validate_plan

SQRT2 = math.sqrt(2.0)


class TestHeuristic:
    def test_zero_at_goal(self):
        p = builtin_profile("fit_adults")
        assert heuristic(CellIndex(4, 4), CellIndex(4, 4), p, 30.0) == 0.0

    def test_octile_3_4(self):
        # 3 diagonal + 1 straight cell steps at 30 m cells, fit-adult flat speed
        p = builtin_profile("fit_adults")
        dist = octile_distance_m(CellIndex(0, 0), CellIndex(3, 4), 30.0)
        assert dist == pytest.approx((3 * SQRT2 + 1) * 30.0)
        assert dist == pytest.approx(157.279, abs=1e-3)
        assert heuristic(CellIndex(0, 0), CellIndex(3, 4), p, 30.0) == pytest.approx(
            104.853, abs=1e-3
        )

    @pytest.mark.parametrize("profile_name", ["fit_adults", "mule"])
    def test_admissible_exhaustively_16x16(self, profile_name):
        p = builtin_profile(profile_name)
        grid = rough_grid(77, nrows=16, ncols=16)
        goal = CellIndex(15, 15)
        dist = dijkstra_all(grid, p, goal)  # edge weights are symmetric
        for cell, d in dist.items():
            assert heuristic(cell, goal, p, grid.cellsize) <= d + 1e-9, cell


class TestAstar:
    def test_flat_corner_to_corner_closed_form(self, flat10):
        p = builtin_profile("fit_adults")
        plan, stats = astar(flat10, p, CellIndex(0, 0), CellIndex(9, 9))
        assert plan.total_time == pytest.approx(9 * 30.0 * SQRT2 / 1.5)
        assert len(plan.waypoints) == 10  # 9 diagonal steps
        assert stats.nodes_expanded >= len(plan.waypoints)
        validate_plan(plan, flat10, p)

    def test_trivial_start_equals_goal(self, flat10):
        p = builtin_profile("elderly")
        plan, stats = astar(flat10, p, CellIndex(4, 4), CellIndex(4, 4))
        assert plan.waypoints == [CellIndex(4, 4)]
        assert plan.total_time == 0.0 and plan.total_distance == 0.0
        assert stats.nodes_expanded >= 1

    def test_cart_confined_to_gentle_corridor(self):
        grid = make_synthetic("two_corridor", nrows=13, ncols=21,
                              cellsize=30.0, gentle=10.0, steep=25.0)
        start, goal = two_corridor_endpoints(grid)
        cart_plan, _ = astar(grid, builtin_profile("ox_cart"), start, goal)
        mid = grid.nrows // 2
        interior = [w for w in cart_plan.waypoints
                    if w.row == mid and 0 < w.col < grid.ncols - 1]
        assert interior == []
        mule_plan, _ = astar(grid, builtin_profile("mule"), start, goal)
        assert all(w.row == mid for w in mule_plan.waypoints)
        assert mule_plan.total_time < cart_plan.total_time

    def test_no_path_through_moat(self, flat10):
        grid = flat10.with_nodata(
            [CellIndex(r, 5) for r in range(10)]
        )
        with pytest.raises(NoPathError):
            astar(grid, builtin_profile("fit_adults"), CellIndex(0, 0),
                  CellIndex(9, 9))

    @pytest.mark.parametrize("objective", ["time", "distance"])
    @pytest.mark.parametrize("holes", [
        # 3x3 checkerboard: corners and center open, every diagonal between
        # them flanked by two nodata cells
        [(0, 1), (1, 0), (1, 2), (2, 1)],
        # a diagonal wall from (0, 9) to (9, 0) on 10x10
        [(r, 9 - r) for r in range(10)],
    ], ids=["checkerboard", "diagonal_wall"])
    def test_no_path_through_sealed_corners(self, holes, objective):
        n = max(r for r, _ in holes) + 1
        grid = make_synthetic("flat", nrows=n, ncols=n, h=0.0)
        grid = grid.with_nodata([CellIndex(r, c) for r, c in holes])
        p = builtin_profile("fit_adults")
        start, goal = CellIndex(0, 0), CellIndex(n - 1, n - 1)
        with pytest.raises(NoPathError):
            astar(grid, p, start, goal, objective)
        with pytest.raises(NoPathError):
            dijkstra_oracle(grid, p, start, goal, objective)

    def test_untraversable_endpoint_rejected(self, flat10):
        grid = flat10.with_nodata([CellIndex(0, 0)])
        with pytest.raises(ValueError):
            astar(grid, builtin_profile("mule"), CellIndex(0, 0), CellIndex(3, 3))

    def test_deterministic(self):
        grid = rough_grid(13)
        p = builtin_profile("families")
        first, stats1 = astar(grid, p, CellIndex(0, 0), CellIndex(31, 31))
        second, stats2 = astar(grid, p, CellIndex(0, 0), CellIndex(31, 31))
        assert first.waypoints == second.waypoints
        assert first.total_time == second.total_time
        assert stats1.nodes_expanded == stats2.nodes_expanded
        assert stats1.open_peak == stats2.open_peak

    def test_plans_satisfy_invariants_on_random_grids(self):
        p = builtin_profile("hostile")
        for seed in range(5):
            grid = rough_grid(100 + seed, nrows=24, ncols=24)
            try:
                plan, _ = astar(grid, p, CellIndex(0, 0), CellIndex(23, 23))
            except NoPathError:
                continue
            validate_plan(plan, grid, p)


class TestOptimality:
    # plus two overrides, built by dataclasses.replace, which re-derives
    # the speed-law constants A* reads
    @pytest.mark.parametrize("spec", [p.name for p in builtin_profiles()] + [
        {"base": "elderly", "reduction_at_ref": 65.0},
        {"base": "mule", "r_load": 0.5},
    ], ids=lambda s: s if isinstance(s, str) else
       ",".join(f"{k}={v}" for k, v in s.items()))
    def test_matches_dijkstra_on_random_grids(self, spec):
        p = profile_from_spec(spec)
        solved = 0
        for seed in range(25):
            grid = rough_grid(1000 + seed, nrows=24, ncols=24)
            start, goal = CellIndex(0, 0), CellIndex(23, 23)
            try:
                plan, _ = astar(grid, p, start, goal)
            except NoPathError:
                with pytest.raises(NoPathError):
                    dijkstra_oracle(grid, p, start, goal)
                continue
            assert plan.total_time == dijkstra_oracle(grid, p, start, goal)
            solved += 1
        assert solved >= 5  # the terrain family must be mostly solvable

    def test_flat_equals_oracle_exactly(self, flat10):
        p = builtin_profile("elderly")
        plan, _ = astar(flat10, p, CellIndex(0, 0), CellIndex(9, 9))
        assert plan.total_time == dijkstra_oracle(flat10, p, CellIndex(0, 0),
                                                  CellIndex(9, 9))

    def test_oracle_refuses_bad_input(self, flat10):
        p = builtin_profile("mule")
        holed = flat10.with_nodata([CellIndex(4, 4)])
        with pytest.raises(ValueError, match="objective must be one of"):
            dijkstra_all(flat10, p, CellIndex(0, 0), objective="vibes")
        with pytest.raises(ValueError, match=r"^source cell \(4, 4\) is not"
                                             " traversable$"):
            dijkstra_all(holed, p, CellIndex(4, 4))
        with pytest.raises(ValueError, match=r"^source cell \(4, 4\) is not"
                                             " traversable$"):
            dijkstra_oracle(holed, p, CellIndex(4, 4), CellIndex(0, 0))
        with pytest.raises(ValueError, match=r"^goal cell \(4, 4\) is not"
                                             " traversable$"):
            dijkstra_oracle(holed, p, CellIndex(0, 0), CellIndex(4, 4))

    def test_oracle_no_path(self, flat10):
        grid = flat10.with_nodata([CellIndex(r, 5) for r in range(10)])
        with pytest.raises(NoPathError):
            dijkstra_oracle(grid, builtin_profile("mule"), CellIndex(0, 0),
                            CellIndex(9, 9))


class TestDistanceObjective:
    def test_matches_distance_oracle(self):
        p = builtin_profile("fit_adults")
        for seed in range(10):
            grid = rough_grid(3000 + seed, nrows=20, ncols=20)
            start, goal = CellIndex(0, 0), CellIndex(19, 19)
            try:
                plan, _ = astar(grid, p, start, goal, objective="distance")
            except NoPathError:
                with pytest.raises(NoPathError):
                    dijkstra_oracle(grid, p, start, goal, objective="distance")
                continue
            assert plan.total_distance == dijkstra_oracle(
                grid, p, start, goal, objective="distance"
            )

    def test_never_longer_than_time_optimal_route(self):
        p = builtin_profile("mule")
        for seed in range(6):
            grid = rough_grid(4000 + seed, nrows=20, ncols=20)
            start, goal = CellIndex(0, 0), CellIndex(19, 19)
            try:
                by_time, _ = astar(grid, p, start, goal)
                by_dist, _ = astar(grid, p, start, goal, objective="distance")
            except NoPathError:
                continue
            assert by_dist.total_distance <= by_time.total_distance + 1e-9
            assert by_time.total_time <= by_dist.total_time + 1e-9

    def test_shortest_route_can_cost_more_time(self):
        # on a two-corridor grid the mule's shortest route is the steep one
        grid = make_synthetic("two_corridor", nrows=13, ncols=21,
                              cellsize=30.0, gentle=2.0, steep=28.0)
        start, goal = two_corridor_endpoints(grid)
        p = builtin_profile("mule")
        by_dist, _ = astar(grid, p, start, goal, objective="distance")
        by_time, _ = astar(grid, p, start, goal)
        mid = grid.nrows // 2
        assert all(w.row == mid for w in by_dist.waypoints)
        assert by_time.total_time <= by_dist.total_time

    def test_a_route_time_that_overflows_is_refused(self):
        # open flat ground: a sum of edge times that reached inf would read
        # as no path, so a grid on which one can is refused up front
        p = builtin_profile("fit_adults")
        start, goal = CellIndex(0, 0), CellIndex(2, 2)
        huge = make_synthetic("flat", nrows=3, ncols=3, cellsize=1e308, h=0.0)
        slow = profile_from_spec({"base": "fit_adults", "s_flat": 1e-300})
        wide = make_synthetic("flat", nrows=3, ncols=3, cellsize=1e10, h=0.0)
        for grid, profile in ((huge, p), (wide, slow)):
            for objective in ("time", "distance"):
                with pytest.raises(ValueError,
                                   match="would take longer than a float"):
                    astar(grid, profile, start, goal, objective)
        big = make_synthetic("flat", nrows=3, ncols=3, cellsize=1e300, h=0.0)
        plan, _ = astar(big, p, start, goal)
        assert plan.total_time == 2 * (1e300 * SQRT2 / 1.5)
        plan, _ = astar(wide, profile_from_spec(
            {"base": "fit_adults", "s_flat": 1e-290}), start, goal)
        assert math.isfinite(plan.total_time)

    def test_unknown_objective(self, flat10):
        with pytest.raises(ValueError, match="objective"):
            astar(flat10, builtin_profile("mule"), CellIndex(0, 0),
                  CellIndex(1, 1), objective="vibes")


class TestPathPlan:
    def test_repeated_cell_rejected(self):
        cells = [CellIndex(0, 0), CellIndex(0, 1), CellIndex(1, 1),
                 CellIndex(0, 1)]
        with pytest.raises(ValueError, match="more than once"):
            PathPlan(cells, [20.0, 28.3, 28.3], 76.6, 114.9)

    def test_index_is_waypoint_position(self, flat10):
        plan, _ = astar(flat10, builtin_profile("mule"), CellIndex(0, 0),
                        CellIndex(9, 4))
        assert plan.index == {c: k for k, c in enumerate(plan.waypoints)}


class TestPlanCsv:
    def test_columns_and_totals(self, flat10):
        p = builtin_profile("fit_adults")
        plan, _ = astar(flat10, p, CellIndex(0, 0), CellIndex(0, 3))
        buf = io.StringIO()
        write_plan_csv(plan, flat10, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "index,row,col,easting,northing,elevation_m,edge_time_s,cum_time_s"
        )
        assert len(lines) == 1 + len(plan.waypoints)
        last = lines[-1].split(",")
        assert float(last[-1]) == pytest.approx(plan.total_time)


class TestPlanTotals:
    """A plan's totals are the left-to-right float accumulation of its
    edges, the order A* summed them in."""

    @pytest.mark.parametrize("objective", ["time", "distance"])
    def test_totals_accumulate_edges_left_to_right(self, objective):
        p = builtin_profile("families")
        solved = 0
        for seed in range(10):
            grid = rough_grid(2000 + seed, nrows=24, ncols=24)
            try:
                plan, _ = astar(grid, p, CellIndex(0, 0), CellIndex(23, 23),
                                objective)
            except NoPathError:
                continue
            total = 0.0
            for t in plan.edge_times:
                total += t
            assert total.hex() == plan.total_time.hex()
            validate_plan(plan, grid, p)  # and the distance, exactly
            solved += 1
        assert solved >= 5

    def test_csv_last_cum_time_is_the_printed_total(self, tmp_path, capsys):
        from terramob.cli import EXIT_OK, main
        from terramob.terrain import serialize_ascii_grid
        asc = tmp_path / "rough.asc"
        asc.write_text(serialize_ascii_grid(rough_grid(7, nrows=24, ncols=24)))
        rc = main(["plan", "--terrain", str(asc), "--profile", "elderly",
                   "--start", "0,0", "--goal", "23,23", "--out",
                   str(tmp_path / "out")])
        assert rc == EXIT_OK
        printed = [line.split("=", 1)[1]
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("total_time_s=")]
        rows = (tmp_path / "out" / "plan.csv").read_text().splitlines()
        assert len(rows) > 20
        assert printed == [rows[-1].split(",")[-1]]
