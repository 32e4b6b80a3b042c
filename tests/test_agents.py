import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terramob.agents import (
    MIN_SLOPE_REDUCTION,
    AgentProfile,
    EdgeTable,
    builtin_profile,
    builtin_profiles,
    profile_from_spec,
    speed,
)
from terramob.terrain import (
    DEFAULT_NODATA, NEIGHBOR_OFFSETS, OFFSET_TO_ACTION, CellIndex,
    ElevationGrid, make_synthetic,
)
from conftest import _reference_edge, rough_grid


def _human(reduction_at_ref):
    return AgentProfile(name="x", kind="human", s_flat=2.0, ref_slope=15.0,
                        reduction_at_ref=reduction_at_ref)


class TestReductionFactor:
    """A human's percent reduction is its speed factor at the reference."""

    def test_worked_example(self):
        assert speed(_human(40.0), 15.0) == pytest.approx(0.60 * 2.0)

    def test_no_reduction(self):
        assert speed(_human(0.0), 15.0) == 2.0

    def test_adopted_load_reduction(self):
        assert speed(_human(25.0), 15.0) == pytest.approx(0.75 * 2.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            _human(-1.0)
        with pytest.raises(ValueError):
            _human(101.0)

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_percent_round_trip(self, r):
        # the slope curve is floored at MIN_SLOPE_REDUCTION
        got = speed(_human(100.0 * (1.0 - r)), 15.0) / 2.0
        assert got == pytest.approx(max(r, MIN_SLOPE_REDUCTION), abs=1e-12)


class TestHumanSpeed:
    def test_fit_adult_at_reference(self):
        assert speed(builtin_profile("fit_adults"), 15.0) == pytest.approx(
            1.125, abs=0.005
        )

    def test_elderly_at_reference(self):
        assert speed(builtin_profile("elderly"), 15.0) == pytest.approx(
            0.50, abs=0.005
        )

    def test_hostile_at_reference(self):
        assert speed(builtin_profile("hostile"), 15.0) == pytest.approx(
            1.44, abs=0.005
        )

    def test_flat_ground_is_full_speed(self):
        for p in builtin_profiles():
            if p.kind == "human":
                assert speed(p, 0.0) == p.s_flat

    def test_impassable_above_max_slope(self):
        p = builtin_profile("fit_adults")
        assert speed(p, p.max_slope + 0.1) == 0.0

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            speed(builtin_profile("elderly"), -1.0)


class TestAnimalSpeed:
    def test_ox_cart_at_reference(self):
        v = speed(builtin_profile("ox_cart"), 10.0)
        assert v == pytest.approx(0.84, abs=0.005)
        assert v == pytest.approx(0.84375)

    def test_mule_at_reference(self):
        v = speed(builtin_profile("mule"), 25.0)
        assert v == pytest.approx(0.96, abs=0.005)
        assert v == pytest.approx(0.95625)

    def test_mule_on_flat_keeps_load_factor(self):
        assert speed(builtin_profile("mule"), 0.0) == pytest.approx(1.275)

    def test_speed_result_consistency(self):
        # s_flat * slope factor (linear from 1 to 0.9 at 10 %) * load factor
        p = builtin_profile("ox_cart")
        assert speed(p, 8.0) == pytest.approx(1.25 * (1.0 - 0.1 * 0.8) * 0.75)


class TestBuiltinProfiles:
    def test_exactly_six(self):
        assert len(builtin_profiles()) == 6

    def test_families_at_reference(self):
        assert speed(builtin_profile("families"), 15.0) == pytest.approx(
            0.78, abs=0.005
        )

    def test_ox_cart_load_is_four_vessels(self):
        p = builtin_profile("ox_cart")
        assert p.load_kg == 400.0 and p.vessels == 4
        assert p.load_kg == p.vessels * 100.0

    def test_mule_load(self):
        p = builtin_profile("mule")
        assert p.load_kg == 100.0 and p.vessels == 2

    def test_reference_speeds_table(self):
        expected = {
            "fit_adults": 1.125,
            "elderly": 0.50,
            "families": 0.78,
            "hostile": 1.44,
            "ox_cart": 0.84,
            "mule": 0.96,
        }
        for p in builtin_profiles():
            assert speed(p, p.ref_slope) == pytest.approx(
                expected[p.name], abs=0.005
            ), p.name

    def test_speed_monotone_in_slope(self):
        for p in builtin_profiles():
            slopes = np.linspace(0.0, p.max_slope, 60)
            speeds = [speed(p, s) for s in slopes]
            assert all(a >= b for a, b in zip(speeds, speeds[1:])), p.name
            assert all(0.0 < v <= p.s_flat for v in speeds), p.name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="no built-in profile named 'centaur'"):
            builtin_profile("centaur")


class TestProfileValidation:
    def test_human_needs_reduction(self):
        with pytest.raises(ValueError):
            AgentProfile(name="x", kind="human", s_flat=1.0, ref_slope=15.0)

    def test_human_rejects_load_terms(self):
        with pytest.raises(ValueError):
            AgentProfile(name="x", kind="human", s_flat=1.0, ref_slope=15.0,
                         reduction_at_ref=20.0, r_load=0.5)

    def test_animal_needs_both_factors(self):
        with pytest.raises(ValueError):
            AgentProfile(name="x", kind="animal", s_flat=1.0, ref_slope=10.0,
                         r_slope_at_ref=0.9)

    def test_override_does_not_touch_builtin(self):
        override = profile_from_spec({"base": "mule", "max_slope": 28.0})
        assert override.max_slope == 28.0
        assert builtin_profile("mule").max_slope == 30.0

    @pytest.mark.parametrize("spec, slope, want", [
        ({"base": "elderly", "reduction_at_ref": 65.0}, 15.0, 0.35),
        ({"base": "mule", "r_load": 0.5}, 0.0, 0.85),
    ], ids=["reduction_at_ref", "r_load"])
    def test_override_rederives_speed_law(self, spec, slope, want):
        assert speed(profile_from_spec(spec), slope) == pytest.approx(want)

    def test_inline_profile(self):
        p = profile_from_spec({
            "name": "scout", "kind": "human", "s_flat": 2.0,
            "ref_slope": 15.0, "reduction_at_ref": 20.0, "role": "hostile",
        })
        assert p.name == "scout" and p.role == "hostile"

    @pytest.mark.parametrize("spec", [
        {"base": "mule", "s_flat": 5e-324, "r_load": 0.5},  # speed 0.0
        {"base": "mule", "s_flat": 5e-324, "r_load": 0.75},  # 5e-324
        {"base": "fit_adults", "s_flat": 1e-308},  # subnormal at max_slope
    ], ids=["zero", "smallest subnormal", "subnormal at max_slope"])
    def test_refuses_a_speed_that_underflows(self, spec):
        with pytest.raises(ValueError, match="s_flat"):
            profile_from_spec(spec)

    @pytest.mark.parametrize("spec", [
        {"base": "elderly", "max_slope": math.inf, "reduction_at_ref": 0.0},
        {"base": "mule", "max_slope": math.inf, "r_slope_at_ref": 1.0},
        {"base": "mule", "max_slope": math.nan},
    ], ids=["human", "animal", "nan"])
    def test_refuses_a_max_slope_that_is_not_finite(self, spec):
        # speed at an infinite max_slope is 1 - 0.0 * inf, NaN, even where
        # the speed is s_flat on every slope
        with pytest.raises(ValueError, match="max_slope must be positive"
                                             " and finite"):
            profile_from_spec(spec)

    def test_every_passable_speed_is_normal(self):
        p = profile_from_spec({"base": "fit_adults", "s_flat": 1e-300})
        assert speed(p, p.max_slope) >= sys.float_info.min
        assert speed(p, 0.0) == 1e-300


def edge_time(p, grid, a, b):
    """Seconds to walk the edge a -> b: the time of its ``EdgeTable``
    entry, infinite where the entry is None."""
    e = EdgeTable(grid, p)[a][OFFSET_TO_ACTION[(b[0] - a[0], b[1] - a[1])]]
    return math.inf if e is None else e[1]


class TestEdgeTime:
    def test_flat_orthogonal_step(self, flat10):
        p = builtin_profile("fit_adults")
        t = edge_time(p, flat10, CellIndex(0, 0), CellIndex(0, 1))
        assert t == pytest.approx(20.0)

    def test_15_percent_step(self):
        grid = make_synthetic("ramp", nrows=3, ncols=5, cellsize=30.0, slope=15.0)
        p = builtin_profile("fit_adults")
        t = edge_time(p, grid, CellIndex(1, 0), CellIndex(1, 1))
        assert t == pytest.approx(26.667, abs=1e-3)

    def test_ox_cart_blocked_on_steep_step(self):
        grid = make_synthetic("ramp", nrows=3, ncols=5, cellsize=30.0, slope=25.0)
        p = builtin_profile("ox_cart")  # max_slope 15
        assert edge_time(p, grid, CellIndex(1, 0), CellIndex(1, 1)) == math.inf

    def test_nodata_endpoint_impassable(self, flat10):
        grid = flat10.with_nodata([CellIndex(0, 1)])
        p = builtin_profile("fit_adults")
        assert edge_time(p, grid, CellIndex(0, 0), CellIndex(0, 1)) == math.inf

    def test_symmetric_up_down(self):
        grid = make_synthetic("ramp", nrows=3, ncols=5, cellsize=30.0, slope=12.0)
        p = builtin_profile("families")
        up = edge_time(p, grid, CellIndex(1, 1), CellIndex(1, 2))
        down = edge_time(p, grid, CellIndex(1, 2), CellIndex(1, 1))
        assert up == down

    def test_each_entry_steps_to_its_actions_neighbor(self):
        # a table row holds only the 8 adjacent moves, each in its action's
        # slot: no entry reaches a cell that is not the source's neighbor
        grid = rough_grid(3, nrows=8, ncols=8, nodata_frac=0.2)
        table = EdgeTable(grid, builtin_profile("fit_adults"))
        for r in range(-1, 9):
            for c in range(-1, 9):
                row = table[CellIndex(r, c)]
                assert len(row) == len(NEIGHBOR_OFFSETS) == 8
                for (dr, dc), e in zip(NEIGHBOR_OFFSETS, row):
                    if e is not None:
                        assert e[0] == (r + dr, c + dc)
                        assert max(abs(dr), abs(dc)) == 1


def entry_bits(e):
    """An edge-table entry with its floats as ``float.hex`` text, so that
    0.0 and -0.0 (or any two floats that ``==`` calls equal) differ."""
    return e if e is None else (e[0], *(x.hex() for x in e[1:]))


_H = DEFAULT_NODATA


def plateau_grid():
    """Whole-metre heights on 30 m cells, as DEMs stored in metres have:
    0.0 beside -0.0 at (0, 0)-(0, 1), the flat diagonal (1, 0)-(2, 1)
    between the nodata flanks (1, 1) and (2, 0), the hole (1, 1) beside
    flat cells, 1 m rises and a 20 m cliff over every profile's limit."""
    values = np.array([[0.0, -0.0, 0.0, 1.0, 1.0, 20.0],
                       [0.0, _H, 0.0, 1.0, 2.0, 20.0],
                       [_H, 0.0, 3.0, 3.0, _H, 20.0],
                       [2.0, 2.0, _H, 3.0, 3.0, 20.0]])
    return ElevationGrid(6, 4, 0.0, 0.0, 30.0, _H, values)


EDGE_CASES = {"off-grid source", "hole source", "passable", "over limit",
              "sealed corner"}


class TestEdgeTable:
    @pytest.mark.parametrize("grid, cases", [
        *(pytest.param(rough_grid(5, nrows=12, ncols=12, cellsize=cellsize,
                                  nodata_frac=0.15, relief=6.0 * cellsize),
                       EDGE_CASES, id=str(cellsize))
          for cellsize in (0.5, 7.3, 30.0, 1000.0)),
        pytest.param(plateau_grid(), EDGE_CASES | {"flat"}, id="plateau"),
    ])
    def test_entries_are_edge(self, grid, cases):
        """Bit for bit, for all six profiles, on rough grids whose relief
        scales with the cellsize and on a plateau grid: passable steps
        (flat ones on the plateau), over-limit slopes, holes, sealed
        corners and sources off the grid or on a hole (speed 0 everywhere)
        all occur. An entry is None exactly where the neighbor is off the
        grid or nodata or ``_reference_edge``'s speed is 0.0."""
        for p in builtin_profiles():
            table = EdgeTable(grid, p)
            seen = set()
            for r in range(-1, grid.nrows + 1):
                for c in range(-1, grid.ncols + 1):
                    a = CellIndex(r, c)
                    for e, (dr, dc) in zip(table[a], NEIGHBOR_OFFSETS):
                        b = CellIndex(r + dr, c + dc)
                        if not grid.traversable(b):
                            assert e is None
                            continue
                        run, slope, v = _reference_edge(p, grid, a, b)
                        if v > 0.0:
                            assert type(e[0]) is CellIndex
                            assert entry_bits(e) == entry_bits(
                                (b, run / v, v, slope))
                            seen.add("flat" if grid.elevation(a)
                                     == grid.elevation(b) else "passable")
                            continue
                        assert e is None
                        if not grid.traversable(a):
                            seen.add("off-grid source" if not grid.in_bounds(a)
                                     else "hole source")
                        elif slope > p.max_slope:
                            seen.add("over limit")
                        else:
                            seen.add("sealed corner")
            assert cases <= seen, p.name

    def test_rows_are_kept(self, flat10):
        table = EdgeTable(flat10, builtin_profile("mule"))
        row = table[CellIndex(4, 4)]
        assert table[(4, 4)] is row and len(table) == 1
        assert table.grid is flat10 and table.profile.name == "mule"
