import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terramob.agents import builtin_profile, edge
from terramob.terrain import (
    CellIndex,
    ElevationGrid,
    GridFormatError,
    NEIGHBOR_OFFSETS,
    grid_from_recipe,
    line_of_sight,
    make_synthetic,
    parse_ascii_grid,
    serialize_ascii_grid,
    two_corridor_endpoints,
    viewshed,
)
from conftest import rough_grid

FIT = builtin_profile("fit_adults")

ASC_3X3 = """\
ncols 3
nrows 3
xllcorner 0.0
yllcorner 0.0
cellsize 30.0
NODATA_value -9999
0 1 2
3 4 5
6 7 8
"""


# ---------------------------------------------------------------------------
# ASCII grid parsing
# ---------------------------------------------------------------------------

class TestParseAsciiGrid:
    def test_constant_field(self):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 30\n10 10\n10 10\n"
        grid = parse_ascii_grid(text)
        assert grid.ncols == 2 and grid.nrows == 2
        assert np.all(grid.values == 10.0)

    def test_nodata_cell_flagged_non_traversable(self):
        text = (
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
            "NODATA_value -9999\n10 -9999\n10 10\n"
        )
        grid = parse_ascii_grid(text)
        assert grid.is_nodata(CellIndex(0, 1))
        assert not grid.traversable(CellIndex(0, 1))
        assert grid.traversable(CellIndex(0, 0))

    def test_row_major_row0_northernmost(self):
        grid = parse_ascii_grid(ASC_3X3)
        assert grid.values[2, 0] == 6.0

    def test_header_case_and_whitespace_insensitive(self):
        text = "NCOLS  2\nNrows 1\nXLLCORNER 5\nyllCorner 6\nCellSize 10\n1 2\n"
        grid = parse_ascii_grid(text)
        assert grid.xll == 5.0 and grid.yll == 6.0

    def test_unknown_header_key_reports_line(self):
        with pytest.raises(GridFormatError) as exc:
            parse_ascii_grid("ncols 2\nnrows 1\nbogus 1\n")
        assert exc.value.line == 3

    def test_non_numeric_token_reports_line(self):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 30\n1 2\n3 oops\n"
        with pytest.raises(GridFormatError) as exc:
            parse_ascii_grid(text)
        assert exc.value.line == 7

    def test_too_few_values(self):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 30\n1 2 3\n"
        with pytest.raises(GridFormatError, match="too few"):
            parse_ascii_grid(text)

    def test_too_many_values(self):
        text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 30\n1 2 3\n"
        with pytest.raises(GridFormatError, match="too many") as exc:
            parse_ascii_grid(text)
        assert exc.value.line == 6

    def test_nonpositive_cellsize_reports_line(self):
        text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize -5\n1 2\n"
        with pytest.raises(GridFormatError, match="cellsize") as exc:
            parse_ascii_grid(text)
        assert exc.value.line == 5

    def test_missing_header_key(self):
        with pytest.raises(GridFormatError, match="missing header"):
            parse_ascii_grid("ncols 2\nnrows 1\ncellsize 30\n1 2\n")

    # 2 x 3 grid, header on lines 1-5, data rows on lines 6-8
    @pytest.mark.parametrize("rows, message", [
        (["1 2", "3 oops", "5 6"], "line 7: non-numeric token 'oops'"),
        (["1 2", "3 4", "oops 6"], "line 8: non-numeric token 'oops'"),
        (["1 2", "3 nan", "5 6"], "line 7: non-finite value 'nan'"),
        (["1 2", "3 4", "5 -inf"], "line 8: non-finite value '-inf'"),
        (["1 2 3 4", "5 6 7", "8"], "line 7: too many values: expected 6"),
        (["1 2", "3 4", "5 6 7"], "line 8: too many values: expected 6"),
    ])
    def test_bad_data_token_names_its_line(self, rows, message):
        text = ("ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
                + "\n".join(rows) + "\n")
        with pytest.raises(GridFormatError) as exc:
            parse_ascii_grid(text)
        assert str(exc.value) == message

    def test_first_bad_token_in_file_order_is_reported(self):
        text = ("ncols 1\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
                "1\n\n2 3\nx\n")
        with pytest.raises(GridFormatError) as exc:
            parse_ascii_grid(text)
        assert str(exc.value) == "line 8: too many values: expected 2"

    def test_tokens_read_as_python_float(self):
        text = ("ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
                "1_0\n\u0661\u0662 1e2\n")
        assert parse_ascii_grid(text).values.tolist() == [[10.0, 12.0, 100.0]]

    def test_oversized_header_is_refused_before_the_data(self):
        text = ("nrows 100000\nncols 100001\nxllcorner 0\nyllcorner 0\n"
                "cellsize 30\n1 x\n")
        with pytest.raises(GridFormatError) as exc:
            parse_ascii_grid(text)
        assert str(exc.value) == ("line 2: grid of 100000 x 100001 cells "
                                  "exceeds MAX_GRID_CELLS = 10000000")

    @pytest.mark.parametrize("nodata", ["nan", "inf", "-inf"])
    def test_non_finite_nodata_is_refused_on_its_line(self, nodata):
        text = ("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
                f"NODATA_value {nodata}\n1 inf\n")
        with pytest.raises(GridFormatError) as exc:
            parse_ascii_grid(text)
        assert str(exc.value) == f"line 6: nodata_value must be finite, got {nodata}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("layout", ["rows wrapped", "values wrapped",
                                        "one value per line", "ragged",
                                        "blank runs"])
    def test_any_row_layout_reads_like_one_row_per_line(self, layout):
        # 300 values, so one to a line they span several joined runs
        grid = rough_grid(5, nrows=20, ncols=15)
        lines = serialize_ascii_grid(grid).splitlines()
        header, rows = lines[:6], lines[6:]
        tokens = " ".join(rows).split()
        if layout == "rows wrapped":
            rows = [" ".join(part) for row in rows
                    for part in (row.split()[:4], row.split()[4:])]
        elif layout == "values wrapped":
            rows = [" ".join(tokens[i:i + 5]) for i in range(0, len(tokens), 5)]
        elif layout == "one value per line":
            rows = tokens
        elif layout == "ragged":
            rows = [" ".join(tokens[:3]), " ".join(tokens[3:])]
        else:
            # a joined run of blank lines only, on which numpy's reader warns
            rows = [tok + "\n" * 300 for tok in tokens[:2]] + tokens[2:]
        again = parse_ascii_grid("\n".join(header + rows) + "\n")
        assert again.values.tobytes() == grid.values.tobytes()

    def test_round_trip_is_canonical(self):
        grid = parse_ascii_grid(ASC_3X3)
        text = serialize_ascii_grid(grid)
        again = parse_ascii_grid(text)
        assert serialize_ascii_grid(again) == text
        assert np.array_equal(again.values, grid.values)
        assert (again.ncols, again.nrows, again.xll, again.yll,
                again.cellsize, again.nodata) == (
            grid.ncols, grid.nrows, grid.xll, grid.yll,
            grid.cellsize, grid.nodata,
        )

    def test_round_trip_rough_grid_bit_exact(self):
        grid = rough_grid(3, nrows=12, ncols=9)
        text = serialize_ascii_grid(grid)
        again = parse_ascii_grid(text)
        assert np.array_equal(again.values, grid.values)
        assert serialize_ascii_grid(again) == text


# ---------------------------------------------------------------------------
# Slope
# ---------------------------------------------------------------------------

class TestSlope:
    """Run and slope of ``agents.edge``; speed 0.0 where an endpoint is a hole."""

    def test_flat_neighbors_zero(self, flat10):
        run, slope, _v = edge(FIT, flat10, CellIndex(2, 2), CellIndex(2, 3))
        assert slope == 0.0 and run == 30.0

    def test_orthogonal_15_percent(self):
        grid = make_synthetic("ramp", nrows=4, ncols=4, cellsize=30.0, slope=15.0)
        run, slope, _v = edge(FIT, grid, CellIndex(1, 0), CellIndex(1, 1))
        assert slope == pytest.approx(15.0)
        assert slope / 100.0 * run == pytest.approx(4.5)

    def test_diagonal_run_uses_sqrt2(self):
        values = np.zeros((2, 2))
        values[1, 1] = 4.5
        grid = ElevationGrid(2, 2, 0, 0, 30.0, -9999.0, values)
        run, slope, _v = edge(FIT, grid, CellIndex(0, 0), CellIndex(1, 1))
        assert run == pytest.approx(30.0 * math.sqrt(2))
        assert slope == pytest.approx(10.6066, abs=1e-4)

    def test_non_adjacent_rejected(self, flat10):
        with pytest.raises(ValueError, match="not adjacent"):
            edge(FIT, flat10, CellIndex(0, 0), CellIndex(0, 2))

    def test_nodata_endpoint_rejected(self):
        values = np.zeros((2, 2))
        values[0, 1] = -9999.0
        grid = ElevationGrid(2, 2, 0, 0, 30.0, -9999.0, values)
        assert edge(FIT, grid, CellIndex(0, 0), CellIndex(0, 1))[2] == 0.0
        assert edge(FIT, grid, CellIndex(0, 1), CellIndex(0, 0))[2] == 0.0

    def test_symmetric_on_rough_grid(self):
        grid = rough_grid(11, nrows=10, ncols=10, nodata_frac=0.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            dr, dc = [(-1, 0), (-1, 1), (0, 1), (1, 1)][int(rng.integers(4))]
            a, b = CellIndex(r, c), CellIndex(r + dr, c + dc)
            assert edge(FIT, grid, a, b) == edge(FIT, grid, b, a)


# ---------------------------------------------------------------------------
# Neighbors
# ---------------------------------------------------------------------------

def neighbors(grid, c):
    """The 8-neighbors ``edge`` lets a fit adult step to from c."""
    p = builtin_profile("fit_adults")
    out = []
    for dr, dc in NEIGHBOR_OFFSETS:
        nb = CellIndex(c[0] + dr, c[1] + dc)
        if edge(p, grid, c, nb)[2] > 0.0:
            out.append(nb)
    return out


class TestNeighbors:
    def test_interior_cell_has_8(self, flat10):
        assert len(neighbors(flat10, CellIndex(5, 5))) == 8

    def test_corner_cell_has_3(self, flat10):
        assert len(neighbors(flat10, CellIndex(0, 0))) == 3

    def test_corner_cut_rule(self):
        # nodata to the north and east seals the NE diagonal
        values = np.zeros((3, 3))
        values[0, 1] = values[1, 2] = -9999.0
        grid = ElevationGrid(3, 3, 0, 0, 30.0, -9999.0, values)
        nbs = neighbors(grid, CellIndex(1, 1))
        assert CellIndex(0, 2) not in nbs
        # ... in both directions
        assert CellIndex(1, 1) not in neighbors(grid, CellIndex(0, 2))
        # with only one side open the diagonal is allowed
        values2 = np.zeros((3, 3))
        values2[0, 1] = -9999.0
        grid2 = ElevationGrid(3, 3, 0, 0, 30.0, -9999.0, values2)
        assert CellIndex(0, 2) in neighbors(grid2, CellIndex(1, 1))

    def test_never_out_of_bounds_or_nodata(self):
        grid = rough_grid(5, nrows=8, ncols=8, nodata_frac=0.3)
        for r in range(8):
            for c in range(8):
                for nb in neighbors(grid, CellIndex(r, c)):
                    assert grid.in_bounds(nb)
                    assert not grid.is_nodata(nb)


# ---------------------------------------------------------------------------
# Line of sight
# ---------------------------------------------------------------------------

def los_oracle(grid, a, b, observer_height=1.7, target_height=1.7):
    """Brute-force sight test: float crossing times, midpoint sampling.

    Independent of the production integer traversal; corners are detected
    by coincident crossing times and resolved by nudging along the ray.
    """
    a, b = CellIndex(*a), CellIndex(*b)
    if a == b:
        return True
    za = grid.elevation(a) + observer_height
    zb = grid.elevation(b) + target_height
    dr, dc = b.row - a.row, b.col - a.col

    times = set()
    if dr:
        for level in range(min(a.row, b.row) + 1, max(a.row, b.row) + 1):
            times.add((level - a.row - 0.5) / dr)
    if dc:
        for level in range(min(a.col, b.col) + 1, max(a.col, b.col) + 1):
            times.add((level - a.col - 0.5) / dc)
    cuts = [0.0] + sorted(times) + [1.0]

    def height_at(t):
        return za + t * (zb - za)

    def blocks(r, c, t):
        z = grid.values[r, c]
        return z == grid.nodata or z > height_at(t)

    endpoints = {tuple(a), tuple(b)}
    for t0, t1 in zip(cuts, cuts[1:]):
        if t1 - t0 < 1e-12:
            continue
        tm = (t0 + t1) / 2.0
        r = math.floor(a.row + 0.5 + tm * dr)
        c = math.floor(a.col + 0.5 + tm * dc)
        if (r, c) in endpoints:
            continue
        if blocks(r, c, tm):
            return False
    # exact corner contacts: both touching side cells can occlude
    if dr and dc:
        for level in range(min(a.row, b.row) + 1, max(a.row, b.row) + 1):
            t = Fraction(2 * level - 2 * a.row - 1, 2 * dr)
            col_coord = Fraction(2 * a.col + 1, 2) + t * dc
            if col_coord.denominator != 1:
                continue
            tf = float(t)
            eps = 1e-9
            prev_cell = (math.floor(a.row + 0.5 + (tf - eps) * dr),
                         math.floor(a.col + 0.5 + (tf - eps) * dc))
            next_cell = (math.floor(a.row + 0.5 + (tf + eps) * dr),
                         math.floor(a.col + 0.5 + (tf + eps) * dc))
            corner_r, corner_c = level, int(col_coord)
            touching = {
                (corner_r - 1, corner_c - 1), (corner_r - 1, corner_c),
                (corner_r, corner_c - 1), (corner_r, corner_c),
            }
            for cell in touching - {prev_cell, next_cell} - endpoints:
                if blocks(cell[0], cell[1], tf):
                    return False
    return True


class TestLineOfSight:
    def test_same_cell(self, flat10):
        assert line_of_sight(flat10, CellIndex(3, 3), CellIndex(3, 3))

    def test_flat_grid_always_visible(self, flat10):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = CellIndex(int(rng.integers(10)), int(rng.integers(10)))
            b = CellIndex(int(rng.integers(10)), int(rng.integers(10)))
            assert line_of_sight(flat10, a, b)

    def test_ridge_profile_blocks(self):
        values = np.array([[0.0, 0.0, 50.0, 0.0, 0.0]])
        grid = ElevationGrid(5, 1, 0, 0, 30.0, -9999.0, values)
        assert not line_of_sight(grid, CellIndex(0, 0), CellIndex(0, 4))
        # high enough towers see over it
        assert line_of_sight(grid, CellIndex(0, 0), CellIndex(0, 4), 60.0, 60.0)

    def test_nodata_is_opaque(self):
        values = np.zeros((1, 5))
        values[0, 2] = -9999.0
        grid = ElevationGrid(5, 1, 0, 0, 30.0, -9999.0, values)
        assert not line_of_sight(grid, CellIndex(0, 0), CellIndex(0, 4))

    def test_nodata_endpoint_is_an_error(self):
        values = np.zeros((1, 3))
        values[0, 0] = -9999.0
        grid = ElevationGrid(3, 1, 0, 0, 30.0, -9999.0, values)
        with pytest.raises(ValueError):
            line_of_sight(grid, CellIndex(0, 0), CellIndex(0, 2))

    def test_symmetry_equal_heights(self):
        grid = rough_grid(21, nrows=12, ncols=12, nodata_frac=0.05)
        rng = np.random.default_rng(2)
        pairs = 0
        while pairs < 120:
            a = CellIndex(int(rng.integers(12)), int(rng.integers(12)))
            b = CellIndex(int(rng.integers(12)), int(rng.integers(12)))
            if grid.is_nodata(a) or grid.is_nodata(b):
                continue
            pairs += 1
            assert line_of_sight(grid, a, b) == line_of_sight(grid, b, a)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 40.0, (9, 9))
        values[rng.random((9, 9)) < 0.06] = -9999.0
        grid = ElevationGrid(9, 9, 0, 0, 30.0, -9999.0, values)
        checked = 0
        while checked < 150:
            a = CellIndex(int(rng.integers(9)), int(rng.integers(9)))
            b = CellIndex(int(rng.integers(9)), int(rng.integers(9)))
            if grid.is_nodata(a) or grid.is_nodata(b):
                continue
            checked += 1
            assert line_of_sight(grid, a, b) == los_oracle(grid, a, b), (a, b)

    def test_exact_diagonal_agrees_with_brute_force(self):
        rng = np.random.default_rng(55)
        values = rng.uniform(0.0, 40.0, (8, 8))
        grid = ElevationGrid(8, 8, 0, 0, 30.0, -9999.0, values)
        for k in range(2, 8):
            a, b = CellIndex(0, 0), CellIndex(k, k)
            assert line_of_sight(grid, a, b) == los_oracle(grid, a, b), k


# ---------------------------------------------------------------------------
# Viewshed
# ---------------------------------------------------------------------------

class TestViewshed:
    def test_origin_must_be_traversable(self, flat10):
        holed = flat10.with_nodata([CellIndex(5, 5)])
        for grid, origin in ((holed, CellIndex(5, 5)),
                             (flat10, CellIndex(10, 0))):
            with pytest.raises(ValueError, match="^viewshed origin must be a"
                                                 " traversable cell$"):
                viewshed(grid, origin, radius=100.0)

    @pytest.mark.parametrize("radius", [0.0, -30.0, math.nan])
    def test_radius_must_be_positive(self, flat10, radius):
        with pytest.raises(ValueError, match="^radius must be positive$"):
            viewshed(flat10, CellIndex(5, 5), radius=radius)

    def test_flat_grid_mask_is_radius_disc(self, flat10):
        mask = viewshed(flat10, CellIndex(5, 5), radius=100.0)
        for r in range(10):
            for c in range(10):
                inside = math.hypot((r - 5) * 30.0, (c - 5) * 30.0) <= 100.0
                assert mask[r, c] == inside

    def test_cone_peak_sees_everything_in_radius(self):
        grid = make_synthetic("cone", nrows=15, ncols=15, cellsize=30.0,
                              peak=30.0, radius=400.0)
        origin = CellIndex(7, 7)
        mask = viewshed(grid, origin, radius=1000.0)
        assert mask.all()

    def test_pit_in_ring_wall_blocks_beyond(self):
        values = np.zeros((9, 9))
        for r in range(9):
            for c in range(9):
                if max(abs(r - 4), abs(c - 4)) == 2:
                    values[r, c] = 50.0
        grid = ElevationGrid(9, 9, 0, 0, 30.0, -9999.0, values)
        mask = viewshed(grid, CellIndex(4, 4), radius=1000.0)
        for r in range(9):
            for c in range(9):
                ring_dist = max(abs(r - 4), abs(c - 4))
                if ring_dist <= 1:
                    assert mask[r, c], (r, c)
                if ring_dist > 2:
                    assert not mask[r, c], (r, c)

    def test_matches_per_cell_los(self):
        grid = rough_grid(31, nrows=20, ncols=20, nodata_frac=0.05)
        origin = CellIndex(10, 10)
        assert not grid.is_nodata(origin)
        mask = viewshed(grid, origin, radius=350.0)
        for r in range(20):
            for c in range(20):
                cell = CellIndex(r, c)
                in_radius = math.hypot((r - 10) * 30.0, (c - 10) * 30.0) <= 350.0
                if grid.is_nodata(cell) or not in_radius:
                    assert not mask[r, c]
                else:
                    assert mask[r, c] == line_of_sight(grid, origin, cell)


# ---------------------------------------------------------------------------
# Synthetic terrain
# ---------------------------------------------------------------------------

class TestSynthetic:
    def test_flat(self):
        grid = make_synthetic("flat", nrows=10, ncols=10, h=100.0)
        assert np.all(grid.values == 100.0)

    def test_ramp_x_step(self):
        grid = make_synthetic("ramp", nrows=4, ncols=6, cellsize=30.0, slope=15.0)
        deltas = np.diff(grid.values, axis=1)
        assert np.allclose(deltas, 4.5)

    def test_ramp_y_rises_northward(self):
        grid = make_synthetic("ramp", nrows=4, ncols=3, cellsize=30.0,
                              slope=10.0, axis="y")
        assert grid.values[0, 0] > grid.values[3, 0]

    def test_ridge_column(self):
        grid = make_synthetic("ridge", nrows=12, ncols=9, height=60.0, position=4)
        assert np.all(grid.values[3:, 4] == 60.0)
        assert np.all(grid.values[:3, 4] == 0.0)
        assert np.all(grid.values[:, :4] == 0.0)

    def test_two_corridor_slopes(self):
        grid = make_synthetic("two_corridor", nrows=13, ncols=21,
                              cellsize=30.0, gentle=10.0, steep=25.0)
        start, goal = two_corridor_endpoints(grid)
        assert start == CellIndex(6, 0) and goal == CellIndex(6, 20)
        mid = 6
        for c in range(20):
            _run, slope, _v = edge(FIT, grid, CellIndex(mid, c),
                                   CellIndex(mid, c + 1))
            assert slope == pytest.approx(25.0)
            _run, slope, _v = edge(FIT, grid, CellIndex(0, c),
                                   CellIndex(0, c + 1))
            assert slope == pytest.approx(10.0)
        for r in range(mid):
            _run, slope, _v = edge(FIT, grid, CellIndex(r, 0),
                                   CellIndex(r + 1, 0))
            assert slope == 0.0
        # off-corridor cells are holes
        assert grid.is_nodata(CellIndex(3, 5))

    def test_recipe_parameter_out_of_range(self):
        with pytest.raises(ValueError):
            make_synthetic("two_corridor", nrows=13, ncols=20,  # even ncols
                           gentle=10.0, steep=25.0)
        with pytest.raises(ValueError):
            make_synthetic("cone", nrows=5, ncols=5, peak=-1.0, radius=10.0)
        with pytest.raises(ValueError):
            make_synthetic("nonsense", nrows=5, ncols=5)

    def test_grid_from_recipe_string(self):
        grid = grid_from_recipe("flat:h=7,nrows=4,ncols=5,cellsize=10")
        assert grid.nrows == 4 and grid.ncols == 5 and grid.cellsize == 10.0
        assert np.all(grid.values == 7.0)

    def test_grid_from_recipe_dict(self):
        grid = grid_from_recipe(
            {"recipe": "ridge", "nrows": 8, "ncols": 9, "height": 40, "position": 4}
        )
        assert grid.values[7, 4] == 40.0

    @pytest.mark.parametrize("spec, key", [
        ("flat:h=0,nrows=5.5,ncols=5", "nrows"),
        ("flat:h=0,nrows=5,ncols=4.25", "ncols"),
        ("ridge:height=40,position=2.7,nrows=8,ncols=9", "position"),
        ({"recipe": "flat", "nrows": True, "ncols": 5}, "nrows"),
        ({"recipe": "flat", "nrows": 5, "ncols": "5"}, "ncols"),
        ({"recipe": "ridge", "nrows": 8, "ncols": 9, "height": 40,
          "position": 2.7}, "position"),
        ({"recipe": "ridge", "nrows": 8, "ncols": 9, "height": 40,
          "position": False}, "position"),
    ])
    def test_non_integral_size_is_refused(self, spec, key):
        with pytest.raises(ValueError, match=f"recipe {key} must be an integer"):
            grid_from_recipe(spec)

    def test_integral_float_size_is_accepted(self):
        grid = grid_from_recipe({"recipe": "ridge", "nrows": 8.0, "ncols": 9,
                                 "height": 40, "position": 4.0})
        assert (grid.nrows, grid.ncols) == (8, 9)
        assert grid.values[7, 4] == 40.0
        assert grid_from_recipe("flat:h=0,nrows=5.0,ncols=5").nrows == 5


# ---------------------------------------------------------------------------
# Grid invariants
# ---------------------------------------------------------------------------

class TestElevationGrid:
    @pytest.mark.parametrize("ncols, nrows", [(0, 3), (3, -1)])
    def test_dimensions_must_be_positive(self, ncols, nrows):
        with pytest.raises(ValueError,
                           match="^grid dimensions must be positive$"):
            ElevationGrid(ncols, nrows, 0.0, 0.0, 30.0, -9999.0, np.zeros(0))

    def test_values_are_read_only(self, flat10):
        with pytest.raises(ValueError):
            flat10.values[0, 0] = 1.0

    def test_flat_view_is_a_read_only_row_major_copy(self):
        source = rough_grid(5, nrows=4, ncols=6).values.copy()
        source[1, 2] = -9999.0
        grid = ElevationGrid(6, 4, 0, 0, 30.0, -9999.0, source)
        source[0, 0] = 1e6  # the grid holds its own copy
        assert grid.flat.readonly
        assert grid.flat.tolist() == grid.values.ravel().tolist()
        assert grid.flat[1 * 6 + 2] == -9999.0
        with pytest.raises(TypeError):
            grid.flat[0] = 1.0

    def test_pickle_and_deepcopy_rebuild_the_grid(self):
        grid = rough_grid(6, nrows=3, ncols=5)
        for again in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
            assert again.values.tobytes() == grid.values.tobytes()
            assert again.flat.tolist() == grid.flat.tolist()
            assert ((again.ncols, again.nrows, again.xll, again.yll,
                     again.cellsize, again.nodata)
                    == (grid.ncols, grid.nrows, grid.xll, grid.yll,
                        grid.cellsize, grid.nodata))

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (4, 0), (0, 5)])
    def test_off_grid_cell_is_refused(self, cell):
        # a negative index would read the opposite edge of the array
        grid = make_synthetic("ramp", nrows=4, ncols=5, slope=10.0)
        for query in (grid.elevation, grid.is_nodata,
                      lambda c: line_of_sight(grid, CellIndex(1, 1), c)):
            with pytest.raises(ValueError,
                               match=rf"cell \({cell[0]}, {cell[1]}\) is outside"):
                query(CellIndex(*cell))
        assert not grid.traversable(CellIndex(*cell))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            ElevationGrid(3, 3, 0, 0, 30.0, -9999.0, np.zeros(8))

    def test_non_finite_rejected(self):
        values = np.zeros((2, 2))
        values[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ElevationGrid(2, 2, 0, 0, 30.0, -9999.0, values)

    def test_cell_center_round_trip(self, flat10):
        for cell in (CellIndex(0, 0), CellIndex(9, 9), CellIndex(3, 7)):
            x, y = flat10.cell_center(cell)
            assert flat10.cell_of_point(x, y) == cell

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_with_nodata_masks_cells(self, r, c):
        grid = make_synthetic("flat", nrows=7, ncols=7, h=5.0)
        masked = grid.with_nodata([CellIndex(r, c)])
        assert masked.is_nodata(CellIndex(r, c))
        assert not grid.is_nodata(CellIndex(r, c))

    @pytest.mark.parametrize("cell", [(-1, 0), (3, 0), (0, -1), (0, 3)])
    def test_with_nodata_refuses_off_grid_cells(self, cell):
        # numpy indexing would wrap (-1, 0) to (2, 0), and miss (3, 0)
        grid = make_synthetic("flat", nrows=3, ncols=3, h=5.0)
        with pytest.raises(ValueError,
                           match=rf"cell \({cell[0]}, {cell[1]}\) is outside"):
            grid.with_nodata([CellIndex(1, 1), CellIndex(*cell)])
        assert not any(grid.is_nodata(CellIndex(r, c))
                       for r in range(3) for c in range(3))
