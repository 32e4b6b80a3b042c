"""Malformed-input fuzzing of every parser behind the CLI.

Whatever a scenario file, an ``.asc`` grid, a recipe or a q-table holds,
the parser either returns or raises ValueError (ConfigError and
GridFormatError are ValueErrors), which the CLI turns into exit 3 with one
``error:`` line. Any other exception would be a traceback. Grid sizes are
drawn small so that no case allocates a large grid. ``terramob report`` is
fuzzed end to end: it exits 0 or 3 on any document. The bulk ``.asc``
reader is also checked against the token-at-a-time reader it replaced:
same grid bytes or the same error, whichever numpy is installed. The local
step rules, which read an edge table, are checked against per-neighbor
loops over the edge rule's reference (``conftest._reference_edge``) on
random small grids, and every entry of the table against it; a route
follower's ``local_step`` must return a stay or an open move onto a
cell that is not blocked, on A* plans over flat and rough grids with
holes; the trace writer against the per-row writer it replaced, also with one ``t_s``
text memo shared by several files. Training, which backs up plain float
rows, is checked against the numpy-scalar loop it replaced: the same
table bytes and the same learning curve. A held-out rollout, which runs
``local_step`` only where a bar can change the move, is checked against
the loop that runs it on every step, on the corridor's 120 bars and
arbitrary ones, and a frozen table's kept moves (``TableMoves``) against
``bypass_move`` and the per-call rule it replaced. A* is checked against the
Dijkstra oracle on grids of up to 6 x 6 cells, strips included, where
most nodes are border nodes, so both its bounds-checked border path and
its unchecked interior path run, and the oracle, which walks an edge
table, against the same search over the edge rule's reference, on cells
of 0.5 to 1000 m.
"""

import heapq
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (
    assume, example, given, reject, settings, strategies as st,
)

from terramob.agents import EdgeTable, builtin_profile, builtin_profiles
from terramob.cli import EXIT_BAD_INPUT, EXIT_OK, main
from terramob.local_adapt import (
    ACTION_STAY, ACTIONS, N_ACTIONS, N_DEVIATION_BUCKETS, N_STATES,
    CorridorEnv, EpisodeStats, LearningParams, RewardWeights, TableMoves,
    _offset_direction, _rollout, build_local_state, bypass_move,
    deviation_cells, greedy_step, keep_state_code, load_qtable, local_step,
    train_bypass, write_learning_curve,
)
from terramob.planner import (
    OBJECTIVES, NoPathError, PathPlan, astar, dijkstra_all, dijkstra_oracle,
    heuristic,
)
from terramob.sim import ScenarioConfig, TraceRecord, write_trace_csv
from terramob.terrain import (
    DEFAULT_NODATA, NEIGHBOR_OFFSETS, RECIPES, CellIndex, ElevationGrid,
    GridFormatError, _HEADER_KEYS, _REQUIRED_KEYS, _check_header,
    _looks_numeric, grid_from_recipe, parse_ascii_grid,
)
from conftest import (
    _reference_edge, _reference_q_update, _reference_reward,
    _reference_select_action,
)

FUZZ = settings(max_examples=300, deadline=None)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    # JSON's 1e999 and NaN, common enough to reach every int()/float()
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)

# A scenario using every section; cases replace or delete parts of it.
VALID_SCENARIO = {
    "terrain": {"recipe": "flat", "nrows": 4, "ncols": 4},
    "sim": {"seed": 1, "dt": 1.0, "max_sim_time": 60.0,
            "observer_height": 1.7},
    "agents": [{"id": "a", "profile": "mule", "start": [0, 0],
                "goal": [3, 3], "qtable": "q.txt"},
               {"id": "b", "profile": {"base": "hostile"}, "start": [3, 0],
                "goal": [0, 3]}],
    "profiles": [{"base": "mule", "max_slope": 20.0}],
    "obstacles": [{"cells": [[1, 1], [1, 2]], "schedule": [[0.0, 5.0]]}],
    "pursuit_rules": [{"pursuer": "b", "target": "a", "los_loss_limit": 30.0,
                       "effort_budget": 100.0, "capture_radius": 1.0}],
    "transport": {"a": "ox_cart", "b": "mule",
                  "routes": [{"name": "r", "start": [0, 0], "goal": [3, 3]}]},
    "outputs": "out",
    "strict": False,
}
DELETE = object()


def _paths(obj, prefix=()):
    """Every key or index path into a JSON document, the root excluded."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _mutate(doc, edits):
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        parent = doc
        try:
            for k in path[:-1]:
                parent = parent[k]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced this path
    return doc


scenarios = st.one_of(
    st.lists(st.tuples(st.sampled_from(list(_paths(VALID_SCENARIO))),
                       values | st.just(DELETE)), min_size=1, max_size=3)
    .map(lambda edits: _mutate(VALID_SCENARIO, edits)),
    values,
)


def _rejects_cleanly(parse, arg):
    try:
        parse(arg)
    except ValueError:
        pass


@settings(max_examples=1000, deadline=None)
@given(scenarios)
def test_scenario_from_dict(obj):
    _rejects_cleanly(ScenarioConfig.from_dict, obj)


dims = st.sampled_from(["1", "2", "3", "0", "-2", "2.5", "inf", "-inf", "nan",
                        "1e999", "1e9", "x"])
numbers = st.sampled_from(["0", "1.5", "-9999", "nan", "inf", "1e999", "x",
                           "-0"])
# The five required keys (values fuzzed), maybe NODATA_value, any order.
header_lines = st.tuples(
    st.tuples(st.sampled_from(["ncols", "NCOLS"]), dims),
    st.tuples(st.just("nrows"), dims),
    st.tuples(st.just("xllcorner"), numbers),
    st.tuples(st.just("yllcorner"), numbers),
    st.tuples(st.just("cellsize"), st.sampled_from(["30", "0", "-1", "nan"])),
    st.lists(st.tuples(st.sampled_from(["NODATA_value", "bogus"]), numbers),
             max_size=1),
).map(lambda t: [" ".join(kv) for kv in (*t[:5], *t[5])])
header_lines = header_lines.flatmap(st.permutations)
data_lines = st.lists(st.lists(numbers, max_size=4).map(" ".join), max_size=4)


@FUZZ
@given(st.one_of(
    st.tuples(header_lines, data_lines).map(
        lambda hd: "\n".join(hd[0] + hd[1])),
    st.text(max_size=60),
))
def test_parse_ascii_grid(text):
    _rejects_cleanly(parse_ascii_grid, text)


def _reference_parse(text):
    """The token-at-a-time ``.asc`` reader that the bulk reader replaced.
    It shares ``_check_header``, so both refuse the same headers (a
    non-finite NODATA_value among them)."""
    header = {}
    header_lines = {}
    data = []
    expected = None
    lineno = 0
    in_header = True

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if in_header and not _looks_numeric(tokens[0]):
            if len(tokens) != 2:
                raise GridFormatError(
                    f"header line must be 'key value', got {raw!r}", lineno
                )
            key = tokens[0].lower()
            if key not in _HEADER_KEYS:
                raise GridFormatError(f"unknown header key {tokens[0]!r}", lineno)
            try:
                header[key] = float(tokens[1])
            except ValueError:
                raise GridFormatError(
                    f"non-numeric value for {tokens[0]!r}: {tokens[1]!r}", lineno
                ) from None
            header_lines[key] = lineno
            continue

        if in_header:
            missing = [k for k in _REQUIRED_KEYS if k not in header]
            if missing:
                raise GridFormatError(
                    "missing header key(s): " + ", ".join(missing), lineno
                )
            _check_header(header, header_lines)
            expected = int(header["ncols"]) * int(header["nrows"])
            in_header = False

        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise GridFormatError(f"non-numeric token {tok!r}", lineno) from None
            nodata = header.get("nodata_value", DEFAULT_NODATA)
            if not math.isfinite(v) and v != nodata:
                raise GridFormatError(f"non-finite value {tok!r}", lineno)
            data.append(v)
            if expected is not None and len(data) > expected:
                raise GridFormatError(
                    f"too many values: expected {expected}", lineno
                )

    if in_header:
        missing = [k for k in _REQUIRED_KEYS if k not in header]
        raise GridFormatError(
            "missing header key(s): " + ", ".join(missing) if missing
            else "no data rows",
            max(lineno, 1),
        )
    if len(data) < expected:
        raise GridFormatError(
            f"too few values: expected {expected}, got {len(data)}", max(lineno, 1)
        )

    return ElevationGrid(
        ncols=int(header["ncols"]),
        nrows=int(header["nrows"]),
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header.get("nodata_value", DEFAULT_NODATA),
        values=np.array(data, dtype=float),
    )


def _outcome(parse, text):
    try:
        grid = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return (grid.ncols, grid.nrows, grid.xll, grid.yll, grid.cellsize,
            grid.nodata, grid.values.tobytes())


# float() and numpy's C text reader both read these; bytes are compared, so
# a -0.0 read as 0.0 would show
C_TOKENS = ["1", "2.5", "-9999", "-0", "-0.0", "1e-400", ".5", "5."]
FINITE_TOKENS = C_TOKENS + ["1_0", "\u0661\u0662"]  # float() reads, C refuses
# tokens the two readers might read differently; \x1c and \xa0 separate
ODD_TOKENS = ["1__0", "nan", "inf", "-inf", "+nan", "Infinity", "1e400",
              "0x1", "x", "#", '"1"', "1,2", "\x1c", "\xa0", "\x00"]


@st.composite
def asc_texts(draw):
    """A small header, one required key perhaps dropped, in any order, then
    data tokens: about as many as it asks for, wrapped and spaced at random,
    or a block of equal rows, one per line, as numpy's fast path reads."""
    ncols, nrows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    keys = [("ncols", ncols), ("nrows", nrows), ("xllcorner", 0),
            ("yllcorner", 0), ("cellsize", 30)]
    keys += [("NODATA_value", v) for v in draw(st.lists(
        st.sampled_from(["-9999", "inf", "-inf", "nan", "0"]), max_size=1))]
    drop = draw(st.sampled_from((None,) * 10 + _REQUIRED_KEYS))
    header = draw(st.permutations([f"{k} {v}" for k, v in keys if k != drop]))
    # one other token among the C-readable ones reaches the fast path often
    odd = draw(st.sampled_from(FINITE_TOKENS[len(C_TOKENS):] + ODD_TOKENS))
    pool = st.sampled_from(draw(st.sampled_from(
        [C_TOKENS, C_TOKENS + [odd], FINITE_TOKENS + ODD_TOKENS])))
    if draw(st.booleans()):
        n = draw(st.integers(0, 2 * ncols * nrows) | st.just(ncols * nrows))
        tokens = draw(st.lists(pool, min_size=n, max_size=n))
        seps = draw(st.lists(st.sampled_from([" ", "\t", "\n", "\n\n", "\n \n"]),
                             min_size=n, max_size=n))
        data = "".join(t + sep for t, sep in zip(tokens, seps))
    else:
        width = draw(st.sampled_from([ncols] * 4 + [ncols + 1, max(ncols - 1, 1)]))
        height = draw(st.sampled_from([nrows] * 4 + [nrows + 1, max(nrows - 1, 1)]))
        sep = draw(st.sampled_from([" ", "\t", "  \t"]))
        end = draw(st.sampled_from(["\n", "\r\n", " \n", "\n\n"]))
        data = "".join(sep.join(draw(st.lists(pool, min_size=width,
                                              max_size=width))) + end
                       for _ in range(height))
    return "\n".join(header) + "\n" + data


@settings(max_examples=200, deadline=None)
@given(asc_texts())
def test_bulk_parser_matches_token_reader(text):
    assert _outcome(parse_ascii_grid, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("token", FINITE_TOKENS + ODD_TOKENS)
def test_token_in_equal_rows_matches_token_reader(token):
    """Each token amid C-readable rows written one per line, the layout
    numpy's reader takes first."""
    text = ("ncols 3\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
            f"1 2 3\n4 {token} 6\n7 8 9\n")
    assert _outcome(parse_ascii_grid, text) == _outcome(_reference_parse, text)


small = st.one_of(st.integers(-2, 6), st.sampled_from(
    [2.5, float("nan"), float("inf"), "3", "x", None, [1], {}]))
recipe_params = {k: values for k in (
    "h", "slope", "axis", "height", "position", "peak", "radius", "gentle",
    "steep", "cellsize", "xll", "yll", "nodata", "kind", "extra")}
recipes = st.fixed_dictionaries({}, optional={
    "recipe": st.sampled_from(RECIPES + ("nope",)) | values,
    "nrows": small, "ncols": small, **recipe_params,
})


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    recipes,
    recipes.map(lambda d: f"{d.get('recipe', '')}:" + ",".join(
        f"{k}={v}" for k, v in d.items() if k != "recipe")),
    st.text(max_size=30),
))
def test_grid_from_recipe(spec):
    _rejects_cleanly(grid_from_recipe, spec)


qtable_fields = [("states", "8192", ["1", "x"]),
                 ("actions", "9", ["8", ""]),
                 ("gamma", "0.95", ["nan", "x"]),
                 ("alpha", "0.1", ["inf"]),
                 ("seed", "0", ["-1", "1.5"]),
                 ("episodes", "10", ["x"]),
                 ("entries", "1", ["0", "3", "-1", "1000000000", "x"])]
entry_lines = st.one_of(
    st.tuples(st.integers(-2, 9000), st.integers(-2, 10),
              st.sampled_from(["1.0", "-2.5", "nan", "inf", "x"]))
    .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.text(max_size=12),
)
# Half the cases keep the whole header valid and so reach the entries.
good_header = ["terramob-qtable 1"] + [f"{k} {ok}"
                                       for k, ok, _ in qtable_fields]
bad_header = st.tuples(
    st.sampled_from(["terramob-qtable 1", "nope"]),
    *[st.sampled_from([f"{k} {ok}", k] + [f"{k} {v}" for v in bad])
      for k, ok, bad in qtable_fields],
).map(list)
qtables = st.tuples(
    st.just(good_header) | bad_header,
    st.lists(entry_lines, min_size=1, max_size=4),
).map(lambda t: "\n".join(t[0] + t[1]) + "\n")


@FUZZ
@given(st.one_of(qtables, st.text(max_size=80)))
def test_load_qtable(text):
    _rejects_cleanly(load_qtable, io.StringIO(text))


REPORT_FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "transport_report_fixture.json")
    .read_text())


@FUZZ
@given(st.one_of(
    st.lists(st.tuples(st.sampled_from(list(_paths(REPORT_FIXTURE))),
                       values | st.just(DELETE)), min_size=1, max_size=3)
    .map(lambda edits: _mutate(REPORT_FIXTURE, edits)),
    values,
))
def test_report_exits_0_or_3(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed_report.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) in (EXIT_OK, EXIT_BAD_INPUT)


def _edge_time(profile, grid, a, b):
    """Seconds to walk a -> b: ``run / speed`` of ``_reference_edge``,
    infinite where its speed is 0.0."""
    run, _slope, v = _reference_edge(profile, grid, a, b)
    return run / v if v > 0.0 else math.inf


def _reference_state(grid, profile, blocked, cell, plan, waypoint_index):
    """``build_local_state`` as a loop over the 8 offsets, on
    ``_reference_edge``: a bit is set for a move at speed 0.0, and
    ``blocked`` is asked only about the others."""
    code = 0
    for i, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        nb = CellIndex(cell[0] + dr, cell[1] + dc)
        if (_reference_edge(profile, grid, cell, nb)[2] == 0.0
                or blocked(nb)):
            code |= 1 << i
    wp = plan.waypoints[min(waypoint_index, len(plan.waypoints) - 1)]
    dev = min(deviation_cells(cell, plan), N_DEVIATION_BUCKETS - 1)
    direction = _offset_direction(wp[0] - cell[0], wp[1] - cell[1])
    return code | (direction << 8) | (dev << 11)


def _reference_greedy(grid, profile, at, target, blocked):
    """``greedy_step`` as a loop over the 8 offsets, on ``_reference_edge``."""
    best_action, best_cost = ACTION_STAY, math.inf
    for a, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        dest = CellIndex(at[0] + dr, at[1] + dc)
        if not grid.in_bounds(dest):
            continue
        step = _edge_time(profile, grid, at, dest)
        if step == math.inf:
            continue
        if blocked is not None and blocked(dest):
            continue
        cost = step + heuristic(dest, target, profile, grid.cellsize)
        if cost < best_cost:
            best_cost, best_action = cost, a
    return best_action


@st.composite
def local_cases(draw):
    """A grid of up to 5 x 5 cells of 30 m (or 0.5, 7.3 or 1000 m) with
    nodata holes and heights, scaled with the cellsize, that make some
    steps too steep, a route over any of its cells, and queries from any
    cell (border cells and holes included), each with its own blocked set
    and target. Queries repeat cells, so table rows are read again."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cellsize = draw(st.sampled_from([30.0, 0.5, 7.3, 1000.0]))
    heights = draw(st.lists(st.sampled_from([0.0, 1.0, 5.0, 12.0, None]),
                            min_size=nrows * ncols, max_size=nrows * ncols))
    heights = [DEFAULT_NODATA if h is None else h * cellsize / 30.0
               for h in heights]
    grid = ElevationGrid(ncols, nrows, 0.0, 0.0, cellsize, DEFAULT_NODATA,
                         np.array(heights))
    cells = st.sampled_from([CellIndex(r, c) for r in range(nrows)
                             for c in range(ncols)])
    route = draw(st.lists(cells, min_size=1, max_size=6, unique=True))
    plan = PathPlan(route, [], 0.0, 0.0)
    profile = draw(st.sampled_from(builtin_profiles()))
    queries = draw(st.lists(st.tuples(
        cells, st.frozensets(cells), st.integers(0, len(route)), cells),
        min_size=1, max_size=8))
    return grid, plan, profile, queries


def _asking(cells, log):
    """A blocking predicate over ``cells`` that logs each cell asked about."""
    def blocked(c):
        log.append(c)
        return c in cells
    return blocked


@settings(max_examples=300, deadline=None)
@given(local_cases())
def test_local_step_rules_match_per_neighbor_loops(case):
    grid, plan, profile, queries = case
    edges = EdgeTable(grid, profile)
    for cell, blocked_cells, wi, target in queries:
        asked, ref_asked = [], []
        assert (build_local_state(edges, _asking(blocked_cells, asked), cell,
                                  plan, wi)
                == _reference_state(grid, profile,
                                    _asking(blocked_cells, ref_asked),
                                    cell, plan, wi))
        assert (greedy_step(edges, cell, target,
                            _asking(blocked_cells, asked))
                == _reference_greedy(grid, profile, cell, target,
                                     _asking(blocked_cells, ref_asked)))
        assert asked == ref_asked
        assert (greedy_step(edges, cell, target)
                == _reference_greedy(grid, profile, cell, target, None))
    # every entry of every profile's table is None exactly where
    # _reference_edge's speed is 0.0 (the neighbor off the grid or nodata
    # included), and elsewhere _reference_edge bit for bit (float.hex tells
    # 0.0 from -0.0); sources include the cells around the grid
    for p in builtin_profiles():
        table = EdgeTable(grid, p)
        for r in range(-1, grid.nrows + 1):
            for c in range(-1, grid.ncols + 1):
                a = CellIndex(r, c)
                assert len(table[a]) == len(NEIGHBOR_OFFSETS)
                for e, (dr, dc) in zip(table[a], NEIGHBOR_OFFSETS):
                    b = CellIndex(r + dr, c + dc)
                    run, slope, v = _reference_edge(p, grid, a, b)
                    if v == 0.0:
                        assert e is None
                        continue
                    assert e[0] == b and type(e[0]) is CellIndex
                    assert [x.hex() for x in e[1:]] == [
                        x.hex() for x in (run / v, v, slope)]


def _reference_write_trace_csv(records, f):
    """``write_trace_csv`` as one formatted write per row."""
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


@st.composite
def trace_records(draw):
    """Rows whose floats come from a small pool, each used as the pool's
    own object or as a new object equal to it, so rows repeat objects,
    repeat values in distinct objects, and put 0.0 and -0.0 at the same
    place. Cells are revisited, mostly with their first elevation."""
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, 0.1 + 0.2, 1e-300,
                                          5e300, math.inf, math.nan])
                         | st.floats(), min_size=1, max_size=5))

    def value():
        v = draw(st.sampled_from(pool))
        return float(repr(v)) if draw(st.booleans()) else v

    elevations = {}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row, col = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        if (row, col) not in elevations or draw(st.booleans()):
            elevations[row, col] = value()
        rows.append(TraceRecord(
            value(), row, col, value(), value(), elevations[row, col],
            draw(st.sampled_from(["following", "adapting", "arrived"])),
            draw(st.booleans()), draw(st.sampled_from(["none", "n", "stay"])),
            value(), draw(st.integers(0, 3)), value()))
    return rows


@st.composite
def trace_files(draw):
    """Several files' rows whose ``t_s`` come from one pool shared across
    the files: the same object in several files, equal values in distinct
    objects, and 0.0 next to -0.0."""
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 5e-324])
                         | st.floats(), min_size=1, max_size=4))
    files = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(0, 6))):
            t = draw(st.sampled_from(pool))
            if draw(st.booleans()):
                t = float(repr(t))
            z = draw(st.sampled_from([0.0, -0.0, 2.5]))
            rows.append(TraceRecord(t, 0, 1, z, -z, 2.5, "following", False,
                                    "e", z, 0, -z))
        files.append(rows)
    return files


@FUZZ
@given(trace_files())
@example([[TraceRecord(t, 0, 0, 1.0, 1.0, 1.0, "arrived", True, "stay",
                       0.0, 0, 0.0) for t in ts]
          for ts in ((0.0, 1.0), (-0.0, 1.0), (0.0, -0.0))])
def test_trace_writer_shares_t_s_text_across_files(files):
    t_texts = {}
    for records in files:
        buf, ref = io.StringIO(), io.StringIO()
        write_trace_csv(records, buf, t_texts)
        _reference_write_trace_csv(records, ref)
        assert buf.getvalue() == ref.getvalue()


@FUZZ
@given(trace_records())
@example([TraceRecord(t, 1, 1, z, -z, z, "following", False, "stay", z, 0, -z)
          for t, z in ((0.0, 0.0), (1.0, -0.0), (2.0, 0.0))])
def test_trace_writer_matches_per_row_writer(records):
    buf, ref = io.StringIO(), io.StringIO()
    write_trace_csv(records, buf)
    _reference_write_trace_csv(records, ref)
    assert buf.getvalue() == ref.getvalue()


@st.composite
def search_cases(draw):
    """A grid of 1 x 1 to 6 x 6 cells of 30 m (1 x N and N x 1 strips
    included) with rough heights, flat edges (0.0 beside -0.0 too), nodata
    holes and slopes on both sides of every profile's limit; two endpoints,
    mostly in a corner or on the border; a profile and an objective."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    heights = draw(st.lists(
        st.floats(0.0, 16.0) | st.sampled_from([0.0, -0.0, 4.5, 10.5,
                                                DEFAULT_NODATA,
                                                DEFAULT_NODATA]),
        min_size=nrows * ncols, max_size=nrows * ncols))
    cells = [CellIndex(r, c) for r in range(nrows) for c in range(ncols)]
    corners = [CellIndex(r, c) for r in {0, nrows - 1} for c in {0, ncols - 1}]
    border = [c for c in cells
              if c.row in (0, nrows - 1) or c.col in (0, ncols - 1)]
    endpoint = (st.sampled_from(corners) | st.sampled_from(border)
                | st.sampled_from(cells))
    start, goal = draw(endpoint), draw(endpoint)
    for r, c in (start, goal):
        if heights[r * ncols + c] == DEFAULT_NODATA:
            heights[r * ncols + c] = 0.0
    grid = ElevationGrid(ncols, nrows, 0.0, 0.0, 30.0, DEFAULT_NODATA,
                         np.array(heights))
    return (grid, start, goal, draw(st.sampled_from(builtin_profiles())),
            draw(st.sampled_from(OBJECTIVES)))


@settings(max_examples=500, deadline=None)
@given(search_cases())
def test_astar_matches_oracle_on_border_and_interior_nodes(case):
    grid, start, goal, profile, objective = case
    try:
        want = dijkstra_oracle(grid, profile, start, goal, objective)
    except NoPathError:
        with pytest.raises(NoPathError):
            astar(grid, profile, start, goal, objective)
        return
    plan, _ = astar(grid, profile, start, goal, objective)
    assert (plan.total_time if objective == "time"
            else plan.total_distance) == want
    for a, b, t in zip(plan.waypoints, plan.waypoints[1:], plan.edge_times):
        run, _slope, v = _reference_edge(profile, grid, a, b)
        assert v > 0.0 and t == run / v


def _reference_dijkstra(grid, p, source, objective):
    """``planner.dijkstra_all`` as a loop over the 8 offsets, on
    ``_reference_edge``: each edge weighs ``run / speed``, or its run in
    distance mode."""
    timed = objective == "time"
    dist = {source: 0.0}
    done = set()
    heap = [(0.0, source.row, source.col)]
    while heap:
        d, row, col = heapq.heappop(heap)
        cell = CellIndex(row, col)
        if cell in done:
            continue
        done.add(cell)
        for dr, dc in NEIGHBOR_OFFSETS:
            nb = CellIndex(row + dr, col + dc)
            if not grid.in_bounds(nb) or nb in done:
                continue
            run, _slope, v = _reference_edge(p, grid, cell, nb)
            if v <= 0.0:
                continue
            nd = d + (run / v if timed else run)
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb.row, nb.col))
    return dist


@st.composite
def oracle_cases(draw):
    """A grid of 1 x 1 to 6 x 6 cells of 0.5 to 1000 m with heights scaled
    with the cellsize (flat steps, slopes on both sides of every profile's
    limit) and nodata holes, so sealed corners occur, and a source cell."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cellsize = draw(st.sampled_from([0.5, 7.3, 30.0, 1000.0])
                    | st.floats(0.5, 1000.0))
    heights = draw(st.lists(
        st.floats(0.0, 16.0) | st.sampled_from([0.0, -0.0, 4.5, 10.5, None,
                                                None]),
        min_size=nrows * ncols, max_size=nrows * ncols))
    r, c = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
    if heights[r * ncols + c] is None:
        heights[r * ncols + c] = 0.0
    values = [DEFAULT_NODATA if h is None else h * cellsize / 30.0
              for h in heights]
    grid = ElevationGrid(ncols, nrows, 0.0, 0.0, cellsize, DEFAULT_NODATA,
                         np.array(values))
    return grid, CellIndex(r, c)


def _oracle_example(cellsize):
    """From the centre: a sealed corner to the north-west, a hole to the
    north, a rise over every profile's limit to the east, and open moves
    elsewhere."""
    h = DEFAULT_NODATA
    values = np.array([[0.0, h, 3.0], [h, 0.0, 20.0], [0.0, 1.0, 0.0]])
    values[values != h] *= cellsize / 30.0
    return (ElevationGrid(3, 3, 0.0, 0.0, cellsize, h, values),
            CellIndex(1, 1))


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
@example(_oracle_example(0.5))
@example(_oracle_example(1000.0))
def test_dijkstra_all_over_edge_table_matches_reference_dijkstra(case):
    grid, source = case
    for p in builtin_profiles():
        for objective in OBJECTIVES:
            got = dijkstra_all(grid, p, source, objective)
            want = _reference_dijkstra(grid, p, source, objective)
            assert ({c: d.hex() for c, d in got.items()}
                    == {c: d.hex() for c, d in want.items()})


def _reference_train(env, weights, params):
    """``train_bypass`` and its training episodes over a dense array,
    with the bar's predicate a Python function and the state code built
    neighbor by neighbor."""
    q = np.zeros((N_STATES, N_ACTIONS))
    rng = np.random.default_rng(params.seed)
    curve = []
    grid, plan, profile = env.grid, env.plan, env.profile
    for ep in range(params.episodes):
        bar = env.sample_obstacle(rng)
        epsilon = params.epsilon_at(ep)
        blocked = lambda cell, bar=bar: cell in bar  # noqa: E731
        wi = next(iter(bar)).col
        cell = plan.waypoints[wi - 1]
        s = _reference_state(grid, profile, blocked, cell, plan, wi)
        total_r, success, steps = 0.0, False, params.max_steps_per_episode
        for step in range(1, params.max_steps_per_episode + 1):
            # the bar covers the tracked waypoint until the rejoin that
            # ends the episode: every step is a table step
            assert blocked(plan.waypoints[wi])
            a = _reference_select_action(q, s, epsilon, rng)
            if a == ACTION_STAY:
                dest, move_time = cell, env.stay_time
            else:
                dr, dc = ACTIONS[a]
                dest = CellIndex(cell[0] + dr, cell[1] + dc)
                move_time = _edge_time(profile, grid, cell, dest)
                if move_time == math.inf or blocked(dest):
                    r = _reference_reward("collision", 0.0, weights)
                    total_r += r
                    _reference_q_update(q, s, a, r, s, params)
                    steps = step
                    break
            prev_cell, cell = cell, dest
            k = plan.index.get(cell)
            rejoined = k is not None and k >= wi
            if rejoined:
                wi = k + 1
            dev = deviation_cells(cell, plan)
            if rejoined:
                r = _reference_reward("rejoin", 0.0, weights)
            elif dev > 0:
                r = _reference_reward("deviation", dev, weights)
            elif deviation_cells(prev_cell, plan) == 0:
                r = _reference_reward("delay", move_time, weights)
            else:
                r = _reference_reward("none", 0.0, weights)
            total_r += r
            s_next = _reference_state(grid, profile, blocked, cell, plan, wi)
            _reference_q_update(q, s, a, r, s_next, params)
            s = s_next
            if rejoined:
                success, steps = True, step
                break
        curve.append(EpisodeStats(ep, total_r, success, steps))
    return q, curve


_CORRIDORS: dict[str, CorridorEnv] = {}


def _corridor(name):
    if name not in _CORRIDORS:
        _CORRIDORS[name] = CorridorEnv(builtin_profile(name))
    return _CORRIDORS[name]


@st.composite
def follower_cases(draw):
    """One decision of a route follower: a flat or rough grid of up to
    8 x 8 cells with nodata holes, an A* plan over it, a tracked waypoint
    index from 1 to the last, a cell at most 2 cells from the route, a
    blocked set of waypoints and cells near the route, and the moves of a
    table (none, zeros, random normal or one-hot)."""
    nrows, ncols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    cellsize = draw(st.sampled_from([30.0, 7.3]))
    levels = [0.0, 2.0, 6.0, 12.0] if draw(st.booleans()) else [0.0]
    heights = draw(st.lists(st.sampled_from(levels), min_size=nrows * ncols,
                            max_size=nrows * ncols))
    holes = draw(st.sets(st.integers(0, nrows * ncols - 1),
                         max_size=nrows * ncols // 4))
    heights = [DEFAULT_NODATA if i in holes else h * cellsize / 30.0
               for i, h in enumerate(heights)]
    grid = ElevationGrid(ncols, nrows, 0.0, 0.0, cellsize, DEFAULT_NODATA,
                         np.array(heights))
    cells = [CellIndex(i // ncols, i % ncols) for i in range(nrows * ncols)
             if i not in holes]
    assume(len(cells) >= 2)
    start, goal = draw(st.lists(st.sampled_from(cells), min_size=2,
                                max_size=2, unique=True))
    profile = draw(st.sampled_from(builtin_profiles()))
    try:
        plan, _stats = astar(grid, profile, start, goal)
    except NoPathError:
        reject()
    wps = plan.waypoints
    wi = draw(st.integers(1, len(wps) - 1))
    w = draw(st.sampled_from(wps))
    dr, dc = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    cell = CellIndex(min(max(w.row + dr, 0), nrows - 1),
                     min(max(w.col + dc, 0), ncols - 1))
    near = [CellIndex(r, c) for r in range(nrows) for c in range(ncols)
            if deviation_cells(CellIndex(r, c), plan) <= 2]
    bar = draw(st.frozensets(st.sampled_from(wps) | st.sampled_from(near)))
    kind = draw(st.sampled_from([None, "zeros", "normal", "one_hot"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.zeros((N_STATES, N_ACTIONS))
    if kind == "normal":
        q = rng.normal(size=q.shape)
    elif kind == "one_hot":
        q[np.arange(N_STATES), rng.integers(N_ACTIONS, size=N_STATES)] = 1.0
    return (EdgeTable(grid, profile), plan, wi, cell, bar,
            None if kind is None else TableMoves(q))


@settings(max_examples=300, deadline=None)
@given(follower_cases())
# off the route two cells above the corridor's clear waypoint 6, whose
# cheapest step goes south-east onto a blocked cell: the follower yields
@example((_corridor("fit_adults").edges, _corridor("fit_adults").plan, 6,
          CellIndex(1, 5), frozenset({CellIndex(2, 6)}), None))
def test_local_step_returns_only_a_move_the_follower_may_take(case):
    edges, plan, wi, cell, bar, moves = case
    chi, a = local_step(moves, edges, bar.__contains__, cell, plan, wi)
    assert chi == (plan.waypoints[wi] in bar)
    if a != ACTION_STAY:
        e = edges[cell][a]
        assert e is not None and e[0] not in bar


weights_terms = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 20.0)
unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def training_cases(draw):
    """Short training runs of every kind the CLI can ask for: zero and
    full step sizes, zero reward terms, any exploration schedule, and the
    three profiles whose corridors differ (a load factor, a slower edge)."""
    weights = RewardWeights(*(draw(weights_terms) for _ in range(4)))
    params = LearningParams(
        alpha=draw(unit), gamma=draw(st.floats(0.0, 0.99)),
        epsilon_start=draw(unit), epsilon_end=draw(unit),
        epsilon_decay_episodes=draw(st.integers(0, 20)),
        episodes=draw(st.integers(0, 25)),
        max_steps_per_episode=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32 - 1)))
    profile = draw(st.sampled_from(["fit_adults", "mule", "ox_cart"]))
    return profile, weights, params


def _curve_csv(curve):
    buf = io.StringIO()
    write_learning_curve(curve, buf)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(training_cases())
# the call of the benchmark's train workload
@example(("fit_adults", RewardWeights(),
          LearningParams(episodes=100, epsilon_decay_episodes=40, seed=7)))
def test_training_matches_numpy_scalar_reference(case):
    name, weights, params = case
    env = _corridor(name)
    q, curve = train_bypass(env, weights, params)
    want_q, want_curve = _reference_train(env, weights, params)
    assert q.tobytes() == want_q.tobytes()
    assert _curve_csv(curve) == _curve_csv(want_curve)


def _reference_rollout(env, q, bar):
    """``_rollout`` as it was before it skipped the steps that only walk
    plan edges: every step by ``local_step``, each with a new
    ``TableMoves``, so no move is kept from one step to the next."""
    edges, plan, index = env.edges, env.plan, env.plan.index
    blocked = bar.__contains__
    cell, wi, elapsed = plan.waypoints[0], 1, 0.0
    goal = plan.waypoints[-1]
    for _ in range(6 * len(plan.waypoints)):
        _chi, a = local_step(TableMoves(q), edges, blocked, cell, plan, wi)
        if a == ACTION_STAY:
            elapsed += env.stay_time
        else:
            e = edges[cell][a]
            assert e is not None and e[0] not in bar  # never a collision
            cell = e[0]
            elapsed += e[1]
        k = index.get(cell)
        if k is not None and k >= wi:  # rejoined
            wi = k + 1
        if cell == goal:
            return True, elapsed
    return False, elapsed


def _reference_bypass_move(q, s):
    """``bypass_move`` as it was before it read ``_OPEN_MOVES``: the open
    moves rebuilt from the state's bits on every call."""
    row = q[s].tolist()
    moves = [a for a in range(N_ACTIONS) if a == ACTION_STAY or not s >> a & 1]
    values = [row[a] for a in moves]
    return moves[values.index(max(values))] if any(values) else None


@st.composite
def bypass_tables(draw):
    """A table of one kind, and a state code for each of the 256 occupancy
    patterns with random direction and deviation bits."""
    kind = draw(st.sampled_from(
        ["normal", "zeros", "ties", "signed_zeros", "one_hot"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (N_STATES, N_ACTIONS)
    if kind == "normal":
        q = rng.normal(size=shape)
    elif kind == "zeros":
        q = np.zeros(shape)
    elif kind == "ties":  # few values: equal maxima in most rows
        q = rng.integers(-1, 2, size=shape).astype(float)
    elif kind == "signed_zeros":
        q = rng.choice([0.0, -0.0, -1.0], size=shape)
    else:
        q = np.zeros(shape)
        q[np.arange(N_STATES), rng.integers(N_ACTIONS, size=N_STATES)] = 1.0
    states = (np.arange(256) | rng.integers(N_STATES // 256, size=256) << 8)
    return q, states.tolist()


@settings(max_examples=100, deadline=None)
@given(bypass_tables())
def test_table_moves_match_reference_bypass_move(case):
    q, states = case
    moves = TableMoves(q)
    for s in states:
        want = _reference_bypass_move(q, s)
        assert moves[s] == bypass_move(q, s) == want
        assert moves[s] == want  # the kept move
    assert len(moves) == 256


_TRAINED: dict[str, np.ndarray] = {}


def _rollout_table(name, kind, seed):
    """A table of ``kind`` for the corridor of profile ``name``."""
    q = np.zeros((N_STATES, N_ACTIONS))
    if kind == "normal":
        q = np.random.default_rng(seed).normal(size=q.shape)
    elif kind == "stand":  # stands in every blocked state: the step cap
        q[:, ACTION_STAY] = 1.0
    elif kind == "trained":
        if name not in _TRAINED:
            _TRAINED[name], _ = train_bypass(
                _corridor(name), RewardWeights(),
                LearningParams(episodes=300, epsilon_decay_episodes=150,
                               seed=3))
        q = _TRAINED[name]
    return q


@st.composite
def rollout_cases(draw):
    """A profile whose corridor differs, a table, and bars: the
    corridor's own draws, and arbitrary ones with off-route cells,
    several route waypoints, the start cell, and cells off the grid."""
    name = draw(st.sampled_from(["fit_adults", "mule", "ox_cart"]))
    kind = draw(st.sampled_from(["zeros", "normal", "stand", "trained"]))
    env = _corridor(name)
    wps = env.plan.waypoints
    cells = st.sampled_from(
        [CellIndex(r, c) for r in range(-1, env.grid.nrows + 1)
         for c in range(-1, env.grid.ncols + 1)])
    route = st.sampled_from(wps)
    bars = st.lists(st.one_of(
        st.sampled_from(_corridor_bars(name)),
        st.frozensets(cells, max_size=6),
        st.tuples(st.frozensets(route, min_size=2, max_size=4),
                  st.frozensets(cells, max_size=3)).map(
                      lambda t: t[0] | t[1]),
        st.frozensets(cells, max_size=4).map(lambda b: b | {wps[0]}),
    ), max_size=8)
    return name, kind, draw(st.integers(0, 2**32 - 1)), draw(bars)


_CORRIDOR_BARS: dict[str, list] = {}


def _corridor_bars(name):
    """The 120 bars ``sample_obstacle`` draws on the corridor of ``name``."""
    if name not in _CORRIDOR_BARS:
        env, rng = _corridor(name), np.random.default_rng(0)
        _CORRIDOR_BARS[name] = sorted(
            {env.sample_obstacle(rng) for _ in range(5000)}, key=sorted)
        assert len(_CORRIDOR_BARS[name]) == 120
    return _CORRIDOR_BARS[name]


def _assert_rollouts_match(env, q, bars):
    moves = TableMoves(q)  # one memo over the bars, as evaluate_bypass
    for bar in bars:
        got, want = _rollout(env, moves, bar), _reference_rollout(env, q, bar)
        assert (got[0], got[1].hex()) == (want[0], want[1].hex()), sorted(bar)


@settings(max_examples=150, deadline=None)
@given(rollout_cases())
def test_rollout_matches_step_by_step_reference(case):
    name, kind, seed, bars = case
    _assert_rollouts_match(_corridor(name), _rollout_table(name, kind, seed),
                           bars)


@pytest.mark.parametrize("name", ["fit_adults", "mule", "ox_cart"])
def test_rollout_matches_reference_on_every_corridor_bar(name):
    for kind in ("zeros", "normal", "stand", "trained"):
        _assert_rollouts_match(_corridor(name), _rollout_table(name, kind, 0),
                               _corridor_bars(name))


def _excursion_table(env, bar):
    """A table that, from the waypoint before each barred one, walks out
    to the north wall, west to column 0, south to the far wall, east and
    back onto the route two waypoints past the bar: ``2 * col + 7`` steps
    where the route takes 3. Returns the table and the number of steps
    after which the rollout has passed the last barred waypoint."""
    edges, plan = env.edges, env.plan
    wps, blocked = plan.waypoints, bar.__contains__
    last = max(k for k in map(plan.index.get, bar) if k)
    q = np.zeros((N_STATES, N_ACTIONS))
    cell, wi = wps[0], 1
    for step in range(6 * len(wps)):
        if wi > last:
            return q, step
        if blocked(wps[wi]):
            r, c = cell
            move = ((-1, -1) if r in (1, 2, 3) and c else
                    (1, 0) if c == 0 and r < 6 else
                    (-1, 1) if r > 3 and (r < 6 or c == wps[wi].col - 1)
                    else (0, -1) if r == 0 else (0, 1))
            s = build_local_state(edges, blocked, cell, plan, wi)
            a = ACTIONS.index(move)
            assert not q[s].any() or q[s].argmax() == a, (cell, s)
            q[s, a] = 1.0
        else:  # the plan edge
            move = (wps[wi][0] - cell[0], wps[wi][1] - cell[1])
        cell = CellIndex(cell[0] + move[0], cell[1] + move[1])
        k = plan.index.get(cell)
        if k is not None and k >= wi:
            wi = k + 1
    raise AssertionError("the step cap came before the last bar")


@pytest.mark.parametrize("name", ["fit_adults", "mule", "ox_cart"])
def test_rollout_matches_reference_at_the_step_cap_past_the_bars(name):
    # five excursions take 176 steps; the 5 plan edges left would make
    # 181, past the cap of 6 * 30: the cap ends the rollout after the bars
    env = _corridor(name)
    wps = env.plan.waypoints
    bar = frozenset(wps[b] for b in (5, 9, 13, 17, 22))
    q, passed = _excursion_table(env, bar)
    assert passed == 176  # on waypoint 24 of 30
    assert not _reference_rollout(env, q, bar)[0]
    _assert_rollouts_match(env, q, [bar])


@st.composite
def memo_cases(draw):
    """A profile whose corridor differs, a short training run, a table
    (the trained one or random normal), bars (the corridor's own draws,
    and arbitrary ones with off-route and off-grid cells and several
    route waypoints), and reads of any grid cell under one of those bars
    while tracking any waypoint up to one past the goal."""
    name = draw(st.sampled_from(["fit_adults", "mule", "ox_cart"]))
    env = _corridor(name)
    wps = env.plan.waypoints
    cells = st.sampled_from(
        [CellIndex(r, c) for r in range(-1, env.grid.nrows + 1)
         for c in range(-1, env.grid.ncols + 1)])
    bars = draw(st.lists(st.one_of(
        st.sampled_from(_corridor_bars(name)),
        st.frozensets(cells, max_size=6),
        st.tuples(st.frozensets(st.sampled_from(wps), min_size=2, max_size=4),
                  st.frozensets(cells, max_size=3)).map(
                      lambda t: t[0] | t[1]),
    ), min_size=1, max_size=6))
    on_grid = st.sampled_from(
        [CellIndex(r, c) for r in range(env.grid.nrows)
         for c in range(env.grid.ncols)])
    reads = draw(st.lists(st.tuples(
        st.integers(0, len(bars) - 1), st.integers(1, len(wps)), on_grid),
        max_size=12))
    params = LearningParams(episodes=draw(st.integers(0, 25)),
                            epsilon_decay_episodes=draw(st.integers(0, 20)),
                            seed=draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["trained", "normal"]))
    return name, params, kind, bars, reads


@settings(max_examples=100, deadline=None)
@given(memo_cases())
def test_every_kept_state_code_matches_the_reference(case):
    # training, rollouts and reads fill one fresh corridor's memo; every
    # entry is the state code and deviation of its cell, bar and waypoint
    name, params, kind, bars, reads = case
    env = CorridorEnv(builtin_profile(name))
    q, _ = train_bypass(env, RewardWeights(), params)
    if kind == "normal":
        q = np.random.default_rng(params.seed).normal(size=q.shape)
    moves = TableMoves(q)
    for bar in bars:
        _rollout(env, moves, bar)
    for k, wi, cell in reads:
        codes = env.state_codes(bars[k], wi)
        codes.get(cell) or keep_state_code(codes, env.edges, bars[k].__contains__,
                                           cell, env.plan, wi)
    grid, plan, profile = env.grid, env.plan, env.profile
    assert env.codes or not (params.episodes or reads)
    for (bar, wi), codes in env.codes.items():
        for cell, (s, dev) in codes.items():
            assert s == _reference_state(grid, profile, bar.__contains__,
                                         cell, plan, wi), (sorted(bar), wi)
            assert dev == deviation_cells(cell, plan)
