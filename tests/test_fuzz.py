"""Malformed-input fuzzing of every parser behind the CLI.

Whatever a scenario file, an ``.asc`` grid, a recipe or a q-table holds,
the parser either returns or raises ValueError (ConfigError and
GridFormatError are ValueErrors), which the CLI turns into exit 3 with one
``error:`` line. Any other exception would be a traceback. Grid sizes are
drawn small so that no case allocates a large grid. ``terramob report`` is
fuzzed end to end: it exits 0 or 3 on any document. The bulk ``.asc``
reader is also checked against the token-at-a-time reader it replaced:
same grid bytes or the same error, whichever numpy is installed.
"""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terramob.cli import EXIT_BAD_INPUT, EXIT_OK, main
from terramob.local_adapt import load_qtable
from terramob.sim import ScenarioConfig
from terramob.terrain import (
    DEFAULT_NODATA, RECIPES, ElevationGrid, GridFormatError, _HEADER_KEYS,
    _REQUIRED_KEYS, _check_header, _looks_numeric, grid_from_recipe,
    parse_ascii_grid,
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
