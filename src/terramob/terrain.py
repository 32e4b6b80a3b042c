"""Elevation rasters and the geometry queries the rest of the package builds on.

Grids are immutable row-major arrays with ESRI ASCII text I/O, exact
line-of-sight / viewshed tests, and a handful of synthetic terrain
generators for desk-scale scenarios. Which steps can be walked, how long
they are, and at what slope, is decided by ``agents.EdgeTable`` per grid
and profile.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

DEFAULT_NODATA = -9999.0
DEFAULT_EYE_HEIGHT = 1.7  # meters above ground for sight queries
# bound on recipe grids and .asc headers alike: 80 MB of float64 elevations
MAX_GRID_CELLS = 10**7

SQRT2 = math.sqrt(2.0)


class CellIndex(NamedTuple):
    """Grid coordinate; row 0 is the northernmost row."""

    row: int
    col: int


# Move offsets in fixed order. The tuple index doubles as the move-action
# code used by the local policy (8 = stay, defined in local_adapt).
NEIGHBOR_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, 0),   # n
    (-1, 1),   # ne
    (0, 1),    # e
    (1, 1),    # se
    (1, 0),    # s
    (1, -1),   # sw
    (0, -1),   # w
    (-1, -1),  # nw
)
DIRECTION_NAMES = ("n", "ne", "e", "se", "s", "sw", "w", "nw")

# Inverse of NEIGHBOR_OFFSETS: move offset -> action code; its keys are the
# adjacency rule.
OFFSET_TO_ACTION = {off: i for i, off in enumerate(NEIGHBOR_OFFSETS)}


class GridFormatError(ValueError):
    """Malformed ASCII grid input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class ElevationGrid:
    """Georeferenced elevation raster (meters), immutable after construction.

    ``values`` is an (nrows, ncols) float array; cells equal to ``nodata``
    are holes that block both movement and sight. ``xll``/``yll`` locate the
    lower-left corner of the lower-left cell in projected meters. ``flat``
    is a read-only, zero-copy view of ``values`` in row-major order:
    ``flat[row * ncols + col]`` is the cell's elevation as a Python float,
    which the per-cell hot paths (A*, ``agents.EdgeTable``, line of sight)
    read several times faster than an ndarray element.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray
    flat: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ncols <= 0 or self.nrows <= 0:
            raise ValueError("grid dimensions must be positive")
        if not (self.cellsize > 0 and math.isfinite(self.cellsize)):
            raise ValueError("cellsize must be positive and finite")
        if not (math.isfinite(self.xll) and math.isfinite(self.yll)):
            raise ValueError("grid origin must be finite")
        if not math.isfinite(self.nodata):
            raise ValueError("nodata sentinel must be finite")
        # plain floats, so geometry derived from them (positions, traces) is too
        for name in ("xll", "yll", "cellsize", "nodata"):
            object.__setattr__(self, name, float(getattr(self, name)))
        arr = np.asarray(self.values, dtype=float)
        if arr.size != self.nrows * self.ncols:
            raise ValueError(
                f"expected {self.nrows * self.ncols} values, got {arr.size}"
            )
        arr = arr.reshape(self.nrows, self.ncols).copy()
        # nodata is finite, so any non-finite cell is a non-nodata one
        if not np.isfinite(arr).all():
            raise ValueError("non-nodata elevations must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        # arr is a C-contiguous read-only copy, so the view is read-only too
        object.__setattr__(self, "flat", memoryview(arr).cast("B").cast("d"))

    # -- cell queries -------------------------------------------------------

    def in_bounds(self, c: CellIndex) -> bool:
        return 0 <= c[0] < self.nrows and 0 <= c[1] < self.ncols

    def _flat_index(self, c: CellIndex) -> int:
        """``c``'s index into ``flat``; an off-grid cell is a ValueError
        (a negative index would read the opposite edge)."""
        row, col = c
        if 0 <= row < self.nrows and 0 <= col < self.ncols:
            return row * self.ncols + col
        raise ValueError(f"cell {tuple(c)} is outside the "
                         f"{self.nrows} x {self.ncols} grid")

    def is_nodata(self, c: CellIndex) -> bool:
        return self.flat[self._flat_index(c)] == self.nodata

    def traversable(self, c: CellIndex) -> bool:
        return self.in_bounds(c) and not self.is_nodata(c)

    def elevation(self, c: CellIndex) -> float:
        z = self.flat[self._flat_index(c)]
        if z == self.nodata:
            raise ValueError(f"cell {tuple(c)} is nodata")
        return z

    def cell_center(self, c: CellIndex) -> tuple[float, float]:
        """Projected (easting, northing) of the cell center."""
        x = self.xll + (c[1] + 0.5) * self.cellsize
        y = self.yll + (self.nrows - 1 - c[0] + 0.5) * self.cellsize
        return x, y

    def __reduce__(self):
        # a memoryview does not pickle or copy: rebuild the grid instead
        return (ElevationGrid, (self.ncols, self.nrows, self.xll, self.yll,
                                self.cellsize, self.nodata, self.values))

    def with_nodata(self, cells: Iterable[CellIndex]) -> "ElevationGrid":
        """Copy of the grid with the given cells punched out as nodata; an
        off-grid cell is a ValueError, as in ``elevation``."""
        arr = np.array(self.values, dtype=float)
        for c in cells:
            arr.flat[self._flat_index(c)] = self.nodata
        return ElevationGrid(
            self.ncols, self.nrows, self.xll, self.yll,
            self.cellsize, self.nodata, arr,
        )


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
_HEADER_KEYS = _REQUIRED_KEYS + ("nodata_value",)
# lines of wrapped .asc data that numpy's text reader takes as one line
_JOIN_LINES = 128


def parse_ascii_grid(text: str) -> ElevationGrid:
    """Parse an ESRI ASCII grid.

    Header lines are ``key value`` pairs (case-insensitive keys, any
    whitespace); the optional ``NODATA_value`` defaults to -9999. Data rows
    follow, row 0 being the northernmost; data tokens are read as Python
    ``float()`` reads them, and rows may wrap over any number of lines.
    Errors report 1-based line numbers.
    """
    lines = text.splitlines()
    header: dict[str, float] = {}
    header_lines: dict[str, int] = {}

    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if not _looks_numeric(tokens[0]):
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

        missing = [k for k in _REQUIRED_KEYS if k not in header]
        if missing:
            raise GridFormatError(
                "missing header key(s): " + ", ".join(missing), lineno
            )
        _check_header(header, header_lines)
        break
    else:
        missing = [k for k in _REQUIRED_KEYS if k not in header]
        raise GridFormatError(
            "missing header key(s): " + ", ".join(missing) if missing
            else "no data rows",
            max(len(lines), 1),
        )

    nodata = header.get("nodata_value", DEFAULT_NODATA)
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    expected = ncols * nrows
    data = lines[lineno - 1:]
    # numpy's C reader parses a field as float() parses ASCII and refuses the
    # rest (1_0, non-ASCII digits). Rows written one per line are read as
    # they stand, which is faster than joining them; wrapped or ragged rows,
    # _JOIN_LINES lines joined at a time. The token loop runs only for
    # float()-only spellings or to word an error.
    values = None
    if len(data[0].split()) == ncols:
        values = _read_rows(data)
    if values is None:
        values = _read_joined(data)
    if (values is None or values.size > expected
            or not np.all(np.isfinite(values))):
        values = np.array(_scan_data(data, lineno, expected), dtype=float)
    if values.size < expected:
        raise GridFormatError(
            f"too few values: expected {expected}, got {values.size}", len(lines)
        )

    return ElevationGrid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=nodata,
        values=values,
    )


def _read_rows(rows: list[str]) -> np.ndarray | None:
    """The values of whitespace-separated rows of equal length, in order, or
    None where numpy's text reader refuses them."""
    try:
        return np.loadtxt(rows, dtype=float, comments=None, ndmin=2).ravel()
    except ValueError:
        return None


def _read_joined(lines: list[str]) -> np.ndarray | None:
    """The values of whitespace-separated lines of any length, in order, or
    None where numpy's text reader refuses them.

    Each run of ``_JOIN_LINES`` lines is read as one line: the reader holds
    a whole line in its buffers, so one line for the whole section would
    cost memory in proportion to the file. Blank runs are skipped, as the
    reader warns on them.
    """
    parts = []
    for i in range(0, len(lines), _JOIN_LINES):
        chunk = " ".join(lines[i:i + _JOIN_LINES])
        if chunk and not chunk.isspace():
            part = _read_rows([chunk])
            if part is None:
                return None
            parts.append(part)
    return np.concatenate(parts)


def _scan_data(lines: list[str], first_lineno: int,
               expected: int) -> list[float]:
    """Token-by-token reading of the data lines, in file order.

    The bulk conversion in ``parse_ascii_grid`` falls back to this when it
    fails, so that the first bad token in file order is the one reported,
    with its line. It raises unless numpy rejected a token that ``float()``
    reads, in which case it returns the checked values.
    """
    data: list[float] = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        for tok in raw.split():
            try:
                v = float(tok)
            except ValueError:
                raise GridFormatError(f"non-numeric token {tok!r}", lineno) from None
            if not math.isfinite(v):
                raise GridFormatError(f"non-finite value {tok!r}", lineno)
            data.append(v)
            if len(data) > expected:
                raise GridFormatError(
                    f"too many values: expected {expected}", lineno
                )
    return data


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _check_header(header: dict[str, float], lines: dict[str, int]) -> None:
    for key in ("ncols", "nrows"):
        v = header[key]
        if not (math.isfinite(v) and v == int(v) and v > 0):
            raise GridFormatError(
                f"{key} must be a positive integer, got {v}", lines[key]
            )
    # the optional nodata_value too: a non-finite sentinel would let an
    # inf or nan data token pass as a hole
    for key in ("xllcorner", "yllcorner", "cellsize", "nodata_value"):
        if key in header and not math.isfinite(header[key]):
            raise GridFormatError(f"{key} must be finite, got {header[key]}",
                                  lines[key])
    if not header["cellsize"] > 0:
        raise GridFormatError(
            f"cellsize must be positive, got {header['cellsize']}",
            lines["cellsize"],
        )
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols * nrows > MAX_GRID_CELLS:
        raise GridFormatError(
            f"grid of {nrows} x {ncols} cells exceeds "
            f"MAX_GRID_CELLS = {MAX_GRID_CELLS}",
            max(lines["ncols"], lines["nrows"]),
        )


def serialize_ascii_grid(grid: ElevationGrid) -> str:
    """Canonical ASCII form; ``parse_ascii_grid`` round-trips it exactly."""
    out = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {_num(grid.xll)}",
        f"yllcorner {_num(grid.yll)}",
        f"cellsize {_num(grid.cellsize)}",
        f"NODATA_value {_num(grid.nodata)}",
    ]
    for r in range(grid.nrows):
        out.append(" ".join(_num(v) for v in grid.values[r]))
    return "\n".join(out) + "\n"


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Line of sight and viewshed
# ---------------------------------------------------------------------------

def line_of_sight(
    grid: ElevationGrid,
    a: CellIndex,
    b: CellIndex,
    observer_height: float = DEFAULT_EYE_HEIGHT,
    target_height: float = DEFAULT_EYE_HEIGHT,
) -> bool:
    """True when nothing rises above the sight line between two cells.

    The segment runs from ``observer_height`` above the ground at ``a`` to
    ``target_height`` above the ground at ``b``. Every cell the segment
    crosses is compared against the linearly interpolated line height at the
    midpoint of the crossing; nodata cells are opaque. Exact corner contacts
    check both touching cells, which makes sealed diagonal corners opaque as
    well.

    The traversal is exact integer arithmetic (after Amanatides & Woo 1987).
    The i-th row boundary falls at t = (2i-1)/(2|dr|) and the j-th column
    boundary at t = (2j-1)/(2|dc|); over the common denominator
    D = 2*max(|dr|,1)*max(|dc|,1) their numerators are the odd multiples
    (2i-1)*max(|dc|,1) and (2j-1)*max(|dr|,1). Both sequences ascend, so
    one two-pointer merge visits the crossings in order, and equal
    numerators are the exact corner contacts. Int/int division is correctly
    rounded, so each crossing's t/D is the float of its reduced fraction and
    the midpoints ``(prev/D + t/D) / 2`` are those of an exact traversal.
    """
    a = CellIndex(int(a[0]), int(a[1]))
    b = CellIndex(int(b[0]), int(b[1]))
    za = grid.elevation(a)  # refuses an off-grid or nodata endpoint
    zb = grid.elevation(b)
    if a == b:
        return True
    # Canonical direction keeps the computation bit-identical under swap.
    if (b.row, b.col) < (a.row, a.col):
        a, b, za, zb = b, a, zb, za
        observer_height, target_height = target_height, observer_height

    za += observer_height
    zb += target_height
    zdiff = zb - za
    dr = b.row - a.row
    dc = b.col - a.col
    sr = 1 if dr > 0 else -1
    sc = 1 if dc > 0 else -1
    endpoints = {(a.row, a.col), (b.row, b.col)}
    flat = grid.flat
    ncols = grid.ncols
    nodata = grid.nodata

    # Crossing numerators over den; a sequence with no crossings starts at
    # den, and every exhausted one lies past it.
    half_r = abs(dc) or 1
    half_c = abs(dr) or 1
    den = 2 * half_r * half_c
    tr = half_r if dr else den
    tc = half_c if dc else den
    r, c = a.row, a.col
    f_prev = 0.0
    while True:
        t = tr if tr < tc else tc
        if t >= den:
            return True
        f = t / den
        if (r, c) not in endpoints:
            z = flat[r * ncols + c]
            if z == nodata or z > za + (f_prev + f) / 2.0 * zdiff:
                return False
        if tr == tc:  # exact corner: both touching cells can occlude
            for rr, cc in ((r + sr, c), (r, c + sc)):
                if (rr, cc) not in endpoints:
                    z = flat[rr * ncols + cc]
                    if z == nodata or z > za + f * zdiff:
                        return False
            r += sr
            c += sc
            tr += 2 * half_r
            tc += 2 * half_c
        elif tr < tc:
            r += sr
            tr += 2 * half_r
        else:
            c += sc
            tc += 2 * half_c
        f_prev = f


def viewshed(
    grid: ElevationGrid,
    origin: CellIndex,
    radius: float,
    observer_height: float = DEFAULT_EYE_HEIGHT,
    target_height: float = DEFAULT_EYE_HEIGHT,
) -> np.ndarray:
    """Boolean visibility mask around ``origin`` out to ``radius`` meters.

    mask[r, c] is the line-of-sight result for every traversable cell whose
    center lies within the Euclidean radius; everything else is False.
    """
    origin = CellIndex(int(origin[0]), int(origin[1]))
    if not grid.traversable(origin):
        raise ValueError("viewshed origin must be a traversable cell")
    if not radius > 0:
        raise ValueError("radius must be positive")
    mask = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    cs = grid.cellsize
    for r in range(grid.nrows):
        for c in range(grid.ncols):
            cell = CellIndex(r, c)
            if grid.is_nodata(cell):
                continue
            if math.hypot((r - origin.row) * cs, (c - origin.col) * cs) > radius:
                continue
            mask[r, c] = line_of_sight(
                grid, origin, cell, observer_height, target_height
            )
    return mask


# ---------------------------------------------------------------------------
# Synthetic terrain
# ---------------------------------------------------------------------------

RECIPES = ("flat", "ramp", "ridge", "cone", "two_corridor")


def make_synthetic(
    kind: str,
    *,
    nrows: int,
    ncols: int,
    cellsize: float = 30.0,
    xll: float = 0.0,
    yll: float = 0.0,
    nodata: float = DEFAULT_NODATA,
    **params: float,
) -> ElevationGrid:
    """Deterministic terrain generators for desk-scale tests and scenarios.

    Recipes:
      flat(h)                   constant elevation ``h``.
      ramp(slope, axis)         elevation rising at ``slope`` percent along
                                ``axis`` ('x' = west->east, 'y' = south->north).
      ridge(height, position)   wall of ``height`` on column ``position``,
                                spanning from row nrows//4 to the south edge,
                                leaving a single northern gap to pass around.
      cone(peak, radius)        peak at the grid center falling linearly to 0
                                at ``radius`` meters.
      two_corridor(gentle, steep)
                                two routes between the endpoints returned by
                                :func:`two_corridor_endpoints`: a long detour
                                at ``gentle`` percent slope and a short direct
                                corridor at ``steep`` percent; everything else
                                is nodata. ``ncols`` must be odd.
    """
    nrows = whole_number("recipe nrows", nrows)
    ncols = whole_number("recipe ncols", ncols)
    if nrows <= 0 or ncols <= 0:
        raise ValueError("nrows and ncols must be positive")
    if nrows * ncols > MAX_GRID_CELLS:
        raise ValueError(f"recipe grid of {nrows} x {ncols} cells exceeds "
                         f"MAX_GRID_CELLS = {MAX_GRID_CELLS}")
    if kind == "flat":
        h = float(params.pop("h", 0.0))
        _no_extra(params)
        values = np.full((nrows, ncols), h)
    elif kind == "ramp":
        slope = float(params.pop("slope"))
        axis = str(params.pop("axis", "x"))
        _no_extra(params)
        if not 0 <= slope:
            raise ValueError("ramp slope must be non-negative")
        if axis not in ("x", "y"):
            raise ValueError("ramp axis must be 'x' or 'y'")
        frac = slope / 100.0
        if axis == "x":
            values = np.tile(np.arange(ncols) * cellsize * frac, (nrows, 1))
        else:
            northing = (nrows - 1 - np.arange(nrows)) * cellsize * frac
            values = np.tile(northing[:, None], (1, ncols))
    elif kind == "ridge":
        height = float(params.pop("height"))
        position = whole_number("recipe position", params.pop("position"))
        _no_extra(params)
        if height <= 0:
            raise ValueError("ridge height must be positive")
        if not 0 <= position < ncols:
            raise ValueError("ridge position out of range")
        values = np.zeros((nrows, ncols))
        values[nrows // 4:, position] = height
    elif kind == "cone":
        peak = float(params.pop("peak"))
        radius = float(params.pop("radius"))
        _no_extra(params)
        if peak <= 0 or radius <= 0:
            raise ValueError("cone peak and radius must be positive")
        cr, cc = (nrows - 1) / 2.0, (ncols - 1) / 2.0
        rr, cc_idx = np.meshgrid(np.arange(nrows), np.arange(ncols), indexing="ij")
        dist = np.hypot((rr - cr) * cellsize, (cc_idx - cc) * cellsize)
        values = np.maximum(0.0, peak * (1.0 - dist / radius))
    elif kind == "two_corridor":
        gentle = float(params.pop("gentle"))
        steep = float(params.pop("steep"))
        _no_extra(params)
        if not (0 <= gentle < steep):
            raise ValueError("need 0 <= gentle < steep")
        if nrows < 3 or ncols < 5 or ncols % 2 == 0:
            raise ValueError("two_corridor needs nrows >= 3 and odd ncols >= 5")
        mid = nrows // 2
        values = np.full((nrows, ncols), nodata)
        zig = (np.arange(ncols) % 2) * cellsize
        values[mid, :] = zig * (steep / 100.0)      # short, steep corridor
        values[0, :] = zig * (gentle / 100.0)       # long, gentle corridor
        values[0:mid + 1, 0] = 0.0                  # flat connectors
        values[0:mid + 1, ncols - 1] = 0.0
    else:
        raise ValueError(f"unknown recipe {kind!r}; expected one of {RECIPES}")
    return ElevationGrid(ncols, nrows, xll, yll, cellsize, nodata, values)


def whole_number(what: str, value) -> int:
    """A recipe size or column, a config cell's coordinate or ``sim.seed``:
    an int, or an integral float such as 5.0 (as the .asc header takes); a
    fraction, a bool or a string is refused, naming ``what``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _no_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unexpected recipe parameter(s): {sorted(params)}")


def two_corridor_endpoints(grid: ElevationGrid) -> tuple[CellIndex, CellIndex]:
    """Designated start/goal markers of a two_corridor grid (west/east mid-row)."""
    mid = grid.nrows // 2
    return CellIndex(mid, 0), CellIndex(mid, grid.ncols - 1)


def grid_from_recipe(spec: str | dict) -> ElevationGrid:
    """Build a synthetic grid from a recipe spec.

    Accepts a dict (``{"recipe": "flat", "nrows": 10, ...}``) or a compact
    string of the form ``"flat:h=100,nrows=10,ncols=10,cellsize=30"``. The
    recipe name is checked before its parameters, so a mistyped grid path
    such as ``dem.ASC`` is refused as an unknown recipe.
    """
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        params: dict[str, float] = {}
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if not key or not val:
                    raise ValueError(f"bad recipe parameter {item!r}")
                params[key.strip()] = _coerce(val.strip())
        spec = {"recipe": kind.strip(), **params}
    spec = dict(spec)
    try:
        kind = str(spec.pop("recipe"))
        if kind not in RECIPES:
            raise ValueError(f"unknown recipe {kind!r}; expected one of"
                             f" {RECIPES} or a path ending in .asc")
        nrows = spec.pop("nrows")
        ncols = spec.pop("ncols")
        cellsize = float(spec.pop("cellsize", 30.0))
        xll = float(spec.pop("xll", 0.0))
        yll = float(spec.pop("yll", 0.0))
        return make_synthetic(
            kind, nrows=nrows, ncols=ncols, cellsize=cellsize, xll=xll,
            yll=yll, **spec
        )
    except KeyError as exc:  # a missing recipe name or parameter
        raise ValueError(f"recipe needs a {exc.args[0]!r} entry") from None
    except (TypeError, OverflowError) as exc:  # a parameter of the wrong type
        raise ValueError(f"bad recipe parameter: {exc}") from None


def load_grid(spec: str | dict, base_dir: str | Path = ".") -> ElevationGrid:
    """The grid a terrain spec names: a recipe dict, a path ending in
    ``.asc`` (relative to ``base_dir``), or a compact recipe string."""
    if isinstance(spec, dict):
        return grid_from_recipe(spec)
    text = str(spec)
    if text.endswith(".asc"):
        return parse_ascii_grid((Path(base_dir) / text).read_text())
    return grid_from_recipe(text)


def _coerce(val: str):
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        return val
