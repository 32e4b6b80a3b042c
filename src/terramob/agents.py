"""Mobility profiles, the slope speed law, and the grid edge rule.

``speed`` is the one speed law. Humans scale a flat-terrain speed by a slope
reduction factor; transport animals multiply in a constant load factor as
well. Each profile anchors its reduction at one reference slope and the
curve is linear in slope from r(0) = 1 through that anchor, floored at
MIN_SLOPE_REDUCTION, with a hard impassability cutoff at ``max_slope``.
A profile derives the two constants of its curve, ``slope_drop`` and
``load_factor``, once, so the law itself has no per-kind branch.
``edge`` is the one edge rule built on it. ``EdgeTable`` holds its
answers for the 8 moves out of each cell of one grid for one profile; the
local step rules and the simulation read every move from it. Its entry is
None for every move ``edge`` gives speed 0.0, so "closed" is one test.
``planner.astar`` repeats ``edge`` and ``speed`` inline, operation for
operation, pinned bit for bit against the Dijkstra oracle
(tests/test_planner.py). ``EdgeTable``'s row fill repeats ``edge``'s
geometry (bounds, nodata, sealed corners, run) and calls ``speed``; a
differential test pins it against ``edge`` entry by entry
(tests/test_agents.py, tests/test_fuzz.py).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

from .terrain import (
    NEIGHBOR_OFFSETS, OFFSET_TO_ACTION, SQRT2, CellIndex, ElevationGrid,
)

KIND_HUMAN = "human"
KIND_ANIMAL = "animal"
ROLES = ("civilian", "hostile", "transport")

# Floor for the linear slope curve before the max_slope cutoff applies.
MIN_SLOPE_REDUCTION = 0.10


@dataclass(frozen=True)
class AgentProfile:
    """Per-type mobility parameters.

    ``reduction_at_ref`` (percent) applies to human profiles only;
    ``r_slope_at_ref`` and ``r_load`` (fractions) to animal profiles only.
    ``slope_drop`` (1 minus the reduction factor at ``ref_slope``) and
    ``load_factor`` are derived from them and cannot be set. The slowest
    passable speed, ``speed`` at ``max_slope``, must be a normal float, so
    every passable edge has a positive speed.
    """

    name: str
    kind: str
    s_flat: float
    ref_slope: float
    reduction_at_ref: float | None = None
    r_slope_at_ref: float | None = None
    r_load: float | None = None
    load_kg: float = 0.0
    vessels: int = 0
    max_slope: float = 35.0
    body_radius: float = 0.3
    role: str = "civilian"
    slope_drop: float = field(init=False, repr=False, compare=False)
    load_factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (KIND_HUMAN, KIND_ANIMAL):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.s_flat > 0:
            raise ValueError("s_flat must be positive")
        if not self.ref_slope > 0:
            raise ValueError("ref_slope must be positive")
        if not 0 < self.max_slope <= sys.float_info.max:
            raise ValueError("max_slope must be positive and finite")
        if not self.body_radius > 0:
            raise ValueError("body_radius must be positive")
        if not (self.load_kg >= 0 and self.vessels >= 0):  # NaN fails too
            raise ValueError("load_kg and vessels must be non-negative")
        if self.kind == KIND_HUMAN:
            if self.reduction_at_ref is None:
                raise ValueError("human profile needs reduction_at_ref")
            if not 0 <= self.reduction_at_ref <= 100:
                raise ValueError("reduction_at_ref must be in [0, 100]")
            if self.r_slope_at_ref is not None or self.r_load is not None:
                raise ValueError("human profile takes no load/slope fractions")
            # 1 - (1 - x) rounds differently from x: the factor at the
            # reference slope is 1 - reduction/100, and the drop is its
            # complement.
            slope_drop = 1.0 - (1.0 - self.reduction_at_ref / 100.0)
            load_factor = 1.0
        else:
            if self.r_slope_at_ref is None or self.r_load is None:
                raise ValueError("animal profile needs r_slope_at_ref and r_load")
            for label, v in (("r_slope_at_ref", self.r_slope_at_ref),
                             ("r_load", self.r_load)):
                if not 0 < v <= 1:
                    raise ValueError(f"{label} must be in (0, 1]")
            if self.reduction_at_ref is not None:
                raise ValueError("animal profile takes no reduction_at_ref")
            slope_drop = 1.0 - self.r_slope_at_ref
            load_factor = self.r_load
        object.__setattr__(self, "slope_drop", slope_drop)
        object.__setattr__(self, "load_factor", load_factor)
        if not speed(self, self.max_slope) >= sys.float_info.min:
            raise ValueError(f"s_flat {self.s_flat!r} is too small: the speed"
                             " at max_slope is 0.0 or subnormal")


def speed(p: AgentProfile, slope: float) -> float:
    """Walking speed in m/s on a ``slope`` percent grade; 0.0 above max_slope.

    The reduction factor falls linearly from 1 by ``slope_drop`` per
    ``ref_slope`` of grade, floored at MIN_SLOPE_REDUCTION; it never exceeds
    1, since the slope is non-negative and ``slope_drop`` is too. This is
    the package's one speed law; ``planner.astar`` repeats its arithmetic
    inline, operation for operation.
    """
    if slope < 0:
        raise ValueError("slope must be non-negative")
    if slope > p.max_slope:
        return 0.0
    r = 1.0 - p.slope_drop * (slope / p.ref_slope)
    if r < MIN_SLOPE_REDUCTION:
        r = MIN_SLOPE_REDUCTION
    return p.s_flat * (r * p.load_factor)


def builtin_profiles() -> list[AgentProfile]:
    """The six stock profiles: four human groups and two transport animals."""
    return [
        AgentProfile(
            name="fit_adults", kind=KIND_HUMAN, s_flat=1.5,
            ref_slope=15.0, reduction_at_ref=25.0,
            max_slope=35.0, body_radius=0.3, role="civilian",
        ),
        AgentProfile(
            name="elderly", kind=KIND_HUMAN, s_flat=1.0,
            ref_slope=15.0, reduction_at_ref=50.0,
            max_slope=35.0, body_radius=0.3, role="civilian",
        ),
        AgentProfile(
            name="families", kind=KIND_HUMAN, s_flat=1.2,
            ref_slope=15.0, reduction_at_ref=35.0,
            max_slope=35.0, body_radius=0.3, role="civilian",
        ),
        AgentProfile(
            name="hostile", kind=KIND_HUMAN, s_flat=1.8,
            ref_slope=15.0, reduction_at_ref=20.0,
            max_slope=35.0, body_radius=0.3, role="hostile",
        ),
        AgentProfile(
            name="ox_cart", kind=KIND_ANIMAL, s_flat=1.25,
            ref_slope=10.0, r_slope_at_ref=0.90, r_load=0.75,
            load_kg=400.0, vessels=4,
            max_slope=15.0, body_radius=1.2, role="transport",
        ),
        AgentProfile(
            name="mule", kind=KIND_ANIMAL, s_flat=1.7,
            ref_slope=25.0, r_slope_at_ref=0.75, r_load=0.75,
            load_kg=100.0, vessels=2,
            max_slope=30.0, body_radius=0.6, role="transport",
        ),
    ]


def builtin_profile(name: str) -> AgentProfile:
    for p in builtin_profiles():
        if p.name == name:
            return p
    raise ValueError(f"no built-in profile named {name!r}")


def profile_from_spec(spec: str | dict) -> AgentProfile:
    """Resolve a profile reference from scenario configuration.

    Accepts a built-in name, an override dict (``{"base": name, ...}``
    replacing selected fields), or a full inline definition. Built-ins are
    never mutated; overrides produce new frozen instances.
    """
    if isinstance(spec, str):
        return builtin_profile(spec)
    spec = dict(spec)
    if "base" in spec:
        base = builtin_profile(spec.pop("base"))
        return replace(base, **spec)
    return AgentProfile(**spec)


def edge(
    p: AgentProfile,
    grid: ElevationGrid,
    a: CellIndex,
    b: CellIndex,
) -> tuple[float, float, float]:
    """``(run, slope, speed)`` of the grid edge a -> b: the one edge rule.

    ``run`` is the horizontal length in meters (cellsize, times sqrt(2) on
    a diagonal), ``slope`` the grade in percent and ``speed`` the profile's
    walking speed in m/s. Speed is 0.0, and the edge impassable, when
      - either endpoint is out of bounds or nodata (slope reads 0.0);
      - it is a diagonal whose two flanking cells, ``(b.row, a.col)`` and
        ``(a.row, b.col)``, are both nodata (a sealed corner, which
        ``terrain.line_of_sight`` also treats as opaque; slope reads 0.0);
      - its slope exceeds the profile's ``max_slope``.
    Non-adjacent cells are a caller error (ValueError). Elevations are
    read through ``grid.flat``.

    ``planner.astar`` carries an inlined copy of this rule and of ``speed``,
    and ``EdgeTable`` one of its geometry, that must stay bit-identical to
    it. Both read the same flat view; A* tests bounds once per expanded
    node instead of per edge.
    """
    ar, ac = a[0], a[1]
    br, bc = b[0], b[1]
    dr = br - ar
    dc = bc - ac
    if (dr, dc) not in OFFSET_TO_ACTION:
        raise ValueError(f"cells {(ar, ac)} and {(br, bc)} are not adjacent")
    diagonal = dr != 0 and dc != 0
    run = grid.cellsize * (SQRT2 if diagonal else 1.0)
    nrows, ncols = grid.nrows, grid.ncols
    if not (0 <= ar < nrows and 0 <= ac < ncols
            and 0 <= br < nrows and 0 <= bc < ncols):
        return run, 0.0, 0.0
    flat = grid.flat
    va = flat[ar * ncols + ac]
    vb = flat[br * ncols + bc]
    nodata = grid.nodata
    if va == nodata or vb == nodata or (
            diagonal and flat[br * ncols + ac] == nodata
            and flat[ar * ncols + bc] == nodata):
        return run, 0.0, 0.0
    slope = abs(vb - va) / run * 100.0
    return run, slope, speed(p, slope)


class EdgeTable(dict):
    """The moves out of each cell of ``grid`` for ``profile``: ``edge``'s
    answers, a row at a time, from an inlined copy of ``edge``'s geometry
    and a call of ``speed``.

    ``table[cell]`` is a tuple of 8 entries in action (``NEIGHBOR_OFFSETS``)
    order. An entry is None where ``edge``'s speed is 0.0 (off the grid,
    nodata, a sealed corner, steeper than ``max_slope``, or out of an
    off-grid or nodata source), else ``(dest, run / speed, speed, slope)``
    with ``edge``'s positive speed and slope. A cell's row is filled on its
    first read and kept, which is exact because grids and profiles never
    change; a later read is one dict lookup. A flat step (equal heights,
    not a sealed corner) is ``(dest, run / v0, v0, 0.0)`` with ``v0 =
    speed(profile, 0.0)`` and the step's time at it made once per table:
    ``edge`` computes the same, its slope being ``abs(±0.0) / run * 100 =
    +0.0``.
    """

    __slots__ = ("grid", "profile", "v0", "steps")

    def __init__(self, grid: ElevationGrid, profile: AgentProfile):
        self.grid = grid
        self.profile = profile
        self.v0 = v0 = speed(profile, 0.0)  # the speed of every flat edge
        # (dr, dc, run, flat time) per action, made once per table: edge's
        # runs and their time at v0
        self.steps = []
        for dr, dc in NEIGHBOR_OFFSETS:
            run = grid.cellsize * (SQRT2 if dr and dc else 1.0)
            self.steps.append((dr, dc, run, run / v0))

    def __missing__(self, cell: CellIndex) -> tuple:
        grid, p, v0 = self.grid, self.profile, self.v0
        nrows, ncols = grid.nrows, grid.ncols
        flat, nodata = grid.flat, grid.nodata
        new = tuple.__new__  # a CellIndex without namedtuple's Python __new__
        r, c = cell
        # edge refuses every step out of an off-grid or nodata source
        if not (0 <= r < nrows and 0 <= c < ncols
                and (va := flat[r * ncols + c]) != nodata):
            row = self[cell] = (None,) * 8
            return row
        row = []
        for dr, dc, run, flat_time in self.steps:
            rr, cc = r + dr, c + dc
            if not (0 <= rr < nrows and 0 <= cc < ncols
                    and (vb := flat[rr * ncols + cc]) != nodata) or (
                    dr and dc and flat[rr * ncols + c] == nodata
                    and flat[r * ncols + cc] == nodata):
                row.append(None)
            elif vb == va:  # a flat edge: slope +0.0, speed v0
                row.append((new(CellIndex, (rr, cc)), flat_time, v0, 0.0))
            else:
                slope = abs(vb - va) / run * 100.0
                v = speed(p, slope)
                row.append((new(CellIndex, (rr, cc)), run / v, v, slope)
                           if v else None)
        row = self[cell] = tuple(row)
        return row
