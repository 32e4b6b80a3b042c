"""Mobility profiles: slope- and load-dependent walking speeds.

Two speed laws cover the modeled movers. Humans scale a flat-terrain speed
by a slope reduction factor; transport animals multiply in a constant load
factor as well. Each profile anchors its reduction at one reference slope
and the curve is linear in slope from r(0) = 1 through that anchor, floored
at MIN_SLOPE_REDUCTION, with a hard impassability cutoff at ``max_slope``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .terrain import CellIndex, ElevationGrid

KIND_HUMAN = "human"
KIND_ANIMAL = "animal"
ROLES = ("civilian", "hostile", "transport")

# Floor for the linear slope curve before the max_slope cutoff applies.
MIN_SLOPE_REDUCTION = 0.10

IMPASSABLE = math.inf


@dataclass(frozen=True)
class AgentProfile:
    """Per-type mobility parameters.

    ``reduction_at_ref`` (percent) applies to human profiles only;
    ``r_slope_at_ref`` and ``r_load`` (fractions) to animal profiles only.
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

    def __post_init__(self):
        if self.kind not in (KIND_HUMAN, KIND_ANIMAL):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.s_flat > 0:
            raise ValueError("s_flat must be positive")
        if not self.ref_slope > 0:
            raise ValueError("ref_slope must be positive")
        if not self.max_slope > 0:
            raise ValueError("max_slope must be positive")
        if not self.body_radius > 0:
            raise ValueError("body_radius must be positive")
        if self.load_kg < 0 or self.vessels < 0:
            raise ValueError("load_kg and vessels must be non-negative")
        if self.kind == KIND_HUMAN:
            if self.reduction_at_ref is None:
                raise ValueError("human profile needs reduction_at_ref")
            if not 0 <= self.reduction_at_ref <= 100:
                raise ValueError("reduction_at_ref must be in [0, 100]")
            if self.r_slope_at_ref is not None or self.r_load is not None:
                raise ValueError("human profile takes no load/slope fractions")
        else:
            if self.r_slope_at_ref is None or self.r_load is None:
                raise ValueError("animal profile needs r_slope_at_ref and r_load")
            for label, v in (("r_slope_at_ref", self.r_slope_at_ref),
                             ("r_load", self.r_load)):
                if not 0 < v <= 1:
                    raise ValueError(f"{label} must be in (0, 1]")
            if self.reduction_at_ref is not None:
                raise ValueError("animal profile takes no reduction_at_ref")


@dataclass(frozen=True)
class SpeedResult:
    speed: float        # m/s; 0 when not passable
    r_effective: float  # combined reduction actually applied
    passable: bool


def reduction_factor(reduction_percent: float) -> float:
    """Convert a percentage speed reduction to a multiplicative factor."""
    if not 0 <= reduction_percent <= 100:
        raise ValueError("reduction percent must be in [0, 100]")
    return 1.0 - reduction_percent / 100.0


def _slope_curve(r_at_ref: float, ref_slope: float, slope: float) -> float:
    """Linear reduction in slope through (0, 1) and (ref_slope, r_at_ref)."""
    r = 1.0 - (1.0 - r_at_ref) * (slope / ref_slope)
    return max(MIN_SLOPE_REDUCTION, min(1.0, r))


def human_speed(p: AgentProfile, slope: float) -> SpeedResult:
    """Slope-adjusted walking speed for a human profile."""
    if p.kind != KIND_HUMAN:
        raise ValueError(f"profile {p.name!r} is not a human profile")
    if slope < 0:
        raise ValueError("slope must be non-negative")
    if slope > p.max_slope:
        return SpeedResult(0.0, 0.0, False)
    r = _slope_curve(reduction_factor(p.reduction_at_ref), p.ref_slope, slope)
    return SpeedResult(p.s_flat * r, r, True)


def animal_speed(p: AgentProfile, slope: float) -> SpeedResult:
    """Slope- and load-adjusted speed for a transport-animal profile."""
    if p.kind != KIND_ANIMAL:
        raise ValueError(f"profile {p.name!r} is not an animal profile")
    if slope < 0:
        raise ValueError("slope must be non-negative")
    if slope > p.max_slope:
        return SpeedResult(0.0, 0.0, False)
    r = _slope_curve(p.r_slope_at_ref, p.ref_slope, slope) * p.r_load
    return SpeedResult(p.s_flat * r, r, True)


def speed(p: AgentProfile, slope: float) -> SpeedResult:
    if p.kind == KIND_HUMAN:
        return human_speed(p, slope)
    return animal_speed(p, slope)


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
    raise KeyError(f"no built-in profile named {name!r}")


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


_SQRT2 = math.sqrt(2.0)
_ADJACENT = {
    (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1),
}


def traversal_time(
    p: AgentProfile,
    grid: ElevationGrid,
    a: CellIndex,
    b: CellIndex,
) -> float:
    """Seconds to walk one grid edge under the profile's speed law.

    Returns IMPASSABLE (inf) when the slope exceeds the profile's limit or
    either endpoint is nodata or out of bounds. Non-adjacent cells are a
    caller error. This is the scalar reference edge cost: the Dijkstra oracle,
    plan building and validation, and ``sim`` use it. The speed laws are
    applied inline (same arithmetic as the speed functions); ``planner.astar``
    carries its own copy of this arithmetic and must stay bit-identical to it.
    """
    ar, ac = a[0], a[1]
    br, bc = b[0], b[1]
    dr = br - ar
    dc = bc - ac
    if (dr, dc) not in _ADJACENT:
        raise ValueError(f"cells {(ar, ac)} and {(br, bc)} are not adjacent")
    values = grid.values
    nrows, ncols = values.shape
    if not (0 <= ar < nrows and 0 <= ac < ncols
            and 0 <= br < nrows and 0 <= bc < ncols):
        return IMPASSABLE
    va = float(values[ar, ac])
    vb = float(values[br, bc])
    nodata = grid.nodata
    if va == nodata or vb == nodata:
        return IMPASSABLE
    run = grid.cellsize * (_SQRT2 if dr != 0 and dc != 0 else 1.0)
    slope = abs(vb - va) / run * 100.0
    if slope > p.max_slope:
        return IMPASSABLE
    if p.kind == KIND_HUMAN:
        r = _slope_curve(1.0 - p.reduction_at_ref / 100.0, p.ref_slope, slope)
    else:
        r = _slope_curve(p.r_slope_at_ref, p.ref_slope, slope) * p.r_load
    return run / (p.s_flat * r)
