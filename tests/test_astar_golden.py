"""Golden regression test: A* must reproduce recorded plans bit for bit.

``data/astar_golden.json`` holds the waypoints, per-edge times, totals and
search counters of a fixed set of searches: all six built-in profiles under
both objectives on seeded rough grids with nodata holes, one unreachable
goal and one start == goal search. Three more cases, each under both
objectives, sit where a neighbor's least edge cost (its step's time at
flat-ground speed, or its run) meets the cost A* would relax it at: a
human profile with no slope reduction and an animal one with no slope
reduction under load, so every passable edge costs exactly its flat time,
and a grid of whole-metre heights, where flat edges and equal-f ties are
common. Floats are stored by ``repr`` (JSON's float form), so they
round-trip exactly and the comparison is equality.

Regenerate the file only from a commit whose A* is known good:

    PYTHONPATH=src:tests python tests/test_astar_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from terramob.agents import AgentProfile, builtin_profile, builtin_profiles
from terramob.planner import NoPathError, astar
from terramob.terrain import CellIndex
from conftest import rough_grid, validate_plan

GOLDEN = Path(__file__).parent / "data" / "astar_golden.json"


def _grid(seed):
    # Non-square so that row/col mix-ups show; 12.5 m cells with 45 m relief
    # put slopes on both sides of every profile's max_slope and the elderly
    # reduction floor.
    return rough_grid(seed, nrows=21, ncols=29, cellsize=12.5, relief=45.0)


def _whole_metre_grid(seed):
    """``_grid(seed)`` with its heights rounded to whole metres (nodata
    stays nodata): neighbors of equal height are common."""
    grid = _grid(seed)
    return replace(grid, values=np.round(grid.values))


# No slope reduction: every passable edge costs its step's flat time.
LEVEL_WALKER = AgentProfile(name="level_walker", kind="human", s_flat=1.3,
                            ref_slope=15.0, reduction_at_ref=0.0,
                            max_slope=30.0)
LADEN_PONY = AgentProfile(name="laden_pony", kind="animal", s_flat=1.4,
                          ref_slope=12.0, r_slope_at_ref=1.0, r_load=0.6,
                          max_slope=25.0, body_radius=0.8, role="transport")


def _cases():
    """(case id, grid, profile, start, goal, objective)."""
    cases = []
    for i, p in enumerate(builtin_profiles()):
        for objective in ("time", "distance"):
            cases.append((f"{p.name}-{objective}", _grid(200 + i), p,
                          (0, 0), (20, 28), objective))
    for name, grid, p in (("level_walker", _grid(206), LEVEL_WALKER),
                          ("laden_pony", _grid(207), LADEN_PONY),
                          ("whole_metres", _whole_metre_grid(208),
                           builtin_profile("families"))):
        for objective in ("time", "distance"):
            cases.append((f"{name}-{objective}", grid, p, (0, 0), (20, 28),
                          objective))
    cases.append(("start-is-goal", _grid(200), builtin_profile("hostile"),
                  (10, 14), (10, 14), "time"))
    return cases


def _record(plan, stats):
    return {
        "waypoints": [list(w) for w in plan.waypoints],
        "edge_times": plan.edge_times,
        "total_time": plan.total_time,
        "total_distance": plan.total_distance,
        "nodes_expanded": stats.nodes_expanded,
        "open_peak": stats.open_peak,
    }


def _moat_grid():
    """A rough grid cut in two by a full column of nodata."""
    grid = _grid(206)
    return grid.with_nodata([CellIndex(r, 14) for r in range(grid.nrows)])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c[0])
def test_matches_golden(case, golden):
    case_id, grid, p, start, goal, objective = case
    plan, stats = astar(grid, p, CellIndex(*start), CellIndex(*goal),
                        objective)
    assert _record(plan, stats) == golden[case_id]
    validate_plan(plan, grid, p)


def test_unreachable_goal_raises():
    with pytest.raises(NoPathError):
        astar(_moat_grid(), builtin_profile("mule"), CellIndex(0, 0),
              CellIndex(20, 28))


if __name__ == "__main__":
    doc = {}
    for case_id, grid, p, start, goal, objective in _cases():
        doc[case_id] = _record(*astar(grid, p, CellIndex(*start),
                                      CellIndex(*goal), objective))
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
