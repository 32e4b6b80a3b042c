"""Golden regression test: A* must reproduce recorded plans bit for bit.

``data/astar_golden.json`` holds the waypoints, per-edge times, totals and
search counters of a fixed set of searches: all six built-in profiles under
both objectives on seeded rough grids with nodata holes, one unreachable
goal and one start == goal search. Floats are stored by ``repr`` (JSON's
float form), so they round-trip exactly and the comparison is equality.

Regenerate the file only from a commit whose A* is known good:

    PYTHONPATH=src:tests python tests/test_astar_golden.py
"""

import json
from pathlib import Path

import pytest

from terramob.agents import builtin_profile, builtin_profiles
from terramob.planner import NoPathError, astar
from terramob.terrain import CellIndex
from conftest import rough_grid, validate_plan

GOLDEN = Path(__file__).parent / "data" / "astar_golden.json"


def _grid(seed):
    # Non-square so that row/col mix-ups show; 12.5 m cells with 45 m relief
    # put slopes on both sides of every profile's max_slope and the elderly
    # reduction floor.
    return rough_grid(seed, nrows=21, ncols=29, cellsize=12.5, relief=45.0)


def _cases():
    """(case id, grid seed, profile name, start, goal, objective)."""
    cases = []
    for i, p in enumerate(builtin_profiles()):
        for objective in ("time", "distance"):
            cases.append((f"{p.name}-{objective}", 200 + i, p.name,
                          (0, 0), (20, 28), objective))
    cases.append(("start-is-goal", 200, "hostile", (10, 14), (10, 14), "time"))
    return cases


def _search(seed, profile_name, start, goal, objective):
    grid = _grid(seed)
    p = builtin_profile(profile_name)
    plan, stats = astar(grid, p, CellIndex(*start), CellIndex(*goal), objective)
    return grid, p, plan, stats


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
    case_id, seed, profile_name, start, goal, objective = case
    grid, p, plan, stats = _search(seed, profile_name, start, goal, objective)
    assert _record(plan, stats) == golden[case_id]
    validate_plan(plan, grid, p)


def test_unreachable_goal_raises():
    with pytest.raises(NoPathError):
        astar(_moat_grid(), builtin_profile("mule"), CellIndex(0, 0),
              CellIndex(20, 28))


if __name__ == "__main__":
    doc = {}
    for case_id, seed, profile_name, start, goal, objective in _cases():
        _, _, plan, stats = _search(seed, profile_name, start, goal, objective)
        doc[case_id] = _record(plan, stats)
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
