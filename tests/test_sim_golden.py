"""Golden regression test: ``terramob simulate`` must reproduce its outputs
byte for byte.

``data/sim_golden.json`` holds the sha256 of every file ``simulate`` writes
(``report.json``, ``report.txt`` and ``traces/*.csv``) for one small seeded
scenario on a 16x16 cone. The scenario exercises each movement rule of the
simulation:

- ``q1`` carries a bypass table trained in the test and meets a timed bar,
  so its blocked decisions go through the table;
- ``u1`` has no table and meets another timed bar, so it sidesteps by the
  greedy step rule;
- ``w1`` has no table and its next cell is blocked while it is on the first
  half of the edge into it, so it walks back;
- ``p1`` chases ``t1`` in sight and intercepts it (the chase greedy step);
- the transport section compares ``ox_cart`` and ``mule`` on two routes.

``data/sim_golden_origin.json`` does the same for a flat 8x8 grid whose
origin (-105, -120) puts column 3's cell centres on x = 0 and the edge
midpoints between rows 3 and 4 on y = 0. Agents cross both lines both ways
at exactly representable speeds, so positions of exactly 0.0 are written,
and three agents walk an edge back (``x2`` yields to ``x1`` on crossing
diagonals). The step keeps a coordinate's object when its step is zero;
this golden pins that a position is never ``-0.0``.

``data/sim_golden_holes.json`` does the same for a 12x16 ``.asc`` grid
with nodata holes, two sealed diagonal corners and three cells raised far
steeper than any ``max_slope``, so the local step rules meet neighbours
that are off the grid, nodata, or too steep (all None entries of the
edge table):

- ``q1`` carries a table and is blocked beside a hole. Its state marks the
  hole closed and its row is all zero, so it sidesteps by cost, south; one
  cell off the route a trained row sends it north again, and it goes back
  and forth until the bar goes;
- ``q2`` carries the same table and is blocked below a raised cell; it
  goes back and forth in the same way, one cell north and back, until its
  bar goes;
- ``u1`` has no table and sidesteps a timed bar that has a hole on one
  side and the steep cell on the other;
- ``p1`` chases ``t1`` around a hole pair whose sealed corner lies beside
  both of their cells.

Regenerate the files only from a commit whose simulation is known good:

    PYTHONPATH=src:tests python tests/test_sim_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from terramob.cli import main

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"
ORIGIN_GOLDEN = Path(__file__).parent / "data" / "sim_golden_origin.json"
HOLES_GOLDEN = Path(__file__).parent / "data" / "sim_golden_holes.json"

SCENARIO = {
    "terrain": {"recipe": "cone", "nrows": 16, "ncols": 16, "cellsize": 30.0,
                "peak": 40.0, "radius": 250.0},
    "agents": [
        {"id": "q1", "profile": "fit_adults", "start": [4, 0], "goal": [4, 15],
         "qtable": "qt/qtable.txt"},
        {"id": "u1", "profile": "elderly", "start": [8, 0], "goal": [8, 15]},
        {"id": "w1", "profile": "families", "start": [12, 0], "goal": [12, 15]},
        {"id": "p1", "profile": "hostile", "start": [15, 0], "goal": [15, 3]},
        {"id": "t1", "profile": "fit_adults", "start": [15, 5], "goal": [15, 15]},
    ],
    "obstacles": [
        {"cells": [[3, 5], [4, 5], [5, 5]], "schedule": [[10.0, 400.0]]},
        {"cells": [[11, 6], [12, 6], [13, 6]], "schedule": [[30.0, 300.0]]},
        # w1 starts the edge (13,1) -> (14,2) at t = 36 s and reaches its
        # midpoint at t = 54 s
        {"cells": [[14, 2]], "schedule": [[45.0, 200.0]]},
    ],
    "pursuit_rules": [
        {"pursuer": "p1", "target": "t1", "los_loss_limit": 200.0,
         "effort_budget": 1e6, "capture_radius": 2.0},
    ],
    "transport": {"a": "ox_cart", "b": "mule", "routes": [
        {"name": "west", "start": [2, 0], "goal": [2, 15]},
        {"name": "diag", "start": [0, 0], "goal": [15, 15]},
    ]},
    "sim": {"dt": 1.0, "max_sim_time": 900, "seed": 7},
}

ORIGIN_SCENARIO = {
    "terrain": {"recipe": "flat", "nrows": 8, "ncols": 8, "cellsize": 30.0,
                "h": 0.0, "xll": -105.0, "yll": -120.0},
    "agents": [
        {"id": "e1", "profile": "fit_adults", "start": [4, 0], "goal": [4, 7]},
        {"id": "n1", "profile": "fit_adults", "start": [0, 3], "goal": [7, 3]},
        {"id": "s1", "profile": "elderly", "start": [7, 4], "goal": [0, 4]},
        {"id": "w1", "profile": "fit_adults", "start": [7, 7], "goal": [7, 0]},
        {"id": "x1", "profile": "fit_adults", "start": [1, 5], "goal": [2, 6]},
        {"id": "x2", "profile": "fit_adults", "start": [1, 6], "goal": [2, 5]},
    ],
    "obstacles": [{"cells": [[5, 3]], "schedule": [[40.0, 120.0]]}],
    "sim": {"dt": 1.0, "max_sim_time": 900, "seed": 3},
}


# elevation 2 m per column plus 1 m per row; -9999 holes at (1,7), (4,6),
# (5,5), (9,4), (9,9), (10,10) and (11,6), so the diagonals (4,5)-(5,6) and
# (9,10)-(10,9) are sealed corners; (3,7), (7,8) and (9,8) stand 30 m
# above their rows
HOLES_ASC = """\
ncols 16
nrows 12
xllcorner 0
yllcorner 0
cellsize 30
NODATA_value -9999
0 2 4 6 8 10 12 14 16 18 20 22 24 26 28 30
1 3 5 7 9 11 13 -9999 17 19 21 23 25 27 29 31
2 4 6 8 10 12 14 16 18 20 22 24 26 28 30 32
3 5 7 9 11 13 15 47 19 21 23 25 27 29 31 33
4 6 8 10 12 14 -9999 18 20 22 24 26 28 30 32 34
5 7 9 11 13 -9999 17 19 21 23 25 27 29 31 33 35
6 8 10 12 14 16 18 20 22 24 26 28 30 32 34 36
7 9 11 13 15 17 19 21 53 25 27 29 31 33 35 37
8 10 12 14 16 18 20 22 24 26 28 30 32 34 36 38
9 11 13 15 -9999 19 21 23 55 -9999 29 31 33 35 37 39
10 12 14 16 18 20 22 24 26 28 -9999 32 34 36 38 40
11 13 15 17 19 21 -9999 25 27 29 31 33 35 37 39 41
"""

HOLES_SCENARIO = {
    "terrain": "holes.asc",
    "agents": [
        {"id": "q1", "profile": "fit_adults", "start": [6, 0], "goal": [6, 15],
         "qtable": "qt/qtable.txt"},
        {"id": "q2", "profile": "fit_adults", "start": [8, 0], "goal": [8, 15],
         "qtable": "qt/qtable.txt"},
        {"id": "u1", "profile": "elderly", "start": [2, 0], "goal": [2, 15]},
        {"id": "p1", "profile": "hostile", "start": [10, 0], "goal": [10, 3]},
        {"id": "t1", "profile": "fit_adults", "start": [10, 5],
         "goal": [10, 15]},
    ],
    "obstacles": [
        {"cells": [[2, 7]], "schedule": [[10.0, 400.0]]},
        {"cells": [[5, 6], [6, 6], [7, 6]], "schedule": [[5.0, 500.0]]},
        {"cells": [[8, 8]], "schedule": [[5.0, 300.0]]},
    ],
    "pursuit_rules": [
        {"pursuer": "p1", "target": "t1", "los_loss_limit": 200.0,
         "effort_budget": 1e6, "capture_radius": 2.0},
    ],
    "sim": {"dt": 1.0, "max_sim_time": 900, "seed": 5},
}


def simulate_digests(work: Path, scenario: dict = SCENARIO) -> dict[str, str]:
    """Train the table (when an agent names one) and write the ``.asc``
    grid (for ``HOLES_SCENARIO``), run ``simulate`` in ``work``, hash what
    it wrote."""
    if any("qtable" in a for a in scenario["agents"]):
        assert main(["train", "--episodes", "400", "--seed", "3",
                     "--out", str(work / "qt")]) == 0
    if scenario is HOLES_SCENARIO:
        (work / "holes.asc").write_text(HOLES_ASC)
    (work / "scenario.json").write_text(json.dumps(scenario))
    out = work / "out"
    assert main(["simulate", "--config", str(work / "scenario.json"),
                 "--out", str(out)]) == 0
    return {
        path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def test_simulate_matches_golden(tmp_path):
    assert simulate_digests(tmp_path) == json.loads(GOLDEN.read_text())


def test_simulate_across_the_origin_matches_golden(tmp_path):
    assert (simulate_digests(tmp_path, ORIGIN_SCENARIO)
            == json.loads(ORIGIN_GOLDEN.read_text()))


def test_simulate_among_holes_matches_golden(tmp_path):
    assert (simulate_digests(tmp_path, HOLES_SCENARIO)
            == json.loads(HOLES_GOLDEN.read_text()))


if __name__ == "__main__":
    for scenario, golden in ((SCENARIO, GOLDEN),
                             (ORIGIN_SCENARIO, ORIGIN_GOLDEN),
                             (HOLES_SCENARIO, HOLES_GOLDEN)):
        with tempfile.TemporaryDirectory() as tmp:
            digests = simulate_digests(Path(tmp), scenario)
        golden.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {golden}")
