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


def simulate_digests(work: Path, scenario: dict = SCENARIO) -> dict[str, str]:
    """Train the table (for ``SCENARIO``), run ``simulate`` in ``work``,
    hash what it wrote."""
    if scenario is SCENARIO:
        assert main(["train", "--episodes", "400", "--seed", "3",
                     "--out", str(work / "qt")]) == 0
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


if __name__ == "__main__":
    for scenario, golden in ((SCENARIO, GOLDEN),
                             (ORIGIN_SCENARIO, ORIGIN_GOLDEN)):
        with tempfile.TemporaryDirectory() as tmp:
            digests = simulate_digests(Path(tmp), scenario)
        golden.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {golden}")
