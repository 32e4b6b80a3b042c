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

Regenerate the file only from a commit whose simulation is known good:

    PYTHONPATH=src:tests python tests/test_sim_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from terramob.cli import main

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"

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


def simulate_digests(work: Path) -> dict[str, str]:
    """Train the table, run ``simulate`` in ``work``, hash what it wrote."""
    assert main(["train", "--episodes", "400", "--seed", "3",
                 "--out", str(work / "qt")]) == 0
    (work / "scenario.json").write_text(json.dumps(SCENARIO))
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = simulate_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
