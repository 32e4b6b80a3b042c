"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and size; the
program under test only ever sees the files and arguments built from it.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np

PROFILES = ("fit_adults", "elderly", "families", "hostile", "ox_cart", "mule")
HUMANS = PROFILES[:4]
NODATA = -9999.0
CELLSIZE = 30.0
HOP = 12  # length of a short plan query, in cells
# The most restrictive slope limit of the six profiles (ox_cart). Cells that
# are connected under it are connected for every profile.
STRICTEST_SLOPE = 15.0

# Workload sizes: "full" is what the benchmark measures, "tiny" what its
# self-test runs.
SIZES = {
    "full": {"route_n": 192, "route_short": 70, "route_long": 30,
             "crowd_n": 20, "crowd_lanes": 5,
             "pursuit_n": 96, "pursuit_horizon": 120.0, "pursuit_leg": 3,
             "table_episodes": 5000, "train_episodes": 100,
             "eval_chunks": 30, "eval_episodes": 40},
    "tiny": {"route_n": 48, "route_short": 3, "route_long": 1,
             "crowd_n": 16, "crowd_lanes": 3,
             "pursuit_n": 32, "pursuit_horizon": 40.0, "pursuit_leg": 2,
             "table_episodes": 5000, "train_episodes": 40,
             "eval_chunks": 2, "eval_episodes": 10},
}


# ---------------------------------------------------------------------------
# route_plan: a rough grid and a 70/30 mix of short and cross-grid queries
# ---------------------------------------------------------------------------

def rough_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Smoothed noise with ~8% of edges above the ox_cart slope limit and a
    sprinkling of nodata holes. Elevations are multiples of 1/8 m, so their
    text form is exact and short."""
    v = rng.uniform(0.0, 80.0, (n, n))
    for _ in range(3):
        p = np.pad(v, 1, mode="edge")
        v = sum(p[i:i + n, j:j + n] for i in range(3) for j in range(3)) / 9.0
    v = np.round(v * 8.0) / 8.0
    v[rng.random((n, n)) < 0.02] = NODATA
    return v


def asc_text(values: np.ndarray) -> str:
    nrows, ncols = values.shape
    lines = [f"ncols {ncols}", f"nrows {nrows}", "xllcorner 500000.0",
             "yllcorner 4100000.0", f"cellsize {CELLSIZE!r}",
             f"NODATA_value {NODATA!r}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in values]
    return "\n".join(lines) + "\n"


def largest_component(values: np.ndarray) -> np.ndarray:
    """Label mask of the biggest 8-connected set of cells whose edges all
    stay within the strictest slope limit (the edge rule of the planner)."""
    nrows, ncols = values.shape
    label = np.full((nrows, ncols), -1, dtype=np.int64)
    vals = values.tolist()
    sizes = []
    for r0 in range(nrows):
        for c0 in range(ncols):
            if label[r0, c0] >= 0 or vals[r0][c0] == NODATA:
                continue
            k = len(sizes)
            label[r0, c0] = k
            queue = deque([(r0, c0)])
            size = 0
            while queue:
                r, c = queue.popleft()
                size += 1
                z = vals[r][c]
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if (not (0 <= rr < nrows and 0 <= cc < ncols)
                                or label[rr, cc] >= 0):
                            continue
                        zz = vals[rr][cc]
                        if zz == NODATA:
                            continue
                        run = CELLSIZE * (2 ** 0.5 if dr and dc else 1.0)
                        if abs(zz - z) / run * 100.0 > STRICTEST_SLOPE:
                            continue
                        label[rr, cc] = k
                        queue.append((rr, cc))
            sizes.append(size)
    return label == int(np.argmax(sizes))


def route_queries(rng, ok: np.ndarray, short: int, long: int) -> list[dict]:
    """``long`` straight crossings from one edge to the opposite one and
    ``short`` straight hops of HOP cells north, east, south or west over the
    six profiles in turn; shuffled. Every endpoint lies in ``ok``.

    Fixed lengths, and one profile (fit_adults) for the crossings, keep the
    A* work of a query set alike from seed to seed: with crossings over the
    four human profiles and random lengths, the seed alone moved the A*
    percentiles by 13-21%. Animal crossings would also take ~0.8 s of A*
    each (their heuristic ignores the load factor), too long to time call
    by call here.
    """
    n = ok.shape[0]
    cells = np.argwhere(ok)

    def pick(rows, cols):
        while True:
            r, c = int(rng.choice(rows)), int(rng.choice(cols))
            if ok[r, c]:
                return r, c

    band = np.arange(0, max(2, n // 16))
    far = n - 1 - band
    queries = []
    anywhere = np.arange(n)

    def lane(x):  # rows (or columns) within 2 of x
        return np.arange(max(0, x - 2), min(n, x + 3))

    for i in range(long):
        if i % 2 == 0:   # west edge to east edge
            a = pick(anywhere, band)
            b = pick(lane(a[0]), far)
        else:            # north edge to south edge
            a = pick(band, anywhere)
            b = pick(far, lane(a[1]))
        if i % 4 >= 2:
            a, b = b, a
        queries.append({"kind": "long", "profile": "fit_adults",
                        "start": a, "goal": b})
    steps = ((-HOP, 0), (0, HOP), (HOP, 0), (0, -HOP))
    while len(queries) < long + short:
        k = len(queries) - long
        r, c = (int(x) for x in cells[rng.integers(len(cells))])
        rr, cc = r + steps[k % 4][0], c + steps[k % 4][1]
        if not (0 <= rr < n and 0 <= cc < n) or not ok[rr, cc]:
            continue
        queries.append({"kind": "short", "profile": PROFILES[k % len(PROFILES)],
                        "start": (r, c), "goal": (rr, cc)})
    return [queries[j] for j in rng.permutation(len(queries))]


def write_route_plan(work: Path, seed: int, size: dict) -> dict:
    rng = np.random.default_rng([seed, 1])
    values = rough_values(rng, size["route_n"])
    grid_path = work / "grid.asc"
    grid_path.write_text(asc_text(values))
    queries = route_queries(rng, largest_component(values),
                            size["route_short"], size["route_long"])
    return {"grid": str(grid_path), "queries": queries}


# ---------------------------------------------------------------------------
# crowd: walkers crossing a cone W->E and N->S through two timed bars
# ---------------------------------------------------------------------------

def crowd_config(seed: int, size: dict, qtable: str, horizon: float) -> dict:
    """Fixed crossing layout; the seed only names the run (``sim.seed``).

    The layout is fixed on purpose: which agents livelock on the crossing is
    chaotic in the layout, and with it the run length, so a seeded layout
    makes the wall time swing by up to 2.7x between seeds and sometimes
    hides the livelock. This one shows it on every run.
    """
    n = size["crowd_n"]
    lanes = np.linspace(2, n - 3, size["crowd_lanes"]).round().astype(int).tolist()
    agents = []
    for i, r in enumerate(lanes):
        agents.append({"id": f"we{i:02d}", "profile": HUMANS[i % 4],
                       "start": [r, 0], "goal": [r, n - 1], "qtable": qtable})
    for i, c in enumerate(lanes):
        agents.append({"id": f"ns{i:02d}", "profile": HUMANS[(i + 2) % 4],
                       "start": [0, c], "goal": [n - 1, c], "qtable": qtable})
    m = n // 2
    w = max(2, 3 * n // 20)
    obstacles = [
        {"cells": [[r, m - 2 * w // 3] for r in range(m - w, m + w)],
         "schedule": [[21.0, 621.0]]},
        {"cells": [[m + 2 * w // 3, c] for c in range(m - w, m + w)],
         "schedule": [[113.0, 713.0]]},
    ]
    return {
        "terrain": {"recipe": "cone", "nrows": n, "ncols": n,
                    "cellsize": CELLSIZE, "peak": 3.0 * n, "radius": 15.0 * n},
        "agents": agents,
        "obstacles": obstacles,
        "sim": {"dt": 1.0, "max_sim_time": horizon, "seed": seed},
    }


# ---------------------------------------------------------------------------
# pursuit: four chases kept active to the horizon, plus a transport table
# ---------------------------------------------------------------------------

def pursuit_config(seed: int, size: dict) -> dict:
    """Fixed chase layout; the seed only names the run (``sim.seed``).

    Each pursuer starts on the west edge in sight of its target on the east
    edge, near the cone's foot; targets walk a short way along the edge,
    towards the cone. Pursuers are slower than their targets and
    ``los_loss_limit`` lies beyond the horizon, so every chase stays active
    and each step asks for four long sight lines. Fixed for the same
    reason as the crowd layout: chase outcomes, and with them the run
    length, are chaotic in the layout.
    """
    n = size["pursuit_n"]
    leg = size["pursuit_leg"]
    agents, rules = [], []
    for i, r in enumerate((1, 4, n - 5, n - 2)):
        down = 1 if r < n // 2 else -1
        agents.append({"id": f"t{i}", "profile": "fit_adults",
                       "start": [r, n - 3], "goal": [r + down * leg, n - 3]})
        agents.append({"id": f"p{i}", "profile": "families",
                       "start": [r, 2], "goal": [r, 2 + leg]})
        rules.append({"pursuer": f"p{i}", "target": f"t{i}",
                      "los_loss_limit": 10.0 * size["pursuit_horizon"],
                      "effort_budget": 1e9, "capture_radius": 2.0})
    return {
        "terrain": {"recipe": "cone", "nrows": n, "ncols": n,
                    "cellsize": CELLSIZE, "peak": 1.5 * n, "radius": 12.0 * n},
        "agents": agents,
        "pursuit_rules": rules,
        "transport": {"a": "ox_cart", "b": "mule", "routes": [
            {"name": "rim", "start": [2, 2], "goal": [2, 2 + leg]},
            {"name": "mid", "start": [n // 2, 2], "goal": [n // 2, 2 + leg]},
        ]},
        "sim": {"dt": 1.0, "max_sim_time": size["pursuit_horizon"], "seed": seed},
    }


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
