"""Golden regression test: line of sight must reproduce recorded answers.

``data/los_golden.json`` holds, per case, the visible (1) / hidden (0)
answer of ``line_of_sight`` for a fixed, seeded list of sight lines, as one
string of digits in list order. The cases cover:

- seeded non-square rough grids with nodata holes, random pairs;
- the same pairs with unequal observer and target heights;
- horizontal, vertical and exact 45-degree lines;
- lines with exact corner contacts (reduced offsets both odd);
- every line also asked with its endpoints and heights swapped;
- 90+-cell lines across a 96x96 cone (the benchmark's pursuit terrain)
  and a 96x96 rough grid.

Regenerate the file only from a commit whose line of sight is known good:

    PYTHONPATH=src:tests python tests/test_los_golden.py
"""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from terramob.terrain import CellIndex, line_of_sight, make_synthetic
from conftest import rough_grid

GOLDEN = Path(__file__).parent / "data" / "los_golden.json"


def _rough(seed, nrows, ncols):
    return rough_grid(seed, nrows=nrows, ncols=ncols, cellsize=12.5,
                      relief=30.0)


def _cone96():
    return make_synthetic("cone", nrows=96, ncols=96, cellsize=30.0,
                          peak=144.0, radius=1152.0)


def _open(grid, cell):
    return grid.traversable(CellIndex(*cell))


def _random_pairs(grid, seed, count):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        a = (int(rng.integers(grid.nrows)), int(rng.integers(grid.ncols)))
        b = (int(rng.integers(grid.nrows)), int(rng.integers(grid.ncols)))
        if _open(grid, a) and _open(grid, b):
            pairs.append((a, b))
    return pairs


def _axis_pairs(grid, origin):
    """Horizontal, vertical and 45-degree lines from one cell, all lengths."""
    r0, c0 = origin
    pairs = []
    for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0),
                   (1, 1), (1, -1), (-1, 1), (-1, -1)):
        k = 1
        while 0 <= r0 + k * dr < grid.nrows and 0 <= c0 + k * dc < grid.ncols:
            b = (r0 + k * dr, c0 + k * dc)
            if _open(grid, b):
                pairs.append((origin, b))
            k += 1
    return pairs


def _corner_pairs(grid, origin):
    """Lines through exact cell corners: dr/g and dc/g both odd, not 45."""
    r0, c0 = origin
    pairs = []
    for r in range(grid.nrows):
        for c in range(grid.ncols):
            dr, dc = abs(r - r0), abs(c - c0)
            if dr == 0 or dc == 0 or dr == dc:
                continue
            g = math.gcd(dr, dc)
            if (dr // g) % 2 and (dc // g) % 2 and _open(grid, (r, c)):
                pairs.append((origin, (r, c)))
    return pairs


def _long_pairs(n):
    """Edge-to-edge lines of 90+ cells: rows, columns, diagonals, skews."""
    pairs = []
    for r in (1, 4, 20, 47, 48, 75, 91, 94):
        pairs.append(((r, 2), (r, n - 3)))
        pairs.append(((r, 0), (n - 1 - r, n - 1)))
    for c in (0, 30, 48, 93):
        pairs.append(((0, c), (n - 1, c)))
    pairs.append(((0, 0), (n - 1, n - 1)))
    pairs.append(((0, n - 1), (n - 1, 0)))
    pairs.append(((2, 3), (93, 94)))
    pairs.append(((1, 2), (94, 33)))
    pairs.append(((5, 1), (90, 95)))
    return pairs


def _cases():
    """(case id, grid factory, pairs, observer height, target height)."""
    cases = []
    for seed, nrows, ncols in ((300, 13, 19), (301, 17, 11), (302, 9, 23)):
        grid = _rough(seed, nrows, ncols)
        pairs = _random_pairs(grid, seed, 150)
        make = partial(_rough, seed, nrows, ncols)
        cases.append((f"rough{seed}", make, pairs, 1.7, 1.7))
        cases.append((f"rough{seed}-tall-target", make, pairs, 0.5, 14.0))
        cases.append((f"rough{seed}-tall-observer", make, pairs, 9.0, 0.0))
        cases.append((f"rough{seed}-axes", make,
                      _axis_pairs(grid, (nrows // 2, ncols // 2)), 1.7, 1.7))
        cases.append((f"rough{seed}-corners", make,
                      _corner_pairs(grid, (nrows // 2, ncols // 2)), 1.7, 4.0))
    cone = _cone96()
    cases.append(("cone96-long", _cone96, _long_pairs(96), 1.7, 1.7))
    cases.append(("cone96-long-low", _cone96, _long_pairs(96), 0.0, 0.5))
    cases.append(("cone96-corners", _cone96, _corner_pairs(cone, (47, 5)),
                  1.7, 1.7))
    rough96 = partial(rough_grid, 303, nrows=96, ncols=96, cellsize=30.0,
                      relief=40.0, nodata_frac=0.02)
    grid = rough96()
    long_rough = [(a, b) for a, b in _long_pairs(96)
                  if _open(grid, a) and _open(grid, b)]
    cases.append(("rough96-long", rough96, long_rough, 30.0, 30.0))
    return cases


def _answers(grid, pairs, h_obs, h_tgt):
    """Digits for each line as asked, then for each line swapped."""
    fwd = "".join(
        "1" if line_of_sight(grid, CellIndex(*a), CellIndex(*b), h_obs, h_tgt)
        else "0" for a, b in pairs)
    rev = "".join(
        "1" if line_of_sight(grid, CellIndex(*b), CellIndex(*a), h_tgt, h_obs)
        else "0" for a, b in pairs)
    return fwd + "|" + rev


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c[0])
def test_matches_golden(case, golden):
    case_id, make, pairs, h_obs, h_tgt = case
    assert _answers(make(), pairs, h_obs, h_tgt) == golden[case_id]


if __name__ == "__main__":
    doc = {}
    for case_id, make, pairs, h_obs, h_tgt in _cases():
        doc[case_id] = _answers(make(), pairs, h_obs, h_tgt)
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
