"""Golden regression test: ``terramob train`` and ``evaluate_bypass`` must
reproduce their outputs byte for byte.

``data/train_golden.json`` holds the sha256 of the two files ``train``
writes (``qtable.txt`` and ``curve.csv``) for
``--episodes 1500 --seed 7 --epsilon-decay 600``, and the sha256 of the
``repr`` of the instances of ``evaluate_bypass`` with that table on 200
held-out bars (seed 4242): each instance's hybrid time, oracle time,
success and collision flag. ``data/train_golden_mule.json`` holds the same
for ``--profile mule``, whose stays and moves carry a load factor.
``BENCHMARK_CALL`` pins the two files of the call the benchmark's train
workload makes, ``--episodes 100 --epsilon-decay 40 --seed 7``.

Regenerate the files only from a commit whose learning path is known good:

    PYTHONPATH=src:tests python tests/test_train_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from terramob.agents import builtin_profile
from terramob.cli import main
from terramob.local_adapt import CorridorEnv, evaluate_bypass, load_qtable

DATA = Path(__file__).parent / "data"
GOLDENS = {"fit_adults": DATA / "train_golden.json",
           "mule": DATA / "train_golden_mule.json"}


BENCHMARK_CALL = {
    "curve.csv":
        "0c3391e88ba862f3c515a6636b98f4187da254c3ae0a1b9c4b3cf86c461da814",
    "qtable.txt":
        "6977b236624d7ee3cc6072f831f4270f8c275d0b21248e9509626f8a8af78918",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_digests(work: Path, profile: str) -> dict[str, str]:
    """Train in ``work``, evaluate the table, hash what both produced."""
    out = work / "train"
    assert main(["train", "--profile", profile, "--episodes", "1500",
                 "--seed", "7", "--epsilon-decay", "600",
                 "--out", str(out)]) == 0
    digests = {name: _sha256((out / name).read_bytes())
               for name in ("curve.csv", "qtable.txt")}
    with open(out / "qtable.txt") as f:
        q, _meta = load_qtable(f)
    ev = evaluate_bypass(q, CorridorEnv(builtin_profile(profile)),
                         episodes=200, seed=4242)
    digests["evaluate_bypass"] = _sha256(repr(ev.instances).encode())
    return digests


@pytest.mark.parametrize("profile", GOLDENS)
def test_train_matches_golden(tmp_path, profile):
    assert (train_digests(tmp_path, profile)
            == json.loads(GOLDENS[profile].read_text()))


def test_the_benchmark_call_matches_its_digests(tmp_path):
    assert main(["train", "--episodes", "100", "--epsilon-decay", "40",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    assert {name: _sha256((tmp_path / name).read_bytes())
            for name in BENCHMARK_CALL} == BENCHMARK_CALL


if __name__ == "__main__":
    for profile, golden in GOLDENS.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests = train_digests(Path(tmp), profile)
        golden.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {golden}")
