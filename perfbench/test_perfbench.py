"""Self-test of the benchmark at tiny sizes; no wall-time gates.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_prints_every_metric_and_runs_the_checks(workload, trace):
    out = bench("--workload", workload, "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    *_, details_line, result_line = out.stdout.strip().splitlines()
    details, result = json.loads(details_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    for key in ("python", "numpy", "nproc", "cpu", "git_commit", "seed",
                "src_lines"):
        assert key in details["provenance"]
    assert details["output_digest"] and details["input_digest"]
    if workload == "crowd":
        assert "livelocked_agents" in details
    if trace:
        counts = details["deterministic_counts"]
        assert counts["planner.astar.calls"] >= 1
        assert result["metrics"]["cli.main.calls"]["value"] >= 1
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        for m in BENCH["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "route_plan", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
