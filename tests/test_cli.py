import filecmp
import json
from pathlib import Path

import pytest

from terramob.cli import EXIT_BAD_INPUT, EXIT_NO_PATH, EXIT_OK, main

FIXTURE = Path(__file__).parent / "data" / "transport_report_fixture.json"

SCENARIO = {
    "terrain": {"recipe": "two_corridor", "nrows": 13, "ncols": 21,
                "cellsize": 30.0, "gentle": 10.0, "steep": 25.0},
    "agents": [{"id": "walker", "profile": "fit_adults",
                "start": [6, 0], "goal": [6, 20]}],
    "sim": {"dt": 1.0, "max_sim_time": 7200, "seed": 11},
    "transport": {"a": "ox_cart", "b": "mule",
                  "routes": [{"name": "corridor", "start": [6, 0],
                              "goal": [6, 20]}]},
}


def write_scenario(tmp_path, obj=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj or SCENARIO))
    return path


class TestPlan:
    def test_flat_closed_form(self, tmp_path, capsys):
        rc = main([
            "plan", "--terrain", "flat:h=0,nrows=10,ncols=10,cellsize=30",
            "--profile", "fit_adults", "--start", "0,0", "--goal", "9,9",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "total_time_s=254.55844122715712" in out
        assert (tmp_path / "plan.csv").exists()

    def test_distance_objective_flag(self, tmp_path, capsys):
        rc = main([
            "plan", "--terrain", "flat:h=0,nrows=10,ncols=10,cellsize=30",
            "--profile", "fit_adults", "--start", "0,0", "--goal", "9,9",
            "--objective", "distance", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        # on flat ground the shortest route is also the fastest one
        assert "total_distance_m=381.8376618407357" in out

    def test_moat_is_exit_2(self, tmp_path):
        from terramob.terrain import CellIndex, make_synthetic, serialize_ascii_grid
        grid = make_synthetic("flat", nrows=6, ncols=6, h=0.0)
        moat = grid.with_nodata([CellIndex(r, 3) for r in range(6)])
        asc = tmp_path / "moat.asc"
        asc.write_text(serialize_ascii_grid(moat))
        rc = main([
            "plan", "--terrain", str(asc), "--profile", "mule",
            "--start", "0,0", "--goal", "5,5", "--out", str(tmp_path),
        ])
        assert rc == EXIT_NO_PATH

    def test_malformed_asc_is_exit_3_with_line(self, tmp_path, capsys):
        asc = tmp_path / "bad.asc"
        asc.write_text("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\n"
                       "cellsize 30\n1 banana\n")
        rc = main([
            "plan", "--terrain", str(asc), "--profile", "mule",
            "--start", "0,0", "--goal", "0,1", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert rc == EXIT_BAD_INPUT
        assert "line 6" in err

    def test_bad_cell_format(self, tmp_path, capsys):
        rc = main([
            "plan", "--terrain", "flat:h=0,nrows=4,ncols=4",
            "--profile", "mule", "--start", "zero", "--goal", "1,1",
            "--out", str(tmp_path),
        ])
        assert rc == EXIT_BAD_INPUT

    def test_unknown_flag_exits_3(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--nope"])
        assert exc.value.code == EXIT_BAD_INPUT


class TestSimulate:
    def test_outputs_written(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "report.json").exists()
        assert (out / "report.txt").exists()
        assert (out / "traces" / "walker.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["comparisons"][0]["reduction_percent"] > 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        for rel in ("report.json", "report.txt", "traces/walker.csv"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        cmp = filecmp.dircmp(out1, out2)
        assert not cmp.diff_files

    def test_strict_no_path_is_exit_2(self, tmp_path):
        from terramob.terrain import CellIndex, make_synthetic, serialize_ascii_grid
        grid = make_synthetic("flat", nrows=6, ncols=6, h=0.0)
        moat = grid.with_nodata([CellIndex(r, 3) for r in range(6)])
        (tmp_path / "moat.asc").write_text(serialize_ascii_grid(moat))
        cfg = write_scenario(tmp_path, {
            "terrain": "moat.asc",
            "agents": [{"id": "a", "profile": "mule",
                        "start": [0, 0], "goal": [5, 5]}],
            "sim": {"dt": 1.0, "max_sim_time": 60, "seed": 1},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--strict"]) == EXIT_NO_PATH
        # without --strict the outcome is embedded instead
        doc = json.loads((out / "report.json").read_text())
        assert doc["agents"][0]["outcome"] == "no_path"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out2")]) == EXIT_OK

    def test_ridge_pursuit_outcome_recorded(self, tmp_path):
        cfg = write_scenario(tmp_path, {
            "terrain": {"recipe": "ridge", "nrows": 21, "ncols": 31,
                        "cellsize": 30.0, "height": 60.0, "position": 15},
            "agents": [
                {"id": "p", "profile": "hostile", "start": [2, 2],
                 "goal": [2, 16]},
                {"id": "t", "profile": "fit_adults", "start": [2, 16],
                 "goal": [18, 17]},
            ],
            "pursuit_rules": [{"pursuer": "p", "target": "t",
                               "los_loss_limit": 120.0, "effort_budget": 1e6,
                               "capture_radius": 2.0}],
            "sim": {"dt": 1.0, "max_sim_time": 3600, "seed": 5},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["pursuits"][0]["outcome"] == "abandonment_los"

    def test_seed_override_flag(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["seed"] == 99

    def test_missing_seed_is_exit_3(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, {
            "terrain": "flat:h=0,nrows=4,ncols=4", "sim": {"dt": 1.0},
        })
        assert main(["simulate", "--config", str(cfg)]) == EXIT_BAD_INPUT
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"base": "ox_cart", "speed": 2},
        {"base": "nosuch"},
        {"name": "x"},
    ])
    @pytest.mark.parametrize("where", ["profiles[0]", "agents[0].profile",
                                       "transport.a"])
    def test_bad_profile_spec_is_exit_3(self, tmp_path, capsys, spec, where):
        obj = json.loads(json.dumps(SCENARIO))
        if where == "profiles[0]":
            obj["profiles"] = [spec]
        elif where == "agents[0].profile":
            obj["agents"][0]["profile"] = spec
        else:
            obj["transport"]["a"] = spec
        cfg = write_scenario(tmp_path, obj)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ")
        assert err.count("\n") == 1

    def test_bad_json_is_exit_3(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_BAD_INPUT


class TestReport:
    def test_reference_fixture_reductions(self, capsys):
        rc = main(["report", str(FIXTURE)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "55.9" in out
        assert "29.3" in out
        assert "30.6" in out
        assert "17:00 h (42.0 km)" in out
        assert "7:40 h (24.0 km)" in out

    def test_empty_comparisons_banner(self, tmp_path, capsys):
        doc = {"schema": "terramob.simreport/1", "seed": 0, "dt": 1.0,
               "sim_time_s": 0.0, "agents": [], "pursuits": [],
               "transport_rows": [], "comparisons": []}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        rc = main(["report", str(path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out == "no routes\n"

    def test_schema_mismatch_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        assert main(["report", str(path)]) == EXIT_BAD_INPUT


class TestTrain:
    def test_small_run_outputs(self, tmp_path, capsys):
        rc = main(["train", "--episodes", "50", "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "qtable.txt").exists()
        assert (tmp_path / "curve.csv").exists()
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "episode,return,success,steps"
        assert len(curve) == 51

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--episodes", "40", "--seed", "5", "--out", str(a)])
        main(["train", "--episodes", "40", "--seed", "5", "--out", str(b)])
        assert (a / "qtable.txt").read_bytes() == (b / "qtable.txt").read_bytes()
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_invalid_params_exit_3(self, tmp_path, capsys):
        rc = main(["train", "--alpha", "1.5", "--out", str(tmp_path)])
        assert rc == EXIT_BAD_INPUT
        assert "alpha" in capsys.readouterr().err
