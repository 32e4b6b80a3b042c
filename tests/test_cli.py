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

    def test_asc_terrain_parsed_once(self, tmp_path, monkeypatch):
        from terramob import terrain
        from terramob.terrain import make_synthetic, serialize_ascii_grid
        grid = make_synthetic("ramp", nrows=6, ncols=8, slope=5.0)
        (tmp_path / "ramp.asc").write_text(serialize_ascii_grid(grid))
        parse = terrain.parse_ascii_grid
        parses = []

        def counting_parse(text):
            parses.append(text)
            return parse(text)

        monkeypatch.setattr(terrain, "parse_ascii_grid", counting_parse)
        cfg = write_scenario(tmp_path, {
            "terrain": "ramp.asc",
            "agents": [{"id": "a", "profile": "mule",
                        "start": [0, 0], "goal": [5, 7]}],
            "sim": {"dt": 1.0, "max_sim_time": 600, "seed": 1},
            "transport": {"a": "ox_cart", "b": "mule", "routes": [
                {"name": "r", "start": [5, 0], "goal": [0, 7]}]},
        })
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(parses) == 1

    def test_shared_qtable_read_once(self, tmp_path, monkeypatch):
        from terramob import sim
        (tmp_path / "q.txt").write_text(
            "terramob-qtable 1\nstates 8192\nactions 9\ngamma 0.95\n"
            "alpha 0.1\nseed 0\nepisodes 0\nentries 1\n0 0 1.0\n")
        load = sim.load_qtable
        loads = []

        def counting_load(f):
            loads.append(f.name)
            return load(f)

        monkeypatch.setattr(sim, "load_qtable", counting_load)
        obj = json.loads(json.dumps(SCENARIO))
        obj["agents"] = [{"id": f"w{i}", "profile": "fit_adults",
                          "start": [6, i], "goal": [6, 20], "qtable": "q.txt"}
                         for i in range(3)]
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert loads == [str(tmp_path / "q.txt")]

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
        # derived speed-law constants cannot be set
        {"base": "mule", "slope_drop": 0.5},
        {"name": "runner", "kind": "human", "s_flat": 3.0, "ref_slope": 15.0,
         "reduction_at_ref": 10.0, "load_factor": 0.5},
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

    @pytest.mark.parametrize("key", ["sim", "agents", "profiles", "obstacles",
                                     "pursuit_rules", "outputs",
                                     "agents[0].qtable"])
    def test_wrong_json_type_is_exit_3(self, tmp_path, capsys, key):
        kind = {"sim": "an object", "outputs": "a string",
                "agents[0].qtable": "a string"}.get(key, "a list")
        obj = json.loads(json.dumps(SCENARIO))
        if key == "agents[0].qtable":
            obj["agents"][0]["qtable"] = 5
        else:
            obj[key] = 5
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: '{key}' must be {kind}\n"

    @pytest.mark.parametrize("key", ["seed", "dt", "max_sim_time",
                                     "observer_height"])
    def test_wrong_sim_value_type_is_exit_3(self, tmp_path, capsys, key):
        obj = json.loads(json.dumps(SCENARIO))
        obj["sim"][key] = []
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: sim: ") and err.count("\n") == 1

    @pytest.mark.parametrize("sim, message", [
        ({"dt": 1e-300}, "error: sim.max_sim_time / sim.dt is 7.2e+303 steps;"
                         " at most 10000000 are allowed\n"),
        ({"max_sim_time": float("nan")},
         "error: sim.max_sim_time must be positive and finite\n"),
        ({"max_sim_time": float("inf")},
         "error: sim.max_sim_time must be positive and finite\n"),
    ], ids=["tiny_dt", "nan_max_sim_time", "infinite_max_sim_time"])
    def test_unbounded_or_empty_run_is_exit_3(self, tmp_path, capsys, sim,
                                               message):
        obj = json.loads(json.dumps(SCENARIO))
        obj["sim"].update(sim)
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dt", ["1e-300", "nan"])
    def test_dt_flag_is_checked_like_sim_dt(self, tmp_path, capsys, dt):
        cfg = write_scenario(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--dt", dt,
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--dt" in err

    def test_bad_json_is_exit_3(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_BAD_INPUT


class TestMalformedInput:
    """Each input here once ended in a traceback; now exit 3, one line."""

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_infinite_asc_dimension(self, tmp_path, capsys, command):
        asc = tmp_path / "inf.asc"
        asc.write_text("ncols inf\nnrows 1\nxllcorner 0\nyllcorner 0\n"
                       "cellsize 30\n1 2\n")
        if command == "plan":
            argv = ["plan", "--terrain", str(asc), "--profile", "mule",
                    "--start", "0,0", "--goal", "0,1"]
        else:
            obj = json.loads(json.dumps(SCENARIO))
            obj["terrain"] = "inf.asc"
            argv = ["simulate", "--config", str(write_scenario(tmp_path, obj))]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: line 1: ncols must be a positive integer, got inf\n")

    @pytest.mark.parametrize("command", ["plan", "train"])
    def test_unknown_builtin_profile(self, tmp_path, capsys, command):
        argv = [command, "--profile", "nope", "--out", str(tmp_path)]
        if command == "plan":
            argv += ["--terrain", "flat:h=0,nrows=4,ncols=4",
                     "--start", "0,0", "--goal", "1,1"]
        assert main(argv) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: no built-in profile named 'nope'\n")

    def _simulate_err(self, tmp_path, capsys, obj):
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        return capsys.readouterr().err

    def test_recipe_without_name(self, tmp_path, capsys):
        obj = json.loads(json.dumps(SCENARIO))
        obj["terrain"] = {"nrows": 4, "ncols": 4}
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == "error: recipe needs a 'recipe' entry\n"

    def test_transport_route_not_an_object(self, tmp_path, capsys):
        obj = json.loads(json.dumps(SCENARIO))
        obj["transport"]["routes"] = [5]
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == "error: transport: routes[0] must be an object\n"

    @pytest.mark.parametrize("where", ["sim", "agents[0]", "transport"])
    def test_number_too_large_for_int(self, tmp_path, capsys, where):
        obj = json.loads(json.dumps(SCENARIO))
        if where == "sim":
            obj["sim"]["seed"] = float("inf")  # written as JSON Infinity
        elif where == "agents[0]":
            obj["agents"][0]["start"] = [float("inf"), 0]
        else:
            obj["transport"]["routes"][0]["goal"] = [6, float("-inf")]
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["report", "simulate"])
    def test_deeply_nested_json(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = (["report", str(deep)] if command == "report" else
                ["simulate", "--config", str(deep),
                 "--out", str(tmp_path / "out")])
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_qtable_entry_out_of_range(self, tmp_path, capsys):
        (tmp_path / "q.txt").write_text(
            "terramob-qtable 1\nstates 8192\nactions 9\ngamma 0.95\n"
            "alpha 0.1\nseed 0\nepisodes 0\nentries 1\n99999 0 1.0\n")
        obj = json.loads(json.dumps(SCENARIO))
        obj["agents"][0]["qtable"] = "q.txt"
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == "error: qtable entry (99999, 0) out of range\n"

    def test_qtable_entry_not_finite(self, tmp_path, capsys):
        (tmp_path / "q.txt").write_text(
            "terramob-qtable 1\nstates 8192\nactions 9\ngamma 0.95\n"
            "alpha 0.1\nseed 0\nepisodes 0\nentries 1\n0 0 nan\n")
        obj = json.loads(json.dumps(SCENARIO))
        obj["agents"][0]["qtable"] = "q.txt"
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == "error: qtable entry (0, 0) is not finite\n"

    @pytest.mark.parametrize("header, message", [
        ("xllcorner 0\nyllcorner 0\ncellsize inf\n",
         "line 5: cellsize must be finite, got inf"),
        ("xllcorner inf\nyllcorner 0\ncellsize 30\n",
         "line 3: xllcorner must be finite, got inf"),
        ("xllcorner 0\nyllcorner 0\ncellsize 30\nNODATA_value nan\n",
         "line 6: nodata_value must be finite, got nan"),
        ("xllcorner 0\nyllcorner 0\ncellsize 30\nNODATA_value inf\n",
         "line 6: nodata_value must be finite, got inf"),
    ])
    def test_non_finite_asc_header(self, tmp_path, capsys, header, message):
        asc = tmp_path / "bad.asc"
        asc.write_text("ncols 3\nnrows 1\n" + header + "0 0 0\n")
        assert main(["plan", "--terrain", str(asc), "--profile", "mule",
                     "--start", "0,0", "--goal", "0,2",
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_recipe_cellsize(self, tmp_path, capsys):
        assert main(["plan", "--terrain", "flat:nrows=1,ncols=3,cellsize=inf",
                     "--profile", "mule", "--start", "0,0", "--goal", "0,2",
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: cellsize must be positive and finite\n")

    def test_oversized_asc_header_is_exit_3(self, tmp_path, capsys):
        asc = tmp_path / "huge.asc"
        asc.write_text("ncols 100000\nnrows 100000\nxllcorner 0\n"
                       "yllcorner 0\ncellsize 30\n1 2\n")
        assert main(["plan", "--terrain", str(asc), "--profile", "mule",
                     "--start", "0,0", "--goal", "0,1",
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: line 2: grid of 100000 x 100000 cells exceeds "
            "MAX_GRID_CELLS = 10000000\n")
        assert not (tmp_path / "out").exists()

    def test_oversized_recipe_is_refused_before_allocating(self, tmp_path,
                                                          capsys):
        obj = json.loads(json.dumps(SCENARIO))
        obj["terrain"] = {"recipe": "flat", "nrows": 100000, "ncols": 100000}
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == ("error: recipe grid of 100000 x 100000 cells exceeds "
                       "MAX_GRID_CELLS = 10000000\n")


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

    @pytest.mark.parametrize("comparisons", [
        [1],
        [{"a_duration_s": float("inf")}],  # written as JSON Infinity
        [{"reduction_percent": [1]}],
        [{"a_outcome": 5}],
    ], ids=["not_an_object", "infinite_duration", "list_reduction",
            "number_outcome"])
    def test_malformed_comparison_is_exit_3(self, tmp_path, capsys,
                                            comparisons):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "terramob.simreport/1",
                                    "comparisons": comparisons}))
        assert main(["report", str(path)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: comparisons[0]")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


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

    @pytest.mark.parametrize("flag, value, field", [
        ("--r-delay", "nan", "delay_per_second"),
        ("--r-collision", "inf", "collision"),
    ])
    def test_non_finite_reward_weight_is_exit_3(self, tmp_path, capsys, flag,
                                                value, field):
        rc = main(["train", "--episodes", "20", "--seed", "1", flag, value,
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: {field} must be finite and non-negative\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["plan", "train", "simulate"])
def test_unwritable_out_is_exit_3(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "plan": ["plan", "--terrain", "flat:h=0,nrows=4,ncols=4",
                 "--profile", "mule", "--start", "0,0", "--goal", "3,3"],
        "train": ["train", "--episodes", "5", "--seed", "1"],
        "simulate": ["simulate", "--config", str(write_scenario(tmp_path))],
    }[command]
    assert main(argv + ["--out", str(blocker / "out")]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
