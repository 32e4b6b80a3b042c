import argparse
import filecmp
import json
from pathlib import Path

import pytest

from terramob import cli
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


PLAN_ARGV = ["plan", "--terrain", "flat:h=0,nrows=4,ncols=4", "--profile",
             "mule", "--start", "0,0", "--goal", "3,3"]


def subparser(name):
    """The named command's subparser inside the four-command parser."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


class TestCommandParsers:
    """A run parses with its command's parser alone; it must read and word
    everything as that command's subparser in build_parser() does."""

    @pytest.mark.parametrize("columns", ["80", "52"])
    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_help_and_usage_match_the_subparser(self, monkeypatch, name,
                                                columns):
        monkeypatch.setenv("COLUMNS", columns)
        alone, sub = cli._command_parser(name), subparser(name)
        assert alone.format_help() == sub.format_help()
        assert alone.format_usage() == sub.format_usage()

    @pytest.mark.parametrize("argv", [
        PLAN_ARGV,
        PLAN_ARGV + ["--objective", "distance", "--out", "o"],
        ["train"],
        ["train", "--profile", "mule", "--episodes", "7", "--alpha", "0.2",
         "--gamma", "0.9", "--epsilon-start", "0.8", "--epsilon-end", "0.1",
         "--epsilon-decay", "3", "--max-steps", "40", "--seed", "5",
         "--r-collision", "-9", "--r-delay", "-0.5", "--r-deviation", "-2",
         "--r-rejoin", "4", "--out", "o"],
        ["simulate", "--config", "c.json"],
        ["simulate", "--config", "c.json", "--seed", "2", "--dt", "0.5",
         "--strict", "--out", "o"],
        ["report", "r.json"],
    ])
    def test_namespace_matches_the_full_parser(self, argv):
        args, extra = cli._command_parser(argv[0]).parse_known_args(argv[1:])
        assert extra == []
        assert vars(args) == vars(cli.build_parser().parse_args(argv))

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        full = cli.build_parser

        def counted():
            calls.append(1)
            return full()

        monkeypatch.setattr(cli, "build_parser", counted)
        return calls

    def test_good_plan_never_builds_the_full_parser(self, tmp_path, builds):
        assert main(PLAN_ARGV + ["--out", str(tmp_path)]) == EXIT_OK
        assert builds == []

    def test_leftover_argument_is_worded_by_the_full_parser(
            self, tmp_path, capsys, builds):
        with pytest.raises(SystemExit) as exc:
            main(PLAN_ARGV + ["--out", str(tmp_path), "extra"])
        assert exc.value.code == EXIT_BAD_INPUT
        assert builds == [1]
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "usage: terramob [-h] {plan,train,simulate,report} ..."
        assert err[-1] == "terramob: error: unrecognized arguments: extra"
        assert not (tmp_path / "plan.csv").exists()


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
        # speeds that underflow: to 0.0 on flat ground, and to the
        # smallest subnormal
        {"base": "mule", "s_flat": 5e-324, "r_load": 0.5},
        {"base": "mule", "s_flat": 5e-324, "r_load": 0.75},
        # json writes Infinity, which json.loads reads
        {"base": "mule", "max_slope": float("inf"), "r_slope_at_ref": 1.0},
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

    @pytest.mark.parametrize("where, key", [
        ("pursuit_rules[0]", "los_loss_limit"),
        ("pursuit_rules[0]", "effort_budget"),
        ("pursuit_rules[0]", "capture_radius"),
        ("sim", "observer_height"),
        ("profiles[0]", "load_kg"),
    ])
    def test_nan_number_is_exit_3(self, tmp_path, capsys, where, key):
        obj = json.loads(json.dumps(SCENARIO))
        obj["agents"].append({"id": "chaser", "profile": "hostile",
                              "start": [0, 0], "goal": [12, 20]})
        obj["pursuit_rules"] = [{"pursuer": "chaser", "target": "walker",
                                 "los_loss_limit": 120.0,
                                 "effort_budget": 1e5, "capture_radius": 2.0}]
        obj["profiles"] = [{"base": "mule"}]
        entry = {"pursuit_rules[0]": obj["pursuit_rules"][0],
                 "sim": obj["sim"], "profiles[0]": obj["profiles"][0]}[where]
        entry[key] = float("nan")  # json writes NaN, which json.loads reads
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strict", ["false", 0, None])
    def test_non_boolean_strict_is_exit_3(self, tmp_path, capsys, strict):
        obj = json.loads(json.dumps(SCENARIO))
        obj["strict"] = strict
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: 'strict' must be true or false\n"

    @pytest.mark.parametrize("dt", ["1e-300", "nan"])
    def test_dt_flag_is_checked_like_sim_dt(self, tmp_path, capsys, dt):
        cfg = write_scenario(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--dt", dt,
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--dt" in err

    def test_dt_flag_sets_the_step(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--dt", "0.5",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["dt"] == 0.5
        rows = (out / "traces" / "walker.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert len(times) > 2
        assert all(b - a == 0.5 for a, b in zip(times, times[1:]))

    def test_obstacle_off_the_grid_is_exit_3(self, tmp_path, capsys):
        obj = json.loads(json.dumps(SCENARIO))
        obj["obstacles"] = [{"cells": [[13, 0]], "schedule": [[0, 10]]}]
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: obstacle cell (13, 0) out of bounds\n")
        assert not (tmp_path / "out").exists()

    def test_route_time_that_overflows_is_exit_3(self, tmp_path, capsys):
        # an open flat grid, but a route across it at this speed takes
        # longer than a float holds: refused, not reported as no_path
        cfg = write_scenario(tmp_path, {
            "terrain": {"recipe": "flat", "nrows": 3, "ncols": 3,
                        "cellsize": 1e10},
            "agents": [{"id": "a", "profile": {"base": "fit_adults",
                                               "s_flat": 1e-300},
                        "start": [0, 0], "goal": [2, 2]}],
            "sim": {"dt": 1.0, "max_sim_time": 60, "seed": 1},
        })
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: a route over 3x3 cells of 10000000000.0 m for fit_adults"
            " would take longer than a float can hold\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"base": "fit_adults", "kind": "robot"}, "unknown kind 'robot'"),
        ({"base": "fit_adults", "role": "pilot"}, "unknown role 'pilot'"),
        ({"base": "fit_adults", "s_flat": 0.0}, "s_flat must be positive"),
        ({"base": "fit_adults", "ref_slope": -15.0},
         "ref_slope must be positive"),
        ({"base": "fit_adults", "body_radius": 0.0},
         "body_radius must be positive"),
        ({"base": "mule", "r_slope_at_ref": 0.0},
         "r_slope_at_ref must be in (0, 1]"),
        ({"base": "mule", "r_load": 1.5}, "r_load must be in (0, 1]"),
        ({"base": "mule", "reduction_at_ref": 20.0},
         "animal profile takes no reduction_at_ref"),
    ])
    def test_profile_refusal_names_its_field(self, tmp_path, capsys, spec,
                                             message):
        obj = json.loads(json.dumps(SCENARIO))
        obj["profiles"] = [spec]
        cfg = write_scenario(tmp_path, obj)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: profiles[0]: {message}\n"

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
        assert err == "error: qtable line 9: entry (99999, 0) out of range\n"

    def test_qtable_entry_not_finite(self, tmp_path, capsys):
        (tmp_path / "q.txt").write_text(
            "terramob-qtable 1\nstates 8192\nactions 9\ngamma 0.95\n"
            "alpha 0.1\nseed 0\nepisodes 0\nentries 1\n0 0 nan\n")
        obj = json.loads(json.dumps(SCENARIO))
        obj["agents"][0]["qtable"] = "q.txt"
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == "error: qtable line 9: entry (0, 0) is not finite\n"

    @pytest.mark.parametrize("entries, message", [
        ("entries -3\n", "line 8: entries must be non-negative, got -3"),
        ("entries 2\n0 0 1.0\n0 0 2.0\n",
         "line 10: entry (0, 0) is repeated"),
        ("entries 1\n0 0 1.0\n0 1 2.0\n",
         "line 10: more entries than the 1 declared"),
    ])
    def test_malformed_qtable_names_its_line(self, tmp_path, capsys, entries,
                                             message):
        (tmp_path / "q.txt").write_text(
            "terramob-qtable 1\nstates 8192\nactions 9\ngamma 0.95\n"
            "alpha 0.1\nseed 0\nepisodes 0\n" + entries)
        obj = json.loads(json.dumps(SCENARIO))
        obj["agents"][0]["qtable"] = "q.txt"
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == f"error: qtable {message}\n"

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

    @pytest.mark.parametrize("recipe, message", [
        ("flat:nrows=0,ncols=3", "nrows and ncols must be positive"),
        ("ramp:slope=-1,nrows=3,ncols=3", "ramp slope must be non-negative"),
        ("ramp:slope=5,axis=z,nrows=3,ncols=3",
         "ramp axis must be 'x' or 'y'"),
        ("ridge:height=0,position=1,nrows=3,ncols=3",
         "ridge height must be positive"),
        ("ridge:height=5,position=3,nrows=3,ncols=3",
         "ridge position out of range"),
        ("cone:peak=5,radius=0,nrows=3,ncols=3",
         "cone peak and radius must be positive"),
        ("two_corridor:gentle=5,steep=5,nrows=3,ncols=5",
         "need 0 <= gentle < steep"),
        ("two_corridor:gentle=5,steep=9,nrows=3,ncols=6",
         "two_corridor needs nrows >= 3 and odd ncols >= 5"),
        ("dune:nrows=3,ncols=3",
         "unknown recipe 'dune'; expected one of ('flat', 'ramp', 'ridge',"
         " 'cone', 'two_corridor')"),
        ("flat:h=0,slope=2,nrows=3,ncols=3",
         "unexpected recipe parameter(s): ['slope']"),
        ("flat:xll=inf,nrows=3,ncols=3", "grid origin must be finite"),
        ("flat:nodata=nan,nrows=3,ncols=3", "nodata sentinel must be finite"),
        ("flat:h=0,nrows=3,ncols=3,cellsize=1e308",
         "a route over 3x3 cells of 1e+308 m for fit_adults would take"
         " longer than a float can hold"),
    ])
    def test_recipe_refusal_is_exit_3(self, tmp_path, capsys, recipe,
                                      message):
        assert main(["plan", "--terrain", recipe, "--profile", "fit_adults",
                     "--start", "0,0", "--goal", "2,2",
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recipe, key", [
        ("flat:h=0,nrows=5.5,ncols=5", "nrows"),
        ("ridge:height=40,position=2.7,nrows=8,ncols=9", "position"),
    ])
    def test_non_integral_recipe_string_is_exit_3(self, tmp_path, capsys,
                                                  recipe, key):
        assert main(["plan", "--terrain", recipe, "--profile", "mule",
                     "--start", "0,0", "--goal", "4,4",
                     "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: recipe {key} must be an integer, got ")

    @pytest.mark.parametrize("key, value", [("nrows", True), ("ncols", 21.5),
                                            ("nrows", "13")])
    def test_non_integral_recipe_json_is_exit_3(self, tmp_path, capsys, key,
                                                value):
        obj = json.loads(json.dumps(SCENARIO))
        obj["terrain"][key] = value
        err = self._simulate_err(tmp_path, capsys, obj)
        assert err == f"error: recipe {key} must be an integer, got {value!r}\n"

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

    def test_comparisons_not_a_list_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "terramob.simreport/1",
                                    "comparisons": {"a": 1}}))
        assert main(["report", str(path)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: 'comparisons' must be a list\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilon-decay", "-1", "epsilon_decay_episodes must be non-negative"),
        ("--episodes", "-1", "episodes must be non-negative"),
        ("--max-steps", "0", "max_steps_per_episode must be positive"),
    ])
    def test_bad_episode_counts_are_exit_3(self, tmp_path, capsys, flag,
                                           value, message):
        rc = main(["train", flag, value, "--out", str(tmp_path / "out")])
        assert rc == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("flags", [
        ["--episodes", "1000000000"],
        ["--episodes", "2", "--max-steps", "5000001"],
    ])
    def test_training_work_is_capped(self, tmp_path, capsys, flags):
        rc = main(["train", *flags, "--out", str(tmp_path / "out")])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--episodes" in err and "--max-steps" in err
        assert "at most 10000000" in err
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
