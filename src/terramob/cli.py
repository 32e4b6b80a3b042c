"""Command-line front end: plan routes, train bypass tables, run scenarios,
and render transport reports.

Exit codes: 0 success, 2 no path, 3 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import planner, sim, terrain
from .agents import builtin_profile
from .local_adapt import (
    CorridorEnv,
    LearningParams,
    RewardWeights,
    save_qtable,
    train_bypass,
    write_learning_curve,
)
from .planner import NoPathError
from .sim import ScenarioConfig, SCHEMA
from .terrain import CellIndex

EXIT_OK = 0
EXIT_NO_PATH = 2
EXIT_BAD_INPUT = 3

OUT_ENV_VAR = "TERRAMOB_OUT"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are bad input, not exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _parse_cell(text: str) -> CellIndex:
    try:
        r, c = text.split(",")
        return CellIndex(int(r), int(c))
    except ValueError:
        raise ValueError(f"expected 'row,col', got {text!r}") from None


def _out_dir(arg: str | None) -> Path:
    out = Path(arg or os.environ.get(OUT_ENV_VAR, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _from_flags(cls, args):
    """A ``cls`` dataclass from the parsed flags named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def cmd_plan(args) -> int:
    grid = terrain.load_grid(args.terrain)
    profile = builtin_profile(args.profile)
    start = _parse_cell(args.start)
    goal = _parse_cell(args.goal)
    plan, stats = planner.astar(grid, profile, start, goal,
                                objective=args.objective)
    out = _out_dir(args.out)
    with open(out / "plan.csv", "w", newline="") as f:
        planner.write_plan_csv(plan, grid, f)
    print(f"total_time_s={plan.total_time!r}")
    print(f"total_distance_m={plan.total_distance!r}")
    print(f"nodes_expanded={stats.nodes_expanded}")
    print(f"plan_csv={out / 'plan.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    params = _from_flags(LearningParams, args)
    weights = _from_flags(RewardWeights, args)
    env = CorridorEnv(builtin_profile(args.profile))
    qtable, curve = train_bypass(env, weights, params)
    out = _out_dir(args.out)
    with open(out / "qtable.txt", "w", newline="") as f:
        save_qtable(qtable, f, gamma=params.gamma, alpha=params.alpha,
                    seed=params.seed, episodes=params.episodes)
    with open(out / "curve.csv", "w", newline="") as f:
        write_learning_curve(curve, f)
    successes = sum(1 for row in curve if row.success)
    print(f"episodes={len(curve)}")
    print(f"train_success_rate={successes / len(curve) if curve else 0.0:.3f}")
    print(f"qtable={out / 'qtable.txt'}")
    print(f"curve={out / 'curve.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = ScenarioConfig.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.dt is not None:
        sim.check_run_length(args.dt, config.max_sim_time, "--dt")
        config.dt = args.dt
    report, traces = sim.run_scenario(config)
    out = _out_dir(args.out or config.outputs)
    (out / "traces").mkdir(exist_ok=True)
    with open(out / "report.json", "w", newline="") as f:
        f.write(report.to_json())
    with open(out / "report.txt", "w", newline="") as f:
        f.write(sim.render_comparison_table(report.comparisons))
    t_texts: dict[float, str] = {}  # every agent of a step shares its clock
    for agent_id, records in sorted(traces.items()):
        with open(out / "traces" / f"{agent_id}.csv", "w", newline="") as f:
            sim.write_trace_csv(records, f, t_texts)
    no_path = [a["id"] for a in report.agents if a["outcome"] == "no_path"]
    for agent_id in no_path:
        print(f"agent {agent_id}: no path", file=sys.stderr)
    print(f"report={out / 'report.json'}")
    strict = args.strict or config.strict
    return EXIT_NO_PATH if strict and no_path else EXIT_OK


# The fields of a comparison entry the table renders as numbers.
_COMPARISON_NUMBERS = ("a_duration_s", "a_distance_m", "b_duration_s",
                       "b_distance_m", "difference_s", "difference_m",
                       "reduction_percent")


def _finite_or_none(value) -> bool:
    try:
        return value is None or math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past 1e308
        return False


def cmd_report(args) -> int:
    obj = json.loads(Path(args.report).read_text())
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} document")
    comparisons = obj.get("comparisons", [])
    if not isinstance(comparisons, list):
        raise ValueError("'comparisons' must be a list")
    for i, entry in enumerate(comparisons):  # only what the table can render
        if not isinstance(entry, dict):
            raise ValueError(f"comparisons[{i}] must be an object")
        for key in _COMPARISON_NUMBERS:
            if not _finite_or_none(entry.get(key)):
                raise ValueError(f"comparisons[{i}].{key} must be a finite number")
        for key in ("a_outcome", "b_outcome"):
            if not isinstance(entry.get(key), (str, type(None))):
                raise ValueError(f"comparisons[{i}].{key} must be a string")
    sys.stdout.write(sim.render_comparison_table(comparisons))
    return EXIT_OK


def _plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--terrain", required=True,
                   help=".asc file or recipe, e.g. flat:h=0,nrows=10,ncols=10")
    p.add_argument("--profile", required=True, help="built-in profile name")
    p.add_argument("--start", required=True, help="start cell as row,col")
    p.add_argument("--goal", required=True, help="goal cell as row,col")
    p.add_argument("--objective", choices=("time", "distance"), default="time",
                   help="minimize traversal time (default) or path length")
    p.add_argument("--out", help=f"output dir (default ${OUT_ENV_VAR} or ./out)")


def _train_args(t: argparse.ArgumentParser) -> None:
    t.add_argument("--profile", default="fit_adults")
    lp, rw = LearningParams, RewardWeights
    t.add_argument("--episodes", type=int, default=lp.episodes)
    t.add_argument("--alpha", type=float, default=lp.alpha)
    t.add_argument("--gamma", type=float, default=lp.gamma)
    t.add_argument("--epsilon-start", type=float, default=lp.epsilon_start)
    t.add_argument("--epsilon-end", type=float, default=lp.epsilon_end)
    t.add_argument("--epsilon-decay", type=int, dest="epsilon_decay_episodes",
                   default=lp.epsilon_decay_episodes)
    t.add_argument("--max-steps", type=int, dest="max_steps_per_episode",
                   default=lp.max_steps_per_episode)
    t.add_argument("--seed", type=int, default=lp.seed)
    t.add_argument("--r-collision", type=float, dest="collision",
                   default=rw.collision)
    t.add_argument("--r-delay", type=float, dest="delay_per_second",
                   default=rw.delay_per_second)
    t.add_argument("--r-deviation", type=float, dest="deviation_per_cell",
                   default=rw.deviation_per_cell)
    t.add_argument("--r-rejoin", type=float, dest="rejoin", default=rw.rejoin)
    t.add_argument("--out", help="output dir")


def _simulate_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("--config", required=True, help="scenario JSON file")
    s.add_argument("--seed", type=int, help="override sim.seed")
    s.add_argument("--dt", type=float, help="override sim.dt")
    s.add_argument("--strict", action="store_true",
                   help="exit 2 when any agent has no path")
    s.add_argument("--out", help="output dir override")


def _report_args(r: argparse.ArgumentParser) -> None:
    r.add_argument("report", help="report.json produced by simulate")


# name -> (help, adder of the command's arguments, handler)
COMMANDS = {
    "plan": ("compute a global route", _plan_args, cmd_plan),
    "train": ("train a bypass table on the corridor env", _train_args,
              cmd_train),
    "simulate": ("run a scenario config", _simulate_args, cmd_simulate),
    "report": ("render a report JSON as a text table", _report_args,
               cmd_report),
}


def build_parser() -> argparse.ArgumentParser:
    """The four-command parser: top-level help and usage errors."""
    parser = _Parser(prog="terramob",
                     description="terrain-aware multi-agent navigation runs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser alone, worded as its subparser in build_parser."""
    _help, add_args, handler = COMMANDS[name]
    p = _Parser(prog=f"terramob {name}")
    add_args(p)
    p.set_defaults(command=name, func=handler)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = extra = None
    if argv and argv[0] in COMMANDS:  # a run builds only its command's parser
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extra:  # help, a missing or unknown command, leftovers
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoPathError as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_NO_PATH
    except (ValueError, OSError, RecursionError) as exc:
        # ConfigError, GridFormatError and JSONDecodeError are ValueErrors;
        # json.loads raises RecursionError on deeply nested input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
