"""Layer-boundary tracing for terramob, installed from outside the package.

The tracer replaces public functions of each terramob module with timing
wrappers for the duration of a traced run and restores them afterwards, so
nothing under ``src/`` changes. Where a module imports a function by name
(``sim.line_of_sight``, ``local_adapt.traversal_time``, ...), that binding is
wrapped too and recorded under the defining module's name.

Three wrapper kinds keep the cost proportional to what is learned:

* span: a boundary call (CLI command, grid parse, A*, one simulation step,
  one sight line, ...). Each call is kept in memory as a span record with
  its id, parent span, request id and workload, and is written out when the
  benchmark ends.
* frame: a frequent call that has traced children (``build_local_state``
  calls ``cell_blocked``). It is timed and its children subtracted, but only
  its totals are kept.
* leaf: a very hot call with no traced children (``traversal_time`` runs
  millions of times per route). Only its call count and time are kept; the
  time is still charged to the enclosing span, so self times add up.

Self time is a call's duration minus the time of its traced children.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict

_now = time.perf_counter_ns

# The six terramob modules, in pipeline order; a metric's layer is the first
# component of its name.
LAYERS = ("cli", "terrain", "agents", "planner", "local_adapt", "sim")


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.extra = defaultdict(float)


def _astar_result(stat, args, result):
    plan, stats = result
    stat.extra["expansions"] += stats.nodes_expanded
    stat.extra["path_cells"] += len(plan.waypoints)
    stat.extra["open_peak"] = max(stat.extra["open_peak"], stats.open_peak)


def _count_true(key):
    def hook(stat, args, result):
        stat.extra[key] += bool(result)
    return hook


def _agent_steps(terminal):
    def hook(stat, args):
        stat.extra["agent_steps"] += sum(
            1 for a in args[0].agents if a.mode not in terminal
        )
    return hook


def _trace_rows(stat, args):
    stat.extra["rows"] += len(args[0])


def _episodes(stat, args, result):
    stat.extra["episodes"] += result.episodes
    stat.extra["successes"] += result.successes


def _timeouts(stat, args, result):
    report, _traces = result
    stat.extra["timeout_agents"] += sum(
        1 for a in report.agents if a["outcome"] == "timeout"
    )


def targets():
    """(metric name, kind, bindings, before hook, result hook) per function."""
    from terramob import agents, cli, local_adapt, planner, sim, terrain

    return [
        ("cli.main", "span", [(cli, "main")], None, None),
        ("terrain.parse_ascii_grid", "span",
         [(terrain, "parse_ascii_grid"), (sim, "parse_ascii_grid")], None, None),
        ("terrain.line_of_sight", "span",
         [(terrain, "line_of_sight"), (sim, "line_of_sight")],
         None, _count_true("visible")),
        ("agents.traversal_time", "leaf",
         [(agents, "traversal_time"), (planner, "traversal_time"),
          (local_adapt, "traversal_time"), (sim, "traversal_time")], None, None),
        ("planner.astar", "span", [(planner, "astar")], None, _astar_result),
        ("planner.write_plan_csv", "span", [(planner, "write_plan_csv")],
         None, None),
        ("local_adapt.train_bypass", "span",
         [(local_adapt, "train_bypass"), (cli, "train_bypass")], None, None),
        ("local_adapt.evaluate_bypass", "span",
         [(local_adapt, "evaluate_bypass")], None, _episodes),
        ("local_adapt.hierarchical_policy", "frame",
         [(local_adapt, "hierarchical_policy"), (sim, "hierarchical_policy")],
         None, None),
        ("local_adapt.build_local_state", "frame",
         [(local_adapt, "build_local_state"), (sim, "build_local_state")],
         None, None),
        ("local_adapt.detect_block", "frame",
         [(local_adapt, "detect_block"), (sim, "detect_block")],
         None, _count_true("blocked")),
        ("local_adapt.deviation_cells", "leaf",
         [(local_adapt, "deviation_cells"), (sim, "deviation_cells")], None, None),
        ("local_adapt.q_update", "leaf", [(local_adapt, "q_update")], None, None),
        ("local_adapt.select_action", "leaf", [(local_adapt, "select_action")],
         None, None),
        ("sim.run_scenario", "span", [(sim, "run_scenario")], None, _timeouts),
        ("sim.build_world", "span", [(sim, "build_world")], None, None),
        ("sim.World.step", "span", [(sim.World, "step")],
         _agent_steps(sim.TERMINAL_MODES), None),
        ("sim.World.cell_blocked", "leaf", [(sim.World, "cell_blocked")],
         None, None),
        ("sim.write_trace_csv", "span", [(sim, "write_trace_csv")],
         _trace_rows, None),
        ("sim.compare_transport", "span", [(sim, "compare_transport")],
         None, None),
        ("sim.render_comparison_table", "span",
         [(sim, "render_comparison_table")], None, None),
    ]


class Tracer:
    """Spans and per-function totals of one traced run, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.request = 0
        self.label: tuple[int, str] = (0, "")
        self.by_label: dict[tuple[int, str], dict[str, Stat]] = {}
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._stack = [[0, 0]]  # open frames: [span id, child ns]
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- requests ------------------------------------------------------------

    def begin_request(self, request: int, rep: int, kind: str) -> None:
        """Attribute what follows to one request of a kind in repetition rep."""
        self.request = request
        self.label = (rep, kind)
        self.stats = self.by_label.setdefault(self.label, defaultdict(Stat))

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, record, before, after):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            stat = tracer.stats[name]
            if before is not None:
                before(stat, args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - frame[1]
                if record:
                    tracer.spans.append(
                        (sid, parent[0], tracer.request, name, t0, t1)
                    )
            if after is not None:
                after(stat, args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = _now()
            result = fn(*args, **kwargs)
            dur = _now() - t0
            stack[-1][1] += dur
            stat = tracer.stats[name]
            stat.calls += 1
            stat.total_ns += dur
            stat.self_ns += dur
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.begin_request(self.request, *self.label)
        for name, kind, bindings, before, after in targets():
            present = [(o, a) for o, a in bindings if hasattr(o, a)]
            if not present:
                continue
            owner, attr = present[0]
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if kind == "leaf":
                wrapped = self._leaf(name, fn)
            else:
                wrapped = self._span(name, fn, kind == "span", before, after)
            for o, a in present:
                current = o.__dict__[a] if isinstance(o, type) else getattr(o, a)
                if current is not fn:
                    continue  # a different function under the same name
                self._saved.append((o, a, current))
                setattr(o, a, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------

    def merged(self, rep=None, kind=None) -> dict[str, Stat]:
        """Totals over the requests of one repetition and/or kind, or all."""
        out: dict[str, Stat] = defaultdict(Stat)
        for (r, k), stats in self.by_label.items():
            if rep is not None and r != rep or kind is not None and k != kind:
                continue
            for name, s in stats.items():
                m = out[name]
                m.calls += s.calls
                m.total_ns += s.total_ns
                m.self_ns += s.self_ns
                for key, v in s.extra.items():
                    if key == "open_peak":
                        m.extra[key] = max(m.extra[key], v)
                    else:
                        m.extra[key] += v
        return out

    def layer_self_s(self, kind=None) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.merged(kind=kind).items():
            totals[name.split(".")[0]] += s.self_ns / 1e9
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span_id", "parent_id", "workload", "request", "name",
                        "start_ns", "end_ns"])
            for sid, parent, request, name, t0, t1 in self.spans:
                w.writerow([sid, parent, self.workload, request, name, t0, t1])


def per_layer_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    """The per-layer metric values, each per repetition of the workload."""
    st = tracer.merged()

    def calls(name):
        return st[name].calls / reps

    def self_s(name):
        return st[name].self_ns / 1e9 / reps

    def total_s(name):
        return st[name].total_ns / 1e9 / reps

    def extra(name, key):
        return st[name].extra[key] / reps

    def ratio(num, den):
        return num / den if den else 0.0

    los = "terrain.line_of_sight"
    tt = "agents.traversal_time"
    astar = "planner.astar"
    step = "sim.World.step"
    la = "local_adapt."
    m = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "terrain.parse_ascii_grid.calls": calls("terrain.parse_ascii_grid"),
        "terrain.parse_ascii_grid.s": total_s("terrain.parse_ascii_grid"),
        f"{los}.calls": calls(los),
        f"{los}.us_per_call": ratio(st[los].total_ns / 1e3, st[los].calls),
        f"{los}.self_s": self_s(los),
        f"{los}.visible_ratio": ratio(st[los].extra["visible"], st[los].calls),
        f"{tt}.calls": calls(tt),
        f"{tt}.ns_per_call": ratio(st[tt].total_ns, st[tt].calls),
        f"{tt}.self_s": self_s(tt),
        f"{astar}.calls": calls(astar),
        f"{astar}.self_s": self_s(astar),
        f"{astar}.expansions": extra(astar, "expansions"),
        f"{astar}.us_per_expansion": ratio(st[astar].total_ns / 1e3,
                                           st[astar].extra["expansions"]),
        f"{astar}.open_peak": st[astar].extra["open_peak"],
        f"{astar}.path_cells_per_expansion": ratio(
            st[astar].extra["path_cells"], st[astar].extra["expansions"]),
    }
    for fn in ("hierarchical_policy", "build_local_state", "deviation_cells",
               "q_update"):
        m[f"{la}{fn}.calls"] = calls(la + fn)
        m[f"{la}{fn}.self_s"] = self_s(la + fn)
    m[f"{la}detect_block.calls"] = calls(la + "detect_block")
    m[f"{la}detect_block.blocked_ratio"] = ratio(
        st[la + "detect_block"].extra["blocked"], st[la + "detect_block"].calls)
    m[f"{la}select_action.calls"] = calls(la + "select_action")
    ev = st[la + "evaluate_bypass"]
    m[f"{la}evaluate_bypass.success_ratio"] = ratio(ev.extra["successes"],
                                                    ev.extra["episodes"])
    m.update({
        f"{step}.calls": calls(step),
        f"{step}.self_s": self_s(step),
        f"{step}.agent_steps": extra(step, "agent_steps"),
        f"{step}.us_per_agent_step": ratio(st[step].total_ns / 1e3,
                                           st[step].extra["agent_steps"]),
        "sim.World.cell_blocked.calls": calls("sim.World.cell_blocked"),
        "sim.build_world.s": total_s("sim.build_world"),
        "sim.write_trace_csv.rows": extra("sim.write_trace_csv", "rows"),
        "sim.write_trace_csv.s": total_s("sim.write_trace_csv"),
        "sim.compare_transport.s": total_s("sim.compare_transport"),
        "sim.run_scenario.timeout_agents": extra("sim.run_scenario",
                                                 "timeout_agents"),
    })
    for layer, seconds in tracer.layer_self_s().items():
        m[f"{layer}.self_s"] = seconds / reps
    return m


def deterministic_counts(tracer: Tracer, rep: int) -> dict[str, float]:
    """Counts that must repeat exactly between repetitions of one input."""
    st = tracer.merged(rep=rep)
    return {
        "planner.astar.calls": st["planner.astar"].calls,
        "planner.astar.expansions": st["planner.astar"].extra["expansions"],
        "terrain.line_of_sight.calls": st["terrain.line_of_sight"].calls,
        "terrain.line_of_sight.visible": st["terrain.line_of_sight"].extra["visible"],
        "agents.traversal_time.calls": st["agents.traversal_time"].calls,
        "sim.World.step.agent_steps": st["sim.World.step"].extra["agent_steps"],
        "local_adapt.q_update.calls": st["local_adapt.q_update"].calls,
        "sim.write_trace_csv.rows": st["sim.write_trace_csv"].extra["rows"],
    }
