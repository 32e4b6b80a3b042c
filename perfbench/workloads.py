"""The four benchmark workloads, each a closed loop of terramob calls.

One process, one caller: every request is issued only after the previous
one returned. A workload is set up (``setup``), then cycles through the
same short list of requests (one repetition each, ``requests``); repeats of
one input must give identical outputs. ``check`` runs after the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs


# What the reference computation takes on an uncontended core of the
# machine the benchmark was tuned on (2-core Xeon, Python 3.11).
REFERENCE_S = 0.002


def reference() -> float:
    """A fixed piece of work in the mix terramob spends its time in (dicts,
    a heap, float arithmetic, numpy scalar indexing and a numpy random
    generator), independent of terramob."""
    d: dict = {}
    h: list = []
    a = np.zeros((64, 9))
    rng = np.random.default_rng(0)
    x = 0.0
    for i in range(360):  # ~2 ms on an uncontended core
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0.0) + i * 0.5
        heapq.heappush(h, (x, i))
        x = (x * 1.000001 + 1.5) % 1000.0
        if len(h) > 64:
            heapq.heappop(h)
        row = i % 64
        a[row, i % 9] += rng.random()
        x += float(np.max(a[row]))
    return x


def slowness() -> float:
    """How much slower than uncontended the host runs right now: the
    reference's wall time over REFERENCE_S."""
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) / REFERENCE_S


@dataclass
class Request:
    """One closed-loop call and what it returned."""

    key: str          # identity of the input; repeats share a key
    kind: str         # "short"/"long" plan, "simulate", "train" or "eval"
    rep: int
    wall_s: float = 0.0
    slowness: float = 1.0  # host slowness around the call (see slowness())
    rc: int = 0
    ops: int = 1
    failed: int = 0   # ops of this request that failed their checks
    digest: str = ""  # hash of everything the request produced
    astar: list = field(default_factory=list)  # wall seconds of each A* call
    info: dict = field(default_factory=dict)


class AstarTimer:
    """Times every ``planner.astar`` call: the route-plan latency samples."""

    def __init__(self):
        self.samples: list[float] = []

    def install(self):
        from terramob import planner
        self._planner = planner
        self._real = real = planner.astar
        samples = self.samples
        clock = time.perf_counter

        def astar(*args, **kwargs):
            t0 = clock()
            result = real(*args, **kwargs)
            samples.append(clock() - t0)
            return result

        planner.astar = astar

    def uninstall(self):
        self._planner.astar = self._real

    def take(self) -> list[float]:
        out = list(self.samples)
        self.samples.clear()
        return out


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """``terramob <argv>`` in-process: exit code, stdout and wall seconds."""
    from terramob import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, buf.getvalue(), wall


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def train_table(out: Path, size: dict) -> Path:
    """``terramob train --episodes 5000 --seed 7``: the bypass table that
    crowd agents carry and train evaluates."""
    rc, _stdout, _wall = run_cli(["train", "--episodes", str(size["table_episodes"]),
                                  "--seed", "7", "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"terramob train exited {rc}")
    return out / "qtable.txt"


class Workload:
    name = ""
    call_kinds: tuple[str, ...] = ()   # requests timed by call_ms_p50
    op_kinds: tuple[str, ...] = ()     # requests counted by ops_per_s

    def __init__(self, work: Path, seed: int, size: dict):
        self.work = work
        self.seed = seed
        self.size = size

    def setup(self) -> str:
        """Build the inputs into ``work/in``; returns their digest."""
        raise NotImplementedError

    def requests(self):
        """(key, kind, callable) per request of one repetition; the callable
        fills in a Request."""
        raise NotImplementedError

    def check(self, done: list[Request]) -> list[str]:
        """Output checks after the timed loop; returns the problems found."""
        return []


# ---------------------------------------------------------------------------

class RoutePlan(Workload):
    """``terramob plan`` on a rough .asc grid, all six profiles, ~70/30 mix
    of short hops and grid crossings; the grid is parsed on every call."""

    name = "route_plan"
    call_kinds = op_kinds = ("short", "long")

    def setup(self) -> str:
        self.spec = inputs.write_route_plan(fresh(self.work / "in"), self.seed,
                                            self.size)
        digest = tree_digest(self.work / "in")
        # warm up on a hop, never a crossing, so set-up does the same work
        # for every seed
        hop = next(q for q in self.spec["queries"] if q["kind"] == "short")
        run_cli(self._argv(hop, fresh(self.work / "warm")))
        return digest

    def _argv(self, q, out: Path) -> list[str]:
        return ["plan", "--terrain", self.spec["grid"], "--profile", q["profile"],
                "--start", "%d,%d" % tuple(q["start"]),
                "--goal", "%d,%d" % tuple(q["goal"]), "--out", str(out)]

    def requests(self):
        for i, q in enumerate(self.spec["queries"]):
            yield f"q{i:02d}", q["kind"], lambda req, q=q: self._plan(req, q)

    def _plan(self, req: Request, q: dict) -> None:
        out = fresh(self.work / "out" / req.key)
        req.rc, stdout, req.wall_s = run_cli(self._argv(q, out))
        req.failed = int(req.rc != 0)
        if req.rc != 0:
            return
        req.digest = hashlib.sha256(stdout.replace(str(out), "<out>").encode()
                                    + (out / "plan.csv").read_bytes()).hexdigest()
        for line in stdout.splitlines():
            if line.startswith("total_time_s="):
                req.info["total_time_s"] = float(line.split("=", 1)[1])

    def check(self, done: list[Request]) -> list[str]:
        """A* totals equal the Dijkstra oracle on one crossing and one hop."""
        from terramob import planner, terrain
        from terramob.agents import builtin_profile

        grid = terrain.parse_ascii_grid(Path(self.spec["grid"]).read_text())
        queries = self.spec["queries"]
        longs = [i for i, q in enumerate(queries) if q["kind"] == "long"]
        shorts = [i for i, q in enumerate(queries) if q["kind"] == "short"]
        picks = [longs[self.seed % len(longs)], shorts[self.seed % len(shorts)]]
        problems = []
        for i in picks:
            q = queries[i]
            want = planner.dijkstra_oracle(grid, builtin_profile(q["profile"]),
                                           tuple(q["start"]), tuple(q["goal"]))
            for req in done:
                got = req.info.get("total_time_s")
                if req.key == f"q{i:02d}" and got != want:
                    req.failed = 1
                    problems.append(f"{req.key}: total_time_s {got!r} != "
                                    f"oracle {want!r}")
        return problems


# ---------------------------------------------------------------------------

class Simulate(Workload):
    """Shared loop of the two ``terramob simulate`` workloads. An op is one
    agent or transport run, and each is planned exactly once."""

    call_kinds = op_kinds = ("simulate",)
    runs = 0

    def requests(self):
        yield "simulate", "simulate", self._simulate

    def _simulate(self, req: Request) -> None:
        out = fresh(self.work / "out")
        req.rc, _stdout, req.wall_s = run_cli(
            ["simulate", "--config", str(self.config), "--out", str(out)])
        req.ops = self.runs
        if req.rc != 0:
            req.failed = req.ops
            return
        req.digest = tree_digest(out)
        report = json.loads((out / "report.json").read_text())
        req.info["outcomes"] = {a["id"]: a["outcome"] for a in report["agents"]}

    def check(self, done: list[Request]) -> list[str]:
        """One global plan per agent and per transport run."""
        problems = []
        for req in done:
            if len(req.astar) != self.runs:
                req.failed = req.ops
                problems.append(f"rep {req.rep}: planner.astar called "
                                f"{len(req.astar)} times for {self.runs} runs")
        return problems


class Crowd(Simulate):
    """Walkers with trained bypass tables crossing a cone through two timed
    bars: blocking queries, World.step, bypass inference, traces."""

    name = "crowd"

    def setup(self) -> str:
        from terramob import planner
        from terramob.sim import ScenarioConfig

        src = fresh(self.work / "in")
        train_table(src, self.size)
        (src / "curve.csv").unlink()
        cfg = inputs.crowd_config(self.seed, self.size, "qtable.txt", 1.0)
        sc = ScenarioConfig.from_dict(cfg, base_dir=src)
        grid, registry = sc.resolve_grid(), sc.profile_registry()
        longest = max(planner.astar(grid, registry[a.profile], a.start, a.goal)[0]
                      .total_time for a in sc.agents)
        # The horizon lets every agent arrive had it walked alone.
        cfg["sim"]["max_sim_time"] = float(math.ceil(1.5 * longest))
        self.config = src / "crowd.json"
        inputs.write_json(self.config, cfg)
        self.runs = len(cfg["agents"])
        return tree_digest(src)

    def livelocked(self, done: list[Request]) -> list[str]:
        """Agents that timed out although their solo plan fits the horizon
        (every agent's does, by the choice of horizon)."""
        return sorted({aid for r in done
                       for aid, outcome in r.info.get("outcomes", {}).items()
                       if outcome == "timeout"})


class Pursuit(Simulate):
    """Four chases kept in sight to the horizon plus an ox_cart vs mule
    transport table: line of sight on every step of every chase."""

    name = "pursuit"

    def setup(self) -> str:
        src = fresh(self.work / "in")
        cfg = inputs.pursuit_config(self.seed, self.size)
        self.config = src / "pursuit.json"
        inputs.write_json(self.config, cfg)
        self.runs = len(cfg["agents"]) + 2 * len(cfg["transport"]["routes"])
        run_cli(["simulate", "--config", str(self.config),
                 "--out", str(fresh(self.work / "warm"))])  # warm-up
        return tree_digest(src)


# ---------------------------------------------------------------------------

class Train(Workload):
    """``terramob train`` runs and ``evaluate_bypass`` on held-out bars.

    Set-up trains the full table (``--episodes 5000 --seed 7``). The timed
    ``train`` call runs 100 episodes with the epsilon schedule scaled to
    match (decay over 40), the same mix of exploration and exploitation in
    a fiftieth of the time. The held-out placements, drawn from the
    workload seed, are evaluated in chunks of 40 against the full table.
    """

    name = "train"
    call_kinds = ("train",)
    op_kinds = ("eval",)
    max_ratio = 1.25
    min_success = 0.95

    def setup(self) -> str:
        from terramob import local_adapt
        from terramob.agents import builtin_profile

        src = fresh(self.work / "in")
        with open(train_table(src, self.size)) as f:
            self.table, _meta = local_adapt.load_qtable(f)
        self.env = local_adapt.CorridorEnv(builtin_profile("fit_adults"))
        return tree_digest(src)

    def requests(self):
        for k in range(self.size["eval_chunks"]):
            if k % 5 == 0:  # a train call per 5 chunks: enough samples
                yield "train", "train", self._train
            yield f"eval{k}", "eval", lambda req, k=k: self._eval(req, k)

    def _train(self, req: Request) -> None:
        episodes = self.size["train_episodes"]
        out = fresh(self.work / "out")
        req.rc, _stdout, req.wall_s = run_cli(
            ["train", "--episodes", str(episodes),
             "--epsilon-decay", str(episodes * 2 // 5), "--seed", "7",
             "--out", str(out)])
        req.ops = 0
        if req.rc == 0:
            req.digest = tree_digest(out)

    def _eval(self, req: Request, chunk: int) -> None:
        from terramob import local_adapt
        episodes = self.size["eval_episodes"]
        t0 = time.perf_counter()
        ev = local_adapt.evaluate_bypass(self.table, self.env, episodes=episodes,
                                         seed=10_000 + 100 * self.seed + chunk)
        req.wall_s = time.perf_counter() - t0
        req.ops = episodes
        req.failed = episodes - ev.successes
        req.info["successes"] = ev.successes
        req.info["ratios"] = [i.hybrid_time / i.oracle_time
                              for i in ev.instances if i.success]
        req.digest = hashlib.sha256(repr(
            [(i.hybrid_time, i.oracle_time, i.success, i.collided)
             for i in ev.instances]).encode()).hexdigest()

    def check(self, done: list[Request]) -> list[str]:
        """Acceptance 3 over one pass of the held-out placements."""
        first = {}
        for req in done:
            if req.kind == "eval":
                first.setdefault(req.key, req)
        episodes = self.size["eval_episodes"] * len(first)
        success = sum(r.info["successes"] for r in first.values()) / episodes
        worst = max((x for r in first.values() for x in r.info["ratios"]),
                    default=math.inf)
        self.summary = {"heldout_success": success, "worst_ratio": worst}
        problems = []
        if success < self.min_success:
            problems.append(f"held-out success {success:.3f} < {self.min_success}")
        if worst > self.max_ratio:
            problems.append(f"worst hybrid/oracle ratio {worst:.3f} > "
                            f"{self.max_ratio}")
        return problems


WORKLOADS = {w.name: w for w in (RoutePlan, Crowd, Pursuit, Train)}
