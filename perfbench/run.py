"""terramob benchmark: one workload, one closed loop, one result line.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; terramob is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics of a separate traced run. The
line before it holds the run's details: provenance, sample counts, raw
timings, output digests and the deterministic counts. Scratch files go to
``.perfbench_work/<workload>/`` in the checkout.

Every timing is divided by the host's slowness, measured with a fixed
reference computation right before and after each timed call (see
``workloads.slowness`` and perfbench/README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # setup_s is the median of this many set-ups
MIN_REPS = 3  # repetitions of every input in a run, at the least


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("route_plan", "crowd", "pursuit", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's self-test")
    return p.parse_args(argv)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text().splitlines())
            for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def closed_loop(wl, timer, seconds, min_reps, first_rep=0, tracer=None):
    """Issue the workload's requests back to back, repetition after
    repetition, until ``seconds`` have passed and ``min_reps`` are done.
    The reference runs between requests, so each request is bracketed."""
    from workloads import Request, slowness

    done = []
    t0 = time.perf_counter()
    rep = first_rep
    before = slowness()
    while rep - first_rep < min_reps or time.perf_counter() - t0 < seconds:
        for key, kind, fn in wl.requests():
            req = Request(key, kind, rep)
            if tracer is not None:
                tracer.begin_request(len(done), rep, kind)
            fn(req)
            req.astar = timer.take()
            after = slowness()
            req.slowness = (before + after) / 2
            before = after
            done.append(req)
        rep += 1
    return done


def rep_walls(done) -> list[float]:
    """Normalized wall time of each repetition."""
    walls: dict[int, float] = {}
    for r in done:
        walls[r.rep] = walls.get(r.rep, 0.0) + r.wall_s / r.slowness
    return list(walls.values())


def check_repeats(done) -> list[str]:
    """Every repeat of an input must produce the same outputs."""
    first = {}
    problems = []
    for req in done:
        ref = first.setdefault(req.key, req.digest)
        if req.digest != ref:
            req.failed = req.ops
            problems.append(f"{req.key} rep {req.rep}: outputs differ from "
                            "its first run")
    return problems


def output_digest(done) -> str:
    first = {}
    for req in done:
        first.setdefault(req.key, req.digest)
    return hashlib.sha256(repr(sorted(first.items())).encode()).hexdigest()


def per_input(done, normalize: bool) -> tuple[dict, dict, dict]:
    """Median over its repeats of each input's wall time and of each of its
    A* calls (normalized or raw seconds), and each input's op count."""
    walls: dict = {}
    astar: dict = {}
    ops = {}
    for r in done:
        f = r.slowness if normalize else 1.0
        walls.setdefault(r.key, []).append(r.wall_s / f)
        ops[r.key] = r.ops
        for i, t in enumerate(r.astar):
            astar.setdefault((r.key, i), []).append(t / f)
    med = statistics.median
    return ({k: med(v) for k, v in walls.items()},
            {k: med(v) for k, v in astar.items()}, ops)


def timings(wl, done, normalize: bool) -> dict:
    call, astar, ops = per_input(done, normalize)
    call_keys = {r.key for r in done if r.kind in wl.call_kinds}
    op_keys = {r.key for r in done if r.kind in wl.op_kinds}
    a = list(astar.values())
    return {
        "call_ms_p50": statistics.median(call[k] for k in call_keys) * 1e3,
        "astar_ms_p50": statistics.median(a) * 1e3,
        "astar_ms_p90": p90(a) * 1e3,
        "ops_per_s": sum(ops[k] for k in op_keys) / sum(call[k] for k in op_keys),
    }


def end_to_end(wl, done, setup_s) -> tuple[dict, dict]:
    units = {"call_ms_p50": "ms", "astar_ms_p50": "ms", "astar_ms_p90": "ms",
             "ops_per_s": "1/s"}
    metrics = {k: (v, units[k]) for k, v in timings(wl, done, True).items()}
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    repeats: dict[str, int] = {}
    for r in done:
        repeats[r.key] = repeats.get(r.key, 0) + 1
    astar_calls = sum(len(r.astar) for r in done if r.rep == done[0].rep)
    samples = {
        "requests": len(done),
        "inputs": len(repeats),
        "repeats_min": min(repeats.values()),
        "astar_calls_per_rep": astar_calls,
        "host_slowness_p50": statistics.median(r.slowness for r in done),
        "raw_unnormalized": timings(wl, done, False),
    }
    return metrics, samples


def run(args) -> int:
    import inputs
    import tracer as tracing
    import workloads  # numpy comes in here, before the clock starts

    workloads.reference()  # its first call pays one-off costs
    before = workloads.slowness()
    t0 = time.perf_counter()
    import terramob.cli  # noqa: F401  (the whole package)
    import_s = (time.perf_counter() - t0) / ((before + workloads.slowness()) / 2)

    work = workloads.fresh(ROOT / ".perfbench_work" / args.workload)
    wl = workloads.WORKLOADS[args.workload](work, args.seed, inputs.SIZES[args.size])
    setup_times, input_digests = [], []
    for _ in range(SETUPS):
        before = workloads.slowness()
        t0 = time.perf_counter()
        input_digests.append(wl.setup())
        wall = time.perf_counter() - t0
        setup_times.append(wall / ((before + workloads.slowness()) / 2))
    setup_s = import_s + statistics.median(setup_times)
    problems = []
    if len(set(input_digests)) != 1:
        problems.append("set-up made different inputs from one seed")

    timer = workloads.AstarTimer()
    timer.install()
    details = {"workload": args.workload, "size": args.size, "trace": args.trace,
               "provenance": provenance(args.seed),
               "input_digest": input_digests[0],
               "setup": {"import_s": import_s, "each_s": setup_times}}
    if args.trace:
        base = closed_loop(wl, timer, args.seconds / 2, MIN_REPS)
        first = base[-1].rep + 1
        tr = tracing.Tracer(args.workload)
        tr.install()
        try:
            traced = closed_loop(wl, timer, args.seconds / 2, MIN_REPS,
                                 first_rep=first, tracer=tr)
        finally:
            tr.uninstall()
        done = base + traced
        reps = range(first, traced[-1].rep + 1)
        counts = [tracing.deterministic_counts(tr, r) for r in reps]
        if any(c != counts[0] for c in counts):
            problems.append(f"deterministic counts differ between repetitions: {counts}")
        per_layer = tracing.per_layer_metrics(tr, len(reps))
        per_layer["trace.overhead_ratio"] = (statistics.median(rep_walls(traced))
                                             / statistics.median(rep_walls(base)))
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (per_layer[name], units[name]) for name in units}
        details["deterministic_counts"] = counts[0]
        details["layer_self_s_per_rep"] = {
            kind: {layer: t / len(reps) for layer, t in tr.layer_self_s(kind).items()}
            for kind in sorted({r.kind for r in traced})}
        details["traced_reps"] = len(reps)
        tr.write_spans(work / "spans.csv")
    else:
        done = closed_loop(wl, timer, args.seconds, MIN_REPS)
        metrics, details["samples"] = end_to_end(wl, done, setup_s)
    timer.uninstall()

    problems += [f"{r.key} rep {r.rep}: exit code {r.rc}" for r in done if r.rc != 0]
    problems += check_repeats(done)
    problems += wl.check(done)
    op_reqs = [r for r in done if r.kind in wl.op_kinds]
    attempted = sum(r.ops for r in op_reqs)
    failed = sum(r.failed for r in op_reqs)
    details["output_digest"] = output_digest(done)
    details["ops_failed_frac"] = failed / attempted if attempted else 0.0
    if hasattr(wl, "livelocked"):
        details["livelocked_agents"] = wl.livelocked(done)
    details.update(getattr(wl, "summary", {}))
    details["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "terramob" / "__init__.py").is_file():
        print(f"error: no terramob sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
