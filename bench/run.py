"""Benchmark runner: seeded workloads over the DES, service, WAL and ladders.

One run (exactly one ``--workload`` and no ``--repeats``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

measures one workload in this process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--out`` also writes the full detail document.

A campaign (several workloads, ``--repeats`` or ``--record``)::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--repeats N] [--trace]
                         [--record] [--out FILE]

runs each repeat as a fresh child process, one at a time after one
discarded import warm-up, and prints one JSON document with median,
q1, q3, n and every sample per (metric, workload), plus provenance.
``--record`` appends a summary line to ``bench/history.jsonl``.

Every run first runs a pinned reference episode (``reference.json``);
a different digest fails every operation of the run and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import workloads as wl  # noqa: E402  (imports repro: fails without the sources)
from tracer import Tracer, installed  # noqa: E402

OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
HISTORY = BENCH / "history.jsonl"
RUN_SECONDS = 20
SETUP_PROBES = 5
DEFAULT_REPEATS = 3
#: A child run that takes longer than this is stuck.
CHILD_TIMEOUT_S = 600
MAX_PRINTED_PROBLEMS = 10

#: End-to-end metrics and their units (mirrored in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer self-time shares: metric -> the spans whose self time it sums.
SHARES = {
    "sim.kernel_pct": ("sim.run", "sim.periodic"),
    "sim.arrival_pct": ("sim.arrival",),
    "sim.rng_pct": ("sim.rng",),
    "workloads.submit_pct": ("workloads.submit",),
    "workloads.route_pct": ("workloads.route",),
    "workloads.completion_pct": ("workloads.completion",),
    "workloads.set_frequency_pct": ("workloads.set_frequency",),
    "workloads.arrivals_pct": ("workloads.arrivals",),
    "autoscale.decide_pct": ("autoscale.decide",),
    "telemetry.record_pct": ("telemetry.record",),
    "telemetry.summary_pct": ("telemetry.summary",),
    "service.tick_pct": ("service.tick",),
    "service.arrival_pct": ("service.callback",),
    "service.admit_pct": ("service.admit",),
    "service.queue_pct": ("service.queue",),
    "service.delay_pct": ("service.delay",),
    "service.brownout_pct": ("service.brownout",),
    "service.replay_tick_pct": ("service.replay_tick",),
    "thermal.self_pct": ("thermal.self",),
    "emergency.observe_pct": ("emergency.observe",),
    "reliability.safety_pct": ("reliability.safety",),
    "control.heartbeat_pct": ("control.heartbeat",),
    "control.send_pct": ("control.send",),
    "control.reconcile_pct": ("control.reconcile",),
    "control.delivery_pct": ("control.callback",),
    "engine.record_pct": ("engine.record",),
    "engine.fsync_pct": ("engine.fsync",),
    "engine.replay_pct": ("engine.replay",),
    "engine.sweep_pct": ("engine.sweep",),
    "health.tick_pct": ("health.tick",),
    "health.detector_pct": ("health.detector",),
    "health.screen_pct": ("health.screen",),
    "power.ladder_pct": ("power.ladder",),
    "power.tree_pct": ("power.tree",),
    "power.arbiter_pct": ("power.arbiter",),
    "rollout.tick_pct": ("rollout.tick",),
    "rollout.analyzer_pct": ("rollout.analyzer",),
    "faults.timeline_pct": ("faults.timeline",),
    "experiments.self_pct": ("experiments.run", "experiments.callback"),
}

#: Per-layer counts and ratios, and their units (mirrored in BENCHMARK.json).
COUNTS = {
    "sim.events": "count",
    "sim.pushes": "count",
    "sim.pushes_per_event": "ratio",
    "sim.cancelled_frac": "ratio",
    "sim.rng_draws": "count",
    "workloads.submits": "count",
    "workloads.set_frequency_calls": "count",
    "autoscale.decisions": "count",
    "autoscale.max_vms": "count",
    "telemetry.latency_records": "count",
    "service.ticks": "count",
    "service.admit_calls": "count",
    "service.queue_ops": "count",
    "service.dispatch_ok_frac": "ratio",
    "service.brownout_escalations": "count",
    "emergency.escalations": "count",
    "emergency.relaxations": "count",
    "control.sends": "count",
    "control.retries": "count",
    "control.failures": "count",
    "engine.journal_records": "count",
    "engine.journal_bytes": "B",
    "engine.fsyncs": "count",
    "engine.fsync_ms_p50": "ms",
    "engine.fsync_ms_p99": "ms",
    "health.ticks": "count",
    "power.ladder_calls": "count",
    "rollout.ticks": "count",
    "faults.timeline_records": "count",
    "experiments.runs": "count",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

PER_LAYER = {**COUNTS, **{name: "%" for name in SHARES}}


class RunError(Exception):
    """The run could not be carried out (not a wrong result)."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, ``0 <= q <= 1``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def check_threads(workload: wl.Workload) -> None:
    if workload.threads > usable_cores():
        raise RunError(
            f"{workload.name} needs {workload.threads} threads but only "
            f"{usable_cores()} cores are usable"
        )


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def setup_probe(name: str, seed: int) -> float:
    """Calibrated seconds from spawning a fresh interpreter until its
    world is built; the interpreter then times the calibration loop."""
    command = [sys.executable, str(Path(__file__)), "--setup-probe"]
    command += ["--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=CHILD_TIMEOUT_S)
    ready, _, probe = line.partition(" ")
    if ready != "ready" or child.returncode != 0:
        raise RunError(f"set-up probe for {name} failed (exit {child.returncode})")
    return elapsed * wl.CALIBRATION_REFERENCE_S / float(probe)


def run_episode(workload: wl.Workload, seed: int, size: int, tracer=None) -> wl.Episode:
    """One episode; an exception fails it as one operation."""
    # The last episode's world is full of reference cycles (closures on
    # the simulator); free it now so peak memory is one world, not two.
    gc.collect()
    start = time.perf_counter()
    try:
        episode = workload.episode(seed, size, OUT, tracer)
    except Exception as error:  # the program under test raised
        episode = wl.Episode(seed=seed, digest="", work=0, watch=wl.Stopwatch(), attempted=1)
        episode.fail(f"{workload.name} seed {seed}: {type(error).__name__}: {error}")
    episode.detail["wall_s"] = time.perf_counter() - start
    return episode


def run_inputs(workload: wl.Workload, seed: int, size: int, seconds: float) -> list[wl.Episode]:
    """Inputs ``seed*1000 + i``, one after another, while the next is
    expected to end within ``seconds`` (at least one)."""
    episodes: list[wl.Episode] = []
    start = time.perf_counter()
    while True:
        episodes.append(run_episode(workload, seed * 1000 + len(episodes), size))
        elapsed = time.perf_counter() - start
        if elapsed * (len(episodes) + 1) / len(episodes) > seconds:
            return episodes


def end_to_end(episodes: list[wl.Episode], setup: list[float]) -> dict[str, float]:
    """The end-to-end metrics; every time in them is calibrated."""
    steps: list[float] = []
    busy_s = 0.0
    for episode in episodes:
        episode_steps, episode_s = episode.watch.calibrated(episode.detail["wall_s"])
        steps += episode_steps
        busy_s += episode_s
    if not steps:
        raise RunError("no step completed")
    return {
        "setup_s": statistics.median(setup),
        "work_per_s": sum(episode.work for episode in episodes) / busy_s,
        "step_p50_ms": quantile(steps, 0.50) * 1e3,
        "step_p90_ms": quantile(steps, 0.90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, run_s: float, untraced_s: float, episodes) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    counts = tracer.counts
    events = counts.get("sim.events", 0)
    pushes = counts.get("sim.push", 0)
    routed = tracer.calls("workloads.route")
    completed_ok = sum(episode.counts.get("service.completed_ok", 0) for episode in episodes)
    control = list(tracer.control_counters.values())
    fsyncs = tracer.durations.get("engine.fsync", [])
    covered = sum(entry[2] for name, entry in tracer.stats.items() if not name.startswith("bench."))
    metrics = {
        "sim.events": events,
        "sim.pushes": pushes,
        "sim.pushes_per_event": pushes / events if events else 0.0,
        "sim.cancelled_frac": (pushes - events) / pushes if pushes else 0.0,
        "sim.rng_draws": tracer.calls("sim.rng"),
        "workloads.submits": tracer.calls("workloads.submit"),
        "workloads.set_frequency_calls": tracer.calls("workloads.set_frequency"),
        "autoscale.decisions": tracer.calls("autoscale.decide"),
        "autoscale.max_vms": max(episode.counts.get("autoscale.max_vms", 0) for episode in episodes),
        "telemetry.latency_records": tracer.calls("telemetry.record"),
        "service.ticks": tracer.calls("service.tick", "service.replay_tick"),
        "service.admit_calls": tracer.calls("service.admit"),
        "service.queue_ops": tracer.calls("service.queue"),
        "service.dispatch_ok_frac": completed_ok / routed if completed_ok and routed else 0.0,
        "service.brownout_escalations": counts.get("timeline:brownout-escalate", 0),
        "emergency.escalations": counts.get("timeline:emergency-escalate", 0),
        "emergency.relaxations": counts.get("timeline:emergency-relax", 0),
        "control.sends": tracer.calls("control.send"),
        "control.retries": sum(counter.retries for counter in control),
        "control.failures": sum(counter.failures for counter in control),
        "engine.journal_records": tracer.calls("engine.record"),
        "engine.journal_bytes": sum(
            episode.counts.get("engine.journal_bytes", 0) for episode in episodes
        ),
        "engine.fsyncs": tracer.calls("engine.fsync"),
        "engine.fsync_ms_p50": quantile(fsyncs, 0.50) * 1e3 if fsyncs else 0.0,
        "engine.fsync_ms_p99": quantile(fsyncs, 0.99) * 1e3 if fsyncs else 0.0,
        "health.ticks": tracer.calls("health.tick"),
        "power.ladder_calls": tracer.calls("power.ladder"),
        "rollout.ticks": tracer.calls("rollout.tick"),
        "faults.timeline_records": sum(
            value for key, value in counts.items() if key.startswith("timeline:")
        ),
        "experiments.runs": tracer.calls("experiments.run"),
        "trace.run_s": run_s,
        "trace.overhead_frac": run_s / untraced_s - 1.0,
        "trace.coverage_frac": covered / run_s,
    }
    for name, spans in SHARES.items():
        metrics[name] = 100.0 * tracer.self_seconds(*spans) / run_s
    return metrics


def traced_pass(workload, seed, size, detail) -> tuple[dict, list[wl.Episode]]:
    """The run's first input untraced, then the same input traced.

    One input, unlike the timed run, so every count repeats exactly for
    a given seed.
    """
    plain = run_episode(workload, seed * 1000, size)
    tracer = Tracer(roots=workload.trace_roots, sample_every=workload.sample_every)
    start = time.perf_counter()
    with installed(tracer):
        traced = run_episode(workload, plain.seed, size, tracer)
    run_s = time.perf_counter() - start
    if plain.digest != traced.digest:
        traced.failed = traced.attempted
        traced.problems.append(
            f"seed {plain.seed}: traced digest {traced.digest[:12]} != untraced {plain.digest[:12]}"
        )
    spans_path = OUT / f"trace-{workload.name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    detail["raw_spans"] = len(tracer.raw)
    detail["layers"] = {
        name: {"calls": count, "total_s": total, "self_s": own}
        for name, (count, total, own) in sorted(tracer.stats.items())
    }
    detail["latency_ms"] = {
        name: {"p50": quantile(values, 0.5) * 1e3, "p99": quantile(values, 0.99) * 1e3}
        for name, values in tracer.durations.items()
    }
    return per_layer(tracer, run_s, plain.detail["wall_s"], [traced]), [plain, traced]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the detail document (``result`` is the line)."""
    workload = wl.WORKLOADS[name]
    check_threads(workload)
    size = workload.size
    pinned = load_reference()[name]
    OUT.mkdir(parents=True, exist_ok=True)
    detail: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
    }

    check = run_episode(workload, pinned["seed"], pinned["size"])
    detail["reference"] = {**pinned, "observed": check.digest}
    if trace:
        metrics, episodes = traced_pass(workload, seed, size, detail)
        units = PER_LAYER
    else:
        setup = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
        episodes = run_inputs(workload, seed, size, seconds)
        metrics = end_to_end(episodes, setup)
        detail["setup_samples"] = setup
        detail["steps"] = sum(len(episode.watch.parts_s) for episode in episodes)
        units = END_TO_END

    attempted = sum(episode.attempted for episode in [check] + episodes)
    failed = sum(episode.failed for episode in [check] + episodes)
    problems = [problem for episode in [check] + episodes for problem in episode.problems]
    if check.digest != pinned["digest"]:
        # The simulator no longer reproduces its pinned statistics, so no
        # operation of this run can be trusted.
        failed = attempted
        problems.insert(
            0,
            f"reference digest mismatch for {name} (seed {pinned['seed']}, size "
            f"{pinned['size']}): observed {check.digest}, pinned {pinned['digest']}",
        )
    detail["episodes"] = [
        {
            "seed": episode.seed,
            "digest": episode.digest,
            "work": episode.work,
            "attempted": episode.attempted,
            "failed": episode.failed,
            **episode.detail,
        }
        for episode in episodes
    ]
    detail["problems"] = problems
    detail["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return detail


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
def git_state() -> tuple[str | None, bool | None]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def provenance(seed: int, seconds: float, repeats: int, trace: bool) -> dict:
    sha, dirty = git_state()
    return {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha,
        "git_dirty": dirty,
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "trace": trace,
    }


def run_child(name: str, seed: int, seconds: float, trace: bool, repeat: int) -> dict:
    """One repeat in a fresh interpreter; returns its detail document."""
    out = OUT / f"run-{name}-{seed}-{repeat}{'-trace' if trace else ''}.json"
    command = [
        sys.executable,
        str(Path(__file__)),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--out", str(out),
    ]  # fmt: skip
    out.unlink(missing_ok=True)
    child = subprocess.run(
        command,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if not out.exists():
        raise RunError(
            f"{name} repeat {repeat} exited {child.returncode} without a result:\n"
            + child.stderr[-2000:]
        )
    return json.loads(out.read_text())


def campaign(names: list[str], seed: int, seconds: float, repeats: int, trace: bool) -> dict:
    setup_probe(names[0], seed)  # discarded warm-up: imports reach the page cache
    document = {"provenance": provenance(seed, seconds, repeats, trace), "workloads": {}}
    for name in names:
        runs = [run_child(name, seed, seconds, trace, repeat) for repeat in range(repeats)]
        results = [run["result"] for run in runs]
        attempted = sum(result["attempted"] for result in results)
        failed = sum(result["failed"] for result in results)
        problems = [problem for run in runs for problem in run["problems"]]
        # Same seed, same inputs: every repeat must reproduce the digests.
        digests = [
            {episode["seed"]: episode["digest"] for episode in run["episodes"]} for run in runs
        ]
        for repeat, observed in enumerate(digests[1:], start=1):
            for input_seed in sorted(digests[0].keys() & observed.keys()):
                if observed[input_seed] != digests[0][input_seed]:
                    failed += 1
                    problems.append(
                        f"repeat {repeat} input {input_seed}: digest "
                        f"{observed[input_seed]} != {digests[0][input_seed]}"
                    )
        units = PER_LAYER if trace else END_TO_END
        document["workloads"][name] = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "metrics": {
                metric: {
                    "unit": unit,
                    **summarize([result["metrics"][metric]["value"] for result in results]),
                }
                for metric, unit in units.items()
            },
            "digests": digests[0],
            "problems": problems,
            "runs": [
                {key: run[key] for key in run if key not in ("result", "episodes")}
                for run in runs
            ],
        }
    return document


def print_table(document: dict, stream=sys.stderr) -> None:
    print(
        f"{'workload':<16} {'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'n':>3}",
        file=stream,
    )
    for name, entry in document["workloads"].items():
        for metric, stats in entry["metrics"].items():
            print(
                f"{name:<16} {metric:<30} {stats['unit']:<6} {stats['median']:>12.6g} "
                f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['n']:>3}",
                file=stream,
            )
        print(
            f"{name:<16} {'error_rate':<30} {'':<6} {entry['error_rate']:>12.6g} "
            f"({entry['failed']}/{entry['attempted']})",
            file=stream,
        )
        for problem in entry["problems"][:MAX_PRINTED_PROBLEMS]:
            print(f"  ! {problem}", file=stream)


def record_history(document: dict) -> None:
    line = {
        **document["provenance"],
        "medians": {
            name: {metric: stats["median"] for metric, stats in entry["metrics"].items()}
            for name, entry in document["workloads"].items()
        },
        "error_rate": {name: entry["error_rate"] for name, entry in document["workloads"].items()},
    }
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def write_json(document: dict, out: Path | None) -> None:
    text = json.dumps(document, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    names = args.workload or sorted(wl.WORKLOADS)
    if args.setup_probe:
        OUT.mkdir(parents=True, exist_ok=True)
        workload = wl.WORKLOADS[names[0]]
        workload.build(args.seed, workload.size, OUT)
        print("ready", wl.probe_median(), flush=True)
        return 0
    try:
        if len(names) == 1 and args.repeats is None and not args.record:
            detail = measure(names[0], args.seed, args.seconds, bool(args.trace))
            if args.out is not None:
                write_json(detail, args.out)
            result = detail["result"]
            for problem in detail["problems"][:MAX_PRINTED_PROBLEMS]:
                print(f"! {problem}", file=sys.stderr)
            for metric, entry in result["metrics"].items():
                print(f"{names[0]} {metric} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
            print(json.dumps(result), flush=True)
            return 0 if result["correct"] else 1
        repeats = 1 if args.trace else (args.repeats or DEFAULT_REPEATS)
        document = campaign(names, args.seed, args.seconds, repeats, bool(args.trace))
    except RunError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    print_table(document)
    write_json(document, args.out)
    if args.record:
        record_history(document)
    return 0 if all(entry["correct"] for entry in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
