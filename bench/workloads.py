"""The benchmark's four workloads, each a seeded sequence of episodes.

An episode is one self-contained input made from a seed: one Fig. 16
ramp, one service storm, one journaled service session plus its
resume, or one round of the naive-vs-robust ladder experiments. The
runner runs episodes until its time budget is spent. Every episode
reports the host time of each step (one slice of the ramp, one tick,
one round of comparisons), the work it completed, and a digest over its
simulated statistics; conservation checks decide which operations
failed. All load is generated inside the calling process, on one thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.autoscale.controller import AutoScaler
from repro.autoscale.policy import ScalerMode
from repro.experiments.autoscaling import (
    FIG16_INITIAL_QPS,
    FIG16_LEVELS,
    FIG16_STEP_QPS,
    run_fig16_mode,
)
from repro.experiments.degraded_telemetry import run_degraded_telemetry
from repro.experiments.envelope_rollout import run_envelope_rollout
from repro.experiments.heatwave_ride_through import run_heatwave_ride_through
from repro.experiments.oversubscription_crisis import run_oversubscription_crisis
from repro.experiments.partition_recovery import run_partition_recovery
from repro.experiments.sdc_hunt import run_sdc_hunt
from repro.service.checkpoint import ServiceSession
from repro.service.core import ServiceCore
from repro.sim.kernel import Simulator
from tracer import Patches

#: Simulated seconds per ramp level: Fig. 16's 300 s compressed 3x.
#: Steps of 80 s or less collapse the ramp into overload (p95 of
#: seconds), so the compression stops here.
RAMP_STEP_PERIOD_S = 100.0

#: The storm's operator ops, keyed by the tick boundary they land on:
#: two demand surges and two condenser excursions, then a larger surge.
#: Each op and the ladder activity it causes ends before the next op, and
#: the surges land near the diurnal peak (the trace's period is 960 ticks).
STORM_OPS: dict[int, dict] = {
    400: {"op": "demand-surge", "factor": 2.5, "duration_s": 60.0},
    1200: {"op": "thermal-excursion", "derate": 0.5, "duration_s": 60.0},
    2400: {"op": "demand-surge", "factor": 2.5, "duration_s": 60.0},
    3200: {"op": "thermal-excursion", "derate": 0.5, "duration_s": 60.0},
    4400: {"op": "demand-surge", "factor": 3.0, "duration_s": 90.0},
}

#: The ladder campaign's experiments, heaviest last.
LADDER_EXPERIMENTS: tuple[Callable, ...] = (
    run_degraded_telemetry,
    run_partition_recovery,
    run_envelope_rollout,
    run_oversubscription_crisis,
    run_sdc_hunt,
    run_heatwave_ride_through,
)

#: Problems kept per episode; the failure count keeps counting past it.
MAX_PROBLEMS = 5

#: Calibrated time is host time in units of the calibration loop, scaled
#: so that it equals host time where one loop takes this long.
CALIBRATION_REFERENCE_S = 10e-6

#: Probes on each side of a timed call whose median gives its host speed.
CALIBRATION_WINDOW = 25

clock = time.perf_counter


def calibration_loop() -> int:
    """A fixed stretch of pure-Python work, timed after every timed call."""
    total = 0
    for i in range(300):
        total += i * i
    return total


def probe_median() -> float:
    """Median host seconds of one calibration window's worth of loops."""
    probes = []
    for _ in range(2 * CALIBRATION_WINDOW + 1):
        start = clock()
        calibration_loop()
        probes.append(clock() - start)
    return statistics.median(probes)


class Stopwatch:
    """Times an episode's calls, each followed by a calibration probe.

    Other tenants slow the benchmark's host by up to ~1.7x in stretches
    of seconds, and CPU time slows with wall time. A probe after every
    call times ``calibration_loop``; the median of the probes around a
    call measures the host's speed while it ran. A call's calibrated
    seconds are its host seconds times ``CALIBRATION_REFERENCE_S`` over
    that median, which divides out the host's speed and keeps the
    program's own cost. Every ``parts_per_step`` consecutive calls make
    one step.
    """

    def __init__(self, parts_per_step: int = 1) -> None:
        self.parts_per_step = parts_per_step
        self.parts_s: list[float] = []
        self.probes_s: list[float] = []

    def time(self, fn: Callable, *args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.parts_s.append(clock() - start)
            start = clock()
            calibration_loop()
            self.probes_s.append(clock() - start)

    def calibrated(self, wall_s: float) -> tuple[list[float], float]:
        """Calibrated seconds of each step, and of the whole episode.

        ``wall_s`` is the episode's host time; the part of it outside
        the timed calls and probes is scaled by the episode's median probe.
        """
        probes = self.probes_s
        parts = []
        for index, seconds in enumerate(self.parts_s):
            window = probes[max(0, index - CALIBRATION_WINDOW) : index + CALIBRATION_WINDOW + 1]
            parts.append(seconds * CALIBRATION_REFERENCE_S / statistics.median(window))
        size = self.parts_per_step
        steps = [sum(parts[start : start + size]) for start in range(0, len(parts), size)]
        outside = wall_s - sum(self.parts_s) - sum(probes)
        if probes:
            outside *= CALIBRATION_REFERENCE_S / statistics.median(probes)
        return steps, sum(parts) + outside


@dataclass
class Episode:
    """What one episode did, as the runner needs it."""

    seed: int
    digest: str
    #: Work units completed (requests, ticks or comparisons).
    work: int
    #: Host times of every step.
    watch: Stopwatch
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Workload-side tallies the trace metrics need.
    counts: dict[str, int] = field(default_factory=dict)
    #: Extra per-episode facts for the detail document.
    detail: dict[str, object] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``episode(seed, size, scratch_dir, tracer)``.
    episode: Callable[..., Episode]
    #: ``build(seed, size, scratch_dir)``: the world a run starts from.
    build: Callable[[int, int, Path], object]
    #: Episode size in the benchmark (levels, ticks or experiments).
    size: int
    #: Span names that start a trace, and every how many traces to keep raw.
    trace_roots: tuple[str, ...]
    sample_every: int = 1
    #: Threads the workload's load generator uses.
    threads: int = 1


def digest_of(*parts: object) -> str:
    return hashlib.sha256("|".join(stable_repr(part) for part in parts).encode()).hexdigest()


def stable_repr(value: object) -> str:
    """A repr that does not depend on hash seeds or object addresses."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{spec.name}={stable_repr(getattr(value, spec.name))}"
            for spec in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        items = sorted(f"{stable_repr(key)}:{stable_repr(item)}" for key, item in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(stable_repr(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(stable_repr(item) for item in value) + "]"
    return repr(value)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# autoscale-ramp: the Fig. 16 closed loop on the per-request DES
# ----------------------------------------------------------------------
def ramp_slices(levels: int) -> list[float]:
    """Simulated end times of the ramp's steps.

    Each step is a slice of simulated time that offers about
    ``FIG16_INITIAL_QPS`` requests: 1 s at the first level, 1/k s at the
    k-th. Steps of like work keep the median step inside one
    distribution instead of on the jump in cost between two levels.
    """
    ends: list[float] = []
    for level in range(levels):
        rate = FIG16_INITIAL_QPS + level * FIG16_STEP_QPS
        count = round(RAMP_STEP_PERIOD_S * rate / FIG16_INITIAL_QPS)
        start = level * RAMP_STEP_PERIOD_S
        ends += [start + RAMP_STEP_PERIOD_S * (i + 1) / count for i in range(count)]
    return ends


@contextmanager
def patched(*replacements: tuple[type, str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Inside the block, each ``(owner, attr, make)`` sets ``owner.attr``
    to ``make(owner.attr)``; the originals come back on the way out."""
    patches = Patches()
    try:
        for owner, attr, make in replacements:
            patches.replace(owner, attr, make)
        yield
    finally:
        patches.undo()


def timed_calls(owner: type, attr: str, watch: Stopwatch):
    """Inside the block, every call of ``owner.attr`` is timed on ``watch``."""

    def timed(fn: Callable) -> Callable:
        return lambda *args, **kwargs: watch.time(fn, *args, **kwargs)

    return patched((owner, attr, timed))


def sliced_runs(ends: list[float], watch: Stopwatch, scalers: list[AutoScaler]):
    """Time ``Simulator.run(until=H)`` slice by slice inside the block.

    The call advances through every end in ``ends`` below ``H``, then to
    ``H``, timing each slice on ``watch``; because a run stops after the
    last event at or before its ``until``, the sliced run is the same
    simulation as one call. Every ``AutoScaler.finish`` also records its
    scaler in ``scalers``.
    """

    def slice_run(run: Callable) -> Callable:
        def sliced(simulator, until=None, max_events=None):
            if until is None or max_events is not None:
                return run(simulator, until, max_events)
            for end in [end for end in ends if simulator.now < end < until] + [until]:
                watch.time(run, simulator, until=end)

        return sliced

    def keep_scaler(finish: Callable) -> Callable:
        def recorded(autoscaler):
            scalers.append(autoscaler)
            return finish(autoscaler)

        return recorded

    return patched((Simulator, "run", slice_run), (AutoScaler, "finish", keep_scaler))


def ramp_digest(result) -> str:
    """Digest of an ``AutoScalerResult``: the Table XI statistics."""
    latency = result.latency
    return digest_of(
        len(latency),
        latency.mean(),
        latency.p50(),
        latency.p95(),
        latency.p99(),
        result.vm_hours(),
        result.max_vms,
        result.scale_out_events,
        result.scale_in_events,
        result.power.average_watts(),
    )


def ramp_episode(seed: int, levels: int, scratch: Path, tracer=None) -> Episode:
    """``run_fig16_mode(OC_A, seed, levels, 100 s)``, timed slice by slice."""
    watch = Stopwatch()
    scalers: list[AutoScaler] = []
    routed = tracer.calls("workloads.route") if tracer is not None else 0
    with sliced_runs(ramp_slices(levels), watch, scalers):
        result = run_fig16_mode(
            ScalerMode.OC_A, seed, levels=levels, step_period_s=RAMP_STEP_PERIOD_S
        )
    latency = result.latency
    completed = len(latency) + latency.dropped_warmup_samples
    episode = Episode(
        seed=seed,
        digest=ramp_digest(result),
        work=completed,
        watch=watch,
        attempted=1,
        counts={"autoscale.max_vms": result.max_vms},
        detail={"requests": completed, "max_vms": result.max_vms},
    )
    if tracer is not None:
        # Every routed request completed, is in flight, or was dropped by
        # an empty balancer. Scale-in detaches VMs that may still be
        # draining, so only then may requests sit where the balancer
        # cannot see them.
        balancer = scalers[0].load_balancer
        routed = tracer.calls("workloads.route") - routed
        unseen = routed - balancer.dropped_requests - completed - balancer.in_flight
        if unseen < 0 or (unseen > 0 and result.scale_in_events == 0):
            episode.fail(f"ramp seed {seed}: {unseen} requests unaccounted")
    return episode


def _nothing_to_build(seed: int, size: int, scratch: Path) -> object:
    return None  # the episode builds its own world


# ----------------------------------------------------------------------
# service-storm / service-wal: the live service's tick engine
# ----------------------------------------------------------------------
def unaccounted(core: ServiceCore) -> str | None:
    """Check request conservation; describe the first broken identity."""
    c = core.counters
    decided = c.admitted + c.rejected_throttled + c.rejected_brownout
    if c.offered != decided:
        return f"offered {c.offered} != admitted + rejected {decided}"
    settled = (
        c.completed_ok
        + c.completed_late
        + c.shed_low_priority
        + c.shed_expired
        + c.shed_overflow
        + c.lost_to_trips
        + core.queue_depth
        + core.in_flight
    )
    if c.admitted != settled:
        return f"admitted {c.admitted} != settled + queued + in flight {settled}"
    return None


def service_digest(core: ServiceCore) -> str:
    """Digest of the tick-signature chain plus every ``ServiceCounters`` field."""
    return digest_of(core.signature, core.counters)


def storm_episode(seed: int, ticks: int, scratch: Path, tracer=None) -> Episode:
    core = ServiceCore(seed, mode="robust")
    watch = Stopwatch()
    episode = Episode(seed=seed, digest="", work=ticks, watch=watch, attempted=ticks)
    for boundary in range(ticks):
        if boundary in STORM_OPS:
            core.apply_op(STORM_OPS[boundary])
        watch.time(core.tick)
        problem = unaccounted(core)
        if problem is not None:
            episode.fail(f"storm seed {seed} tick {core.tick_index}: {problem}")
    episode.digest = service_digest(core)
    episode.counts["service.completed_ok"] = core.counters.completed_ok
    return episode


def _build_storm(seed: int, ticks: int, scratch: Path) -> object:
    return ServiceCore(seed, mode="robust")


def _wal_dir(scratch: Path, seed: int) -> Path:
    return scratch / f"wal-{os.getpid()}-{seed}"


def wal_episode(seed: int, ticks: int, scratch: Path, tracer=None) -> Episode:
    """Journal ``ticks`` ticks and the storm's ops, close, then resume.

    The resume is the SIGKILL path: a fresh session on the same WAL
    replays from tick 0 and must land on the signature and counters the
    journaled session closed with.
    """
    directory = _wal_dir(scratch, seed)
    shutil.rmtree(directory, ignore_errors=True)
    watch = Stopwatch()
    episode = Episode(seed=seed, digest="", work=ticks, watch=watch, attempted=ticks + 1)
    try:
        session = ServiceSession(directory, "bench", seed, signature_interval=1)
        core = session.open()
        for boundary in range(ticks):
            if boundary in STORM_OPS:
                session.apply_op(STORM_OPS[boundary])
            watch.time(session.tick)
            problem = unaccounted(core)
            if problem is not None:
                episode.fail(f"wal seed {seed} tick {core.tick_index}: {problem}")
        digest = service_digest(core)
        session.close()
        journal_bytes = session.path.stat().st_size

        # Each tick the resume replays is a step too.
        resumed = ServiceSession(directory, "bench", seed, signature_interval=1)
        start = clock()
        with timed_calls(ServiceCore, "tick", watch):
            resumed_core = resumed.open()
        resumed.close()
        resume_s = clock() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    resumed_digest = service_digest(resumed_core)
    if not resumed.resumed or resumed_digest != digest:
        episode.fail(f"wal seed {seed}: resumed state {resumed_digest[:12]} != {digest[:12]}")
    episode.digest = digest_of(digest, resumed_digest)
    # The replay recomputes every tick, so it completes the requests again.
    episode.counts["service.completed_ok"] = (
        core.counters.completed_ok + resumed_core.counters.completed_ok
    )
    episode.counts["engine.journal_bytes"] = journal_bytes
    episode.detail["resume_s"] = resume_s
    return episode


def _build_wal(seed: int, ticks: int, scratch: Path) -> object:
    directory = _wal_dir(scratch, seed)
    try:
        session = ServiceSession(directory, "bench", seed, signature_interval=1)
        session.open()
        session.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return session


# ----------------------------------------------------------------------
# ladder-campaign: the naive-vs-robust experiments
# ----------------------------------------------------------------------
def ladder_episode(seed: int, experiments: int, scratch: Path, tracer=None) -> Episode:
    """One round: each ladder experiment's comparison at ``seed``.

    The round is the step: per-comparison times mix six experiments of
    very different cost, so their median would sit on the boundary
    between two experiments and jump with the seeds drawn.
    """
    runs = LADDER_EXPERIMENTS[:experiments]
    watch = Stopwatch(parts_per_step=len(runs))
    episode = Episode(seed=seed, digest="", work=0, watch=watch, attempted=len(runs))
    digests: dict[str, str] = {}
    for run in runs:
        try:
            with _span(tracer, "experiments.run"):
                comparison = watch.time(run, seed=seed)
        except Exception as error:  # a raising comparison is a failed operation
            episode.fail(f"{run.__name__} seed {seed}: {type(error).__name__}: {error}")
            continue
        episode.work += 1
        digests[run.__name__] = digest_of(comparison)
    episode.digest = digest_of(digests)
    episode.detail["comparisons"] = digests
    episode.detail["comparison_s"] = dict(zip((run.__name__ for run in runs), watch.parts_s))
    return episode


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="autoscale-ramp",
            why=(
                "Fig. 16 OC-A ramp on the per-request DES: kernel, PS queue, RNG and "
                "telemetry do the work; service, WAL and ladders are bypassed"
            ),
            episode=ramp_episode,
            build=_nothing_to_build,
            size=FIG16_LEVELS,
            trace_roots=("sim.arrival",),
            sample_every=1000,
        ),
        Workload(
            name="service-storm",
            why=(
                "unpaced ServiceCore ticks through surges and condenser excursions: "
                "admission, backlog, brownout, thermal and emergency ladders, no WAL"
            ),
            episode=storm_episode,
            build=_build_storm,
            size=6000,
            trace_roots=("service.tick",),
        ),
        Workload(
            name="service-wal",
            why=(
                "the same storm journaled through the fsync'd service WAL, then "
                "resumed by replay: the only workload that pays for journal writes and resume"
            ),
            episode=wal_episode,
            build=_build_wal,
            size=2500,
            trace_roots=("service.tick", "service.replay_tick"),
        ),
        Workload(
            name="ladder-campaign",
            why=(
                "six naive-vs-robust ladder experiments per seed: health, power, rollout, "
                "emergency and control ladders; the request DES is bypassed"
            ),
            episode=ladder_episode,
            build=_nothing_to_build,
            size=len(LADDER_EXPERIMENTS),
            trace_roots=("experiments.run",),
        ),
    )
}


__all__ = [
    "Episode",
    "Workload",
    "WORKLOADS",
    "digest_of",
    "stable_repr",
    "ramp_slices",
    "sliced_runs",
    "ramp_digest",
    "unaccounted",
    "service_digest",
]
