"""Span tracer for the benchmark's ``--trace 1`` pass.

The tracer times calls into each layer's public functions by replacing
class attributes with timing wrappers for the duration of a traced run
and putting the originals back afterwards, so nothing under ``src/``
carries tracing code. Every call is aggregated per span name (count,
total seconds, self seconds). A span's self time is its duration minus
the time covered by the spans it directly contains.

Kernel callbacks are attributed to the module that defines them: the
wrappers on ``Simulator.at``/``after``/``every`` wrap each scheduled
callback in a span named after that module (see ``callback_span``).

Raw spans (name, start, end, span id, parent id, trace id) are kept only
for traces the sampler picks and only up to ``MAX_RAW_SPANS``, then
written out as JSON lines by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: (module, class, attributes, span name): public functions timed as spans.
SPANS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.sim.kernel", "Simulator", ("run",), "sim.run"),
    ("repro.sim.random", "RandomStreams", ("exponential", "lognormal", "uniform"), "sim.rng"),
    ("repro.workloads.queueing", "ServerVM", ("submit",), "workloads.submit"),
    ("repro.workloads.queueing", "ServerVM", ("set_frequency",), "workloads.set_frequency"),
    ("repro.workloads.queueing", "LoadBalancer", ("route",), "workloads.route"),
    ("repro.workloads.diurnal", "ArrivalProcess", ("arrivals",), "workloads.arrivals"),
    ("repro.workloads.diurnal", "DiurnalTrace", ("rate_rps",), "workloads.arrivals"),
    ("repro.telemetry.percentiles", "LatencyRecorder", ("record",), "telemetry.record"),
    (
        "repro.telemetry.percentiles",
        "LatencyRecorder",
        ("mean", "p50", "p95", "p99", "summary"),
        "telemetry.summary",
    ),
    ("repro.service.admission", "AdmissionController", ("admit",), "service.admit"),
    ("repro.service.backlog", "BoundedDeadlineQueue", ("push", "pop", "expire"), "service.queue"),
    ("repro.service.backlog", "QueueDelayController", ("observe",), "service.delay"),
    ("repro.service.brownout", "BrownoutLadder", ("observe",), "service.brownout"),
    ("repro.thermal.transient", "TankFluidRC", ("set_heat", "sample"), "thermal.self"),
    ("repro.thermal.transient", "ThermalRC", ("set_power", "sample"), "thermal.self"),
    ("repro.cluster.host", "Host", ("power_watts",), "thermal.self"),
    ("repro.emergency.ladder", "EmergencyCoordinator", ("observe",), "emergency.observe"),
    (
        "repro.reliability.safety",
        "SafetySupervisor",
        ("observe", "observe_actuation", "poll"),
        "reliability.safety",
    ),
    ("repro.control.link", "ActuationLink", ("heartbeat",), "control.heartbeat"),
    ("repro.control.bus", "CommandBus", ("send",), "control.send"),
    ("repro.control.reconcile", "Reconciler", ("tick",), "control.reconcile"),
    ("repro.engine.journal", "RunJournal", ("record",), "engine.record"),
    ("repro.engine.core", "SweepEngine", ("run",), "engine.sweep"),
    ("repro.health.coordinator", "FleetHealthCoordinator", ("tick",), "health.tick"),
    ("repro.health.detector", "DriftDetector", ("observe",), "health.detector"),
    ("repro.health.detector", "EwmaRateDetector", ("observe",), "health.detector"),
    ("repro.health.screening", "ScreeningScheduler", ("poll",), "health.screen"),
    ("repro.power.ladder", "PowerEmergencyCoordinator", ("observe",), "power.ladder"),
    (
        "repro.power.tree",
        "PowerDeliveryHierarchy",
        ("rollup", "worst_headroom_fraction"),
        "power.tree",
    ),
    (
        "repro.power.arbiter",
        "PowerBudgetArbiter",
        (
            "admit_vm",
            "release_vm",
            "grant_overclock",
            "revoke_overclock",
            "revoke_all_overclocks",
            "verify_conservation",
        ),
        "power.arbiter",
    ),
    ("repro.rollout.controller", "RolloutController", ("tick",), "rollout.tick"),
    ("repro.rollout.analyzer", "CanaryAnalyzer", ("observe",), "rollout.analyzer"),
    ("repro.faults.timeline", "FaultTimeline", ("record", "signature"), "faults.timeline"),
)

#: Callback spans for modules whose callbacks have a more specific role
#: than "<layer>.callback".
CALLBACK_SPANS = {
    "repro.sim.kernel": "sim.periodic",
    "repro.sim.processes": "sim.arrival",
    "repro.workloads.queueing": "workloads.completion",
    "repro.autoscale.controller": "autoscale.decide",
}


#: Raw spans kept in memory per traced run.
MAX_RAW_SPANS = 50_000

#: Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = frozenset({"engine.record", "engine.fsync"})


def callback_span(callback: Callable) -> str:
    """Span name for a kernel callback: the module that defines it."""
    target = getattr(callback, "func", callback)  # functools.partial
    module = getattr(target, "__module__", None) or ""
    if module in CALLBACK_SPANS:
        return CALLBACK_SPANS[module]
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return f"{parts[1]}.callback"
    return "bench.callback"


class Tracer:
    """Aggregates nested spans; optionally keeps a sample of raw spans.

    ``roots`` names the spans that start a new trace (one tick, one
    arrival, one comparison); every ``sample_every``-th trace is kept
    raw, up to ``MAX_RAW_SPANS``. Spans opened outside any root carry
    trace id 0 and are never kept raw.
    """

    def __init__(
        self,
        roots: tuple[str, ...] = (),
        sample_every: int = 1,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        #: span name -> [count, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: count-only hooks (no timing), e.g. heap pushes and timeline kinds
        self.counts: dict[str, int] = {}
        #: individual durations of the ``KEEP_DURATIONS`` spans
        self.durations: dict[str, list[float]] = {}
        #: id -> ControlPlaneCounters of every command bus built while traced
        self.control_counters: dict[int, object] = {}
        self.raw: list[tuple] = []
        #: True inside ``ServiceSession.open``: ticks there are WAL replay
        self.replaying = False
        self._roots = frozenset(roots)
        self._sample_every = max(1, sample_every)
        self._traces = 0
        self._next_span = 0
        # Open frames: [name, start, child seconds, span id, trace id, sampled]
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    # Span arithmetic
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._next_span += 1
        stack = self._stack
        if name in self._roots:
            self._traces += 1
            trace = self._traces
            sampled = (trace - 1) % self._sample_every == 0 and len(self.raw) < MAX_RAW_SPANS
        elif stack:
            trace, sampled = stack[-1][4], stack[-1][5]
        else:
            trace, sampled = 0, False
        stack.append([name, self.clock(), 0.0, self._next_span, trace, sampled])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id, trace, sampled = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if name in KEEP_DURATIONS:
            self.durations.setdefault(name, []).append(duration)
        if sampled and len(self.raw) < MAX_RAW_SPANS:
            parent = self._stack[-1][3] if self._stack else 0
            self.raw.append((name, start, end, span_id, parent, trace))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.stats[name][0] for name in names if name in self.stats)

    def self_seconds(self, *names: str) -> float:
        return sum(self.stats[name][2] for name in names if name in self.stats)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, span_id, parent, trace in self.raw:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "span": span_id,
                    "parent": parent,
                    "trace": trace,
                }
                handle.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def traced_callback(self, callback: Callable, event: bool) -> Callable:
        """Time ``callback`` as a span; ``event`` counts it in ``sim.events``
        (false for ``every``, whose callbacks run inside a periodic event)."""
        name = callback_span(callback)
        enter, exit_, counts = self.enter, self.exit, self.counts

        def run_callback() -> None:
            if event:
                counts["sim.events"] = counts.get("sim.events", 0) + 1
            enter(name)
            try:
                callback()
            finally:
                exit_()

        return run_callback

    def scheduler(self, fn: Callable, event: bool = True) -> Callable:
        """Wrap ``Simulator.at/after/every``: trace the callback argument."""
        traced = self.traced_callback

        @functools.wraps(fn)
        def wrapper(simulator, when, callback, *args, **kwargs):
            return fn(simulator, when, traced(callback, event), *args, **kwargs)

        return wrapper


class Patches:
    """Class-attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object | None]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        # Inherited attributes are shadowed on ``owner`` and deleted on undo.
        own = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, own))

    def undo(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


class _FsyncOs:
    """Stands in for ``os`` inside ``repro.engine.journal`` to time fsync."""

    def __init__(self, fsync: Callable) -> None:
        self.fsync = fsync

    def __getattr__(self, attr: str):
        return getattr(os, attr)


def _class(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block, then restore."""
    patches = Patches()
    try:
        for module, cls_name, attrs, span in SPANS:
            cls = _class(module, cls_name)
            for attr in attrs:
                patches.replace(cls, attr, functools.partial(tracer.timed, span))
        simulator = _class("repro.sim.kernel", "Simulator")
        for attr in ("at", "after"):
            patches.replace(simulator, attr, tracer.scheduler)
        patches.replace(simulator, "every", functools.partial(tracer.scheduler, event=False))
        patches.replace(
            _class("repro.sim.events", "EventQueue"),
            "push",
            functools.partial(tracer.counted, "sim.push"),
        )
        patches.replace(
            _class("repro.faults.timeline", "FaultTimeline"),
            "record",
            functools.partial(_count_kinds, tracer),
        )
        patches.replace(
            _class("repro.control.bus", "CommandBus"),
            "__init__",
            functools.partial(_collect_counters, tracer),
        )
        patches.replace(
            _class("repro.engine.journal", "RunJournal"),
            "open",
            functools.partial(_journal_open, tracer),
        )
        patches.replace(
            _class("repro.service.core", "ServiceCore"),
            "tick",
            functools.partial(_service_tick, tracer),
        )
        patches.replace(
            _class("repro.service.checkpoint", "ServiceSession"),
            "open",
            functools.partial(_session_open, tracer),
        )
        journal = importlib.import_module("repro.engine.journal")
        patches.replace(
            journal, "os", lambda real: _FsyncOs(tracer.timed("engine.fsync", real.fsync))
        )
        yield tracer
    finally:
        patches.undo()


def _count_kinds(tracer: Tracer, fn: Callable) -> Callable:
    """Count timeline records by kind (ladder escalations, faults, ...)."""

    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(timeline, time_s, kind, *args, **kwargs):
        key = f"timeline:{kind}"
        counts[key] = counts.get(key, 0) + 1
        return fn(timeline, time_s, kind, *args, **kwargs)

    return wrapper


def _collect_counters(tracer: Tracer, fn: Callable) -> Callable:
    """Keep each command bus's (possibly shared) counters for read-out."""

    @functools.wraps(fn)
    def wrapper(bus, *args, **kwargs):
        fn(bus, *args, **kwargs)
        tracer.control_counters[id(bus.counters)] = bus.counters

    return wrapper


def _service_tick(tracer: Tracer, fn: Callable) -> Callable:
    """``ServiceCore.tick``: replayed ticks inside a resume get their own span."""

    @functools.wraps(fn)
    def wrapper(core):
        tracer.enter("service.replay_tick" if tracer.replaying else "service.tick")
        try:
            return fn(core)
        finally:
            tracer.exit()

    return wrapper


def _journal_open(tracer: Tracer, fn: Callable) -> Callable:
    """``RunJournal.open``: replaying an existing WAL is ``engine.replay``."""

    @functools.wraps(fn)
    def wrapper(journal):
        tracer.enter("engine.replay" if journal.path.exists() else "engine.open")
        try:
            return fn(journal)
        finally:
            tracer.exit()

    return wrapper


def _session_open(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(session):
        tracer.enter("service.open")
        tracer.replaying = True
        try:
            return fn(session)
        finally:
            tracer.replaying = False
            tracer.exit()

    return wrapper


__all__ = ["Tracer", "Patches", "installed", "callback_span", "SPANS", "CALLBACK_SPANS"]
