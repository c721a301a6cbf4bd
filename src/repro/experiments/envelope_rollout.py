"""Envelope rollout: big-bang config push vs the canary rollout.

The paper's +23% envelope was characterized once, on one population.
Re-characterizing (new firmware, new coolant, new SKU batch) produces a
*changed* envelope — and shipping that change is a config push, the
dominant outage class in production fleets. This experiment injects a
``bad-envelope`` fault: a re-characterization that publishes +30% when
the silicon actually sustains +24–29% (every host's true margin sits
*below* the new envelope, some far below). Two arms ship it through
identical seeded physics:

* **naive** — big-bang: every host gets the new envelope the moment
  the change lands, power emergency or not. Hosts whose margin is
  ≥4% under the push crash outright and reboot-loop at the same bad
  envelope; hosts 2–4% under sit silently in the SDC band and leak
  corruptions for the rest of the horizon.
* **canary** — the :mod:`repro.rollout` pipeline. The change arrives
  during a power-ladder emergency, so the rollout **freezes** before
  pushing anything (visible in ``RolloutCounters``); once the ladder
  re-arms, wave 0 pushes the seeded canaries only, the
  :class:`~repro.rollout.analyzer.CanaryAnalyzer` sees the canary
  cohort's CE rate scream past the control cohort (and any canary
  crash), and the guard ladder rolls the change back — blast radius
  bounded by the plan's wave-0 budget, zero silent corruptions (the
  SDC band needs sustained exposure the canary never accumulates).

The canary arm journals every controller tick (plus the world state)
to a :class:`~repro.engine.journal.RunJournal`; the SIGKILL chaos test
kills it mid-rollout and asserts the resumed run's signature is
bit-identical to an uninterrupted one. Both arms' run signatures
(SHA-256 over the fault timeline, the ground-truth tallies, every
host's final envelope, and the rollout counters) are bit-identical per
seed.

The world here advances through an explicit tick loop with *stateless*
seeded draws per ``(seed, tick, host)`` — not a
:class:`~repro.sim.kernel.Simulator` event queue — precisely so the
whole world state fits in the per-tick journal snapshot and a killed
run can resume bit-identically. The real injector/campaign path for
the rollout fault kinds is exercised by ``tests/test_rollout.py`` and
the ``envelope-rollout`` scenario.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, fields
from pathlib import Path

from ..engine.journal import RunJournal
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.timeline import FaultEvent, FaultTimeline
from ..power.ladder import PowerEmergencyCoordinator, PowerEmergencyStage
from ..power.tree import build_uniform_hierarchy
from ..rollout.analyzer import CanaryAnalyzer, CanaryPolicy
from ..rollout.controller import (
    PHASE_ROLLED_BACK,
    CallbackEnvelopeActuator,
    HostSignals,
    RolloutController,
)
from ..rollout.plan import EnvelopeChange, RolloutPlan, RolloutPlanConfig
from ..sim.random import split_seed
from ..telemetry.counters import PowerEmergencyCounters, RolloutCounters
from .tables import key_event_lines, render_table

#: The fleet: one UPS, two rows of two six-host racks (24 hosts).
HOSTS_PER_RACK = 6
RACKS_PER_ROW = 2
ROWS = 2
FLEET_SIZE = HOSTS_PER_RACK * RACKS_PER_ROW * ROWS

#: The envelope every host runs before the change (paper +23%).
OLD_RATIO = 1.23

#: How far the mischaracterized envelope overshoots (to +30%).
BAD_MAGNITUDE = 0.07

#: One analysis window / controller tick, simulated hours.
WINDOW_HOURS = 8.0

#: Simulated horizon, in windows (10 days).
DEFAULT_HORIZON_TICKS = 30

#: The change lands at this tick — during the power emergency below.
CHANGE_AT_TICK = 2

#: True per-host stable margins are drawn uniformly from this band:
#: every host is *below* the pushed +30% envelope (the whole point of
#: the fault), some far enough below to crash outright.
MARGIN_LOW = 1.24
MARGIN_HIGH = 1.29

#: Excess ratio past a host's true margin that crashes it within the
#: window (deterministic: margins ≤ 1.26 die instantly at +30%).
CRASH_EXCESS = 0.04

#: Excess ratio past the margin where the silent-corruption band opens.
SDC_BAND = 0.02

#: Consecutive exposed windows before the SDC band starts leaking —
#: silent corruption needs *sustained* operation in the band, which is
#: exactly what a canary that rolls back within a window or two never
#: accumulates and a big-bang push accumulates fleet-wide.
SDC_ONSET_TICKS = 3

#: Correctable-error rate model: background when at/under the margin,
#: plus a steep per-excess ramp above it (errors/hour per host).
BACKGROUND_CE_PER_HOUR = 0.0127
CE_PER_HOUR_PER_PERCENT_EXCESS = 4.0

#: Power-ladder headroom profile: nominal, with a dip that engages the
#: cap rung exactly when the change lands (ticks 1–2), so the canary
#: arm demonstrably freezes before pushing anything.
HEADROOM_NOMINAL = 0.20
HEADROOM_DIP = 0.10
DIP_TICKS = (1, 2)

#: Timeline kinds recorded by the experiment's ground-truth accounting.
ENVELOPE_PUSH = "envelope-push"
UNGRACEFUL_CRASH = "ungraceful-crash"
SDC_ESCAPE = "sdc-escape"


def fleet_hierarchy():
    """The experiment's delivery tree (shared by plan and rollup)."""
    return build_uniform_hierarchy(
        hosts_per_rack=HOSTS_PER_RACK,
        racks_per_row=RACKS_PER_ROW,
        rows_per_ups=ROWS,
    )


def envelope_change() -> EnvelopeChange:
    return EnvelopeChange(
        change_id="envelope-recharacterization",
        from_ratio=OLD_RATIO,
        to_ratio=OLD_RATIO + BAD_MAGNITUDE,
    )


def host_margins(seed: int, hosts) -> dict[str, float]:
    """Each host's true stable margin (pure function of the seed)."""
    return {
        host: random.Random(split_seed(seed, f"rollout:margin:{host}")).uniform(
            MARGIN_LOW, MARGIN_HIGH
        )
        for host in hosts
    }


def _fault_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        scenario="envelope-rollout",
        specs=(
            FaultSpec(
                kind=FaultKind.BAD_ENVELOPE,
                target="fleet",
                at_s=CHANGE_AT_TICK * WINDOW_HOURS,
                magnitude=BAD_MAGNITUDE,
            ),
        ),
    )


def _sample_count(rng: random.Random, lam: float) -> int:
    """Seeded Poisson (Knuth for small λ, normal approx for large)."""
    if lam <= 0.0:
        return 0
    if lam > 30.0:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    threshold = math.exp(-lam)
    count, product = 0, 1.0
    while True:
        product *= rng.random()
        if product <= threshold:
            return count
        count += 1


@dataclass(frozen=True)
class RolloutRunResult:
    """One arm's run through the bad-envelope campaign."""

    config: str
    fleet_size: int
    #: Hosts ever exposed to the bad envelope (the realized blast).
    exposed_hosts: tuple[str, ...]
    ce_errors: int
    crashes: int
    hosts_crashed: int
    #: Ground-truth silent corruptions leaked over the horizon.
    sdc_leaked: int
    crashed_host_hours: float
    #: Rollout phase at the horizon ("big-bang" for the naive arm).
    final_phase: str
    rolled_back: bool
    counters: RolloutCounters
    horizon_ticks: int
    final_ratios: tuple[tuple[str, float], ...]
    timeline_signature: str
    #: SHA-256 over the timeline, tallies, final ratios, phase, and
    #: rollout counters — the per-seed reproducibility pin.
    run_signature: str
    timeline: tuple[FaultEvent, ...]
    #: Controller ticks replayed from the journal (0 = fresh run).
    resumed_from_tick: int = 0

    @property
    def exposed_fraction(self) -> float:
        return len(self.exposed_hosts) / self.fleet_size

    @property
    def crashed_fraction(self) -> float:
        return self.hosts_crashed / self.fleet_size


def _restore_power(power: PowerEmergencyCoordinator, state: dict) -> None:
    power.stage = PowerEmergencyStage(state["stage"])
    power._clean_streak = int(state["clean_streak"])
    for name, value in state["counters"].items():
        setattr(power.counters, name, value)


def _snapshot_power(power: PowerEmergencyCoordinator) -> dict:
    return {
        "stage": int(power.stage),
        "clean_streak": power._clean_streak,
        "counters": {
            f.name: getattr(power.counters, f.name)
            for f in fields(power.counters)
        },
    }


def run_rollout_mode(
    canary: bool,
    seed: int = 1,
    horizon_ticks: int = DEFAULT_HORIZON_TICKS,
    journal_path: str | Path | None = None,
    run_id: str = "envelope-rollout",
    tick_delay_s: float = 0.0,
) -> RolloutRunResult:
    """One arm's run (a pure function of its arguments).

    Both arms share the seed, the per-host margins, the window-by-window
    error draws, and the power-ladder emergency — every behavioural
    difference is attributable to the rollout machinery alone.

    With ``journal_path`` set (canary arm only), every controller tick
    appends a full controller+world snapshot to a
    :class:`~repro.engine.journal.RunJournal`; re-invoking with the same
    path resumes from the last durable tick, bit-identically.
    ``tick_delay_s`` wall-clock-paces the loop so the SIGKILL chaos
    helper can reliably die mid-rollout; it never affects results.
    """
    hierarchy = fleet_hierarchy()
    hosts = hierarchy.hosts
    margins = host_margins(seed, hosts)
    change = envelope_change()
    plan = RolloutPlan.from_hierarchy(
        hierarchy, change, config=RolloutPlanConfig(), seed=seed
    )
    fault_plan = _fault_plan(seed)
    bad_spec = fault_plan.specs[0]

    timeline = FaultTimeline()
    power = PowerEmergencyCoordinator(
        timeline=timeline, counters=PowerEmergencyCounters()
    )
    power.register(
        PowerEmergencyStage.CAP_LOW_PRIORITY, lambda: "low-priority caps advised"
    )
    power.register(
        PowerEmergencyStage.REVOKE_OVERCLOCK, lambda: "overclock revoke advised"
    )
    power.register(PowerEmergencyStage.SHED_LOAD, lambda: "load shed advised")
    power.register(PowerEmergencyStage.ISOLATE, lambda: "isolation advised")

    ratios = {host: OLD_RATIO for host in hosts}
    exposure = {host: 0 for host in hosts}
    crashed_ever: set[str] = set()
    tallies = {"ce_errors": 0, "crashes": 0, "sdc_leaked": 0}
    host_hours = {"crashed": 0.0}
    world_tick = {"value": -1}

    controller: RolloutController | None = None
    journal: RunJournal | None = None
    start_tick = 0
    resumed_from = 0
    if canary:
        actuator = CallbackEnvelopeActuator(
            lambda host, ratio: ratios.__setitem__(host, ratio)
        )

        def extra_snapshot() -> dict:
            return {
                "tick": world_tick["value"],
                "ratios": dict(ratios),
                "exposure": dict(exposure),
                "crashed_ever": sorted(crashed_ever),
                "tallies": dict(tallies),
                "crashed_host_hours": host_hours["crashed"],
                "power": _snapshot_power(power),
                "timeline": tuple(
                    (e.time_s, e.kind, e.target, e.detail) for e in timeline.events
                ),
            }

        if journal_path is not None:
            journal = RunJournal(journal_path, run_id)
            journal.open()
        controller = RolloutController(
            plan,
            actuator,
            analyzer=CanaryAnalyzer(CanaryPolicy(window_hours=WINDOW_HOURS)),
            counters=RolloutCounters(),
            timeline=timeline,
            power=power,
            journal=journal,
            run_id=run_id,
            extra_snapshot=extra_snapshot,
        )
        if journal is not None:
            resumed_from, extra = controller.resume()
            if extra is not None:
                ratios.clear()
                ratios.update(extra["ratios"])
                exposure.clear()
                exposure.update(extra["exposure"])
                crashed_ever.clear()
                crashed_ever.update(extra["crashed_ever"])
                tallies.update(extra["tallies"])
                host_hours["crashed"] = extra["crashed_host_hours"]
                _restore_power(power, extra["power"])
                for time_s, kind, target, detail in extra["timeline"]:
                    timeline.record(time_s, kind, target, detail)
                start_tick = int(extra["tick"]) + 1

    try:
        for tick in range(start_tick, horizon_ticks):
            world_tick["value"] = tick
            now = tick * WINDOW_HOURS
            if tick_delay_s > 0.0:
                time.sleep(tick_delay_s)

            # 1. The window that just elapsed: seeded, stateless draws
            # per (seed, tick, host) over each host's *current* ratio.
            signals: dict[str, HostSignals] = {}
            for host in hosts:
                excess = ratios[host] - margins[host]
                rng = random.Random(
                    split_seed(seed, f"rollout:window:{tick}:{host}")
                )
                if excess >= CRASH_EXCESS:
                    tallies["crashes"] += 1
                    crashed_ever.add(host)
                    host_hours["crashed"] += WINDOW_HOURS
                    timeline.record(
                        now,
                        UNGRACEFUL_CRASH,
                        host,
                        f"envelope {ratios[host]:.3f} over margin "
                        f"{margins[host]:.3f}",
                    )
                    # The host reboots at the same envelope and spends
                    # the window crash-looping: no useful work, no CEs.
                    signals[host] = HostSignals(
                        crashes=1, guard_limited=True, p99_s=1.0, goodput=0.0
                    )
                    exposure[host] = 0
                    continue
                if excess > 0.0:
                    rate = BACKGROUND_CE_PER_HOUR + (
                        CE_PER_HOUR_PER_PERCENT_EXCESS * excess / 0.01
                    )
                else:
                    rate = BACKGROUND_CE_PER_HOUR
                ce = _sample_count(rng, rate * WINDOW_HOURS)
                tallies["ce_errors"] += ce
                if excess >= SDC_BAND:
                    exposure[host] += 1
                    if exposure[host] >= SDC_ONSET_TICKS:
                        tallies["sdc_leaked"] += 1
                        timeline.record(
                            now,
                            SDC_ESCAPE,
                            host,
                            f"window {exposure[host]} in the band",
                        )
                else:
                    exposure[host] = 0
                signals[host] = HostSignals(
                    ce_errors=float(ce), p99_s=0.25, goodput=100.0
                )

            # 2. The power ladder sees this window's worst headroom.
            headroom = HEADROOM_DIP if tick in DIP_TICKS else HEADROOM_NOMINAL
            power.observe(now, headroom)

            # 3. The change lands.
            if tick == CHANGE_AT_TICK:
                timeline.record(
                    now,
                    bad_spec.kind.value,
                    bad_spec.target,
                    f"+{bad_spec.magnitude:g} over the stable envelope",
                )
                if not canary:
                    for host in hosts:
                        ratios[host] = change.to_ratio
                    timeline.record(
                        now,
                        ENVELOPE_PUSH,
                        "fleet",
                        f"big-bang: {len(hosts)} host(s) -> "
                        f"{change.to_ratio:.3f}",
                    )

            # 4. The rollout controller runs from the change onward.
            if canary and tick >= CHANGE_AT_TICK:
                assert controller is not None
                controller.tick(now, signals)
    finally:
        if journal is not None:
            journal.close()

    counters = (
        controller.counters if controller is not None else RolloutCounters()
    )
    exposed = (
        controller.exposed_hosts
        if controller is not None
        else tuple(hosts)
    )
    final_phase = controller.phase if controller is not None else "big-bang"
    final_ratios = tuple((host, ratios[host]) for host in hosts)

    blob = "\n".join(
        [
            timeline.signature(),
            "|".join(f"{key}={tallies[key]}" for key in sorted(tallies)),
            "|".join(f"{host}:{ratio:.6f}" for host, ratio in final_ratios),
            final_phase,
            "|".join(
                f"{f.name}={getattr(counters, f.name)}" for f in fields(counters)
            ),
        ]
    )
    run_signature = hashlib.sha256(blob.encode()).hexdigest()

    return RolloutRunResult(
        config="canary" if canary else "naive",
        fleet_size=len(hosts),
        exposed_hosts=exposed,
        ce_errors=tallies["ce_errors"],
        crashes=tallies["crashes"],
        hosts_crashed=len(crashed_ever),
        sdc_leaked=tallies["sdc_leaked"],
        crashed_host_hours=host_hours["crashed"],
        final_phase=final_phase,
        rolled_back=final_phase == PHASE_ROLLED_BACK,
        counters=counters,
        horizon_ticks=horizon_ticks,
        final_ratios=final_ratios,
        timeline_signature=timeline.signature(),
        run_signature=run_signature,
        timeline=timeline.events,
        resumed_from_tick=resumed_from,
    )


@dataclass(frozen=True)
class RolloutComparison:
    """Naive big-bang vs canary rollout of the same bad envelope."""

    naive: RolloutRunResult
    canary: RolloutRunResult


def run_envelope_rollout(seed: int = 1, **overrides) -> RolloutComparison:
    """Race both arms through the identical bad-envelope campaign.

    ``overrides`` forwards experiment parameters (``horizon_ticks``)
    to :func:`run_rollout_mode`.
    """
    return RolloutComparison(
        naive=run_rollout_mode(canary=False, seed=seed, **overrides),
        canary=run_rollout_mode(canary=True, seed=seed, **overrides),
    )


#: Timeline kinds worth showing in full in the CLI rendering.
_KEY_EVENT_KINDS = (
    FaultKind.BAD_ENVELOPE.value,
    ENVELOPE_PUSH,
    "rollout-wave",
    "rollout-freeze",
    "rollout-unfreeze",
    "rollout-escalate",
    "rollout-relax",
    "rollout-stalled",
    "rollout-complete",
    "power-escalate",
    "power-relax",
)

#: Kinds summarized as counts (the naive arm's crash/SDC loops would
#: drown the change-management story).
_BULK_EVENT_KINDS = (UNGRACEFUL_CRASH, SDC_ESCAPE)


def format_envelope_rollout(
    comparison: RolloutComparison | None = None, seed: int = 1
) -> str:
    comparison = comparison if comparison is not None else run_envelope_rollout(seed=seed)
    rows = [
        (
            run.config,
            f"{len(run.exposed_hosts)}/{run.fleet_size}"
            f" ({run.exposed_fraction:.0%})",
            str(run.ce_errors),
            str(run.crashes),
            str(run.hosts_crashed),
            str(run.sdc_leaked),
            str(run.counters.frozen_ticks),
            str(run.counters.rollbacks),
            run.final_phase,
            run.run_signature[:12],
        )
        for run in (comparison.naive, comparison.canary)
    ]
    table = render_table(
        [
            "Config",
            "Exposed",
            "CE errs",
            "Crashes",
            "Hosts lost",
            "SDC leaked",
            "Frozen",
            "Rollbacks",
            "Final phase",
            "Run sig",
        ],
        rows,
        title=(
            f"Envelope rollout — {FLEET_SIZE} hosts, "
            f"{OLD_RATIO:.2f} -> {OLD_RATIO + BAD_MAGNITUDE:.2f} published "
            f"over true margins {MARGIN_LOW:.2f}–{MARGIN_HIGH:.2f}; change "
            f"lands at t={CHANGE_AT_TICK * WINDOW_HOURS:.0f}h during a "
            "power-ladder emergency"
        ),
    )
    lines = [table, ""]
    for run in (comparison.naive, comparison.canary):
        lines.append(
            f"{run.config} timeline (signature {run.timeline_signature[:16]}…, "
            f"{len(run.timeline)} events):"
        )
        lines.extend(key_event_lines(run.timeline, _KEY_EVENT_KINDS, _BULK_EVENT_KINDS))
        if run.config == "canary":
            lines.append(f"  counters: {run.counters.describe()}")
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "RolloutRunResult",
    "RolloutComparison",
    "run_rollout_mode",
    "run_envelope_rollout",
    "format_envelope_rollout",
    "fleet_hierarchy",
    "envelope_change",
    "host_margins",
    "FLEET_SIZE",
    "OLD_RATIO",
    "BAD_MAGNITUDE",
    "WINDOW_HOURS",
    "DEFAULT_HORIZON_TICKS",
    "CHANGE_AT_TICK",
    "CRASH_EXCESS",
    "SDC_BAND",
    "SDC_ONSET_TICKS",
    "ENVELOPE_PUSH",
    "UNGRACEFUL_CRASH",
    "SDC_ESCAPE",
]
