"""Overload storm: a naive fleet vs the full overload-control stack.

The live-service acceptance experiment (``python -m repro overload
--seed N``). Two identical fleets serve the same diurnal request trace
through the M/G/k client-server application while a demand surge
(x :data:`SURGE_FACTOR` for :data:`SURGE_DURATION_S` seconds)
coincides with a thermal excursion (the tank's condenser derated to
:data:`EXCURSION_DERATE` of nominal for
:data:`EXCURSION_DURATION_S` seconds — a heat wave arriving exactly at
the demand peak, the compound case PR 5's heat-wave experiment showed
is where fleets die):

* **naive** — overclock pinned at boot, no admission control, no
  queue bounds, no thermal ladder. The pool heats through the
  excursion, every host rides up to Tjmax and *trips*, destroying all
  in-flight work, then thrash-recovers into the still-elevated load:
  goodput collapses and p99 explodes past any deadline.
* **robust** — the :class:`~repro.service.core.ServiceCore` overload
  stack: token-bucket admission, bounded deadline queues with dispatch
  slack, the CoDel-style delay signal driving the brownout ladder, and
  the thermal emergency ladder (revoke boost → cap power → evacuate →
  shutdown-to-fit) sharing the actuation link. It serves strictly less
  raw volume during the storm — every refusal *accounted*, none
  silent — but never trips, holds the p99 SLO on everything it serves,
  and restores the full fleet afterwards.

Both runs are pure functions of the seed; each publishes its chained
tick signature and fault-timeline signature, so the same seed is
bit-identical across hosts and runs — the same reproducibility
contract as ``partition``/``heatwave``/``oversubscribe``.

Goodput is scored over the **storm window** (op injection until the
excursion clears): a naive fleet can "catch up" on cumulative counts
after the storm by serving the backlog late, which is precisely the
mirage the deadline accounting exists to dispel.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.timeline import FaultEvent
from ..service.core import ServiceConfig, ServiceCore
from .tables import key_event_lines, render_table

#: Ticks served before the storm (warm, diurnally breathing fleet).
WARM_TICKS = 40
#: Demand surge: offered rate multiplier and how long it holds.
SURGE_FACTOR = 2.6
SURGE_DURATION_S = 70.0
#: Thermal excursion: condenser capacity fraction and duration.
EXCURSION_DERATE = 0.3
EXCURSION_DURATION_S = 110.0
#: Ticks simulated after the ops land (covers storm + recovery).
STORM_TICKS = 640
#: The served-latency SLO the robust fleet must hold through the storm.
SLO_P99_S = 0.75


@dataclass(frozen=True)
class StormRunResult:
    """One fleet's trip through the compound demand+thermal storm."""

    mode: str
    offered: int
    completed_ok: int
    completed_late: int
    lost_to_trips: int
    shed_expired: int
    shed_overflow: int
    shed_low_priority: int
    rejected_throttled: int
    rejected_brownout: int
    degraded_served: int
    #: Requests completed on time inside the storm window.
    storm_goodput: int
    #: Worst on-time completion rate over any 10 s window inside the
    #: storm (requests/s). A fleet-wide trip drives this to ~zero — the
    #: goodput collapse cumulative counts hide.
    worst_window_goodput_rps: float
    #: p99 of latencies *completed* inside the storm window (None when
    #: nothing completed there — total collapse).
    storm_p99_s: float | None
    overall_p99_s: float | None
    queue_max_depth: int
    queue_capacity: int
    max_brownout_stage: int
    max_emergency_stage: int
    host_trips: int
    live_hosts_final: int
    boost_grants: int
    boost_revokes: int
    #: offered − (every terminal accounting bucket + still-in-system).
    #: Zero means no request went missing silently.
    unaccounted: int
    chain_signature: str
    timeline_signature: str
    timeline: tuple[FaultEvent, ...]


def run_storm_mode(
    mode: str,
    seed: int = 1,
    warm_ticks: int = WARM_TICKS,
    storm_ticks: int = STORM_TICKS,
) -> StormRunResult:
    """One fleet through the storm — a pure function of its arguments."""
    # Latencies of every tick stay in the window, so the storm window's
    # and the whole run's statistics are exact.
    cfg = ServiceConfig(history_ticks=warm_ticks + storm_ticks)
    core = ServiceCore(seed=seed, config=cfg, mode=mode)
    max_brownout = 0
    max_emergency = 0

    def observe_stages() -> None:
        nonlocal max_brownout, max_emergency
        max_brownout = max(max_brownout, int(core.brownout_stage))
        max_emergency = max(max_emergency, int(core.emergency_stage))

    for _ in range(warm_ticks):
        core.tick()
        observe_stages()

    window_start_ok = core.counters.completed_ok
    window_start_samples = len(core.latency)
    core.apply_op(
        {"op": "demand-surge", "factor": SURGE_FACTOR, "duration_s": SURGE_DURATION_S}
    )
    core.apply_op(
        {
            "op": "thermal-excursion",
            "derate": EXCURSION_DERATE,
            "duration_s": EXCURSION_DURATION_S,
        }
    )
    window_end_s = core.now + EXCURSION_DURATION_S
    storm_goodput = 0
    storm_samples_end = window_start_samples
    in_window = True
    ok_trace: list[tuple[float, int]] = [(core.now, core.counters.completed_ok)]
    for _ in range(storm_ticks):
        core.tick()
        observe_stages()
        if in_window:
            ok_trace.append((core.now, core.counters.completed_ok))
        if in_window and core.now >= window_end_s:
            storm_goodput = core.counters.completed_ok - window_start_ok
            storm_samples_end = len(core.latency)
            in_window = False
    if in_window:
        storm_goodput = core.counters.completed_ok - window_start_ok
        storm_samples_end = len(core.latency)

    # Worst 10 s on-time completion rate anywhere inside the storm.
    span_ticks = max(1, round(10.0 / cfg.tick_s))
    worst_rate = float("inf")
    for index in range(len(ok_trace) - span_ticks):
        t0, ok0 = ok_trace[index]
        t1, ok1 = ok_trace[index + span_ticks]
        worst_rate = min(worst_rate, (ok1 - ok0) / (t1 - t0))
    if worst_rate == float("inf"):
        worst_rate = 0.0

    snapshot = core.snapshot()
    counters = core.counters
    in_system = core.queue_depth + core.in_flight
    accounted = (
        counters.completed_ok
        + counters.completed_late
        + counters.lost_to_trips
        + counters.shed_expired
        + counters.shed_overflow
        + counters.shed_low_priority
        + counters.rejected_throttled
        + counters.rejected_brownout
        + in_system
    )
    return StormRunResult(
        mode=mode,
        offered=counters.offered,
        completed_ok=counters.completed_ok,
        completed_late=counters.completed_late,
        lost_to_trips=counters.lost_to_trips,
        shed_expired=counters.shed_expired,
        shed_overflow=counters.shed_overflow,
        shed_low_priority=counters.shed_low_priority,
        rejected_throttled=counters.rejected_throttled,
        rejected_brownout=counters.rejected_brownout,
        degraded_served=counters.degraded_served,
        storm_goodput=storm_goodput,
        worst_window_goodput_rps=worst_rate,
        storm_p99_s=(
            core.latency.percentile(99.0, window_start_samples, storm_samples_end)
            if storm_samples_end > window_start_samples
            else None
        ),
        overall_p99_s=(core.latency.p99() if len(core.latency) else None),
        queue_max_depth=snapshot["queue_max_depth"],
        queue_capacity=cfg.queue_capacity,
        max_brownout_stage=max_brownout,
        max_emergency_stage=max_emergency,
        host_trips=sum(
            1 for event in core.timeline if event.kind == "host-failure"
        ),
        live_hosts_final=snapshot["live_hosts"],
        boost_grants=counters.boost_grants,
        boost_revokes=counters.boost_revokes,
        unaccounted=counters.offered - accounted,
        chain_signature=core.signature,
        timeline_signature=core.timeline.signature(),
        timeline=core.timeline.events,
    )


@dataclass(frozen=True)
class StormComparison:
    """Naive vs robust fleet under the identical storm."""

    seed: int
    naive: StormRunResult
    robust: StormRunResult


def run_overload_storm(seed: int = 1, **overrides) -> StormComparison:
    """Race both fleets through the identical demand+thermal storm."""
    return StormComparison(
        seed=seed,
        naive=run_storm_mode(mode="naive", seed=seed, **overrides),
        robust=run_storm_mode(mode="robust", seed=seed, **overrides),
    )


#: Timeline kinds worth rendering in full.
_KEY_EVENT_KINDS = (
    "op-demand-surge",
    "thermal-excursion",
    "host-failure",
    "recovered",
    "brownout-escalate",
    "brownout-relax",
    "emergency-escalate",
    "emergency-relax",
)


def _fmt_p99(value: float | None) -> str:
    return f"{value:.3f}s" if value is not None else "—"


def format_overload_storm(comparison: StormComparison | None = None, seed: int = 1) -> str:
    comparison = comparison if comparison is not None else run_overload_storm(seed=seed)
    rows = []
    for run in (comparison.naive, comparison.robust):
        shed = run.shed_expired + run.shed_overflow + run.shed_low_priority
        rows.append(
            (
                run.mode,
                f"{run.offered}",
                f"{run.completed_ok}",
                f"{run.storm_goodput}",
                f"{run.worst_window_goodput_rps:.1f}",
                _fmt_p99(run.storm_p99_s),
                f"{run.completed_late}",
                f"{run.lost_to_trips}",
                f"{shed}/{run.rejected_throttled}/{run.rejected_brownout}",
                f"{run.queue_max_depth}/{run.queue_capacity}",
                f"{run.host_trips}",
                f"{run.unaccounted}",
            )
        )
    table = render_table(
        [
            "Mode",
            "Offered",
            "Ok",
            "Storm goodput",
            "Worst 10s rps",
            "Storm p99",
            "Late",
            "Lost",
            "Shed/thr/gate",
            "Queue max",
            "Trips",
            "Unacct",
        ],
        rows,
        title=(
            f"Overload storm (seed {comparison.seed}) — demand ×{SURGE_FACTOR} "
            f"for {SURGE_DURATION_S:.0f}s + condenser at "
            f"{EXCURSION_DERATE:.0%} for {EXCURSION_DURATION_S:.0f}s; "
            f"SLO p99 ≤ {SLO_P99_S:.2f}s on served traffic"
        ),
    )
    lines = [table, ""]
    for run in (comparison.naive, comparison.robust):
        lines.append(
            f"{run.mode}: chain {run.chain_signature[:16]}…, timeline "
            f"{run.timeline_signature[:16]}… ({len(run.timeline)} events), "
            f"max brownout stage {run.max_brownout_stage}, "
            f"max emergency stage {run.max_emergency_stage}, "
            f"{run.live_hosts_final} live hosts at end"
        )
        lines.extend(key_event_lines(run.timeline, _KEY_EVENT_KINDS))
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "StormRunResult",
    "StormComparison",
    "run_storm_mode",
    "run_overload_storm",
    "format_overload_storm",
    "WARM_TICKS",
    "STORM_TICKS",
    "SURGE_FACTOR",
    "SURGE_DURATION_S",
    "EXCURSION_DERATE",
    "EXCURSION_DURATION_S",
    "SLO_P99_S",
]
