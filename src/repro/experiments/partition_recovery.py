"""Partition recovery: naive vs robust actuation over a severed link.

The paper's auto-scaler issues frequency and deploy commands as if the
control network were perfect. This experiment severs it on purpose: a
three-host fleet overclocks for a load spike, and mid-spike a seeded
:class:`~repro.faults.plan.FaultKind.CMD_PARTITION` cuts the link to
``host-1`` — swallowing the down-clock command at spike end *and* a VM
deploy issued during the window. Two controller stacks face the
identical fault schedule:

* **naive** — fire-and-forget actuation: one send per command, no
  retries, no dead-man lease, no reconciliation. The swallowed
  down-clock leaves host-1 overclocked (burning power and lifetime at
  spike-idle load) until the end of the run, and the swallowed deploy
  simply never exists.
* **robust** — the full :mod:`repro.control` stack: bounded retries
  with deterministic jitter, a per-host circuit breaker, the host-side
  dead-man lease (``lease_misses`` missed heartbeats ⇒ autonomous
  revert to base), and the reconciliation loop that re-issues the lost
  deploy once the link heals.

Both runs record the channel's losses, breaker trips, lease expiries,
and repairs into one :class:`~repro.faults.timeline.FaultTimeline`
per variant; the timeline signature is the reproducibility contract
(same seed ⇒ bit-identical signature), which ``make test-control``
pins down across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..control.channel import ChannelConfig
from ..control.link import ActuationLink
from ..control.retry import RetryPolicy
from ..engine.fork import run_pair
from ..faults.injectors import FaultCampaign, register_channel_injectors
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.timeline import FaultEvent
from ..sim.kernel import Simulator
from .tables import key_event_lines, render_table

#: Experiment defaults: a 60 s spike, a partition opening mid-spike and
#: outliving the down-clock command's full retry budget.
DEFAULT_HOSTS = 3
BASE_GHZ = 3.4
OC_GHZ = 4.1
SPIKE_START_S = 60.0
SPIKE_END_S = 120.0
DEPLOY_AT_S = 110.0
PARTITION_AT_S = 100.0
PARTITION_DURATION_S = 80.0
DEFAULT_HORIZON_S = 300.0
HEARTBEAT_INTERVAL_S = 3.0
LEASE_MISSES = 3
RECONCILE_INTERVAL_S = 15.0
PARTITIONED_HOST = "host-1"
DEPLOY_TOKEN = "vm-spike-1"


@dataclass(frozen=True)
class PartitionRunResult:
    """One actuation stack's run under the seeded partition."""

    config: str
    #: When host-1 actually returned to base after the partition began
    #: (lease revert or a late-landing command); None = never.
    host1_revert_at_s: float | None
    #: Seconds host-1 stayed overclocked after the down-clock was issued.
    excess_overclock_s: float
    #: When the spike deploy finally materialized; None = lost forever.
    deploy_landed_at_s: float | None
    lease_reverts: int
    breaker_opens: int
    reconcile_repairs: int
    commands_sent: int
    retries: int
    command_failures: int
    messages_dropped: int
    timeline_signature: str
    timeline: tuple[FaultEvent, ...]


def _overclocked_after(
    transitions: list[tuple[float, float]], start_s: float, horizon_s: float
) -> float:
    """Seconds spent above base in ``[start_s, horizon_s]``."""
    total = 0.0
    for index, (time_s, freq) in enumerate(transitions):
        if freq <= BASE_GHZ + 1e-12:
            continue
        end = (
            transitions[index + 1][0]
            if index + 1 < len(transitions)
            else horizon_s
        )
        overlap = min(end, horizon_s) - max(time_s, start_s)
        if overlap > 0:
            total += overlap
    return total


def run_partition_mode(
    robust: bool,
    seed: int = 1,
    hosts: int = DEFAULT_HOSTS,
    partition_at_s: float = PARTITION_AT_S,
    partition_duration_s: float = PARTITION_DURATION_S,
    horizon_s: float = DEFAULT_HORIZON_S,
) -> PartitionRunResult:
    """One scripted spike + partition run under one actuation stack.

    A pure function of its arguments. The naive and robust variants
    share the seed, the command script, and the fault plan — every
    behavioural difference is attributable to the actuation machinery
    alone.
    """
    simulator = Simulator(seed=seed)
    plan = FaultPlan(
        seed=seed,
        scenario="partition",
        specs=(
            FaultSpec(
                kind=FaultKind.CMD_PARTITION,
                target=PARTITIONED_HOST,
                at_s=partition_at_s,
                duration_s=partition_duration_s,
            ),
        ),
    )
    campaign = FaultCampaign(simulator, plan)

    link = ActuationLink(
        simulator,
        seed=seed,
        channel_config=ChannelConfig(),  # the partition is the only chaos
        retry_policy=None if robust else RetryPolicy(max_attempts=1),
        heartbeat_interval_s=HEARTBEAT_INTERVAL_S,
        lease_misses=LEASE_MISSES if robust else 10**6,
        reconcile_interval_s=RECONCILE_INTERVAL_S if robust else None,
        breaker_threshold=3 if robust else 10**6,
        timeline=campaign.timeline,
        name="robust" if robust else "naive",
    )

    host_ids = tuple(f"host-{index}" for index in range(hosts))
    transitions: dict[str, list[tuple[float, float]]] = {
        host_id: [(0.0, BASE_GHZ)] for host_id in host_ids
    }
    deploys: list[tuple[float, str]] = []

    def make_apply(host_id: str):
        return lambda freq: transitions[host_id].append((simulator.now, freq))

    def make_deploy(host_id: str):
        return lambda token: deploys.append((simulator.now, token))

    for host_id in host_ids:
        link.add_host(
            host_id,
            base_frequency_ghz=BASE_GHZ,
            apply_frequency=make_apply(host_id),
            deploy_vm=make_deploy(host_id),
        )

    register_channel_injectors(
        campaign, {host_id: link.channel for host_id in host_ids}
    )
    campaign.arm()

    # The controller script: overclock for the spike, deploy extra
    # capacity mid-spike, down-clock at spike end. The partition opens
    # at t=100 s, so the deploy (t=110 s) and the down-clock (t=120 s)
    # both fall into the hole.
    simulator.every(HEARTBEAT_INTERVAL_S, link.heartbeat, name="ctl:heartbeat")
    simulator.after(SPIKE_START_S, lambda: link.set_frequency(OC_GHZ))
    simulator.after(
        DEPLOY_AT_S, lambda: link.deploy_vm(DEPLOY_TOKEN, PARTITIONED_HOST)
    )
    simulator.after(SPIKE_END_S, lambda: link.set_frequency(BASE_GHZ))
    simulator.run(until=horizon_s)

    trace = transitions[PARTITIONED_HOST]
    revert_at = next(
        (
            time_s
            for time_s, freq in trace
            if time_s >= partition_at_s and freq <= BASE_GHZ + 1e-12
        ),
        None,
    )
    landed = next(
        (time_s for time_s, token in deploys if token == DEPLOY_TOKEN), None
    )
    return PartitionRunResult(
        config="robust" if robust else "naive",
        host1_revert_at_s=revert_at,
        excess_overclock_s=_overclocked_after(trace, SPIKE_END_S, horizon_s),
        deploy_landed_at_s=landed,
        lease_reverts=link.lease_expiries,
        breaker_opens=link.counters.breaker_opens,
        reconcile_repairs=link.counters.reconcile_repairs,
        commands_sent=link.counters.commands_sent,
        retries=link.counters.retries,
        command_failures=link.counters.failures,
        messages_dropped=link.channel.dropped,
        timeline_signature=campaign.timeline.signature(),
        timeline=campaign.timeline.events,
    )


@dataclass(frozen=True)
class PartitionComparison:
    """Naive vs robust actuation under the same severed link."""

    naive: PartitionRunResult
    robust: PartitionRunResult

    @property
    def lease_bound_s(self) -> float:
        """The dead-man guarantee: a partitioned overclocked host reverts
        within ``lease_misses`` missed heartbeats plus one check tick."""
        return (LEASE_MISSES + 1) * HEARTBEAT_INTERVAL_S


def run_partition_recovery(seed: int = 1, **overrides) -> PartitionComparison:
    """Race both actuation stacks over the identical partition.

    ``overrides`` forwards experiment parameters (``horizon_s``,
    ``partition_duration_s``, ...) to :func:`run_partition_mode`.
    """
    naive, robust = run_pair(
        partial(run_partition_mode, robust=False, seed=seed, **overrides),
        partial(run_partition_mode, robust=True, seed=seed, **overrides),
    )
    return PartitionComparison(naive=naive, robust=robust)


#: Timeline kinds worth showing in full in the CLI rendering (the
#: high-volume cmd-lost / cmd-failed noise is summarized as counts).
_KEY_EVENT_KINDS = (
    "cmd-partition",
    "recovered",
    "lease-expired",
    "breaker-open",
    "reconcile-repair",
)


def format_partition_recovery(
    comparison: PartitionComparison | None = None, seed: int = 1
) -> str:
    comparison = comparison if comparison is not None else run_partition_recovery(seed=seed)

    def fmt_time(value: float | None) -> str:
        return f"t={value:.1f}s" if value is not None else "never"

    rows = [
        (
            run.config,
            fmt_time(run.host1_revert_at_s),
            f"{run.excess_overclock_s:.1f} s",
            fmt_time(run.deploy_landed_at_s),
            str(run.lease_reverts),
            str(run.breaker_opens),
            str(run.reconcile_repairs),
            f"{run.command_failures}/{run.commands_sent}",
        )
        for run in (comparison.naive, comparison.robust)
    ]
    table = render_table(
        [
            "Config",
            "Host-1 revert",
            "Excess OC",
            "Deploy landed",
            "Lease",
            "Brk opens",
            "Repairs",
            "Cmd fail/sent",
        ],
        rows,
        title=(
            f"Partition recovery — link to {PARTITIONED_HOST} severed "
            f"t={PARTITION_AT_S:.0f}..{PARTITION_AT_S + PARTITION_DURATION_S:.0f}s "
            f"(dead-man bound: revert within {comparison.lease_bound_s:.0f}s)"
        ),
    )
    lines = [table, ""]
    for run in (comparison.naive, comparison.robust):
        lines.append(
            f"{run.config} timeline (signature {run.timeline_signature[:16]}…, "
            f"{len(run.timeline)} events, {run.messages_dropped} messages lost):"
        )
        lines.extend(key_event_lines(run.timeline, _KEY_EVENT_KINDS))
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "PartitionRunResult",
    "PartitionComparison",
    "run_partition_mode",
    "run_partition_recovery",
    "format_partition_recovery",
    "BASE_GHZ",
    "OC_GHZ",
    "PARTITION_AT_S",
    "PARTITION_DURATION_S",
    "HEARTBEAT_INTERVAL_S",
    "LEASE_MISSES",
    "PARTITIONED_HOST",
]
