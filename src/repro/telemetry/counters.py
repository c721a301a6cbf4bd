"""Simulated hardware performance counters.

The paper's auto-scaler consumes two per-core, architecture-independent
counters (Section VI-D, citing Mubeen's workload frequency scaling law):

* ``Aperf`` — cycles in which the core is active and running;
* ``Pperf`` — like ``Aperf`` but excluding cycles in which the active
  core is stalled on some dependency (e.g. a memory access).

The ratio ``ΔPperf/ΔAperf`` over an observation window is therefore the
*scalable fraction* of the workload: the share of active cycles that
speed up when the clock speeds up. Each simulated
:class:`~repro.workloads.queueing.ServerVM` integrates both counters
itself as it serves requests and reports them as a
:class:`CounterSnapshot`; two snapshots give a :class:`CounterDelta`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import WorkloadError


@dataclass
class CounterSnapshot:
    """A point-in-time reading of one core's counters."""

    time: float
    aperf: float
    pperf: float
    busy_seconds: float

    def delta(self, earlier: "CounterSnapshot") -> "CounterDelta":
        """Counter movement between ``earlier`` and this snapshot."""
        if earlier.time > self.time:
            raise WorkloadError("snapshots supplied in the wrong order")
        return CounterDelta(
            interval=self.time - earlier.time,
            aperf=self.aperf - earlier.aperf,
            pperf=self.pperf - earlier.pperf,
            busy_seconds=self.busy_seconds - earlier.busy_seconds,
        )


@dataclass(frozen=True)
class CounterDelta:
    """Counter movement over an observation window."""

    interval: float
    aperf: float
    pperf: float
    busy_seconds: float

    @property
    def scalable_fraction(self) -> float:
        """``ΔPperf/ΔAperf`` — the frequency-scalable share of active cycles.

        Returns 1.0 for an idle window (no active cycles): with no
        evidence of stalls, the conservative assumption for the
        auto-scaler is that work would scale with frequency.
        """
        if self.aperf <= 0:
            return 1.0
        return min(1.0, max(0.0, self.pperf / self.aperf))

    @property
    def utilization(self) -> float:
        """Busy fraction of the window (0..1)."""
        if self.interval <= 0:
            return 0.0
        return min(1.0, max(0.0, self.busy_seconds / self.interval))


class _CounterSet:
    """Field-wise ``merge``/``describe`` shared by the counter dataclasses.

    Subclasses are dataclasses of integer counters; the base adds no
    field, so their field lists (which feed run signatures) are theirs.
    """

    #: What :meth:`describe` prints when every counter is zero.
    _idle = "(no activity)"

    def merge(self, other: "_CounterSet") -> None:
        """Fold another counter set into this one (field-wise sum)."""
        for spec in fields(self):
            setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))

    def describe(self) -> str:
        """One-line human-readable summary of the non-zero counters."""
        parts = [
            f"{spec.name.replace('_', '-')}={getattr(self, spec.name)}"
            for spec in fields(self)
            if getattr(self, spec.name)
        ]
        return ", ".join(parts) or self._idle


@dataclass
class ControlPlaneCounters(_CounterSet):
    """Actuation-path health counters (the command bus's vital signs).

    One instance is shared by a :class:`~repro.control.bus.CommandBus`,
    its :class:`~repro.control.bus.HostAgent` endpoints, and the
    :class:`~repro.control.reconcile.Reconciler`, so a single object
    answers "how unreliable was actuation this run" — the control-plane
    analogue of the Aperf/Pperf counters above.
    """

    #: Logical commands issued by the controller (retries not included).
    commands_sent: int = 0
    #: Physical send attempts (first sends + retries).
    attempts: int = 0
    #: Acks that made it back to the controller.
    acks: int = 0
    #: Re-sends after an ack timeout or a breaker fast-fail.
    retries: int = 0
    #: Attempts whose ack never arrived within the timeout.
    timeouts: int = 0
    #: Commands that exhausted every attempt without an ack.
    failures: int = 0
    #: Sends rejected locally because the host's breaker was open.
    breaker_fast_fails: int = 0
    #: Breaker trips (closed/half-open → open) across all hosts.
    breaker_opens: int = 0
    #: Duplicate deliveries absorbed by host-side idempotency keys.
    dedup_hits: int = 0
    #: Deliveries rejected as stale (superseded by a newer sequence).
    stale_rejects: int = 0
    #: Hosts that reverted to base frequency on a missed-heartbeat lease.
    lease_expiries: int = 0
    #: Drift repairs issued by the reconciliation loop.
    reconcile_repairs: int = 0
    #: Hosts whose repairs a persistently-open breaker starved for
    #: ``starvation_threshold`` consecutive reconcile ticks.
    reconcile_starved: int = 0
    #: Emergency-priority attempts that went out past an open breaker.
    emergency_bypasses: int = 0

    _idle = "(no control-plane activity)"


@dataclass
class EmergencyCounters(_CounterSet):
    """Degradation-ladder health counters (the emergency path's story).

    One instance is owned by an
    :class:`~repro.emergency.EmergencyCoordinator`; read together with
    :class:`ControlPlaneCounters` it answers "how bad did the facility
    event get, and what did riding it out cost".
    """

    #: Ladder steps taken toward SHUTDOWN (one per stage crossed).
    escalations: int = 0
    #: Ladder steps walked back toward NORMAL as headroom returned.
    relaxations: int = 0
    #: Stage-1 engagements: fleet-wide overclock revokes issued.
    overclock_revokes: int = 0
    #: Stage-2 engagements: fleet-wide power caps applied.
    power_caps: int = 0
    #: Stage-3 engagements: VM evacuations off the hottest hosts.
    evacuations: int = 0
    #: Stage-4 engagements: controlled host shutdowns before Tjmax.
    shutdowns: int = 0
    #: Coordinator ticks spent above NORMAL (any stage engaged).
    emergency_ticks: int = 0
    #: Full recoveries: the ladder walked all the way back to NORMAL.
    rearms: int = 0

    _idle = "(no emergency activity)"


@dataclass
class PowerEmergencyCounters(_CounterSet):
    """Power-delivery ladder health counters (the oversubscription story).

    One instance is owned by a
    :class:`~repro.power.ladder.PowerEmergencyCoordinator`; read together
    with :class:`EmergencyCounters` it answers "how close did the fleet
    come to tripping a breaker, and what did staying under the limit
    cost".
    """

    #: Ladder steps taken toward ISOLATE (one per stage crossed).
    escalations: int = 0
    #: Ladder steps walked back toward NORMAL as headroom returned.
    relaxations: int = 0
    #: Stage-1 engagements: low-priority hosts power-capped.
    low_priority_caps: int = 0
    #: Stage-2 engagements: fleet-wide overclock revokes issued.
    overclock_revokes: int = 0
    #: Stage-3 engagements: load sheds (lowest-priority VMs suspended).
    load_sheds: int = 0
    #: Stage-4 engagements: subtree isolations (controlled power-off).
    isolations: int = 0
    #: Coordinator ticks spent above NORMAL (any stage engaged).
    emergency_ticks: int = 0
    #: Full recoveries: the ladder walked all the way back to NORMAL.
    rearms: int = 0
    #: VM admissions denied by the budget arbiter for want of headroom.
    admissions_denied: int = 0
    #: Overclock grants denied by the budget arbiter.
    overclocks_denied: int = 0

    _idle = "(no power-emergency activity)"


@dataclass
class ServiceCounters(_CounterSet):
    """Overload-control health counters (the live service's story).

    One instance is owned by a
    :class:`~repro.service.core.ServiceCore`; it accounts for every
    offered request exactly once — admitted work ends up completed
    (on time or late) or shed (with a cause), refused work is split by
    refusal reason — so goodput arithmetic always balances.
    """

    #: Requests offered by the arrival trace (pre-admission).
    offered: int = 0
    #: Requests admitted past the token buckets.
    admitted: int = 0
    #: Refused: the class's token bucket was empty.
    rejected_throttled: int = 0
    #: Refused: the brownout ladder's admission gate (REJECT rung).
    rejected_brownout: int = 0
    #: Queued low-priority work dropped by the SHED_LOW_PRIORITY rung.
    shed_low_priority: int = 0
    #: Queued work dropped because its deadline passed before dispatch.
    shed_expired: int = 0
    #: Arrivals refused because the bounded queue was full.
    shed_overflow: int = 0
    #: Requests served as cheaper degraded responses (DEGRADED rung).
    degraded_served: int = 0
    #: Requests completed within their deadline (the goodput numerator).
    completed_ok: int = 0
    #: Requests completed after their deadline (served, but wasted).
    completed_late: int = 0
    #: In-flight work destroyed by a host trip (naive fleets only).
    lost_to_trips: int = 0
    #: Boost revocations issued (brownout REVOKE_BOOST engagements).
    boost_revokes: int = 0
    #: Boost grants issued (initial grant plus post-brownout restores).
    boost_grants: int = 0
    #: Brownout-ladder escalations (one per rung crossed).
    brownout_escalations: int = 0
    #: Brownout-ladder relaxations (one per rung released).
    brownout_relaxations: int = 0
    #: Ticks spent with any brownout rung engaged.
    brownout_ticks: int = 0

    _idle = "(no service activity)"


@dataclass
class HealthCounters(_CounterSet):
    """Silicon-health pipeline counters (the fleet's aging story).

    One instance is owned by a
    :class:`~repro.health.coordinator.FleetHealthCoordinator` (plus,
    in service mode, the duplicate-execution SDC auditor); read
    together with :class:`ServiceCounters` it answers "which parts
    drifted, how fast we caught them, and what catching them cost".
    Kept separate from :class:`ServiceCounters` on purpose: the service
    tick signature hashes every ServiceCounters field, so health
    accounting must not change shape under existing signatures.
    """

    #: Correctable-error MCA events observed (windows with >= 1 CE).
    ce_events: int = 0
    #: Correctable errors observed (sum of window counts).
    ce_errors: int = 0
    #: Ungraceful crashes observed.
    crashes: int = 0
    #: Silent corruptions that actually happened (ground truth).
    sdc_events: int = 0
    #: Silent corruptions caught by the duplicate-execution audit.
    sdc_caught: int = 0
    #: Silent corruptions that escaped every check (the headline number).
    sdc_escapes: int = 0
    #: Per-host changepoint-detector firings.
    detector_fires: int = 0
    #: DERATE engagements (host envelope cut in place).
    derates: int = 0
    #: QUARANTINE engagements (host drained out of service).
    quarantines: int = 0
    #: Quarantines deferred by the out-of-service capacity budget.
    quarantines_deferred: int = 0
    #: Screening sweeps enqueued.
    screens: int = 0
    #: Screening sweeps completed with a verdict.
    screens_completed: int = 0
    #: Hosts reinstated to service with a screened envelope.
    reinstates: int = 0
    #: Hosts permanently retired (failed screen or re-arm budget spent).
    retires: int = 0
    #: Duplicate executions sampled by the SDC audit.
    audits: int = 0
    #: Audit signature mismatches charged to a host.
    audit_mismatches: int = 0

    _idle = "(no health activity)"


@dataclass
class RolloutCounters(_CounterSet):
    """Progressive-rollout health counters (the change-management story).

    One instance is owned by a
    :class:`~repro.rollout.controller.RolloutController`; read together
    with :class:`HealthCounters` it answers "how far did the change get,
    what stopped it, and what did stopping it cost". Kept separate from
    :class:`ServiceCounters` for the same reason as
    :class:`HealthCounters`: the service tick signature hashes every
    ServiceCounters field, so rollout accounting must not change shape
    under existing signatures.
    """

    #: Waves whose envelope push was issued (including wave re-entries).
    waves_started: int = 0
    #: Waves that finished baking with a healthy verdict.
    waves_completed: int = 0
    #: Envelope pushes issued to individual hosts (forward direction).
    envelope_pushes: int = 0
    #: Envelope pushes issued to individual hosts (rollback direction).
    rollback_pushes: int = 0
    #: Controller ticks spent baking (watching canaries vs control).
    bake_ticks: int = 0
    #: Canary analyses run (one per bake tick with cohorts populated).
    analyses: int = 0
    #: Analyses that returned an unhealthy verdict.
    analyses_unhealthy: int = 0
    #: HALT engagements: the rollout stopped advancing on bad signals.
    halts: int = 0
    #: Resumes: the halt rung released after clean dwell ticks.
    resumes: int = 0
    #: ROLLBACK engagements: the change was reverted everywhere applied.
    rollbacks: int = 0
    #: Rollouts that reached the last wave and completed.
    completes: int = 0
    #: Ticks frozen because the thermal emergency ladder was engaged.
    freezes_emergency: int = 0
    #: Ticks frozen because the power emergency ladder was engaged.
    freezes_power: int = 0
    #: Ticks frozen because health quarantine exceeded its budget.
    freezes_health: int = 0
    #: Total ticks spent frozen for any reason (no wave may advance).
    frozen_ticks: int = 0
    #: Pushes that exceeded the apply deadline (wedged config agents).
    stalls: int = 0
    #: Hosts excluded from waves/cohorts because health had them out
    #: of service when the push reached them.
    cohort_excluded_hosts: int = 0

    _idle = "(no rollout activity)"


__all__ = [
    "CounterSnapshot",
    "CounterDelta",
    "ControlPlaneCounters",
    "EmergencyCounters",
    "HealthCounters",
    "PowerEmergencyCounters",
    "RolloutCounters",
    "ServiceCounters",
]
