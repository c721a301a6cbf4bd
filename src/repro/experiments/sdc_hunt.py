"""SDC hunt: static-margin fleet vs the silicon-health pipeline.

The paper's six-month characterization (Section IV) found zero silent
errors *inside* the stable envelope — but that envelope was measured
once, on young parts. Margins drift: a minority of parts age
(NBTI/HCI-style degradation), their true stable margin walks down
under the fleet's fixed +23% operating point, and the operating excess
crosses first the correctable-error ramp, then the silent-corruption
band, then the crash margin. This experiment races two fleets through
the identical drifting silicon, the identical machine-check sampling,
and the identical seeded fault schedule (a forced margin-drift step, a
spurious MCE burst on a healthy host, a forced silent corruption):

* **naive** — trusts the characterized envelope forever. Every host
  runs at +23% to the end; drifted parts ramp correctable errors,
  leak silent corruptions past the (absent) audit, and finally hit
  their crash margin and reboot-loop for the rest of the horizon.
* **robust** — the :mod:`repro.health` pipeline. Per-host CUSUM drift
  detectors feed the staged ladder (derate → quarantine → screen →
  reinstate-or-retire), screening re-measures each sick part's true
  margin, the published envelope caps every
  :class:`~repro.reliability.governor.OverclockGuard` grant
  (``limited_by="health"``), and the duplicate-execution audit charges
  the forced corruption back to its host. The contract: **zero** SDC
  escapes, **zero** ungraceful crashes, capacity loss bounded by the
  coordinator's out-of-service budget.

The spurious burst on the healthy host is the over-reaction probe: the
detector cannot distinguish it from a real ramp, so the ladder drains
and screens the host — and the screen verdict reinstates it (bounded
re-arm) instead of retiring a good part.

Per seed, each arm's run signature (SHA-256 over the fault timeline,
the ground-truth tallies, and every host's final stage/envelope) is
bit-identical across runs; ``make test-health`` pins this across a
seed matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

from ..engine.fork import run_pair
from ..faults.injectors import FaultCampaign, register_health_injectors
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.timeline import FaultEvent
from ..health.coordinator import FleetHealthCoordinator, HealthLadderConfig, HealthStage
from ..health.detector import DriftDetector
from ..health.mce import MachineCheckStream
from ..health.part import FleetHeterogeneity, sample_fleet
from ..health.screening import ScreeningScheduler
from ..reliability.governor import OverclockGuard
from ..reliability.stability import StabilityModel
from ..sim.kernel import Simulator
from ..telemetry.counters import HealthCounters
from .tables import key_event_lines, render_table

#: The fleet: twelve hosts sharing one characterized envelope.
HOSTS = tuple(f"p{index:02d}" for index in range(12))

#: The characterized operating point both arms request (paper +23%).
OC_RATIO = 1.23

#: Machine-check observation window (one health control tick).
WINDOW_HOURS = 8.0

#: Simulated horizon — a hundred days, long enough for the drift-prone
#: minority to walk through detect → screen → re-arm → retire.
DEFAULT_HORIZON_HOURS = 2400.0

#: Accelerated-physics stability model for the experiment: the ramp is
#: steep (2% e-fold) and hot (0.5 err/h scale) so a drifting part is
#: *loud* long before it is dangerous, with tank #2's background floor.
EXPERIMENT_MODEL = StabilityModel(
    stable_margin=1.23,
    crash_margin=1.35,
    base_error_rate_per_hour=0.5,
    ramp_width=0.02,
    background_error_rate_per_hour=0.0127,
)

#: Excess ratio past the effective stable margin where silent
#: corruption begins. Sits well beyond the quarantine point (the CUSUM
#: fires around 1-2% excess) and well before the crash margin (12%).
SDC_ONSET = 0.05

#: Silent corruptions per correctable error inside the SDC band.
SDC_PER_ERROR = 0.05

#: Correctable errors per stochastic crash. Crashes below the hard
#: crash margin are rare enough that the robust arm — which never
#: operates deep into the ramp — should see none; the naive arm's
#: crashes come from parts drifting past the margin outright.
ERRORS_PER_CRASH = 200_000.0

#: How the sampled fleet spreads and ages (≈1/4 of parts drift).
HETEROGENEITY = FleetHeterogeneity()

#: Seeded fault schedule (times are simulator hours, chosen off the
#: window grid so fault-vs-tick ordering is unambiguous).
DRIFT_TARGET = "p03"
DRIFT_AT_HOURS = 604.0
DRIFT_MAGNITUDE = 0.03
BURST_TARGET = "p07"
BURST_AT_HOURS = 902.0
BURST_ERRORS = 24
FORCED_SDC_TARGET = "p05"
FORCED_SDC_AT_HOURS = 1206.0

#: Timeline kinds recorded by the experiment's ground-truth accounting.
SDC_ESCAPE = "sdc-escape"
SDC_AUDIT = "sdc-audit"
UNGRACEFUL_CRASH = "ungraceful-crash"


@dataclass(frozen=True)
class SdcHuntRunResult:
    """One fleet's run through the drifting-silicon campaign."""

    config: str
    ce_errors: int
    #: Ground-truth silent corruptions nobody caught.
    sdc_escapes: int
    #: Silent corruptions the duplicate-execution audit charged back.
    sdc_caught: int
    #: Ungraceful crash events (naive parts reboot-loop past the margin,
    #: so one sick host contributes one per window until the horizon).
    crashes: int
    hosts_crashed: int
    drift_prone_hosts: int
    detector_fires: int
    derates: int
    quarantines: int
    quarantines_deferred: int
    screens_completed: int
    reinstates: int
    retires: int
    retired_hosts: tuple[str, ...]
    #: Guard decisions clamped by a health envelope (robust arm only).
    health_limited_decisions: int
    #: Host-hours spent drained (quarantine/screen, retirees excluded).
    quarantined_host_hours: float
    #: Host-hours lost to retired parts after their retirement.
    retired_host_hours: float
    #: Host-hours the naive arm lost to crash-reboot windows.
    crashed_host_hours: float
    #: Peak transient out-of-service fraction the coordinator allowed.
    peak_out_of_service_fraction: float
    horizon_hours: float
    final_envelopes: tuple[tuple[str, float], ...]
    timeline_signature: str
    #: SHA-256 over the timeline signature, the tallies, and every
    #: host's final stage/envelope — the per-seed reproducibility pin.
    run_signature: str
    timeline: tuple[FaultEvent, ...]

    @property
    def capacity_loss_fraction(self) -> float:
        """Fraction of fleet host-hours not serving (any cause)."""
        lost = (
            self.quarantined_host_hours
            + self.retired_host_hours
            + self.crashed_host_hours
        )
        return lost / (len(HOSTS) * self.horizon_hours)


def _fault_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        scenario="sdc-hunt",
        specs=(
            FaultSpec(
                kind=FaultKind.SILICON_MARGIN_DRIFT,
                target=DRIFT_TARGET,
                at_s=DRIFT_AT_HOURS,
                magnitude=DRIFT_MAGNITUDE,
            ),
            FaultSpec(
                kind=FaultKind.MCE_BURST,
                target=BURST_TARGET,
                at_s=BURST_AT_HOURS,
                magnitude=float(BURST_ERRORS),
            ),
            FaultSpec(
                kind=FaultKind.SDC,
                target=FORCED_SDC_TARGET,
                at_s=FORCED_SDC_AT_HOURS,
            ),
        ),
    )


def run_sdc_mode(
    robust: bool,
    seed: int = 1,
    horizon_hours: float = DEFAULT_HORIZON_HOURS,
) -> SdcHuntRunResult:
    """One fleet's run over the drifting silicon (simulator time = hours).

    A pure function of its arguments. Both arms share the seed, the
    sampled silicon, the machine-check sampling streams, and the fault
    plan — every behavioural difference is attributable to the health
    pipeline alone.
    """
    simulator = Simulator(seed=seed)
    parts = sample_fleet(
        seed,
        HOSTS,
        heterogeneity=HETEROGENEITY,
        nominal=EXPERIMENT_MODEL,
        sdc_onset=SDC_ONSET,
        sdc_per_error=SDC_PER_ERROR,
    )
    stream = MachineCheckStream(seed, parts, errors_per_crash=ERRORS_PER_CRASH)
    campaign = FaultCampaign(simulator, _fault_plan(seed))
    timeline = campaign.timeline

    tallies = {
        "ce_errors": 0,
        "sdc_escapes": 0,
        "sdc_caught": 0,
        "crashes": 0,
        "health_limited": 0,
    }
    crashed_hosts: set[str] = set()
    host_hours = {"quarantined": 0.0, "retired": 0.0, "crashed": 0.0}
    peak_oos = 0.0

    coordinator: FleetHealthCoordinator | None = None
    guards: dict[str, OverclockGuard] = {}
    counters = HealthCounters()
    if robust:
        guards = {host: OverclockGuard(stability=EXPERIMENT_MODEL) for host in HOSTS}

        def on_derate(host: str, envelope: float) -> str:
            if envelope >= OC_RATIO:
                guards[host].clear_health_limit()
                return "guard limit cleared"
            guards[host].set_health_limit(envelope)
            return f"guard limit {envelope:.3f}"

        def on_retire(host: str) -> str:
            guards[host].set_health_limit(1.0)
            return "guard pinned at stock"

        coordinator = FleetHealthCoordinator(
            HOSTS,
            config=HealthLadderConfig(),
            detectors={
                host: DriftDetector(
                    reference_rate_per_hour=(
                        EXPERIMENT_MODEL.background_error_rate_per_hour
                    )
                )
                for host in HOSTS
            },
            screening=ScreeningScheduler(parts, max_concurrent=2),
            nominal_envelope=OC_RATIO,
            timeline=timeline,
            counters=counters,
            on_derate=on_derate,
            on_quarantine=lambda host: "vms drained",
            on_reinstate=on_derate,
            on_retire=on_retire,
        )

    def on_drift(target: str, magnitude: float) -> None:
        parts[target].inject_drift(magnitude)

    def on_burst(target: str, count: int) -> None:
        stream.inject_burst(target, count)

    def on_sdc(target: str) -> None:
        # The forced corruption lands on a sampled-and-audited request:
        # the robust arm's duplicate execution catches it and charges
        # the host's health record; the naive arm has no second
        # execution, so it escapes into a customer's results.
        if robust:
            assert coordinator is not None
            tallies["sdc_caught"] += 1
            coordinator.charge_sdc(target)
            timeline.record(
                simulator.now, SDC_AUDIT, target, "duplicate execution mismatch charged"
            )
        else:
            tallies["sdc_escapes"] += 1

    register_health_injectors(campaign, on_drift, on_burst, on_sdc)
    campaign.arm()

    def tick() -> None:
        end = simulator.now
        start = end - WINDOW_HOURS
        if coordinator is not None:
            ratios = {}
            for host in coordinator.serving_hosts():
                decision = guards[host].decide(OC_RATIO)
                if decision.limited_by == "health":
                    tallies["health_limited"] += 1
                ratios[host] = decision.granted_ratio
        else:
            # The naive fleet never reacts: crashed hosts reboot and
            # come straight back at the same operating point.
            ratios = {host: OC_RATIO for host in HOSTS}
        events = stream.sample_fleet_window(start, WINDOW_HOURS, ratios)
        window_crashed: set[str] = set()
        for event in events:
            if event.kind == "ce":
                tallies["ce_errors"] += event.count
            elif event.kind == "sdc":
                # Sampled (rate-driven) corruption is silent: neither
                # arm's detectors see it, so every count is an escape.
                tallies["sdc_escapes"] += event.count
                timeline.record(end, SDC_ESCAPE, event.host_id, f"count={event.count}")
            elif event.kind == "crash":
                tallies["crashes"] += 1
                crashed_hosts.add(event.host_id)
                window_crashed.add(event.host_id)
                timeline.record(
                    end, UNGRACEFUL_CRASH, event.host_id, event.detail or "stochastic"
                )
        if coordinator is not None:
            coordinator.tick(end, WINDOW_HOURS, events)
            nonlocal peak_oos
            peak_oos = max(peak_oos, coordinator.out_of_service_fraction())
            retired = coordinator.retired_hosts()
            drained = sum(
                1
                for host in HOSTS
                if host not in retired and not coordinator.in_service(host)
            )
            host_hours["quarantined"] += drained * WINDOW_HOURS
            host_hours["retired"] += len(retired) * WINDOW_HOURS
        else:
            host_hours["crashed"] += len(window_crashed) * WINDOW_HOURS

    simulator.every(WINDOW_HOURS, tick, name="health:window")
    simulator.run(until=horizon_hours)

    final_envelopes = tuple(
        (host, coordinator.envelope(host) if coordinator is not None else None)
        for host in HOSTS
    )
    final_envelopes = tuple(
        (host, envelope if envelope is not None else OC_RATIO)
        for host, envelope in final_envelopes
    )
    retired_hosts = (
        tuple(sorted(coordinator.retired_hosts())) if coordinator is not None else ()
    )
    stages = (
        {host: coordinator.stage(host).name for host in HOSTS}
        if coordinator is not None
        else {host: HealthStage.HEALTHY.name for host in HOSTS}
    )

    blob = "\n".join(
        [
            timeline.signature(),
            "|".join(f"{key}={tallies[key]}" for key in sorted(tallies)),
            "|".join(
                f"{host}:{stages[host]}:{envelope:.6f}"
                for host, envelope in final_envelopes
            ),
        ]
    )
    run_signature = hashlib.sha256(blob.encode()).hexdigest()

    return SdcHuntRunResult(
        config="robust" if robust else "naive",
        ce_errors=tallies["ce_errors"],
        sdc_escapes=tallies["sdc_escapes"],
        sdc_caught=tallies["sdc_caught"],
        crashes=tallies["crashes"],
        hosts_crashed=len(crashed_hosts),
        drift_prone_hosts=sum(
            1 for part in parts.values() if part.drift_rate_per_khour > 0
        ),
        detector_fires=counters.detector_fires,
        derates=counters.derates,
        quarantines=counters.quarantines,
        quarantines_deferred=counters.quarantines_deferred,
        screens_completed=counters.screens_completed,
        reinstates=counters.reinstates,
        retires=counters.retires,
        retired_hosts=retired_hosts,
        health_limited_decisions=tallies["health_limited"],
        quarantined_host_hours=host_hours["quarantined"],
        retired_host_hours=host_hours["retired"],
        crashed_host_hours=host_hours["crashed"],
        peak_out_of_service_fraction=peak_oos,
        horizon_hours=horizon_hours,
        final_envelopes=final_envelopes,
        timeline_signature=timeline.signature(),
        run_signature=run_signature,
        timeline=timeline.events,
    )


@dataclass(frozen=True)
class SdcHuntComparison:
    """Naive vs robust fleet over the same drifting silicon."""

    naive: SdcHuntRunResult
    robust: SdcHuntRunResult


def run_sdc_hunt(seed: int = 1, **overrides) -> SdcHuntComparison:
    """Race both fleets through the identical drift campaign.

    ``overrides`` forwards experiment parameters (``horizon_hours``)
    to :func:`run_sdc_mode`.
    """
    naive, robust = run_pair(
        partial(run_sdc_mode, robust=False, seed=seed, **overrides),
        partial(run_sdc_mode, robust=True, seed=seed, **overrides),
    )
    return SdcHuntComparison(naive=naive, robust=robust)


#: Timeline kinds worth showing in full in the CLI rendering.
_KEY_EVENT_KINDS = (
    "silicon-margin-drift",
    "mce-burst",
    "sdc",
    SDC_AUDIT,
    "health-escalate",
    "health-relax",
    "health-defer",
    "health-verdict",
)

#: Kinds summarized as counts (one line each in naive runs would drown
#: the ladder's story).
_BULK_EVENT_KINDS = (SDC_ESCAPE, UNGRACEFUL_CRASH)


def format_sdc_hunt(comparison: SdcHuntComparison | None = None, seed: int = 1) -> str:
    comparison = comparison if comparison is not None else run_sdc_hunt(seed=seed)
    rows = [
        (
            run.config,
            str(run.ce_errors),
            str(run.sdc_escapes),
            str(run.sdc_caught),
            str(run.crashes),
            str(run.hosts_crashed),
            f"{run.quarantines}/{run.screens_completed}/{run.reinstates}",
            str(run.retires),
            f"{run.capacity_loss_fraction:.1%}",
            run.run_signature[:12],
        )
        for run in (comparison.naive, comparison.robust)
    ]
    table = render_table(
        [
            "Config",
            "CE errs",
            "SDC escaped",
            "SDC caught",
            "Crashes",
            "Hosts lost",
            "Quar/scr/rein",
            "Retired",
            "Cap loss",
            "Run sig",
        ],
        rows,
        title=(
            f"SDC hunt — {len(HOSTS)} hosts at +{OC_RATIO - 1.0:.0%} for "
            f"{DEFAULT_HORIZON_HOURS:.0f}h; drift step +{DRIFT_MAGNITUDE:g} on "
            f"{DRIFT_TARGET} at t={DRIFT_AT_HOURS:.0f}h, {BURST_ERRORS} spurious "
            f"CEs on {BURST_TARGET} at t={BURST_AT_HOURS:.0f}h, forced SDC on "
            f"{FORCED_SDC_TARGET} at t={FORCED_SDC_AT_HOURS:.0f}h"
        ),
    )
    lines = [table, ""]
    for run in (comparison.naive, comparison.robust):
        lines.append(
            f"{run.config} timeline (signature {run.timeline_signature[:16]}…, "
            f"{len(run.timeline)} events):"
        )
        lines.extend(key_event_lines(run.timeline, _KEY_EVENT_KINDS, _BULK_EVENT_KINDS))
        if run.config == "robust":
            lines.append(
                "  final envelopes: "
                + " ".join(
                    f"{host}={envelope:.3f}"
                    for host, envelope in run.final_envelopes
                    if envelope < OC_RATIO
                )
            )
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "SdcHuntRunResult",
    "SdcHuntComparison",
    "run_sdc_mode",
    "run_sdc_hunt",
    "format_sdc_hunt",
    "HOSTS",
    "OC_RATIO",
    "WINDOW_HOURS",
    "DEFAULT_HORIZON_HOURS",
    "EXPERIMENT_MODEL",
    "SDC_ONSET",
    "ERRORS_PER_CRASH",
    "DRIFT_TARGET",
    "BURST_TARGET",
    "FORCED_SDC_TARGET",
]
