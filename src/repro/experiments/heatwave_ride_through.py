"""Heat-wave ride-through: naive fleet vs the staged emergency ladder.

The paper's guarantees assume the *facility* keeps its side of the
bargain: the condenser removes whatever the tank dissipates. This
experiment breaks that assumption on purpose. Two immersion tanks share
a control plane; at t=120 s a condenser pump failure derates tank-a's
heat removal by 85 %, and at t=150 s an ambient heat wave collapses the
remaining approach temperature — the tank's cooling drops to a few
percent of nominal while every host is overclocked for a demand spike.
A seeded ``cmd-drop`` fault additionally blacks out the command channel
to one host mid-event, so the emergency revoke must punch through an
open circuit breaker.

The cooling deficit integrates into the shared pool
(:class:`~repro.thermal.transient.TankFluidRC`): the dielectric heats to
saturation, then superheats the sealed vapor space, dragging every
immersed host's junction up together. Two fleets face the identical
fault schedule:

* **naive** — no facility awareness: hosts ride the pool up until they
  trip at Tjmax, crashing their VMs (fire-and-forget actuation, no
  leases, no reconciliation).
* **laddered** — an :class:`~repro.emergency.EmergencyCoordinator`
  walks the staged degradation ladder on the fleet's worst thermal
  margin: revoke overclocks (emergency priority, breaker bypass), cap
  fleet power, evacuate the hottest hosts to the reserve tank, and
  finally shut the (empty) hottest hosts down — then steps back up with
  hysteresis as the facility recovers, re-granting full overclock.

Per seed, both runs record one fault timeline whose signature is the
reproducibility contract (same seed ⇒ bit-identical), pinned across a
seed matrix by ``make test-emergency``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.fleet import hottest_first
from ..cluster.host import Host
from ..cluster.migration import MigrationManager, evacuate_host
from ..cluster.power_cap import PowerCapGovernor
from ..cluster.vm import VMInstance, VMSpec
from ..control.channel import ChannelConfig
from ..control.link import ActuationLink
from ..control.retry import RetryPolicy
from ..emergency.ladder import (
    EMERGENCY_ESCALATE,
    EmergencyCoordinator,
    EmergencyStage,
    LadderConfig,
    max_stage,
    worst_margin_c,
)
from ..faults.injectors import (
    FaultCampaign,
    register_channel_injectors,
    register_facility_injectors,
)
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.timeline import FaultEvent
from ..reliability.safety import SafetySupervisor
from ..silicon.configs import B2, OC1
from ..sim.kernel import Simulator
from ..telemetry.counters import EmergencyCounters
from ..thermal.facility import FacilityState
from ..thermal.fluids import FC_3284
from ..thermal.junction import immersion_junction_model
from ..thermal.transient import TankFluidRC, ThermalRC
from .tables import key_event_lines, render_table

#: Experiment defaults — calibrated so the naive fleet trips Tjmax while
#: the laddered one rides the same event out with margin to spare.
BASE_GHZ = 3.4
OC_GHZ = 4.1
TJMAX_C = 110.0
CONTROL_TICK_S = 5.0
HEARTBEAT_INTERVAL_S = 3.0
LEASE_MISSES = 3
RECONCILE_INTERVAL_S = 15.0
OC_AT_S = 30.0
CONDENSER_AT_S = 120.0
CONDENSER_LOSS = 0.85
CONDENSER_DURATION_S = 900.0
HEATWAVE_AT_S = 150.0
HEATWAVE_RISE_C = 21.0
HEATWAVE_DURATION_S = 830.0
DROP_AT_S = 320.0
DROP_DURATION_S = 200.0
DROPPED_HOST = "a-0"
DEFAULT_HORIZON_S = 1500.0
#: When the last facility fault clears (condenser pumps repaired).
EVENT_CLEAR_S = CONDENSER_AT_S + CONDENSER_DURATION_S
#: The walk-back contract: full overclock restored within this many
#: control ticks of the event clearing.
RESTORE_BOUND_TICKS = 80
#: Stage-2 per-host emergency power cap.
CAP_WATTS = 170.0
#: How many of the hottest hosts stages 3 and 4 act on.
EVACUATE_HOSTS = 2
SHUTDOWN_HOSTS = 2
#: Tank-a: four production hosts on a 1.4 kW condenser, 10 kg of fluid.
TANK_A_CAPACITY_W = 1400.0
TANK_A_FLUID_G = 10_000.0
#: Tank-b: the two-host reserve tank VMs evacuate into.
TANK_B_CAPACITY_W = 800.0
TANK_B_FLUID_G = 6_000.0
#: Timeline kind recorded when a junction crosses Tjmax and trips.
TJMAX_TRIP = "tjmax-trip"

_VM_SPEC = VMSpec(vcores=14, memory_gb=32.0)
#: VMs initially resident per tank-a host (two heavy, two light).
_VMS_PER_HOST = {"a-0": 2, "a-1": 2, "a-2": 1, "a-3": 1}
_RESERVE_HOSTS = ("b-0", "b-1")


@dataclass(frozen=True)
class HeatwaveRunResult:
    """One fleet's run through the seeded facility emergency."""

    config: str
    #: Control-tick samples with any junction above Tjmax (each trips
    #: and fails its host, so this equals hosts lost to overheating).
    tjmax_violations: int
    hosts_tripped: int
    hosts_shut_down: int
    vms_lost: int
    vms_evacuated: int
    peak_tj_c: float
    peak_fluid_c: float
    peak_superheat_c: float
    max_stage: int
    #: First time every live host is back at full overclock after the
    #: ladder stood down; None = never restored within the horizon.
    oc_restored_at_s: float | None
    emergency_bypasses: int
    reconcile_starved: int
    lease_reverts: int
    escalations: int
    relaxations: int
    rearms: int
    timeline_signature: str
    timeline: tuple[FaultEvent, ...]


class _Tank:
    """One immersion tank: facility state, shared pool, resident hosts."""

    def __init__(
        self, name: str, hosts: list[Host], capacity_watts: float, fluid_grams: float
    ) -> None:
        self.name = name
        self.hosts = hosts
        self.capacity_watts = capacity_watts
        self.facility = FacilityState()
        self.pool = TankFluidRC(FC_3284, fluid_grams, capacity_watts)


def _build_fleet() -> tuple[_Tank, _Tank, int]:
    """The two tanks, populated; returns (tank_a, tank_b, total_vms)."""
    total_vms = 0
    tank_a_hosts = []
    for host_id, vm_count in sorted(_VMS_PER_HOST.items()):
        host = Host(host_id)
        for index in range(vm_count):
            vm = VMInstance(vm_id=f"vm-{host_id}-{index}", spec=_VM_SPEC)
            vm.mark_running(0.0)
            host.place(vm)
            total_vms += 1
        tank_a_hosts.append(host)
    tank_b_hosts = [Host(host_id) for host_id in _RESERVE_HOSTS]
    return (
        _Tank("tank-a", tank_a_hosts, TANK_A_CAPACITY_W, TANK_A_FLUID_G),
        _Tank("tank-b", tank_b_hosts, TANK_B_CAPACITY_W, TANK_B_FLUID_G),
        total_vms,
    )


def run_heatwave_mode(
    laddered: bool,
    seed: int = 1,
    horizon_s: float = DEFAULT_HORIZON_S,
) -> HeatwaveRunResult:
    """One fleet's run through the condenser-loss + heat-wave event.

    A pure function of its arguments. Both variants share the seed, the
    fault plan, the fleet layout, and the thermal model — every
    behavioural difference is attributable to the emergency ladder
    alone.
    """
    simulator = Simulator(seed=seed)
    tank_a, tank_b, _ = _build_fleet()
    tanks = (tank_a, tank_b)
    all_hosts = tank_a.hosts + tank_b.hosts

    plan = FaultPlan(
        seed=seed,
        scenario="heatwave",
        specs=(
            FaultSpec(
                kind=FaultKind.FACILITY_CONDENSER,
                target="tank-a",
                at_s=CONDENSER_AT_S,
                magnitude=CONDENSER_LOSS,
                duration_s=CONDENSER_DURATION_S,
            ),
            FaultSpec(
                kind=FaultKind.FACILITY_HEATWAVE,
                target="tank-a",
                at_s=HEATWAVE_AT_S,
                magnitude=HEATWAVE_RISE_C,
                duration_s=HEATWAVE_DURATION_S,
            ),
            FaultSpec(
                kind=FaultKind.CMD_DROP,
                target=DROPPED_HOST,
                at_s=DROP_AT_S,
                magnitude=1.0,
                duration_s=DROP_DURATION_S,
            ),
        ),
    )
    campaign = FaultCampaign(simulator, plan)

    link = ActuationLink(
        simulator,
        seed=seed,
        channel_config=ChannelConfig(),  # the seeded faults are the only chaos
        retry_policy=None if laddered else RetryPolicy(max_attempts=1),
        heartbeat_interval_s=HEARTBEAT_INTERVAL_S,
        lease_misses=LEASE_MISSES if laddered else 10**6,
        reconcile_interval_s=RECONCILE_INTERVAL_S if laddered else None,
        breaker_threshold=3 if laddered else 10**6,
        timeline=campaign.timeline,
        name="laddered" if laddered else "naive",
    )

    safety = SafetySupervisor()
    emergency_counters = EmergencyCounters()
    coordinator: EmergencyCoordinator | None = None
    if laddered:
        coordinator = EmergencyCoordinator(
            config=LadderConfig(),
            safety=safety,
            timeline=campaign.timeline,
            counters=emergency_counters,
        )
        link.reconciler.attach_safety(safety)
    governor = PowerCapGovernor()
    migrator = MigrationManager(simulator)

    # Per-host first-order junctions, coupled to their tank's pool via
    # the reference offset (healthy pool = subcooled = negative offset).
    junction = immersion_junction_model(FC_3284)
    rcs: dict[str, ThermalRC] = {}
    host_tank: dict[str, _Tank] = {}
    for tank in tanks:
        for host in tank.hosts:
            rc = ThermalRC(junction, initial_power_watts=host.power_watts())
            rc.set_reference_offset(0.0, tank.pool.reference_offset_c)
            rcs[host.host_id] = rc
            host_tank[host.host_id] = tank

    current_tj: dict[str, float] = {}
    transitions: dict[str, list[tuple[float, float]]] = {
        host.host_id: [(0.0, BASE_GHZ)] for host in all_hosts
    }
    trips: list[str] = []
    shutdowns: list[str] = []
    lost_vms: list[str] = []
    peaks = {"tj": 0.0, "fluid": 0.0, "superheat": 0.0}
    restored = {"at_s": None}

    def make_apply(host: Host):
        def apply(freq: float) -> None:
            transitions[host.host_id].append((simulator.now, freq))
            host.set_config(OC1 if freq > BASE_GHZ + 1e-9 else B2)
            # The cap acts out-of-band like RAPL: while the ladder holds
            # the fleet capped, any command-applied config is re-clamped.
            if (
                coordinator is not None
                and coordinator.stage >= EmergencyStage.POWER_CAP
                and not host.failed
            ):
                governor.enforce(host, CAP_WATTS)

        return apply

    for host in all_hosts:
        link.add_host(
            host.host_id, base_frequency_ghz=BASE_GHZ, apply_frequency=make_apply(host)
        )

    register_facility_injectors(
        campaign, {tank.name: tank.facility for tank in tanks}
    )
    register_channel_injectors(
        campaign, {host.host_id: link.channel for host in all_hosts}
    )
    campaign.arm()

    # ------------------------------------------------------------------
    # Ladder stage actions (laddered fleet only)
    # ------------------------------------------------------------------
    if coordinator is not None:

        def revoke_engage() -> str:
            link.set_frequency(BASE_GHZ, emergency=True)
            return f"emergency revoke to {len(link.hosts)} hosts"

        def revoke_release() -> str:
            link.set_frequency(OC_GHZ)
            return f"overclock re-granted to {len(link.hosts)} hosts"

        def cap_engage() -> str:
            results = governor.enforce_fleet(tank_a.hosts, CAP_WATTS)
            capped = sum(1 for result in results if result.capped)
            return f"capped {capped}/{len(results)} hosts at {CAP_WATTS:.0f}W"

        def cap_release() -> str:
            for host in tank_a.hosts:
                if not host.failed:
                    host.set_config(B2)
            return "fleet cap lifted"

        def evacuate_engage() -> str:
            sources = [
                host
                for host in hottest_first(tank_a.hosts, current_tj)
                if any(vm.is_active for vm in host.vms)
            ][:EVACUATE_HOSTS]
            moved = 0
            for source in sources:
                moved += len(evacuate_host(migrator, source, tank_b.hosts))
            names = ",".join(host.host_id for host in sources) or "none"
            return f"evacuating {moved} VMs off {names}"

        def shutdown_engage() -> str:
            candidates = [
                host
                for host in hottest_first(tank_a.hosts, current_tj)
                if not any(vm.is_active for vm in host.vms)
            ][:SHUTDOWN_HOSTS]
            lost = 0
            for host in candidates:
                lost += len(host.controlled_shutdown(simulator.now))
                shutdowns.append(host.host_id)
            names = ",".join(host.host_id for host in candidates) or "none"
            return f"shut down {names} ({lost} VMs lost)"

        def shutdown_release() -> str:
            restarted = [host for host in tank_a.hosts if host.shut_down]
            for host in restarted:
                host.restore()
            return f"restarted {len(restarted)} hosts"

        coordinator.register(
            EmergencyStage.REVOKE_OVERCLOCK, revoke_engage, revoke_release
        )
        coordinator.register(EmergencyStage.POWER_CAP, cap_engage, cap_release)
        coordinator.register(EmergencyStage.EVACUATE, evacuate_engage)
        coordinator.register(
            EmergencyStage.SHUTDOWN, shutdown_engage, shutdown_release
        )

    # ------------------------------------------------------------------
    # The control tick: facility -> pool -> junctions -> ladder
    # ------------------------------------------------------------------
    def tick() -> None:
        now = simulator.now
        for tank in tanks:
            tank.pool.set_capacity(
                now, tank.facility.effective_capacity_watts(tank.capacity_watts)
            )
            # Each host's power feeds both the pool and its junction;
            # nothing in between changes a host, so it is read once.
            watts = [host.power_watts() for host in tank.hosts]
            tank.pool.set_heat(now, sum(watts))
            peaks["fluid"] = max(peaks["fluid"], tank.pool.fluid_temp_c)
            peaks["superheat"] = max(peaks["superheat"], tank.pool.superheat_c)
            offset = tank.pool.reference_offset_c
            for host, host_watts in zip(tank.hosts, watts):
                rc = rcs[host.host_id]
                rc.set_reference_offset(now, offset)
                rc.set_power(now, host_watts)
                if host.failed:
                    current_tj.pop(host.host_id, None)
                else:
                    current_tj[host.host_id] = rc.temp_c
        for host_id in sorted(current_tj):
            tj = current_tj[host_id]
            peaks["tj"] = max(peaks["tj"], tj)
            if tj > TJMAX_C:
                host = next(h for h in all_hosts if h.host_id == host_id)
                crashed = host.fail(now)
                lost_vms.extend(vm.vm_id for vm in crashed)
                trips.append(host_id)
                current_tj.pop(host_id)
                campaign.timeline.record(
                    now,
                    TJMAX_TRIP,
                    host_id,
                    f"tj={tj:.1f}C crashed {len(crashed)} VMs",
                )
        if coordinator is not None:
            coordinator.observe(now, worst_margin_c(current_tj, TJMAX_C))
            if (
                restored["at_s"] is None
                and coordinator.counters.rearms > 0
                and coordinator.stage is EmergencyStage.NORMAL
            ):
                live = [host for host in tank_a.hosts if not host.failed]
                if live and all(
                    host.config.core_ghz >= OC_GHZ - 1e-9 for host in live
                ):
                    restored["at_s"] = now

    simulator.every(HEARTBEAT_INTERVAL_S, link.heartbeat, name="ctl:heartbeat")
    simulator.every(CONTROL_TICK_S, tick, name="ctl:tick")
    simulator.after(OC_AT_S, lambda: link.set_frequency(OC_GHZ))
    simulator.run(until=horizon_s)

    return HeatwaveRunResult(
        config="laddered" if laddered else "naive",
        tjmax_violations=len(trips),
        hosts_tripped=len(trips),
        hosts_shut_down=len(shutdowns),
        vms_lost=len(lost_vms),
        vms_evacuated=sum(
            1 for record in migrator.records if record.completed_at is not None
        ),
        peak_tj_c=peaks["tj"],
        peak_fluid_c=peaks["fluid"],
        peak_superheat_c=peaks["superheat"],
        max_stage=max_stage(campaign.timeline, EmergencyStage, EMERGENCY_ESCALATE),
        oc_restored_at_s=restored["at_s"],
        emergency_bypasses=link.counters.emergency_bypasses,
        reconcile_starved=link.counters.reconcile_starved,
        lease_reverts=link.lease_expiries,
        escalations=emergency_counters.escalations,
        relaxations=emergency_counters.relaxations,
        rearms=emergency_counters.rearms,
        timeline_signature=campaign.timeline.signature(),
        timeline=campaign.timeline.events,
    )


@dataclass(frozen=True)
class HeatwaveComparison:
    """Naive vs laddered fleet under the same facility emergency."""

    naive: HeatwaveRunResult
    laddered: HeatwaveRunResult

    @property
    def restore_bound_s(self) -> float:
        """The walk-back contract, in seconds after the event clears."""
        return RESTORE_BOUND_TICKS * CONTROL_TICK_S


def run_heatwave_ride_through(seed: int = 1, **overrides) -> HeatwaveComparison:
    """Race both fleets through the identical facility emergency.

    ``overrides`` forwards experiment parameters (``horizon_s``, ...)
    to :func:`run_heatwave_mode`.
    """
    return HeatwaveComparison(
        naive=run_heatwave_mode(laddered=False, seed=seed, **overrides),
        laddered=run_heatwave_mode(laddered=True, seed=seed, **overrides),
    )


#: Timeline kinds worth showing in full in the CLI rendering.
_KEY_EVENT_KINDS = (
    "facility-condenser",
    "facility-heatwave",
    "cmd-drop",
    "recovered",
    "lease-expired",
    "reconcile-starved",
    "emergency-escalate",
    "emergency-relax",
    TJMAX_TRIP,
)


def format_heatwave_ride_through(
    comparison: HeatwaveComparison | None = None, seed: int = 1
) -> str:
    comparison = (
        comparison if comparison is not None else run_heatwave_ride_through(seed=seed)
    )

    def fmt_time(value: float | None) -> str:
        return f"t={value:.0f}s" if value is not None else "never"

    rows = [
        (
            run.config,
            str(run.tjmax_violations),
            f"{run.hosts_tripped}/{run.hosts_shut_down}",
            f"{run.vms_lost}/{run.vms_evacuated}",
            f"{run.peak_tj_c:.1f} C",
            f"{run.peak_fluid_c:.1f} C",
            f"{run.peak_superheat_c:.1f} C",
            str(run.max_stage),
            fmt_time(run.oc_restored_at_s),
        )
        for run in (comparison.naive, comparison.laddered)
    ]
    table = render_table(
        [
            "Config",
            "Tjmax viol",
            "Tripped/shut",
            "VMs lost/evac",
            "Peak Tj",
            "Peak fluid",
            "Superheat",
            "Max stage",
            "OC restored",
        ],
        rows,
        title=(
            f"Heat-wave ride-through — tank-a condenser -{CONDENSER_LOSS:.0%} at "
            f"t={CONDENSER_AT_S:.0f}s, +{HEATWAVE_RISE_C:.0f}C heat wave at "
            f"t={HEATWAVE_AT_S:.0f}s (clears t={EVENT_CLEAR_S:.0f}s; restore "
            f"bound {comparison.restore_bound_s:.0f}s)"
        ),
    )
    lines = [table, ""]
    for run in (comparison.naive, comparison.laddered):
        lines.append(
            f"{run.config} timeline (signature {run.timeline_signature[:16]}…, "
            f"{len(run.timeline)} events):"
        )
        lines.extend(key_event_lines(run.timeline, _KEY_EVENT_KINDS))
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "HeatwaveRunResult",
    "HeatwaveComparison",
    "run_heatwave_mode",
    "run_heatwave_ride_through",
    "format_heatwave_ride_through",
    "BASE_GHZ",
    "OC_GHZ",
    "TJMAX_C",
    "CAP_WATTS",
    "EVENT_CLEAR_S",
    "RESTORE_BOUND_TICKS",
    "CONTROL_TICK_S",
    "DROPPED_HOST",
]
