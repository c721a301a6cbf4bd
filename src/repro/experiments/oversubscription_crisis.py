"""Oversubscription crisis: selling the same headroom twice, then losing.

Prediction-based power oversubscription sells electrical headroom as
packed VMs; this paper sells thermal headroom as frequency. An
immersion-cooled, overclocked, oversubscribed fleet sells the same
headroom twice — and the two sales collide the day the predictor is
optimistic *and* demand peaks in sync. This experiment stages exactly
that day, twice, from one seed:

At t≈1 s a ``power-underprediction`` fault biases the peak-power
predictor 30 % low, so every VM admission from then on clears against
watts that will not be there at peak. VMs arrive through t≈160 s; at
t=30 s the fleet overclocks for a demand spike. At t=200 s a
``power-surge`` fault ramps every host under row-0 to +55 % draw over
~70 s (the diversity bet lost — synchronized peak) and holds for 300 s.

* **naive** — trusts the predictor: admits VMs against per-host budgets
  alone, overclocks unconditionally, reacts to nothing. The row feed
  overloads, its breaker's thermal element integrates the excursion,
  and the row trips — every host under it goes dark at once, taking all
  of its VMs.
* **arbitrated** — the same biased predictor, but every admission and
  overclock clears the :class:`~repro.power.arbiter.PowerBudgetArbiter`
  at every tree level, and a
  :class:`~repro.power.ladder.PowerEmergencyCoordinator` watches the
  *metered* worst headroom fraction: cap low-priority hosts → revoke
  overclocks (emergency priority) → shed low-priority VMs → isolate the
  sacrificial rack. Zero breakers trip; once the surge passes, the
  ladder walks back and overclocks are re-granted through the arbiter.

Per seed, both runs record one fault timeline whose signature is the
reproducibility contract (same seed ⇒ bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.host import Host
from ..cluster.power_cap import PowerCapGovernor
from ..cluster.vm import VMInstance, VMSpec
from ..control.channel import ChannelConfig
from ..control.link import ActuationLink
from ..emergency.ladder import max_stage
from ..faults.injectors import FaultCampaign, register_power_injectors
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.timeline import FaultEvent
from ..power.arbiter import PowerBudgetArbiter
from ..power.ladder import POWER_ESCALATE, PowerEmergencyCoordinator, PowerEmergencyStage
from ..power.predictor import PeakPowerPredictor
from ..power.tree import (
    DeliveryLevel,
    DeliveryNode,
    PowerDeliveryHierarchy,
)
from ..reliability.safety import SafetySupervisor
from ..silicon.configs import B2, OC1
from ..sim.kernel import Simulator
from ..sim.random import RandomStreams
from ..telemetry.counters import PowerEmergencyCounters
from .tables import key_event_lines, render_table

#: Experiment defaults — calibrated so the naive fleet trips the row
#: breaker under the surge while the arbitrated one rides it out.
BASE_GHZ = 3.4
OC_GHZ = 4.1
CONTROL_TICK_S = 5.0
DEFAULT_HORIZON_S = 900.0
UTILIZATION = 0.7
#: VM shape and arrival schedule (arrivals stop before the surge).
VM_COUNT = 40
VM_VCORES = 8
VM_MEMORY_GB = 8.0
ARRIVAL_START_S = 5.0
ARRIVAL_SPACING_S = 4.0
OC_AT_S = 30.0
#: Watts one overclock grant charges against every tree level.
OC_UPLIFT_W = 60.0
#: Host idle draw charged statically per host by the arbiter.
IDLE_W = 80.0
#: The seeded fault schedule.
UNDERPREDICTION_AT_S = 1.0
UNDERPREDICTION = 0.3
SURGE_AT_S = 200.0
SURGE_MAGNITUDE = 0.55
SURGE_DURATION_S = 300.0
SURGE_TARGET = "ups-0/row-0"
#: Surge ramp per control tick (demand synchronizes over ~70 s, so the
#: ladder sees a degrading margin, not a step).
SURGE_RAMP_PER_TICK = 0.04
#: Stage-1 per-host cap applied to the low-priority (batch) rack.
CAP_WATTS = 170.0
#: Delivery-tree ratings: the row is deliberately the thinnest feed
#: relative to its load (racks carry their full child sum; the row is
#: derated to 80 % of its).
HOST_RATED_W = 340.0
RACK_RATED_W = 4 * HOST_RATED_W
ROW_RATED_W = 0.8 * 2 * RACK_RATED_W
UPS_RATED_W = 2900.0
SUBSTATION_RATED_W = 3000.0
#: Timeline kind recorded when a delivery breaker trips.
BREAKER_TRIP = "breaker-trip"

_VM_SPEC = VMSpec(vcores=VM_VCORES, memory_gb=VM_MEMORY_GB)
_WORKLOAD_CLASSES = ("sql", "web", "batch", "key-value", "training")


def build_crisis_hierarchy() -> PowerDeliveryHierarchy:
    """The 8-host tree: substation → UPS → row-0 → two racks of four."""
    nodes = [
        DeliveryNode(
            "substation", DeliveryLevel.SUBSTATION, SUBSTATION_RATED_W, 1.05
        ),
        DeliveryNode("ups-0", DeliveryLevel.UPS, UPS_RATED_W, 1.05, parent="substation"),
        DeliveryNode(SURGE_TARGET, DeliveryLevel.ROW, ROW_RATED_W, 1.1, parent="ups-0"),
    ]
    for rack_index in range(2):
        rack = f"{SURGE_TARGET}/rack-{rack_index}"
        nodes.append(
            DeliveryNode(rack, DeliveryLevel.RACK_PDU, RACK_RATED_W, 1.1, parent=SURGE_TARGET)
        )
        for host_index in range(4):
            nodes.append(
                DeliveryNode(
                    f"{rack}/host-{host_index}", DeliveryLevel.HOST, HOST_RATED_W, parent=rack
                )
            )
    return PowerDeliveryHierarchy(nodes)


#: The sacrificial rack: capped first, shed first, isolated last.
LOW_PRIORITY_RACK = f"{SURGE_TARGET}/rack-1"


def _arrival_schedule(seed: int) -> list[tuple[float, str, str]]:
    """The seeded VM arrival sequence: (time, vm_id, workload class)."""
    streams = RandomStreams(seed)
    schedule = []
    for index in range(VM_COUNT):
        draw = streams.uniform("oversubscribe:classes", 0.0, 1.0)
        workload_class = _WORKLOAD_CLASSES[int(draw * len(_WORKLOAD_CLASSES))]
        schedule.append(
            (
                ARRIVAL_START_S + index * ARRIVAL_SPACING_S,
                f"vm-{index}",
                workload_class,
            )
        )
    return schedule


@dataclass(frozen=True)
class CrisisRunResult:
    """One fleet's run through the seeded oversubscription crisis."""

    config: str
    vms_requested: int
    vms_admitted: int
    admissions_denied: int
    overclocks_granted: int
    overclocks_denied: int
    #: Every breaker that tripped, in trip order.
    breaker_trips: tuple[str, ...]
    row_breaker_trips: int
    hosts_lost: int
    vms_lost: int
    vms_shed: int
    max_stage: int
    peak_row_draw_w: float
    min_headroom_fraction: float
    #: First time overclocks were re-granted after a full walk-back;
    #: None = never (or never revoked).
    oc_regranted_at_s: float | None
    escalations: int
    relaxations: int
    rearms: int
    timeline_signature: str
    timeline: tuple[FaultEvent, ...]


def run_oversubscription_mode(
    arbitrated: bool,
    seed: int = 1,
    horizon_s: float = DEFAULT_HORIZON_S,
) -> CrisisRunResult:
    """One fleet's run through the underprediction + surge crisis.

    A pure function of its arguments. Both variants share the seed,
    fault plan, arrival schedule, delivery tree, and draw model — every
    behavioural difference is attributable to the arbiter and the power
    ladder.
    """
    simulator = Simulator(seed=seed)
    hierarchy = build_crisis_hierarchy()
    hosts = {
        name: Host(name, oversubscription_ratio=2.0) for name in hierarchy.hosts
    }
    low_priority = tuple(sorted(hierarchy.subtree_hosts(LOW_PRIORITY_RACK)))
    predictor = PeakPowerPredictor()

    plan = FaultPlan(
        seed=seed,
        scenario="oversubscribe",
        specs=(
            FaultSpec(
                kind=FaultKind.POWER_UNDERPREDICTION,
                target="predictor",
                at_s=UNDERPREDICTION_AT_S,
                magnitude=UNDERPREDICTION,
            ),
            FaultSpec(
                kind=FaultKind.POWER_SURGE,
                target=SURGE_TARGET,
                at_s=SURGE_AT_S,
                magnitude=SURGE_MAGNITUDE,
                duration_s=SURGE_DURATION_S,
            ),
        ),
    )
    campaign = FaultCampaign(simulator, plan)
    timeline = campaign.timeline

    #: The surge ramps toward ``goal`` at SURGE_RAMP_PER_TICK per tick.
    surge = {"level": 0.0, "goal": 0.0}
    surged_hosts = frozenset(hierarchy.subtree_hosts(SURGE_TARGET))

    def on_surge(target: str, magnitude: float) -> None:
        surge["goal"] = magnitude

    def on_surge_end(target: str) -> None:
        # Demand desynchronizes at once when the surge clears; only the
        # onset ramps (peaks synchronize over ~70 s, they don't step).
        surge["goal"] = 0.0
        surge["level"] = 0.0

    register_power_injectors(
        campaign,
        {"predictor": predictor},
        on_surge,
        on_surge_end,
        surge_targets={name: name for name in hierarchy.nodes},
    )
    campaign.arm()

    arbiter = (
        PowerBudgetArbiter(
            hierarchy, predictor, idle_watts_per_host=IDLE_W, timeline=timeline
        )
        if arbitrated
        else None
    )
    governor = PowerCapGovernor()
    safety = SafetySupervisor()
    power_counters = PowerEmergencyCounters()
    coordinator: PowerEmergencyCoordinator | None = None
    if arbitrated:
        coordinator = PowerEmergencyCoordinator(
            safety=safety, timeline=timeline, counters=power_counters
        )

    link = ActuationLink(
        simulator,
        seed=seed,
        channel_config=ChannelConfig(),  # the seeded faults are the only chaos
        lease_misses=10**6,
        reconcile_interval_s=None,
        timeline=timeline,
        name="arbitrated" if arbitrated else "naive",
    )

    def make_apply(host: Host):
        def apply(freq: float) -> None:
            if host.failed:
                return
            host.set_config(OC1 if freq > BASE_GHZ + 1e-9 else B2)
            # The cap acts out-of-band like RAPL: while the ladder holds
            # the low-priority rack capped, any command-applied config
            # is re-clamped.
            if (
                coordinator is not None
                and coordinator.stage >= PowerEmergencyStage.CAP_LOW_PRIORITY
                and host.host_id in low_priority
            ):
                governor.enforce(host, CAP_WATTS, UTILIZATION)

        return apply

    for name in hierarchy.hosts:
        link.add_host(
            name, base_frequency_ghz=BASE_GHZ, apply_frequency=make_apply(hosts[name])
        )

    # ------------------------------------------------------------------
    # Bookkeeping shared by both fleets
    # ------------------------------------------------------------------
    stats = {
        "admitted": 0,
        "denied": 0,
        "oc_granted": 0,
        "oc_denied": 0,
        "shed": 0,
        "peak_row_draw": 0.0,
        "min_headroom": 1.0,
    }
    lost_vms: list[str] = []
    trips: list[str] = []
    regrant = {"at_s": None, "revoked": False}
    #: Naive accounting: predicted watts admitted against each host.
    naive_charge = {name: IDLE_W for name in hierarchy.hosts}

    def drop_host_grants(name: str) -> None:
        """Release a dead host's grants back to the tree (arbitrated)."""
        if arbiter is None:
            return
        for vm_id in arbiter.vms_on_host(name):
            arbiter.release_vm(vm_id)
        if name in arbiter.overclocked_hosts:
            arbiter.revoke_overclock(name)

    # ------------------------------------------------------------------
    # VM arrivals (identical schedule; only the gatekeeper differs)
    # ------------------------------------------------------------------
    def make_arrival(vm_id: str, workload_class: str, host_name: str):
        def arrive() -> None:
            now = simulator.now
            host = hosts[host_name]
            if host.failed:
                stats["denied"] += 1
                return
            if arbiter is not None:
                decision = arbiter.admit_vm(
                    vm_id, host_name, workload_class, VM_VCORES, time_s=now
                )
                if not decision.granted:
                    stats["denied"] += 1
                    return
            else:
                predicted = predictor.predict_vm_peak_watts(workload_class, VM_VCORES)
                budget = hierarchy.nodes[host_name].budget_watts
                if naive_charge[host_name] + predicted > budget or not host.fits(
                    _VM_SPEC
                ):
                    stats["denied"] += 1
                    return
                naive_charge[host_name] += predicted
            vm = VMInstance(vm_id=vm_id, spec=_VM_SPEC)
            vm.mark_running(now)
            host.place(vm)
            stats["admitted"] += 1

        return arrive

    host_names = hierarchy.hosts
    for index, (at_s, vm_id, workload_class) in enumerate(_arrival_schedule(seed)):
        simulator.after(
            at_s,
            make_arrival(vm_id, workload_class, host_names[index % len(host_names)]),
            name=f"arrive:{vm_id}",
        )

    # ------------------------------------------------------------------
    # Overclock rollout (the second sale of the headroom)
    # ------------------------------------------------------------------
    def grant_overclocks(emergency_regrant: bool = False) -> int:
        granted = 0
        for name in host_names:
            if hosts[name].failed:
                continue
            if arbiter is not None:
                if name in arbiter.overclocked_hosts:
                    continue
                decision = arbiter.grant_overclock(
                    name, OC_UPLIFT_W, time_s=simulator.now
                )
                if not decision.granted:
                    stats["oc_denied"] += 1
                    continue
            link.set_frequency(OC_GHZ, hosts=(name,))
            granted += 1
            stats["oc_granted"] += 1
        return granted

    simulator.after(OC_AT_S, grant_overclocks, name="oc:rollout")

    # ------------------------------------------------------------------
    # Ladder stage actions (arbitrated fleet only)
    # ------------------------------------------------------------------
    if coordinator is not None:
        assert arbiter is not None

        def cap_engage() -> str:
            live = [hosts[n] for n in low_priority if not hosts[n].failed]
            results = governor.enforce_fleet(live, CAP_WATTS, UTILIZATION)
            capped = sum(1 for result in results if result.capped)
            return f"capped {capped}/{len(results)} low-priority hosts at {CAP_WATTS:.0f}W"

        def cap_release() -> str:
            for name in low_priority:
                host = hosts[name]
                if not host.failed:
                    host.set_config(
                        OC1 if name in arbiter.overclocked_hosts else B2
                    )
            return "low-priority cap lifted"

        def revoke_engage() -> str:
            revoked = arbiter.revoke_all_overclocks()
            regrant["revoked"] = True
            link.set_frequency(BASE_GHZ, emergency=True)
            return f"emergency revoke of {len(revoked)} overclock grants"

        def revoke_release() -> str:
            regranted = grant_overclocks()
            if regrant["revoked"] and regrant["at_s"] is None and regranted:
                regrant["at_s"] = simulator.now
            return f"overclock re-granted to {regranted} hosts"

        def shed_engage() -> str:
            shed = 0
            for name in low_priority:
                host = hosts[name]
                if host.failed:
                    continue
                for vm in sorted(host.vms, key=lambda v: v.vm_id):
                    if not vm.is_active:
                        continue
                    host.evict(vm.vm_id)
                    vm.mark_deleted(simulator.now)
                    arbiter.release_vm(vm.vm_id)
                    shed += 1
            stats["shed"] += shed
            return f"shed {shed} low-priority VMs"

        def isolate_engage() -> str:
            downed = []
            for name in low_priority:
                host = hosts[name]
                if host.failed:
                    continue
                lost = host.controlled_shutdown(simulator.now)
                lost_vms.extend(vm.vm_id for vm in lost)
                drop_host_grants(name)
                downed.append(name)
            return f"isolated {LOW_PRIORITY_RACK} ({len(downed)} hosts dark)"

        def isolate_release() -> str:
            restarted = 0
            for name in low_priority:
                host = hosts[name]
                if host.shut_down:
                    host.restore()
                    host.set_config(B2)
                    restarted += 1
            return f"restarted {restarted} isolated hosts"

        coordinator.register(
            PowerEmergencyStage.CAP_LOW_PRIORITY, cap_engage, cap_release
        )
        coordinator.register(
            PowerEmergencyStage.REVOKE_OVERCLOCK, revoke_engage, revoke_release
        )
        coordinator.register(PowerEmergencyStage.SHED_LOAD, shed_engage)
        coordinator.register(
            PowerEmergencyStage.ISOLATE, isolate_engage, isolate_release
        )

    # ------------------------------------------------------------------
    # The control tick: draws -> breakers -> ladder
    # ------------------------------------------------------------------
    def tick() -> None:
        now = simulator.now
        level, goal = surge["level"], surge["goal"]
        if level < goal:
            surge["level"] = min(goal, level + SURGE_RAMP_PER_TICK)
        elif level > goal:
            surge["level"] = max(goal, level - SURGE_RAMP_PER_TICK)
        draws = {}
        for name in host_names:
            watts = hosts[name].power_watts(UTILIZATION)
            if surge["level"] and name in surged_hosts:
                watts *= 1.0 + surge["level"]
            draws[name] = watts
        rolled = hierarchy.rollup(draws)
        stats["peak_row_draw"] = max(stats["peak_row_draw"], rolled[SURGE_TARGET])
        headroom = min(
            (node.rated_watts - rolled[name]) / node.rated_watts
            for name, node in hierarchy.nodes.items()
        )
        stats["min_headroom"] = min(stats["min_headroom"], headroom)

        for node_name in hierarchy.observe_breakers(now, CONTROL_TICK_S, draws):
            node = hierarchy.nodes[node_name]
            trips.append(node_name)
            timeline.record(
                now,
                BREAKER_TRIP,
                node_name,
                f"draw={rolled[node_name]:.0f}W rated={node.rated_watts:.0f}W",
            )
        if trips:
            for name in hierarchy.dead_hosts():
                host = hosts[name]
                if host.failed:
                    continue
                crashed = host.fail(now)
                lost_vms.extend(vm.vm_id for vm in crashed)
                drop_host_grants(name)
                timeline.record(
                    now,
                    FaultKind.HOST_FAILURE.value,
                    name,
                    f"upstream breaker trip crashed {len(crashed)} VMs",
                )

        if coordinator is not None:
            coordinator.observe(now, headroom)

    simulator.every(CONTROL_TICK_S, tick, name="ctl:tick")
    simulator.run(until=horizon_s)

    hosts_lost = sum(1 for host in hosts.values() if host.failed)
    return CrisisRunResult(
        config="arbitrated" if arbitrated else "naive",
        vms_requested=VM_COUNT,
        vms_admitted=stats["admitted"],
        admissions_denied=stats["denied"],
        overclocks_granted=stats["oc_granted"],
        overclocks_denied=stats["oc_denied"],
        breaker_trips=tuple(trips),
        row_breaker_trips=sum(
            1
            for name in trips
            if hierarchy.nodes[name].level is DeliveryLevel.ROW
        ),
        hosts_lost=hosts_lost,
        vms_lost=len(lost_vms),
        vms_shed=stats["shed"],
        max_stage=max_stage(timeline, PowerEmergencyStage, POWER_ESCALATE),
        peak_row_draw_w=stats["peak_row_draw"],
        min_headroom_fraction=stats["min_headroom"],
        oc_regranted_at_s=regrant["at_s"],
        escalations=power_counters.escalations,
        relaxations=power_counters.relaxations,
        rearms=power_counters.rearms,
        timeline_signature=timeline.signature(),
        timeline=timeline.events,
    )


@dataclass(frozen=True)
class CrisisComparison:
    """Naive vs arbitrated fleet under the same oversubscription crisis."""

    naive: CrisisRunResult
    arbitrated: CrisisRunResult


def run_oversubscription_crisis(seed: int = 1, **overrides) -> CrisisComparison:
    """Race both fleets through the identical crisis.

    ``overrides`` forwards experiment parameters (``horizon_s``, ...)
    to :func:`run_oversubscription_mode`.
    """
    return CrisisComparison(
        naive=run_oversubscription_mode(arbitrated=False, seed=seed, **overrides),
        arbitrated=run_oversubscription_mode(arbitrated=True, seed=seed, **overrides),
    )


#: Timeline kinds worth showing in full in the CLI rendering.
_KEY_EVENT_KINDS = (
    "power-underprediction",
    "power-surge",
    "power-denied",
    "power-escalate",
    "power-relax",
    "recovered",
    BREAKER_TRIP,
    FaultKind.HOST_FAILURE.value,
)


def format_oversubscription_crisis(
    comparison: CrisisComparison | None = None, seed: int = 1
) -> str:
    comparison = (
        comparison if comparison is not None else run_oversubscription_crisis(seed=seed)
    )

    def fmt_time(value: float | None) -> str:
        return f"t={value:.0f}s" if value is not None else "never"

    rows = [
        (
            run.config,
            f"{run.vms_admitted}/{run.vms_requested}",
            str(run.admissions_denied),
            f"{run.overclocks_granted}/{run.overclocks_denied}",
            str(len(run.breaker_trips)),
            str(run.hosts_lost),
            f"{run.vms_lost}/{run.vms_shed}",
            str(run.max_stage),
            f"{run.min_headroom_fraction:+.3f}",
            fmt_time(run.oc_regranted_at_s),
        )
        for run in (comparison.naive, comparison.arbitrated)
    ]
    table = render_table(
        [
            "Config",
            "VMs adm/req",
            "Denied",
            "OC grant/deny",
            "Trips",
            "Hosts lost",
            "VMs lost/shed",
            "Max stage",
            "Min headroom",
            "OC regrant",
        ],
        rows,
        title=(
            f"Oversubscription crisis — predictor -{UNDERPREDICTION:.0%} at "
            f"t={UNDERPREDICTION_AT_S:.0f}s, +{SURGE_MAGNITUDE:.0%} surge on "
            f"{SURGE_TARGET} at t={SURGE_AT_S:.0f}s for {SURGE_DURATION_S:.0f}s"
        ),
    )
    lines = [table, ""]
    for run in (comparison.naive, comparison.arbitrated):
        lines.append(
            f"{run.config} timeline (signature {run.timeline_signature[:16]}…, "
            f"{len(run.timeline)} events):"
        )
        lines.extend(key_event_lines(run.timeline, _KEY_EVENT_KINDS))
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "CrisisRunResult",
    "CrisisComparison",
    "build_crisis_hierarchy",
    "run_oversubscription_mode",
    "run_oversubscription_crisis",
    "format_oversubscription_crisis",
    "BREAKER_TRIP",
    "SURGE_TARGET",
    "LOW_PRIORITY_RACK",
    "UNDERPREDICTION",
    "SURGE_MAGNITUDE",
]
