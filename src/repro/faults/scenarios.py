"""Named fault scenarios for the CLI (``python -m repro faults ...``).

Each scenario builds a small self-contained model, arms a
:class:`~repro.faults.injectors.FaultCampaign` from a seeded
:class:`~repro.faults.plan.FaultPlan`, runs it, and renders the outcome
plus the event timeline and its signature. The naive-vs-robust
comparison scenarios are their experiments' own ``format_*`` reports,
called with ``seed=``. Re-running with the same ``--seed`` reproduces
the timeline byte-for-byte; changing the seed re-rolls every sampled
fault time.

This module imports :mod:`repro.experiments` and therefore must not be
imported from ``repro.faults.__init__`` (the experiments themselves use
the fault substrate).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, TextIO

from ..cluster.host import Host
from ..cluster.lifecycle import VMLifecycleManager
from ..cluster.power_cap import enforce_delivery_limits
from ..cluster.vm import VMInstance, VMSpec
from ..errors import PowerBudgetExceeded
from ..experiments.degraded_telemetry import format_degraded_telemetry
from ..experiments.failure_recovery import format_failure_recovery
from ..experiments.heatwave_ride_through import format_heatwave_ride_through
from ..experiments.oversubscription_crisis import format_oversubscription_crisis
from ..experiments.partition_recovery import format_partition_recovery
from ..experiments.sdc_hunt import format_sdc_hunt
from ..experiments.tables import render_table
from ..power.tree import (
    DeliveryLevel,
    DeliveryNode,
    PowerDeliveryHierarchy,
    build_uniform_hierarchy,
)
from ..reliability.stability import StabilityModel
from ..rollout import (
    CallbackEnvelopeActuator,
    CanaryAnalyzer,
    CanaryPolicy,
    EnvelopeChange,
    HostSignals,
    RolloutController,
    RolloutPlan,
)
from ..sim.kernel import Simulator
from ..telemetry.counters import RolloutCounters
from ..thermal.tank import ImmersedLoad, small_tank_1
from .injectors import (
    FaultCampaign,
    PowerTripInjector,
    ThermalExcursionInjector,
    VMCrashInjector,
    register_rollout_injectors,
)
from .plan import FaultKind, FaultPlan, FaultSpec
from .timeline import FaultTimeline


def _with_timeline(body: str, timeline: FaultTimeline) -> str:
    return (
        f"{body}\n\nFault timeline (signature {timeline.signature()[:16]}...):\n"
        f"{timeline.describe()}"
    )


def _crash_storm(seed: int) -> str:
    """Sampled overclock-induced crash times across the margin ramp.

    One VM per overclock ratio between the stable and crash margins;
    each crash time is drawn from the stability model's crash rate, so
    the table makes the exponential ramp tangible: a ratio step of one
    e-folding width (0.025) shortens the expected time-to-crash ~2.7x.
    """
    stability = StabilityModel()
    ratios = (1.24, 1.26, 1.28, 1.30, 1.32, 1.34)
    horizon_s = 183.0 * 24 * 3600.0  # the paper's six-month window
    simulator = Simulator(seed=seed)
    lifecycle = VMLifecycleManager(simulator)
    crashed: dict[str, float] = {}

    vms: dict[str, str] = {}
    for ratio in ratios:
        vm = lifecycle.request_vm(VMSpec(vcores=4, memory_gb=16.0), latency_override_s=0.0)
        vms[f"{ratio:.2f}"] = vm.vm_id

    plan = FaultPlan(
        seed=seed,
        scenario="crash-storm",
        specs=tuple(
            FaultSpec(
                kind=FaultKind.VM_CRASH,
                target=f"{ratio:.2f}",
                rate_per_hour=stability.crash_rate_per_hour(ratio),
            )
            for ratio in ratios
        ),
    )

    def crash(target: str) -> None:
        lifecycle.fail_vm(vms[target])
        crashed[target] = simulator.now

    campaign = FaultCampaign(simulator, plan)
    campaign.register(VMCrashInjector(on_crash=crash, stability=stability))
    campaign.arm()
    simulator.run(until=horizon_s)

    rows = []
    for ratio in ratios:
        key = f"{ratio:.2f}"
        rate = stability.crash_rate_per_hour(ratio)
        when = crashed.get(key)
        rows.append(
            (
                key,
                f"{rate:.2e}/h",
                f"{when / 86_400.0:.1f} d" if when is not None else "(survived 6 mo)",
            )
        )
    table = render_table(
        ["OC ratio", "Crash rate", "First crash"],
        rows,
        title="Crash storm: overclock-induced crashes over six months",
    )
    return _with_timeline(table, campaign.timeline)


def _thermal_excursion(seed: int) -> str:
    """A coolant excursion in small tank #1 pushes Tj toward Tjmax."""
    tank = small_tank_1()
    load_watts = 600.0
    tank.immerse(ImmersedLoad(name="w3175x", power_watts=load_watts))
    junction = tank.junction_model_for("w3175x")
    simulator = Simulator(seed=seed)

    plan = FaultPlan(
        seed=seed,
        scenario="thermal-excursion",
        specs=(
            FaultSpec(
                kind=FaultKind.THERMAL_EXCURSION,
                target="w3175x",
                at_s=60.0,
                magnitude=30.0,
                duration_s=300.0,
            ),
        ),
    )
    campaign = FaultCampaign(simulator, plan)
    injector = ThermalExcursionInjector(
        junctions={"w3175x": junction}, load_watts=lambda target: load_watts
    )
    campaign.register(injector)
    campaign.arm()
    simulator.run(until=600.0)

    nominal_tj = junction.junction_temp_c(load_watts)
    excursion_tj = injector.elevated_model("w3175x", 30.0).junction_temp_c(load_watts)
    rows = [
        ("nominal", f"{junction.reference_temp_c:.1f} C", f"{nominal_tj:.1f} C", "-"),
        (
            "excursion (+30 C)",
            f"{junction.reference_temp_c + 30.0:.1f} C",
            f"{excursion_tj:.1f} C",
            "ALARM" if excursion_tj > junction.tj_max_c else "ok",
        ),
    ]
    table = render_table(
        ["Condition", "Coolant ref", "Tj @ 600 W", "Tjmax check"],
        rows,
        title="Thermal excursion: small tank #1, HFE-7000, BEC on IHS",
    )
    return _with_timeline(table, campaign.timeline)


def _power_trip(seed: int) -> str:
    """A rack breaker derates 30% and priority-aware capping resolves it."""

    def make_host(host_id: str) -> Host:
        host = Host(host_id)
        host.place(
            VMInstance(
                vm_id=f"vm-{host_id}",
                spec=VMSpec(vcores=host.spec.pcores, memory_gb=64.0),
            )
        )
        return host

    # One row feeding two racks of three hosts; rack-0's hosts shed first.
    nodes = [DeliveryNode("row", DeliveryLevel.ROW, 1400.0)]
    hosts: dict[str, tuple[Host, int]] = {}
    for rack_index in range(2):
        rack = f"rack-{rack_index}"
        nodes.append(DeliveryNode(rack, DeliveryLevel.RACK_PDU, 700.0, parent="row"))
        for host_index in range(3):
            name = f"r{rack_index}-h{host_index}"
            nodes.append(DeliveryNode(name, DeliveryLevel.HOST, 400.0, parent=rack))
            hosts[name] = (make_host(name), 0 if rack_index == 0 else 10)
    hierarchy = PowerDeliveryHierarchy(nodes)
    simulator = Simulator(seed=seed)
    utilization = 0.9
    capped: list[str] = []

    def draw_watts(target: str) -> float:
        host_draws = {name: host.power_watts(utilization) for name, (host, _) in hosts.items()}
        return hierarchy.rollup(host_draws)[target]

    def on_trip(node) -> None:
        try:
            for result in enforce_delivery_limits(hierarchy, hosts, utilization):
                if result.capped:
                    capped.append(
                        f"{result.host_id}: {result.original_core_ghz:.1f} -> "
                        f"{result.final_core_ghz:.1f} GHz ({result.final_watts:.0f} W)"
                    )
        except PowerBudgetExceeded as error:
            capped.append(f"UNRESOLVED: {error}")

    plan = FaultPlan(
        seed=seed,
        scenario="power-trip",
        specs=(
            FaultSpec(
                kind=FaultKind.POWER_TRIP,
                target="rack-0",
                at_s=60.0,
                magnitude=0.3,
                duration_s=120.0,
            ),
        ),
    )
    campaign = FaultCampaign(simulator, plan)
    campaign.register(
        PowerTripInjector(
            nodes={"rack-0": hierarchy.nodes["rack-0"]}, draw_watts=draw_watts, on_trip=on_trip
        )
    )
    campaign.arm()
    simulator.run(until=300.0)

    body = render_table(
        ["Capping action"],
        [(line,) for line in capped] or [("(no capping needed)",)],
        title="Power trip: rack-0 breaker derated 30% for 120 s",
    )
    return _with_timeline(body, campaign.timeline)


def _envelope_rollout(seed: int) -> str:
    """Rollout faults through the real campaign path.

    A wedged canary push (``rollout-stall``, shorter than the stall
    budget, so it is tolerated) followed by a mid-rollout envelope
    re-characterization (``bad-envelope``) that crashes every exposed
    host — which the canary analysis catches and rolls back.
    """
    hierarchy = build_uniform_hierarchy(
        hosts_per_rack=6, racks_per_row=2, rows_per_ups=2
    )
    change = EnvelopeChange(
        change_id="scenario-push", from_ratio=1.23, to_ratio=1.26
    )
    plan = RolloutPlan.from_hierarchy(hierarchy, change, seed=seed)
    wedged_canary = plan.waves[0].hosts[0]

    simulator = Simulator(seed=seed)
    ratios = {host: change.from_ratio for host in hierarchy.hosts}
    actuator = CallbackEnvelopeActuator(
        lambda host, ratio: ratios.__setitem__(host, ratio)
    )
    fault_plan = FaultPlan(
        seed=seed,
        scenario="envelope-rollout",
        specs=(
            FaultSpec(
                kind=FaultKind.ROLLOUT_STALL,
                target=wedged_canary,
                at_s=0.5,
                duration_s=2.0,
            ),
            FaultSpec(
                kind=FaultKind.BAD_ENVELOPE,
                target="fleet",
                at_s=6.5,
                magnitude=0.07,
            ),
        ),
    )
    campaign = FaultCampaign(simulator, fault_plan)
    bad_envelope = {"active": False}

    def on_bad_envelope(target: str, magnitude: float) -> None:
        bad_envelope["active"] = True

    def on_stall(target: str, duration_s: float) -> None:
        actuator.inject_stall(target, max(1, int(duration_s)))

    register_rollout_injectors(
        campaign, on_bad_envelope=on_bad_envelope, on_stall=on_stall
    )
    campaign.arm()

    controller = RolloutController(
        plan,
        actuator,
        analyzer=CanaryAnalyzer(CanaryPolicy(window_hours=1.0)),
        counters=RolloutCounters(),
        timeline=campaign.timeline,
    )

    def tick() -> None:
        signals = {
            host: (
                HostSignals(crashes=1, guard_limited=True, goodput=0.0)
                if bad_envelope["active"] and ratios[host] > change.from_ratio
                else HostSignals(goodput=100.0, p99_s=0.2)
            )
            for host in hierarchy.hosts
        }
        controller.tick(simulator.now, signals)

    for step in range(1, 16):
        simulator.after(float(step), tick, name=f"rollout-tick:{step}")
    simulator.run(until=16.0)

    exposed = controller.exposed_hosts
    rows = [
        ("Fleet", f"{len(hierarchy.hosts)} hosts, {len(plan.waves)} waves"),
        ("Wedged canary", wedged_canary),
        ("Exposed before rollback", f"{len(exposed)}/{len(hierarchy.hosts)}"),
        ("Final phase", controller.phase),
        (
            "Envelopes restored",
            "yes"
            if all(ratio == change.from_ratio for ratio in ratios.values())
            else "NO",
        ),
        ("Counters", controller.counters.describe()),
    ]
    body = render_table(
        ["Outcome", "Value"],
        rows,
        title="Envelope rollout: wedged push tolerated, bad envelope rolled back",
    )
    return _with_timeline(body, campaign.timeline)


@dataclass(frozen=True)
class ScenarioSpec:
    """One CLI-runnable fault scenario; ``build(seed=N)`` renders it."""

    name: str
    description: str
    build: Callable[..., str]


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "host-failure",
            "Injected host failure: BASELINE vs OC recovery p95 (DES, ~1 min)",
            format_failure_recovery,
        ),
        ScenarioSpec(
            "crash-storm",
            "Overclock-induced crash times sampled from the stability model",
            _crash_storm,
        ),
        ScenarioSpec(
            "thermal-excursion",
            "Coolant excursion in small tank #1 pushing Tj toward Tjmax",
            _thermal_excursion,
        ),
        ScenarioSpec(
            "power-trip",
            "Rack breaker derate resolved by priority-aware power capping",
            _power_trip,
        ),
        ScenarioSpec(
            "degraded-telemetry",
            "Sensor faults masking a coolant excursion: naive vs fail-safe guard",
            format_degraded_telemetry,
        ),
        ScenarioSpec(
            "partition",
            "Severed command link: naive vs robust actuation (lease, reconcile)",
            format_partition_recovery,
        ),
        ScenarioSpec(
            "heatwave",
            "Condenser loss + heat wave: naive trip-out vs the emergency ladder",
            format_heatwave_ride_through,
        ),
        ScenarioSpec(
            "oversubscribe",
            "Predictor bias + synchronized surge: naive trips vs the arbiter",
            format_oversubscription_crisis,
        ),
        ScenarioSpec(
            "silicon-drift",
            "Margin drift + MCE bursts + SDC: naive fleet vs the health ladder",
            format_sdc_hunt,
        ),
        ScenarioSpec(
            "envelope-rollout",
            "Wedged canary push + bad envelope mid-rollout: canary rollback",
            _envelope_rollout,
        ),
    )
}


def list_scenarios() -> str:
    lines = ["Available fault scenarios:"]
    for name, spec in SCENARIOS.items():
        lines.append(f"  {name:20s} {spec.description}")
    lines.append("  all                  every scenario above")
    return "\n".join(lines)


def list_fault_catalog() -> str:
    """Stable, sorted listing of every fault kind and scenario.

    This is the ``python -m repro faults --list`` contract: the output
    is sorted (not registration-ordered) so docs and scripts can diff it
    across versions without spurious churn.
    """
    lines = ["Fault kinds:"]
    for kind in sorted(FaultKind, key=lambda kind: kind.value):
        lines.append(f"  {kind.value}")
    lines.append("")
    lines.append("Fault scenarios:")
    for name in sorted(SCENARIOS):
        lines.append(f"  {name:20s} {SCENARIOS[name].description}")
    return "\n".join(lines)


def run_scenarios(
    names: list[str], seed: int = 1, stream: TextIO | None = None
) -> int:
    """Run the named scenarios; returns a process exit code."""
    stream = stream if stream is not None else sys.stdout
    if not names:
        print(list_scenarios(), file=stream)
        return 0
    if names == ["all"]:
        names = list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=stream)
        print(list_scenarios(), file=stream)
        return 2
    for name in names:
        print(SCENARIOS[name].build(seed=seed), file=stream)
        print(file=stream)
    return 0


__all__ = [
    "ScenarioSpec",
    "SCENARIOS",
    "list_scenarios",
    "list_fault_catalog",
    "run_scenarios",
]
