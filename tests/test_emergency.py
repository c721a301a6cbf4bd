"""Unit tests for the facility-emergency subsystem.

Covers the pieces the heat-wave chaos test exercises end-to-end:
the degradation ladder's state machine, the facility fault models and
their injectors, the tank fluid energy balance, emergency-priority
command delivery, reconciler starvation accounting, the safety
supervisor's facility path, and the fleet-level emergency actions
(controlled shutdown, evacuation, uniform capping, hottest-first
triage).
"""

import pytest

from repro.cli import main as cli_main
from repro.cluster.fleet import hottest_first
from repro.cluster.host import Host
from repro.cluster.migration import MigrationManager, evacuate_host
from repro.cluster.power_cap import PowerCapGovernor
from repro.cluster.vm import VMInstance, VMSpec
from repro.control.link import ActuationLink
from repro.emergency import (
    EmergencyCoordinator,
    EmergencyStage,
    LadderConfig,
    worst_margin_c,
)
from repro.errors import ConfigurationError, TelemetryDegraded
from repro.faults import (
    FACILITY_FAULT_KINDS,
    POWER_FAULT_KINDS,
    FaultCampaign,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultTimeline,
    register_facility_injectors,
)
from repro.reliability.safety import SafetyConfig, SafetySupervisor
from repro.sim.kernel import Simulator
from repro.thermal import FC_3284, FacilityState, TankFluidRC


# ----------------------------------------------------------------------
# LadderConfig + worst_margin_c
# ----------------------------------------------------------------------
def test_ladder_margins_must_strictly_decrease():
    with pytest.raises(ConfigurationError):
        LadderConfig(revoke_margin_c=20.0, cap_margin_c=20.0)
    with pytest.raises(ConfigurationError):
        LadderConfig(evacuate_margin_c=9.0, shutdown_margin_c=10.0)
    with pytest.raises(ConfigurationError):
        LadderConfig(hysteresis_c=0.0)
    with pytest.raises(ConfigurationError):
        LadderConfig(relax_clean_ticks=0)
    with pytest.raises(ConfigurationError):
        LadderConfig().margin_for(EmergencyStage.NORMAL)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "field",
    [
        "revoke_margin_c",
        "cap_margin_c",
        "evacuate_margin_c",
        "shutdown_margin_c",
        "hysteresis_c",
        "relax_clean_ticks",
    ],
)
def test_ladder_config_rejects_non_finite_settings(field, bad):
    # Construction only: a NaN margin passes the ordering comparison and
    # leaves a rung that never engages.
    with pytest.raises(ConfigurationError):
        LadderConfig(**{field: bad})


def test_worst_margin_is_the_hottest_hosts_headroom():
    assert worst_margin_c({}, 110.0) == float("inf")
    assert worst_margin_c({"a": 100.0, "b": 90.0}, 110.0) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# EmergencyCoordinator
# ----------------------------------------------------------------------
def _wired_coordinator(**kwargs):
    coordinator = EmergencyCoordinator(**kwargs)
    actions: list[str] = []
    for stage in list(EmergencyStage)[1:]:
        name = stage.name.lower()
        coordinator.register(
            stage,
            engage=lambda name=name: (actions.append(f"engage:{name}"), name)[1],
            release=lambda name=name: (actions.append(f"release:{name}"), name)[1],
        )
    return coordinator, actions


def test_fast_transient_escalates_through_every_crossed_rung():
    coordinator, actions = _wired_coordinator()
    stage = coordinator.observe(0.0, margin_c=12.0)  # below evacuate (15), above shutdown (10)
    assert stage is EmergencyStage.EVACUATE
    assert actions == ["engage:revoke_overclock", "engage:power_cap", "engage:evacuate"]
    assert coordinator.counters.escalations == 3
    assert coordinator.counters.overclock_revokes == 1
    assert coordinator.counters.power_caps == 1
    assert coordinator.counters.evacuations == 1
    assert coordinator.counters.shutdowns == 0
    assert coordinator.emergency


def test_relaxation_needs_hysteresis_and_steps_one_rung_at_a_time():
    config = LadderConfig(relax_clean_ticks=2)
    coordinator, actions = _wired_coordinator(config=config)
    coordinator.observe(0.0, margin_c=18.0)  # engage revoke + cap
    actions.clear()

    # Above the cap threshold but inside the hysteresis band: not clean.
    for tick in range(5):
        assert coordinator.observe(float(tick), 21.0) is EmergencyStage.POWER_CAP
    assert actions == []

    # Two clean ticks release one rung — only one, even though the
    # margin would also satisfy the revoke rung's clear level later.
    coordinator.observe(10.0, 29.0)
    assert coordinator.stage is EmergencyStage.POWER_CAP
    coordinator.observe(11.0, 29.0)
    assert coordinator.stage is EmergencyStage.REVOKE_OVERCLOCK
    assert actions == ["release:power_cap"]

    # Two more walk all the way back to NORMAL and count a re-arm.
    coordinator.observe(12.0, 29.0)
    coordinator.observe(13.0, 29.0)
    assert coordinator.stage is EmergencyStage.NORMAL
    assert not coordinator.emergency
    assert coordinator.counters.relaxations == 2
    assert coordinator.counters.rearms == 1


def test_escalation_tick_never_counts_toward_relaxation():
    config = LadderConfig(relax_clean_ticks=1)
    coordinator, _ = _wired_coordinator(config=config)
    # 24 engages the revoke rung (threshold 25) and already sits clear
    # of 25 + hysteresis? No: 24 < 28 — but even with margin 27.9 the
    # escalation tick itself must not double as a clean tick.
    coordinator.observe(0.0, 24.0)
    assert coordinator.stage is EmergencyStage.REVOKE_OVERCLOCK
    coordinator.observe(1.0, 40.0)
    assert coordinator.stage is EmergencyStage.NORMAL


def test_coordinator_mirrors_state_into_the_safety_supervisor():
    safety = SafetySupervisor()
    config = LadderConfig(relax_clean_ticks=1)
    coordinator, _ = _wired_coordinator(config=config, safety=safety)
    coordinator.observe(0.0, 20.0)
    assert safety.facility_emergency
    assert safety.degraded
    assert safety.facility_emergency_events == 1
    with pytest.raises(TelemetryDegraded):
        safety.check()
    # Walk back: POWER_CAP -> REVOKE -> NORMAL clears the flag.
    coordinator.observe(1.0, 40.0)
    coordinator.observe(2.0, 40.0)
    assert not safety.facility_emergency
    assert not safety.degraded
    assert safety.rearm_events == 1


def test_coordinator_records_transitions_on_the_timeline():
    timeline = FaultTimeline()
    config = LadderConfig(relax_clean_ticks=1)
    coordinator, _ = _wired_coordinator(config=config, timeline=timeline)
    coordinator.observe(0.0, 24.0)
    coordinator.observe(1.0, 40.0)
    kinds = [(event.kind, event.target) for event in timeline.events]
    assert kinds == [
        ("emergency-escalate", "revoke_overclock"),
        ("emergency-relax", "revoke_overclock"),
    ]


def test_normal_is_not_a_registrable_stage():
    coordinator = EmergencyCoordinator()
    with pytest.raises(ConfigurationError):
        coordinator.register(EmergencyStage.NORMAL, engage=lambda: "nope")


# ----------------------------------------------------------------------
# FacilityState + facility fault injectors
# ----------------------------------------------------------------------
def test_condenser_fraction_multiplies_derates_and_clamps():
    state = FacilityState(pump_fraction=0.5, water_fraction=0.8, power_fraction=0.5)
    assert state.condenser_fraction() == pytest.approx(0.2)
    assert state.effective_capacity_watts(1000.0) == pytest.approx(200.0)
    # A heat wave past the collapse span pins rejection at zero.
    state.ambient_extra_c = 45.0
    assert state.condenser_fraction() == 0.0
    assert state.ambient_c == pytest.approx(67.0)


def test_facility_state_validates_fractions():
    with pytest.raises(ConfigurationError):
        FacilityState(pump_fraction=1.5)
    with pytest.raises(ConfigurationError):
        FacilityState(ambient_collapse_c=0.0)
    with pytest.raises(ConfigurationError):
        FacilityState().effective_capacity_watts(-1.0)


def test_facility_faults_derate_and_recover_the_plant():
    simulator = Simulator(seed=5)
    state = FacilityState()
    plan = FaultPlan(
        seed=5,
        scenario="unit-facility",
        specs=(
            FaultSpec(
                kind=FaultKind.FACILITY_CONDENSER,
                target="plant",
                at_s=10.0,
                magnitude=0.6,
                duration_s=30.0,
            ),
            FaultSpec(
                kind=FaultKind.FACILITY_HEATWAVE,
                target="plant",
                at_s=20.0,
                magnitude=15.0,
                duration_s=40.0,
            ),
        ),
    )
    campaign = FaultCampaign(simulator, plan)
    register_facility_injectors(campaign, {"plant": state})
    campaign.arm()

    simulator.run(until=15.0)
    assert state.pump_fraction == pytest.approx(0.4)
    simulator.run(until=25.0)  # heat wave on top of the pump loss
    assert state.ambient_extra_c == pytest.approx(15.0)
    assert state.condenser_fraction() == pytest.approx(0.4 * (1.0 - 15.0 / 30.0))
    simulator.run(until=100.0)  # both cleared
    assert state.pump_fraction == pytest.approx(1.0)
    assert state.ambient_extra_c == pytest.approx(0.0)
    assert state.condenser_fraction() == pytest.approx(1.0)

    kinds = [event.kind for event in campaign.timeline.events]
    assert kinds == [
        "facility-condenser",
        "facility-heatwave",
        "recovered",
        "recovered",
    ]


def test_facility_injectors_cover_every_facility_kind():
    simulator = Simulator(seed=1)
    campaign = FaultCampaign(
        simulator, FaultPlan(seed=1, scenario="empty", specs=())
    )
    register_facility_injectors(campaign, {"plant": FacilityState()})
    assert len(FACILITY_FAULT_KINDS) == 4


# ----------------------------------------------------------------------
# TankFluidRC
# ----------------------------------------------------------------------
def test_cooling_deficit_saturates_then_superheats_the_pool():
    # 1000 g * 1.1 J/gK = 1100 J/K; net deficit 1100 W = 1 K/s.
    pool = TankFluidRC(FC_3284, 1000.0, 500.0)
    assert pool.fluid_temp_c == pytest.approx(pool.saturation_c - 4.0)
    assert pool.reference_offset_c == pytest.approx(-4.0)

    pool.set_heat(0.0, 1600.0)
    assert pool.sample(4.0) == pytest.approx(pool.saturation_c)
    assert pool.superheat_c == pytest.approx(0.0)
    # Further deficit builds vapor pressure, not liquid temperature.
    assert pool.sample(10.0) == pytest.approx(pool.saturation_c)
    assert pool.superheat_c == pytest.approx(6.0)
    assert pool.reference_offset_c == pytest.approx(6.0)

    # Kill the heat: the pool relaxes back to its nominal subcool and
    # never overshoots below the equilibrium the condenser can hold.
    pool.set_heat(10.0, 0.0)
    assert pool.sample(1000.0) == pytest.approx(pool.saturation_c - 4.0)
    assert pool.superheat_c == pytest.approx(0.0)


def test_derated_condenser_holds_a_shallower_subcool():
    pool = TankFluidRC(FC_3284, 1000.0, 1000.0)
    pool.set_heat(0.0, 3000.0)  # heat the pool up to saturation first
    pool.sample(10.0)
    pool.set_heat(10.0, 0.0)
    pool.set_capacity(10.0, 500.0)  # half capacity -> half the subcool
    assert pool.sample(10_000.0) == pytest.approx(pool.saturation_c - 2.0)
    # Cooling never pushes the pool below its achievable equilibrium —
    # and never *raises* it toward a shallower one either.
    pool.set_capacity(10_000.0, 250.0)
    assert pool.sample(20_000.0) == pytest.approx(pool.saturation_c - 2.0)


def test_tank_fluid_rc_validates_inputs():
    with pytest.raises(ConfigurationError):
        TankFluidRC(FC_3284, 0.0, 500.0)
    pool = TankFluidRC(FC_3284, 1000.0, 500.0)
    with pytest.raises(ConfigurationError):
        pool.set_heat(0.0, -1.0)
    pool.sample(5.0)
    with pytest.raises(ConfigurationError):
        pool.sample(4.0)  # cannot integrate backwards


# ----------------------------------------------------------------------
# Emergency-priority delivery + reconciler starvation
# ----------------------------------------------------------------------
def test_emergency_commands_bypass_an_open_breaker():
    simulator = Simulator(seed=11)
    link = ActuationLink(simulator, seed=11, lease_misses=10**6)
    applied: list[float] = []
    link.add_host("h0", base_frequency_ghz=3.4, apply_frequency=applied.append)

    breaker = link.bus.breaker_for("h0")
    for _ in range(3):
        breaker.record_failure(simulator.now)
    assert breaker.is_open

    # A normal send fast-fails locally while the breaker is open.
    link.set_frequency(3.2, hosts=("h0",))
    simulator.run(until=5.0)
    assert link.counters.breaker_fast_fails >= 1
    assert 3.2 not in applied

    # The emergency revoke goes out anyway and lands.
    link.set_frequency(3.0, hosts=("h0",), emergency=True)
    simulator.run(until=10.0)
    assert link.counters.emergency_bypasses >= 1
    assert 3.0 in applied


def test_reconciler_surfaces_breaker_starved_hosts_to_safety():
    simulator = Simulator(seed=3)
    timeline = FaultTimeline()
    link = ActuationLink(simulator, seed=3, lease_misses=10**6, timeline=timeline)
    link.add_host("h0", base_frequency_ghz=3.4)
    reconciler = link.reconciler
    safety = SafetySupervisor(
        config=SafetyConfig(max_suspect_ticks=3, rearm_clean_samples=2)
    )
    reconciler.attach_safety(safety)

    reconciler.set_desired_frequency("h0", 4.1)  # reported stays 3.4
    breaker = link.bus.breaker_for("h0")
    for _ in range(3):
        breaker.record_failure(simulator.now)

    # Two skipped ticks are still below the starvation threshold.
    reconciler.tick()
    reconciler.tick()
    assert link.counters.reconcile_starved == 0
    assert not safety.degraded

    # The third consecutive skip flags starvation exactly once...
    reconciler.tick()
    assert link.counters.reconcile_starved == 1
    assert [e.kind for e in timeline.events].count("reconcile-starved") == 1

    # ...and sustained starvation degrades the supervisor.
    reconciler.tick()
    reconciler.tick()
    assert safety.actuation_degraded
    assert safety.degraded

    # Breaker re-closes: the repair is issued, the streak clears, and
    # clean ticks re-arm the supervisor.
    breaker.record_success()
    reconciler.tick()
    reconciler.tick()
    assert not safety.actuation_degraded
    assert link.counters.reconcile_starved == 1  # never re-counted


def test_observe_facility_edges_drive_degrade_and_rearm_counts():
    safety = SafetySupervisor()
    assert safety.observe_facility(10.0, True, detail="pump loss")
    assert safety.observe_facility(11.0, True)  # level, not edge
    assert safety.facility_emergency_events == 1
    assert safety.degrade_events == 1
    assert not safety.observe_facility(12.0, False)
    assert safety.rearm_events == 1
    assert not safety.degraded


# ----------------------------------------------------------------------
# Fleet-level emergency actions
# ----------------------------------------------------------------------
def _host_with_vms(host_id, count, vcores=14, memory_gb=32.0):
    host = Host(host_id)
    for index in range(count):
        host.place(
            VMInstance(
                vm_id=f"{host_id}-vm{index}",
                spec=VMSpec(vcores=vcores, memory_gb=memory_gb),
            )
        )
    return host


def test_controlled_shutdown_loses_residents_and_restores_clean():
    host = _host_with_vms("h0", 1)
    lost = host.controlled_shutdown(time=42.0)
    assert [vm.vm_id for vm in lost] == ["h0-vm0"]
    assert host.failed and host.shut_down
    with pytest.raises(ConfigurationError):
        host.controlled_shutdown()
    host.restore()
    assert not host.failed and not host.shut_down


def test_crash_failure_is_not_a_controlled_shutdown():
    host = _host_with_vms("h0", 1)
    host.fail(time=1.0)
    assert host.failed and not host.shut_down


def test_evacuation_drains_in_vm_id_order_to_first_fit():
    simulator = Simulator(seed=1)
    manager = MigrationManager(simulator)
    source = _host_with_vms("src", 2)
    crowded = _host_with_vms("d0", 1)  # room for exactly one more VM
    empty = Host("d1")
    dead = Host("d2")
    dead.fail()

    records = evacuate_host(manager, source, [dead, crowded, empty])
    assert [(r.plan.vm_id, r.destination_id) for r in records] == [
        ("src-vm0", "d0"),
        ("src-vm1", "d1"),
    ]
    simulator.run(until=60.0)
    assert [vm.vm_id for vm in source.vms if vm.is_active] == []
    assert {vm.vm_id for vm in crowded.vms if vm.is_active} == {"d0-vm0", "src-vm0"}
    assert {vm.vm_id for vm in empty.vms if vm.is_active} == {"src-vm1"}


def test_evacuation_leaves_unplaceable_vms_behind():
    simulator = Simulator(seed=1)
    manager = MigrationManager(simulator)
    source = _host_with_vms("src", 2)
    full = _host_with_vms("d0", 2)
    records = evacuate_host(manager, source, [full])
    assert records == []
    assert len([vm for vm in source.vms if vm.is_active]) == 2


def test_fleet_cap_skips_downed_hosts():
    governor = PowerCapGovernor()
    busy = _host_with_vms("a", 2)
    down = _host_with_vms("b", 2)
    down.controlled_shutdown()
    results = governor.enforce_fleet([busy, down], cap_watts_per_host=170.0)
    assert [result.host_id for result in results] == ["a"]
    assert results[0].capped
    assert results[0].final_watts <= 170.0


def test_hottest_first_is_deterministic_and_skips_failed_hosts():
    hosts = [Host("a"), Host("b"), Host("c"), Host("d")]
    hosts[3].fail()
    order = hottest_first(hosts, {"a": 100.0, "b": 105.0, "d": 120.0})
    assert [host.host_id for host in order] == ["b", "a", "c"]


# ----------------------------------------------------------------------
# CLI fault catalog
# ----------------------------------------------------------------------
def test_cli_faults_list_is_sorted_and_complete(capsys):
    assert cli_main(["faults", "--list"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    blank = lines.index("")
    assert lines[0] == "Fault kinds:"
    kinds = [line.strip() for line in lines[1:blank]]
    assert kinds == sorted(kinds)
    assert {kind.value for kind in FACILITY_FAULT_KINDS} <= set(kinds)
    assert {kind.value for kind in POWER_FAULT_KINDS} <= set(kinds)
    assert lines[blank + 1] == "Fault scenarios:"
    scenarios = [line.split()[0] for line in lines[blank + 2 :] if line.strip()]
    assert scenarios == sorted(scenarios)
    assert "heatwave" in scenarios
    assert "oversubscribe" in scenarios

    # Stable across invocations (the docs-diffability contract).
    assert cli_main(["faults", "--list"]) == 0
    assert capsys.readouterr().out == out
