"""Unit tests for the rollout subsystem: plan, analyzer, controller.

Covers wave derivation from the delivery tree (seeded canaries, blast
budget, partition invariants), the canary-vs-control decision rules,
the advance/halt/rollback ladder, freeze gating against the real
emergency/power/health coordinators, stall detection, snapshot/restore
round-trips, the rollout fault injectors through a real campaign, and
the command-bus actuator's emergency breaker bypass.
"""

from __future__ import annotations

import pytest

from repro.control import CommandBus, HostAgent, LossyChannel, RetryPolicy
from repro.emergency.ladder import EmergencyCoordinator
from repro.errors import ConfigurationError, FaultError, RolloutError
from repro.faults import (
    FaultCampaign,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RolloutFaultInjector,
    register_rollout_injectors,
)
from repro.faults.timeline import FaultTimeline
from repro.health import DriftDetector, FleetHealthCoordinator, MachineCheckEvent
from repro.power.ladder import PowerEmergencyCoordinator
from repro.power.tree import build_uniform_hierarchy
from repro.rollout import (
    PHASE_APPLYING,
    PHASE_COMPLETE,
    PHASE_PENDING,
    PHASE_ROLLED_BACK,
    BusEnvelopeActuator,
    CallbackEnvelopeActuator,
    CanaryAnalyzer,
    CanaryPolicy,
    CohortStats,
    EnvelopeChange,
    HostSignals,
    RolloutController,
    RolloutPlan,
    RolloutPlanConfig,
    RolloutStage,
    RolloutWave,
)
from repro.sim import Simulator
from repro.telemetry.counters import RolloutCounters

CHANGE = EnvelopeChange(change_id="test-change", from_ratio=1.23, to_ratio=1.27)


def hierarchy24():
    return build_uniform_hierarchy(
        hosts_per_rack=6, racks_per_row=2, rows_per_ups=2
    )


def manual_plan(bake_ticks=1, canary_bake_ticks=1):
    """A tiny two-wave plan over explicit host names."""
    return RolloutPlan(
        change=CHANGE,
        waves=(
            RolloutWave(0, "canary", ("a",), canary_bake_ticks),
            RolloutWave(1, "rest", ("b", "c", "d", "e", "f", "g", "h", "i", "j"), bake_ticks),
        ),
        config=RolloutPlanConfig(),
    )


def healthy_signals(hosts):
    return {h: HostSignals(goodput=100.0, p99_s=0.2) for h in hosts}


def crashing_signals(hosts, crashed):
    return {
        h: (
            HostSignals(crashes=1, guard_limited=True, goodput=0.0)
            if h in crashed
            else HostSignals(goodput=100.0, p99_s=0.2)
        )
        for h in hosts
    }


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class TestRolloutPlan:
    def test_waves_partition_the_fleet_rack_first(self):
        hierarchy = hierarchy24()
        plan = RolloutPlan.from_hierarchy(hierarchy, CHANGE, seed=1)
        assert [w.name for w in plan.waves] == ["canary", "rack", "row", "fleet"]
        assert [len(w.hosts) for w in plan.waves] == [2, 4, 6, 12]
        # Exact partition: every host exactly once.
        assert sorted(plan.hosts) == list(hierarchy.hosts)
        assert plan.fleet_size == 24
        # Canary + rack-rest together are one rack-level failure domain.
        rack = {h.rsplit("/", 1)[0] for h in plan.waves[0].hosts + plan.waves[1].hosts}
        assert len(rack) == 1

    def test_canary_selection_is_seeded_and_stable(self):
        hierarchy = hierarchy24()
        first = RolloutPlan.from_hierarchy(hierarchy, CHANGE, seed=7)
        again = RolloutPlan.from_hierarchy(hierarchy, CHANGE, seed=7)
        other = RolloutPlan.from_hierarchy(hierarchy, CHANGE, seed=8)
        assert first.waves[0].hosts == again.waves[0].hosts
        # A different seed re-rolls the draw (for this fleet shape).
        assert first.waves[0].hosts != other.waves[0].hosts

    def test_blast_radius_budget_is_enforced(self):
        small = build_uniform_hierarchy(hosts_per_rack=4, racks_per_row=2)
        with pytest.raises(ConfigurationError, match="blast-radius"):
            RolloutPlan.from_hierarchy(small, CHANGE, seed=1)
        # Loosening the budget admits the same shape.
        plan = RolloutPlan.from_hierarchy(
            small, CHANGE, config=RolloutPlanConfig(max_blast_radius_fraction=0.5)
        )
        assert plan.blast_radius_fraction == pytest.approx(0.25)

    def test_overlapping_waves_rejected(self):
        with pytest.raises(ConfigurationError, match="more than one wave"):
            RolloutPlan(
                change=CHANGE,
                waves=(
                    RolloutWave(0, "one", ("a",), 1),
                    RolloutWave(1, "two", ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j"), 1),
                ),
            )

    def test_wave_indices_must_be_consecutive(self):
        with pytest.raises(ConfigurationError, match="consecutive"):
            RolloutPlan(
                change=CHANGE,
                waves=(RolloutWave(1, "one", tuple("abcdefghij"), 1),),
                config=RolloutPlanConfig(max_blast_radius_fraction=1.0),
            )

    def test_change_validation(self):
        with pytest.raises(ConfigurationError):
            EnvelopeChange(change_id="", from_ratio=1.2, to_ratio=1.3)
        with pytest.raises(ConfigurationError):
            EnvelopeChange(change_id="x", from_ratio=0.9, to_ratio=1.3)
        with pytest.raises(ConfigurationError):
            EnvelopeChange(change_id="x", from_ratio=1.3, to_ratio=1.3)

    def test_describe_names_every_wave(self):
        plan = RolloutPlan.from_hierarchy(hierarchy24(), CHANGE, seed=1)
        text = plan.describe()
        for wave in plan.waves:
            assert wave.name in text


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
class TestCanaryAnalyzer:
    def test_clean_cohorts_are_healthy(self):
        analyzer = CanaryAnalyzer()
        analysis = analyzer.observe(
            CohortStats(hosts=2, ce_errors=0.0, goodput=200.0, p99_s=0.2),
            CohortStats(hosts=20, ce_errors=2.0, goodput=2000.0, p99_s=0.2),
        )
        assert analysis.healthy
        assert analysis.margin == pytest.approx(1.0)
        assert analysis.reasons == ()

    def test_canary_crash_is_rollback_grade(self):
        analyzer = CanaryAnalyzer()
        analysis = analyzer.observe(
            CohortStats(hosts=2, crashes=1), CohortStats(hosts=20)
        )
        assert "crash" in analysis.reasons
        assert analysis.margin <= -0.5

    def test_ce_excess_accumulates_through_the_cusum(self):
        policy = CanaryPolicy(window_hours=1.0)
        analyzer = CanaryAnalyzer(policy)
        # 2 excess CE/host/window over a 1h window charges 2 - 0.25
        # each time; the 4.0 threshold trips on the third window.
        for window in range(2):
            analysis = analyzer.observe(
                CohortStats(hosts=2, ce_errors=4.0), CohortStats(hosts=20)
            )
            assert "ce-drift" not in analysis.reasons
        analysis = analyzer.observe(
            CohortStats(hosts=2, ce_errors=4.0), CohortStats(hosts=20)
        )
        assert "ce-drift" in analysis.reasons
        assert analysis.margin <= -0.5

    def test_control_rate_excuses_environmental_ce(self):
        # Canary and control both noisy: no excess, no drift charge.
        policy = CanaryPolicy(window_hours=1.0)
        analyzer = CanaryAnalyzer(policy)
        for _ in range(10):
            analysis = analyzer.observe(
                CohortStats(hosts=2, ce_errors=4.0),
                CohortStats(hosts=20, ce_errors=40.0),
            )
        assert "ce-drift" not in analysis.reasons
        assert analyzer.drift_statistic == pytest.approx(0.0)

    def test_soft_signals_stack_to_halt_not_rollback(self):
        analyzer = CanaryAnalyzer()
        analysis = analyzer.observe(
            CohortStats(hosts=2, p99_s=1.0, goodput=20.0),
            CohortStats(hosts=20, p99_s=0.2, goodput=2000.0),
        )
        assert set(analysis.reasons) == {"p99", "goodput"}
        assert analysis.margin == pytest.approx(0.0)  # halt-grade
        assert analysis.margin > -0.5  # but not rollback-grade

    def test_guard_limited_fraction_rule(self):
        analyzer = CanaryAnalyzer()
        analysis = analyzer.observe(
            CohortStats(hosts=2, guard_limited=1), CohortStats(hosts=20)
        )
        assert "guard-limited" in analysis.reasons
        assert analysis.margin == pytest.approx(0.0)

    def test_snapshot_restore_round_trips_detector_state(self):
        policy = CanaryPolicy(window_hours=1.0)
        analyzer = CanaryAnalyzer(policy)
        for _ in range(2):
            analyzer.observe(CohortStats(hosts=2, ce_errors=4.0), CohortStats(hosts=20))
        state = analyzer.snapshot()
        fresh = CanaryAnalyzer(policy)
        fresh.restore(state)
        # The restored CUSUM fires exactly where the original would.
        a = analyzer.observe(CohortStats(hosts=2, ce_errors=4.0), CohortStats(hosts=20))
        b = fresh.observe(CohortStats(hosts=2, ce_errors=4.0), CohortStats(hosts=20))
        assert a.reasons == b.reasons
        assert a.window == b.window

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            CanaryPolicy(window_hours=0.0)
        with pytest.raises(ConfigurationError):
            CanaryPolicy(p99_regression_ratio=1.0)
        with pytest.raises(ConfigurationError):
            CanaryPolicy(goodput_drop_fraction=1.0)


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
def make_controller(plan=None, **kwargs):
    plan = plan if plan is not None else manual_plan()
    ratios: dict[str, float] = {h: CHANGE.from_ratio for h in plan.hosts}
    actuator = CallbackEnvelopeActuator(
        lambda host, ratio: ratios.__setitem__(host, ratio)
    )
    timeline = kwargs.pop("timeline", FaultTimeline())
    controller = RolloutController(
        plan,
        actuator,
        analyzer=CanaryAnalyzer(CanaryPolicy(window_hours=1.0)),
        counters=RolloutCounters(),
        timeline=timeline,
        **kwargs,
    )
    return controller, actuator, ratios, timeline


class TestRolloutController:
    def test_healthy_rollout_completes_every_wave(self):
        controller, _, ratios, _ = make_controller()
        hosts = controller.plan.hosts
        for tick in range(1, 12):
            phase = controller.tick(float(tick), healthy_signals(hosts))
            if phase == PHASE_COMPLETE:
                break
        assert controller.phase == PHASE_COMPLETE
        assert all(r == CHANGE.to_ratio for r in ratios.values())
        c = controller.counters
        assert c.waves_started == c.waves_completed == 2
        assert c.envelope_pushes == 10
        assert c.completes == 1
        assert c.rollbacks == 0
        assert c.analyses_unhealthy == 0

    def test_crashing_canary_rolls_back_only_exposed_hosts(self):
        controller, actuator, ratios, timeline = make_controller()
        hosts = controller.plan.hosts
        controller.tick(1.0, healthy_signals(hosts))  # wave 0 pushed
        assert controller.phase == PHASE_APPLYING
        assert ratios["a"] == CHANGE.to_ratio
        phase = controller.tick(2.0, crashing_signals(hosts, {"a"}))
        assert phase == PHASE_ROLLED_BACK
        assert controller.done
        # Only the canary was ever exposed; everyone is back on from_ratio.
        assert controller.exposed_hosts == ("a",)
        assert all(r == CHANGE.from_ratio for r in ratios.values())
        c = controller.counters
        assert c.rollbacks == 1
        assert c.rollback_pushes == 1
        assert c.halts == 1  # the ladder walked through HALT on the way
        kinds = [e.kind for e in timeline.events]
        assert "rollout-escalate" in kinds
        # Ticking a finished rollout is a no-op.
        assert controller.tick(3.0, healthy_signals(hosts)) == PHASE_ROLLED_BACK

    def test_transient_soft_regression_halts_then_resumes(self):
        plan = manual_plan(canary_bake_ticks=8)
        controller, _, _, _ = make_controller(plan)
        hosts = plan.hosts
        soft = {
            h: (
                HostSignals(p99_s=1.0, goodput=20.0)
                if h == "a"
                else HostSignals(p99_s=0.2, goodput=100.0)
            )
            for h in hosts
        }
        controller.tick(1.0, healthy_signals(hosts))  # push wave 0
        controller.tick(2.0, soft)  # halt-grade margin (0.0)
        assert controller.ladder.stage is RolloutStage.HALT
        assert controller.counters.halts == 1
        baked_at_halt = controller.bake_progress
        controller.tick(3.0, soft)  # still halted: no bake credit
        assert controller.bake_progress == baked_at_halt
        # Two clean windows relax the halt (relax_clean_ticks=2)...
        controller.tick(4.0, healthy_signals(hosts))
        controller.tick(5.0, healthy_signals(hosts))
        assert controller.ladder.stage is RolloutStage.NORMAL
        assert controller.counters.resumes == 1
        # ...and baking continues to completion.
        for tick in range(6, 30):
            if controller.tick(float(tick), healthy_signals(hosts)) == PHASE_COMPLETE:
                break
        assert controller.phase == PHASE_COMPLETE

    def test_emergency_ladder_freezes_advance(self):
        emergency = EmergencyCoordinator()
        controller, _, ratios, timeline = make_controller(emergency=emergency)
        hosts = controller.plan.hosts
        emergency.observe(0.0, 1.0)  # deep thermal emergency
        assert emergency.emergency
        controller.tick(1.0, healthy_signals(hosts))
        assert controller.frozen
        assert controller.phase == PHASE_PENDING  # wave 0 never pushed
        assert all(r == CHANGE.from_ratio for r in ratios.values())
        assert controller.counters.freezes_emergency == 1
        assert controller.counters.frozen_ticks == 1
        assert [e.kind for e in timeline.events if "rollout" in e.kind] == [
            "rollout-freeze"
        ]
        # The emergency clears (hysteresis + clean dwell) and the
        # rollout thaws and proceeds.
        for step in range(2, 40):
            emergency.observe(float(step), 50.0)
        assert not emergency.emergency
        controller.tick(40.0, healthy_signals(hosts))
        assert not controller.frozen
        assert controller.phase == PHASE_APPLYING
        assert any(e.kind == "rollout-unfreeze" for e in timeline.events)

    def test_power_ladder_freeze_counts_per_tick(self):
        power = PowerEmergencyCoordinator()
        controller, _, _, _ = make_controller(power=power)
        hosts = controller.plan.hosts
        power.observe(0.0, 0.10)  # below the 12% cap threshold
        assert power.emergency
        for tick in range(1, 4):
            controller.tick(float(tick), healthy_signals(hosts))
        assert controller.counters.freezes_power == 3
        assert controller.counters.frozen_ticks == 3
        assert controller.counters.waves_started == 0

    def test_rollback_still_fires_while_frozen(self):
        # Freeze blocks advance, never retreat: a canary crashing during
        # a fleet emergency must still be rolled back immediately.
        power = PowerEmergencyCoordinator()
        controller, _, ratios, _ = make_controller(power=power)
        hosts = controller.plan.hosts
        controller.tick(1.0, healthy_signals(hosts))  # wave 0 pushed
        power.observe(1.5, 0.10)  # emergency starts after the push
        phase = controller.tick(2.0, crashing_signals(hosts, {"a"}))
        assert phase == PHASE_ROLLED_BACK
        assert ratios["a"] == CHANGE.from_ratio
        assert controller.counters.frozen_ticks == 1
        assert controller.counters.rollbacks == 1

    def test_operator_hold_freezes_without_counters(self):
        controller, _, _, _ = make_controller()
        hosts = controller.plan.hosts
        controller.hold()
        controller.tick(1.0, healthy_signals(hosts))
        assert controller.frozen
        assert controller.counters.waves_started == 0
        assert controller.counters.frozen_ticks == 1
        controller.release()
        controller.tick(2.0, healthy_signals(hosts))
        assert not controller.frozen
        assert controller.counters.waves_started == 1

    def test_quarantined_hosts_are_excluded_from_waves_and_cohorts(self):
        hosts = tuple("abcdefghij")
        health = FleetHealthCoordinator(
            hosts, detectors={h: DriftDetector() for h in hosts}
        )
        # Quarantine one wave-1 host (a 20-CE spike goes straight past
        # QUARANTINE) — it must be skipped by pushes and cohorts alike.
        health.tick(1.0, 1.0, [MachineCheckEvent(0.0, "c", "ce", count=20)])
        assert not health.in_service("c")
        controller, _, ratios, _ = make_controller(health=health)
        for tick in range(1, 12):
            if controller.tick(float(tick), healthy_signals(hosts)) == PHASE_COMPLETE:
                break
        assert controller.phase == PHASE_COMPLETE
        assert "c" not in controller.exposed_hosts
        assert ratios["c"] == CHANGE.from_ratio  # never pushed
        assert controller.counters.envelope_pushes == 9
        assert controller.counters.cohort_excluded_hosts > 0

    def test_health_budget_breach_freezes(self):
        hosts = tuple("abcdefghij")
        health = FleetHealthCoordinator(
            hosts, detectors={h: DriftDetector() for h in hosts}
        )
        # Drain 3/10 hosts (the coordinator's own gating stops there):
        # past the rollout's default freeze line of half the 34% budget.
        health.tick(
            1.0,
            1.0,
            [MachineCheckEvent(0.0, h, "ce", count=20) for h in "cdef"],
        )
        assert health.out_of_service_fraction() >= 0.17
        controller, _, _, _ = make_controller(health=health)
        controller.tick(1.0, healthy_signals(hosts))
        assert controller.frozen
        assert controller.counters.freezes_health == 1
        assert controller.counters.waves_started == 0

    def test_stalled_wave_rolls_back(self):
        controller, actuator, ratios, timeline = make_controller()
        hosts = controller.plan.hosts
        actuator.inject_stall("a", ticks=10)
        controller.tick(1.0, healthy_signals(hosts))  # push wedges
        assert actuator.pending_hosts() == ("a",)
        controller.tick(2.0, healthy_signals(hosts))
        controller.tick(3.0, healthy_signals(hosts))
        phase = controller.tick(4.0, healthy_signals(hosts))
        # max_apply_ticks=3 unconfirmed ticks after the push: the stall
        # forced the rollback rung.
        assert phase == PHASE_ROLLED_BACK
        assert controller.counters.stalls == 1
        assert any(e.kind == "rollout-stalled" for e in timeline.events)
        # The emergency rollback punched through the wedged agent.
        assert ratios["a"] == CHANGE.from_ratio
        assert actuator.pending_hosts() == ()

    def test_short_stall_is_tolerated(self):
        controller, actuator, _, timeline = make_controller()
        hosts = controller.plan.hosts
        actuator.inject_stall("a", ticks=1)
        for tick in range(1, 12):
            if controller.tick(float(tick), healthy_signals(hosts)) == PHASE_COMPLETE:
                break
        assert controller.phase == PHASE_COMPLETE
        assert controller.counters.stalls == 0
        assert not any(e.kind == "rollout-stalled" for e in timeline.events)

    def test_snapshot_restore_round_trip_is_bit_identical(self):
        first, _, _, _ = make_controller()
        hosts = first.plan.hosts
        for tick in range(1, 4):
            first.tick(float(tick), healthy_signals(hosts))
        state = first.snapshot()

        second, _, _, _ = make_controller()
        second.restore(state)
        assert second.snapshot() == state
        # Both controllers evolve identically from the restore point.
        for tick in range(4, 12):
            a = first.tick(float(tick), healthy_signals(hosts))
            b = second.tick(float(tick), healthy_signals(hosts))
            assert a == b
        assert first.snapshot() == second.snapshot()

    def test_restore_rejects_foreign_change(self):
        controller, _, _, _ = make_controller()
        state = controller.snapshot()
        state["change_id"] = "someone-elses-change"
        with pytest.raises(RolloutError, match="someone-elses-change"):
            controller.restore(state)

    def test_resume_without_journal_is_an_error(self):
        controller, _, _, _ = make_controller()
        with pytest.raises(RolloutError, match="journal"):
            controller.resume()

    def test_dedup_push_is_not_a_second_actuation(self):
        applied = []
        actuator = CallbackEnvelopeActuator(lambda h, r: applied.append((h, r)))
        assert actuator.push("a", 1.27) is True
        assert actuator.push("a", 1.27) is False
        assert applied == [("a", 1.27)]
        assert actuator.dedup_hits == 1

    def test_stall_validation(self):
        actuator = CallbackEnvelopeActuator(lambda h, r: None)
        with pytest.raises(RolloutError):
            actuator.inject_stall("a", ticks=0)


# ----------------------------------------------------------------------
# Fault injectors
# ----------------------------------------------------------------------
class TestRolloutInjectors:
    def _campaign(self, specs, seed=3):
        simulator = Simulator(seed=seed)
        plan = FaultPlan(seed=seed, scenario="rollout-test", specs=tuple(specs))
        return simulator, FaultCampaign(simulator, plan)

    def test_bad_envelope_fires_callback_and_timeline(self):
        simulator, campaign = self._campaign(
            [
                FaultSpec(
                    kind=FaultKind.BAD_ENVELOPE,
                    target="fleet",
                    at_s=5.0,
                    magnitude=0.07,
                )
            ]
        )
        fired = []
        register_rollout_injectors(
            campaign,
            on_bad_envelope=lambda target, magnitude: fired.append(
                (simulator.now, target, magnitude)
            ),
            on_stall=lambda target, duration: None,
        )
        campaign.arm()
        simulator.run(until=10.0)
        assert fired == [(5.0, "fleet", 0.07)]
        events = campaign.timeline.of_kind(FaultKind.BAD_ENVELOPE.value)
        assert len(events) == 1
        assert "+0.07" in events[0].detail

    def test_rollout_stall_fires_with_duration(self):
        simulator, campaign = self._campaign(
            [
                FaultSpec(
                    kind=FaultKind.ROLLOUT_STALL,
                    target="host-3",
                    at_s=2.0,
                    duration_s=4.0,
                )
            ]
        )
        stalls = []
        register_rollout_injectors(
            campaign,
            on_bad_envelope=lambda target, magnitude: None,
            on_stall=lambda target, duration: stalls.append((target, duration)),
        )
        campaign.arm()
        simulator.run(until=10.0)
        assert stalls == [("host-3", 4.0)]
        assert len(campaign.timeline.of_kind(FaultKind.ROLLOUT_STALL.value)) == 1

    def test_spec_validation(self):
        simulator, campaign = self._campaign(
            [FaultSpec(kind=FaultKind.BAD_ENVELOPE, target="fleet", at_s=1.0)]
        )
        register_rollout_injectors(
            campaign,
            on_bad_envelope=lambda target, magnitude: None,
            on_stall=lambda target, duration: None,
        )
        with pytest.raises(FaultError):
            campaign.arm()  # bad-envelope without a magnitude

    def test_injector_rejects_foreign_kinds(self):
        with pytest.raises(FaultError):
            RolloutFaultInjector(
                FaultKind.VM_CRASH, on_bad_envelope=lambda t, m: None
            )


# ----------------------------------------------------------------------
# Bus actuator
# ----------------------------------------------------------------------
def make_bus_actuator(hosts=("h0", "h1"), seed=1, **bus_kwargs):
    simulator = Simulator(seed=seed)
    channel = LossyChannel(simulator, seed=seed)
    bus = CommandBus(simulator, channel, seed=seed, **bus_kwargs)
    applied = []
    for host in hosts:
        bus.attach(
            HostAgent(
                simulator,
                host,
                channel,
                base_frequency_ghz=1.0,
                apply_frequency=lambda ratio, h=host: applied.append((h, ratio)),
                counters=bus.counters,
            )
        )
    return simulator, channel, bus, BusEnvelopeActuator(bus), applied


class TestBusEnvelopeActuator:
    def test_push_confirms_through_the_ack_path(self):
        simulator, _, bus, actuator, applied = make_bus_actuator()
        assert actuator.push("h0", 1.27) is True
        assert actuator.pending_hosts() == ("h0",)
        simulator.run(until=1.0)
        assert actuator.pending_hosts() == ()
        assert actuator.confirmed_ratio("h0") == pytest.approx(1.27)
        assert applied == [("h0", 1.27)]

    def test_confirmed_repush_is_deduplicated(self):
        simulator, _, _, actuator, applied = make_bus_actuator()
        actuator.push("h0", 1.27)
        simulator.run(until=1.0)
        assert actuator.push("h0", 1.27) is False
        assert actuator.dedup_hits == 1
        assert len(applied) == 1

    def test_emergency_rollback_bypasses_an_open_breaker(self):
        simulator, channel, bus, actuator, applied = make_bus_actuator(
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_threshold=2,
            breaker_open_s=1000.0,
        )
        channel.partition("h0", duration_s=20.0)
        for _ in range(3):
            actuator.push("h0", 1.27)
            simulator.run(until=simulator.now + 5.0)
        assert bus.breaker_for("h0").is_open
        assert actuator.failures >= 1
        # Non-emergency pushes fast-fail on the open breaker; the
        # emergency rollback goes out regardless and lands post-heal.
        simulator.run(until=25.0)  # partition healed, breaker still open
        actuator.push("h0", 1.23, emergency=True)
        simulator.run(until=30.0)
        assert bus.counters.emergency_bypasses >= 1
        assert actuator.confirmed_ratio("h0") == pytest.approx(1.23)
        assert ("h0", 1.23) in applied
