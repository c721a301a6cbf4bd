"""Fail-safe de-rating on degraded telemetry.

The acceptance contract: under *every* injected sensor-fault kind the
fail-safe controller spends a bounded number of control ticks above
Tjmax, and total telemetry loss always converges to base frequency
within ``SafetyConfig.max_suspect_ticks`` ticks and re-arms after clean
samples. All scenarios are seed-driven and deterministic.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TelemetryDegraded
from repro.experiments.degraded_telemetry import (
    run_degraded_telemetry,
)
from repro.reliability import (
    OverclockGuard,
    SafetyConfig,
    SafetyState,
    SafetySupervisor,
    physics_tj_bounds,
)
from repro.silicon import DynamicPowerModel, LeakageModel
from repro.telemetry import (
    FaultySensor,
    SensorFault,
    SensorFaultMode,
    SensorFusion,
    VirtualSensor,
)
from repro.thermal.junction import JunctionModel


class _Source:
    def __init__(self, value: float = 50.0) -> None:
        self.value = value

    def __call__(self) -> float:
        return self.value


def make_fusion(channels=3):
    sources = [_Source() for _ in range(channels)]
    sensors = [
        FaultySensor(VirtualSensor(f"tj{i}", source), seed=i)
        for i, source in enumerate(sources)
    ]
    return sources, sensors, SensorFusion(sensors)


def drop_all(sensors):
    for sensor in sensors:
        sensor.inject(SensorFault(SensorFaultMode.DROPOUT))


class TestSupervisorStateMachine:
    def test_starts_armed(self):
        supervisor = SafetySupervisor()
        assert supervisor.state is SafetyState.ARMED
        assert not supervisor.degraded

    def test_trips_after_max_suspect_ticks_exactly(self):
        _, sensors, fusion = make_fusion()
        config = SafetyConfig(max_suspect_ticks=3, rearm_clean_samples=2)
        supervisor = SafetySupervisor(fusion=fusion, config=config)
        supervisor.poll(0.0)
        drop_all(sensors)
        supervisor.poll(1.0)
        supervisor.poll(2.0)
        assert not supervisor.degraded  # two suspect ticks: not yet
        supervisor.poll(3.0)
        assert supervisor.degraded  # the third trips — the bound
        assert supervisor.degrade_events == 1

    def test_single_glitch_does_not_trip(self):
        _, sensors, fusion = make_fusion()
        supervisor = SafetySupervisor(fusion=fusion)
        supervisor.poll(0.0)
        drop_all(sensors)
        supervisor.poll(1.0)
        for sensor in sensors:
            sensor.clear()
        for t in range(2, 10):
            supervisor.poll(float(t))
        assert not supervisor.degraded
        assert supervisor.degrade_events == 0

    def test_rearm_needs_consecutive_clean_samples(self):
        _, sensors, fusion = make_fusion()
        config = SafetyConfig(max_suspect_ticks=1, rearm_clean_samples=3)
        supervisor = SafetySupervisor(fusion=fusion, config=config)
        supervisor.poll(0.0)
        drop_all(sensors)
        supervisor.poll(1.0)
        assert supervisor.degraded
        for sensor in sensors:
            sensor.clear()
        supervisor.poll(2.0)
        supervisor.poll(3.0)
        assert supervisor.degraded  # two clean: still holding
        supervisor.poll(4.0)
        assert not supervisor.degraded  # third clean re-arms
        assert supervisor.rearm_events == 1

    def test_unclean_sample_resets_rearm_streak(self):
        _, sensors, fusion = make_fusion()
        config = SafetyConfig(max_suspect_ticks=1, rearm_clean_samples=2)
        supervisor = SafetySupervisor(fusion=fusion, config=config)
        supervisor.poll(0.0)
        drop_all(sensors)
        supervisor.poll(1.0)
        assert supervisor.degraded
        for sensor in sensors:
            sensor.clear()
        supervisor.poll(2.0)  # clean 1
        drop_all(sensors)
        supervisor.poll(3.0)  # unhealthy: streak resets
        for sensor in sensors:
            sensor.clear()
        supervisor.poll(4.0)  # clean 1 again
        assert supervisor.degraded
        supervisor.poll(5.0)  # clean 2
        assert not supervisor.degraded

    def test_check_raises_typed_condition_while_degraded(self):
        _, sensors, fusion = make_fusion()
        supervisor = SafetySupervisor(
            fusion=fusion, config=SafetyConfig(max_suspect_ticks=1)
        )
        supervisor.poll(0.0)
        drop_all(sensors)
        supervisor.poll(1.0)
        with pytest.raises(TelemetryDegraded) as excinfo:
            supervisor.check()
        assert "channels healthy" in str(excinfo.value)
        assert supervisor.safe_ratio(1.3) == 1.0

    def test_poll_without_fusion_raises(self):
        with pytest.raises(ConfigurationError):
            SafetySupervisor().poll(0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SafetyConfig(max_suspect_ticks=0)
        with pytest.raises(ConfigurationError):
            SafetyConfig(rearm_clean_samples=0)


class TestGuardIntegration:
    def test_degraded_telemetry_outranks_everything(self):
        _, sensors, fusion = make_fusion()
        supervisor = SafetySupervisor(
            fusion=fusion, config=SafetyConfig(max_suspect_ticks=1)
        )
        guard = OverclockGuard(safety=supervisor)
        supervisor.poll(0.0)
        assert guard.decide(1.2).granted_ratio == pytest.approx(1.2)
        drop_all(sensors)
        guard.observe_telemetry(fusion.read(1.0))
        assert guard.telemetry_degraded
        decision = guard.decide(1.2)
        assert decision.granted_ratio == 1.0
        assert decision.limited_by == "telemetry"

    def test_guard_regrants_after_rearm(self):
        _, sensors, fusion = make_fusion()
        config = SafetyConfig(max_suspect_ticks=1, rearm_clean_samples=2)
        supervisor = SafetySupervisor(fusion=fusion, config=config)
        guard = OverclockGuard(safety=supervisor)
        supervisor.poll(0.0)
        drop_all(sensors)
        guard.observe_telemetry(fusion.read(1.0))
        assert guard.decide(1.2).limited_by == "telemetry"
        for sensor in sensors:
            sensor.clear()
        guard.observe_telemetry(fusion.read(2.0))
        guard.observe_telemetry(fusion.read(3.0))
        assert guard.decide(1.2).granted_ratio == pytest.approx(1.2)


class TestPhysicsBounds:
    def test_envelope_covers_operating_point(self):
        junction = JunctionModel(reference_temp_c=34.0, thermal_resistance_c_per_w=0.08)
        dynamic = DynamicPowerModel(
            ref_watts=175.0, ref_frequency_ghz=3.4, ref_voltage_v=0.9
        )
        leakage = LeakageModel()
        bounds = physics_tj_bounds(junction, dynamic, leakage, 3.4, 0.9)
        # The actual steady-state Tj at the point must be inside.
        assert bounds.contains(junction.junction_temp_c(205.0))
        assert bounds.lower < 34.0
        assert not bounds.contains(250.0)


class TestEndToEndDegradedTelemetry:
    """The headline seed-driven acceptance scenarios (DES-driven)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_degraded_telemetry(seed=1)

    def test_failsafe_bounds_ticks_above_tjmax_under_every_fault(self, result):
        assert set(result.by_kind) == {
            "sensor-stuck",
            "sensor-dropout",
            "sensor-noise",
            "sensor-lag",
            "sensor-spike",
        }
        for kind, (naive, safe) in result.by_kind.items():
            assert safe.ticks_above_tjmax <= result.bound_ticks, kind
            assert safe.ticks_above_tjmax <= naive.ticks_above_tjmax, kind

    def test_naive_controller_cooks_under_masking_faults(self, result):
        # Stuck and dropout mask the excursion completely: the naive
        # controller holds overclock through the whole hot window.
        for kind in ("sensor-stuck", "sensor-dropout"):
            naive, _ = result.by_kind[kind]
            assert naive.ticks_above_tjmax >= 50, kind

    def test_total_loss_converges_to_base_within_bound(self, result):
        loss = result.total_loss
        assert loss is not None
        assert result.loss_derate_latency_ticks is not None
        assert result.loss_derate_latency_ticks <= result.bound_ticks
        assert loss.ticks_above_tjmax == 0
        assert loss.degrade_events == 1

    def test_rearms_after_channels_return(self, result):
        loss = result.total_loss
        assert loss.rearm_events == 1
        assert loss.final_ratio > 1.0

    def test_deterministic_across_runs(self, result):
        again = run_degraded_telemetry(seed=1)
        for kind, (naive, safe) in result.by_kind.items():
            naive2, safe2 = again.by_kind[kind]
            assert naive.ticks_above_tjmax == naive2.ticks_above_tjmax
            assert safe.ticks_above_tjmax == safe2.ticks_above_tjmax
            assert naive.max_tj_c == naive2.max_tj_c
