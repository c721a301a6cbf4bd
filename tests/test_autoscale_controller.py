"""Closed-loop tests for the auto-scaler controller (short horizons)."""

import pytest

from repro.autoscale import AutoScaler, AutoscalePolicy, ScalerMode
from repro.errors import ConfigurationError
from repro.sim import OpenLoopSource, PiecewiseSchedule, Simulator


def run_controller(
    mode,
    qps_steps,
    horizon_s,
    initial_vms=1,
    enable_scale_out=True,
    seed=11,
    scale_out_latency_s=60.0,
):
    simulator = Simulator(seed=seed)
    policy = AutoscalePolicy(mode=mode, enable_scale_out=enable_scale_out)
    autoscaler = AutoScaler(
        simulator,
        policy,
        initial_vms=initial_vms,
        scale_out_latency_s=scale_out_latency_s,
        warmup_s=10.0,
    )
    schedule = PiecewiseSchedule(qps_steps)
    source = OpenLoopSource(
        simulator, autoscaler.load_balancer.route, rate_per_second=schedule.value_at(0)
    )
    simulator.every(5.0, lambda: source.set_rate(schedule.value_at(simulator.now)))
    simulator.run(until=horizon_s)
    return autoscaler, autoscaler.finish()


@pytest.fixture(scope="module")
def steady_600_qps():
    """BASELINE and OC-A results of one 600 s, 600 QPS run each with no
    scale-out; two tests read them and neither changes them."""
    return tuple(
        run_controller(mode, [(0.0, 600.0)], horizon_s=600.0, enable_scale_out=False)[1]
        for mode in (ScalerMode.BASELINE, ScalerMode.OC_A)
    )


class TestScaleOutIn:
    def test_high_load_triggers_scale_out(self):
        _, result = run_controller(
            ScalerMode.BASELINE, [(0.0, 1200.0)], horizon_s=600.0
        )
        assert result.scale_out_events >= 1
        assert result.max_vms >= 2

    def test_low_load_never_scales_out(self):
        _, result = run_controller(ScalerMode.BASELINE, [(0.0, 200.0)], horizon_s=600.0)
        assert result.scale_out_events == 0
        assert result.max_vms == 1

    def test_scale_in_after_load_drop(self):
        _, result = run_controller(
            ScalerMode.BASELINE,
            [(0.0, 1500.0), (600.0, 100.0)],
            horizon_s=1500.0,
            initial_vms=3,
        )
        assert result.scale_in_events >= 1
        assert result.vm_count.value < 3

    def test_min_vms_floor(self):
        _, result = run_controller(
            ScalerMode.BASELINE, [(0.0, 10.0)], horizon_s=1200.0, initial_vms=2
        )
        assert result.vm_count.value >= 1

    def test_one_vm_at_a_time(self):
        """No concurrent deploys: VM count never jumps by 2."""
        _, result = run_controller(
            ScalerMode.BASELINE, [(0.0, 4000.0)], horizon_s=900.0
        )
        values = [s.value for s in result.vm_count.trace]
        jumps = [b - a for a, b in zip(values, values[1:])]
        assert max(jumps) <= 1.0

    def test_deploy_latency_respected(self):
        """A triggered scale-out serves no traffic until the deploy
        latency elapses: the VM is provisioned but not active."""
        autoscaler, result = run_controller(
            ScalerMode.BASELINE, [(0.0, 1500.0)], horizon_s=110.0,
            scale_out_latency_s=120.0,
        )
        assert result.scale_out_events >= 1
        assert autoscaler.provisioned_vm_count >= 2   # deploying
        assert autoscaler.active_vm_count == 1        # not serving yet


class TestFrequencyControl:
    def test_baseline_never_changes_frequency(self):
        _, result = run_controller(ScalerMode.BASELINE, [(0.0, 1500.0)], horizon_s=600.0)
        assert {s.value for s in result.frequency_trace} == {3.4}

    def test_oc_e_tracks_scale_out_threshold(self):
        """OC-E jumps to the top bin while the 3-minute average exceeds
        the scale-out threshold and returns to base once capacity lands
        and the average falls back below it."""
        autoscaler, result = run_controller(
            ScalerMode.OC_E, [(0.0, 1500.0)], horizon_s=900.0
        )
        frequencies = [s.value for s in result.frequency_trace]
        assert max(frequencies) == pytest.approx(4.1)
        # Capacity arrives, utilization drops under 50%, frequency resets.
        assert frequencies[-1] == pytest.approx(3.4)

    def test_oc_e_overclocks_when_capped(self):
        """Even with no deploys possible (max_vms reached), OC-E still
        overclocks through overload — the virtual capacity of Fig. 8a."""
        simulator = Simulator(seed=3)
        policy = AutoscalePolicy(mode=ScalerMode.OC_E, max_vms=1)
        autoscaler = AutoScaler(simulator, policy, initial_vms=1, warmup_s=10.0)
        source = OpenLoopSource(
            simulator, autoscaler.load_balancer.route, rate_per_second=1100
        )
        simulator.run(until=600.0)
        result = autoscaler.finish()
        del source
        assert result.max_vms == 1
        assert result.frequency_trace.latest().value == pytest.approx(4.1)

    def test_oc_a_scales_up_without_scale_out(self):
        _, result = run_controller(
            ScalerMode.OC_A,
            [(0.0, 550.0)],  # util ~0.45 at B2: above scale-up, below scale-out
            horizon_s=600.0,
            enable_scale_out=False,
        )
        assert max(s.value for s in result.frequency_trace) > 3.4
        assert result.scale_out_events == 0

    def test_oc_a_scales_down_when_idle(self):
        _, result = run_controller(
            ScalerMode.OC_A,
            [(0.0, 550.0), (300.0, 100.0)],
            horizon_s=600.0,
            enable_scale_out=False,
        )
        assert result.frequency_trace.latest().value == pytest.approx(3.4)

    def test_oc_a_reduces_utilization_vs_baseline(self, steady_600_qps):
        """The Figure 15 effect: scale-up pulls utilization down."""
        base, oc = steady_600_qps
        base_util = base.utilization_trace.window_mean(600.0, 300.0)
        oc_util = oc.utilization_trace.window_mean(600.0, 300.0)
        assert oc_util < base_util

    def test_power_rises_with_overclock(self, steady_600_qps):
        base, oc = steady_600_qps
        assert oc.power.average_watts() > base.power.average_watts()


class TestResultAccounting:
    def test_vm_hours_integrates_count(self):
        _, result = run_controller(
            ScalerMode.BASELINE, [(0.0, 100.0)], horizon_s=3600.0, initial_vms=2
        )
        # Low load: likely scale-in to 1 at some point; vm_hours <= 2.0 and >= 1.0
        assert 0.9 <= result.vm_hours() <= 2.1

    @pytest.mark.parametrize("warmup_s", [float("nan"), float("inf"), -5.0])
    def test_warmup_must_be_finite_and_non_negative(self, warmup_s):
        with pytest.raises(ConfigurationError):
            AutoScaler(
                Simulator(seed=1), AutoscalePolicy(mode=ScalerMode.BASELINE), warmup_s=warmup_s
            )

    def test_latency_recorded(self):
        _, result = run_controller(ScalerMode.BASELINE, [(0.0, 300.0)], horizon_s=300.0)
        assert len(result.latency) > 1000
        assert result.latency.p95() > 0
