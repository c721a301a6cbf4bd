"""Tests for the overclock guard, the VM trace generator, and the CLI."""

import io

import pytest

from repro.cli import COMPARISONS, EXPERIMENTS, list_experiments, run
from repro.errors import ConfigurationError
from repro.reliability import (
    OverclockGuard,
    StabilityMonitor,
    WearoutCounter,
    immersion_condition,
)
from repro.thermal import HFE_7000
from repro.workloads import VMTraceGenerator, core_hours


class TestOverclockGuard:
    def _conditions(self):
        return (
            immersion_condition(HFE_7000, 305.0, 0.98),
            immersion_condition(HFE_7000, 205.0, 0.90),
        )

    def test_grants_within_stable_envelope(self):
        guard = OverclockGuard()
        decision = guard.decide(1.20)
        assert decision.granted_ratio == pytest.approx(1.20)
        assert decision.limited_by == "none"

    def test_stability_clamps_excess(self):
        guard = OverclockGuard()
        decision = guard.decide(1.40)
        assert decision.granted_ratio == pytest.approx(1.23)
        assert decision.limited_by == "stability"

    def test_power_headroom_clamps(self):
        guard = OverclockGuard()
        # 43.5 W of headroom buys ~10% of ratio at 435 W/unit.
        decision = guard.decide(1.20, power_headroom_watts=43.5)
        assert decision.granted_ratio == pytest.approx(1.10, abs=0.001)
        assert decision.limited_by == "power"

    def test_alarm_forces_base_clock(self):
        guard = OverclockGuard(monitor=StabilityMonitor(rate_threshold_per_hour=0.5))
        guard.observe_errors(0.0, 0.0)
        guard.observe_errors(1.0, 10.0)  # 10 errors/hour: alarm
        assert guard.alarmed
        decision = guard.decide(1.20)
        assert decision.granted_ratio == 1.0
        assert decision.limited_by == "alarm"
        guard.clear_alarm()
        assert guard.decide(1.20).granted_ratio == pytest.approx(1.20)

    def test_lifetime_clamps_red_band_without_credit(self):
        overclocked, nominal = self._conditions()
        counter = WearoutCounter()
        # A year at the rated air condition banks zero credit.
        from repro.reliability import air_condition

        counter.record(8766.0, air_condition(205.0, 0.90), utilization=1.0)
        guard = OverclockGuard(
            wearout=counter,
            overclocked_condition=overclocked,
            nominal_condition=nominal,
            stability=None,
        )
        # Allow a red-band stability envelope for this test.
        from repro.reliability import StabilityModel

        guard.stability = StabilityModel(stable_margin=1.30, crash_margin=1.40)
        decision = guard.decide(1.28)
        assert decision.granted_ratio == pytest.approx(1.23)
        assert decision.limited_by == "lifetime"

    def test_validation(self):
        guard = OverclockGuard()
        with pytest.raises(ConfigurationError):
            guard.decide(0.9)


class TestVMTraceGenerator:
    def test_reproducible(self):
        first = VMTraceGenerator(rate_per_hour=50.0, seed=7).trace(86_400.0)
        second = VMTraceGenerator(rate_per_hour=50.0, seed=7).trace(86_400.0)
        assert [(a.arrival_time, a.spec.vcores) for a in first] == [
            (a.arrival_time, a.spec.vcores) for a in second
        ]

    def test_rate_approximately_met(self):
        trace = VMTraceGenerator(rate_per_hour=100.0, seed=1).trace(86_400.0)
        assert len(trace) == pytest.approx(2400, rel=0.1)

    def test_size_mix_dominated_by_small(self):
        trace = VMTraceGenerator(rate_per_hour=200.0, seed=2).trace(86_400.0)
        small = sum(1 for a in trace if a.spec.vcores <= 4)
        assert small / len(trace) > 0.6

    def test_lifetimes_bimodal(self):
        """Most VMs are short, but long-lived VMs own most core-hours."""
        trace = VMTraceGenerator(rate_per_hour=200.0, seed=3).trace(86_400.0)
        short = [a for a in trace if a.lifetime_s < 3600.0]
        long_lived = [a for a in trace if a.lifetime_s > 86_400.0]
        assert len(short) > len(long_lived)
        horizon = 30 * 86_400.0
        long_hours = core_hours(long_lived, horizon)
        short_hours = core_hours(short, horizon)
        assert long_hours > short_hours

    def test_diurnal_modulation_changes_density(self):
        flat = VMTraceGenerator(rate_per_hour=100.0, seed=4)
        wavy = VMTraceGenerator(rate_per_hour=100.0, seed=4, diurnal_amplitude=0.8)
        flat_trace = flat.trace(86_400.0)
        wavy_trace = wavy.trace(86_400.0)

        def morning_fraction(trace):
            morning = sum(1 for a in trace if (a.arrival_time % 86_400) < 43_200)
            return morning / len(trace)

        # Sine peaks in the first half-day: the wavy trace skews earlier.
        assert morning_fraction(wavy_trace) > morning_fraction(flat_trace) + 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VMTraceGenerator(rate_per_hour=0.0)
        with pytest.raises(ConfigurationError):
            VMTraceGenerator(rate_per_hour=1.0, diurnal_amplitude=1.5)
        with pytest.raises(ConfigurationError):
            VMTraceGenerator(rate_per_hour=1.0).trace(0.0)


class TestCLI:
    def test_list(self):
        listing = list_experiments()
        for name in (*EXPERIMENTS, *COMPARISONS):
            assert name in listing

    def test_run_single(self):
        buffer = io.StringIO()
        assert run(["table3"], stream=buffer) == 0
        assert "Max turbo" in buffer.getvalue()

    def test_run_all_fast(self):
        buffer = io.StringIO()
        assert run(["all"], stream=buffer) == 0
        output = buffer.getvalue()
        assert "Table VI" in output
        assert "STREAM" in output

    def test_unknown_experiment(self):
        buffer = io.StringIO()
        assert run(["fig99"], stream=buffer) == 2

    def test_default_lists(self):
        buffer = io.StringIO()
        assert run([], stream=buffer) == 0
        assert "Available experiments" in buffer.getvalue()

    def test_seed_reaches_a_comparison(self, capsys):
        from repro.cli import main
        from repro.experiments.degraded_telemetry import (
            format_degraded_telemetry,
            run_degraded_telemetry,
        )

        assert main(["degraded-telemetry", "--seed", "7"]) == 0
        expected = format_degraded_telemetry(run_degraded_telemetry(seed=7))
        assert capsys.readouterr().out == expected + "\n\n"

    def test_seed_reaches_every_named_comparison(self, capsys):
        from repro.cli import main
        from repro.experiments.heatwave_ride_through import (
            format_heatwave_ride_through,
            run_heatwave_ride_through,
        )
        from repro.experiments.partition_recovery import (
            format_partition_recovery,
            run_partition_recovery,
        )

        assert main(["partition", "heatwave", "--seed", "7"]) == 0
        partition = format_partition_recovery(run_partition_recovery(seed=7))
        heatwave = format_heatwave_ride_through(run_heatwave_ride_through(seed=7))
        assert capsys.readouterr().out == f"{partition}\n\n{heatwave}\n\n"


class TestSeedValidation:
    """CLI --seed must reject junk with a clear error and exit code 2."""

    def test_parse_seed_accepts_non_negative_integers(self):
        from repro.cli import parse_seed

        assert parse_seed("0") == 0
        assert parse_seed("42") == 42

    def test_parse_seed_rejects_negative(self):
        from repro.cli import parse_seed
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="non-negative"):
            parse_seed("-3")

    def test_parse_seed_rejects_non_integer(self):
        from repro.cli import parse_seed
        from repro.errors import ReproError

        for junk in ("1.5", "seven", "", "0x10"):
            with pytest.raises(ReproError, match="base-10 integer"):
                parse_seed(junk)

    def test_main_exits_2_with_message_on_bad_seed(self, capsys):
        from repro.cli import main

        assert main(["faults", "crash-storm", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --seed must be non-negative" in captured.err

    def test_main_exits_2_on_non_integer_seed(self, capsys):
        from repro.cli import main

        assert main(["faults", "crash-storm", "--seed", "two"]) == 2
        assert "base-10 integer" in capsys.readouterr().err
