"""Tests for counters, time series, percentiles, and power metering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.telemetry import (
    CoreCounters,
    LatencyRecorder,
    PowerMeter,
    StateIntegrator,
    TimeSeries,
    percentile,
)


class TestCoreCounters:
    def test_scalable_fraction_matches_accumulation(self):
        counters = CoreCounters()
        counters.accumulate(busy_seconds=10.0, frequency_ghz=3.4, scalable_fraction=0.7)
        snap0 = CoreCounters().snapshot(0.0)
        snap1 = counters.snapshot(10.0)
        delta = snap1.delta(snap0)
        assert delta.scalable_fraction == pytest.approx(0.7)
        assert delta.utilization == pytest.approx(1.0)

    def test_mixed_slices_blend_fractions(self):
        counters = CoreCounters()
        counters.accumulate(5.0, 3.4, 1.0)
        counters.accumulate(5.0, 3.4, 0.0)
        delta = counters.snapshot(10.0).delta(CoreCounters().snapshot(0.0))
        assert delta.scalable_fraction == pytest.approx(0.5)

    def test_idle_window_reports_fully_scalable(self):
        counters = CoreCounters()
        first = counters.snapshot(0.0)
        second = counters.snapshot(10.0)
        delta = second.delta(first)
        assert delta.scalable_fraction == 1.0
        assert delta.utilization == 0.0

    def test_higher_frequency_accumulates_more_cycles(self):
        slow, fast = CoreCounters(), CoreCounters()
        slow.accumulate(1.0, 2.0, 1.0)
        fast.accumulate(1.0, 4.0, 1.0)
        assert fast.snapshot(1.0).aperf == pytest.approx(2 * slow.snapshot(1.0).aperf)

    def test_validation(self):
        counters = CoreCounters()
        with pytest.raises(WorkloadError):
            counters.accumulate(-1.0, 3.4, 0.5)
        with pytest.raises(WorkloadError):
            counters.accumulate(1.0, 3.4, 1.5)
        with pytest.raises(WorkloadError):
            counters.accumulate(1.0, 0.0, 0.5)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_scalable_fraction_roundtrips(self, busy, freq, frac):
        counters = CoreCounters()
        counters.accumulate(busy, freq, frac)
        delta = counters.snapshot(busy).delta(CoreCounters().snapshot(0.0))
        assert delta.scalable_fraction == pytest.approx(frac, abs=1e-9)


class TestTimeSeries:
    def test_window_mean_selects_trailing_window(self):
        series = TimeSeries("util")
        for time, value in [(0, 10), (10, 20), (20, 30), (30, 40)]:
            series.record(time, value)
        assert series.window_mean(now=30, window=15) == pytest.approx(35.0)
        assert series.window_mean(now=30, window=100) == pytest.approx(25.0)

    def test_window_mean_empty_returns_none(self):
        series = TimeSeries()
        assert series.window_mean(10.0, 5.0) is None
        series.record(0.0, 1.0)
        assert series.window_mean(100.0, 5.0) is None

    def test_out_of_order_rejected(self):
        series = TimeSeries()
        series.record(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            series.record(5.0, 2.0)

    def test_latest_and_mean(self):
        series = TimeSeries()
        assert series.latest() is None
        assert series.mean() is None
        series.record(1.0, 2.0)
        series.record(2.0, 4.0)
        assert series.latest().value == 4.0
        assert series.mean() == 3.0


class TestStateIntegrator:
    def test_integral_of_steps(self):
        integ = StateIntegrator(initial_value=1.0)
        integ.set(10.0, 3.0)
        integ.finish(20.0)
        # 1.0 for 10 s + 3.0 for 10 s = 40 value-seconds
        assert integ.integral() == pytest.approx(40.0)
        assert integ.time_average() == pytest.approx(2.0)

    def test_backwards_time_rejected(self):
        integ = StateIntegrator()
        integ.set(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            integ.set(5.0, 2.0)

    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10),
                              st.floats(min_value=0, max_value=100)), min_size=1, max_size=20))
    def test_time_average_within_value_range(self, steps):
        integ = StateIntegrator(initial_value=steps[0][1])
        time = 0.0
        values = [steps[0][1]]
        for gap, value in steps:
            time += gap
            integ.set(time, value)
            values.append(value)
        integ.finish(time + 1.0)
        assert min(values) - 1e-9 <= integ.time_average() <= max(values) + 1e-9


class TestLatencyRecorder:
    def test_summary_percentiles(self):
        recorder = LatencyRecorder("test")
        recorder.extend(float(value) for value in range(1, 101))
        summary = recorder.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05, rel=0.01)
        assert summary["p99"] == pytest.approx(99.01, rel=0.01)

    def test_warmup_samples_dropped(self):
        recorder = LatencyRecorder(drop_warmup_before=100.0)
        recorder.record(completion_time=50.0, latency=999.0)
        recorder.record(completion_time=150.0, latency=1.0)
        assert len(recorder) == 1
        assert recorder.dropped_warmup_samples == 1
        assert recorder.mean() == 1.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_summary_equals_the_single_statistics(self, latencies):
        recorder = LatencyRecorder("test")
        recorder.extend(latencies)
        assert recorder.summary() == {
            "count": float(len(latencies)),
            "mean": recorder.mean(),
            "p50": recorder.p50(),
            "p95": recorder.p95(),
            "p99": recorder.p99(),
        }

    def test_empty_recorder_raises(self):
        with pytest.raises(ConfigurationError):
            LatencyRecorder().mean()
        with pytest.raises(ConfigurationError, match="no latency samples"):
            LatencyRecorder("empty").summary()

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyRecorder().record(0.0, -1.0)

    def test_percentile_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101.0)
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)


class TestPowerMeter:
    def test_average_is_time_weighted(self):
        meter = PowerMeter(initial_watts=100.0)
        meter.set_power(90.0, 200.0)  # 100 W for 90 s, then 200 W for 10 s
        meter.finish(100.0)
        assert meter.average_watts() == pytest.approx(110.0)
        assert meter.energy_joules() == pytest.approx(11000.0)

    def test_p99_is_time_weighted_not_event_weighted(self):
        meter = PowerMeter(initial_watts=100.0)
        # Many brief excursions to 500 W totalling 0.5% of the horizon.
        time = 0.0
        for _ in range(5):
            time += 19.9
            meter.set_power(time, 500.0)
            time += 0.1
            meter.set_power(time, 100.0)
        meter.finish(100.0)
        # Excursions cover 0.5 s of 100 s -> P99 should be the base level.
        assert meter.p99_watts() == pytest.approx(100.0)

    def test_p99_catches_sustained_high_power(self):
        meter = PowerMeter(initial_watts=100.0)
        meter.set_power(50.0, 300.0)
        meter.finish(100.0)
        assert meter.p99_watts() == pytest.approx(300.0)

    def test_energy_kwh(self):
        meter = PowerMeter(initial_watts=1000.0)
        meter.finish(3600.0)
        assert meter.energy_kwh() == pytest.approx(1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerMeter().set_power(1.0, -5.0)
