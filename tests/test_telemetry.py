"""Tests for counters, time series, percentiles, and power metering."""

import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.sim import Simulator
from repro.telemetry import (
    CounterSnapshot,
    LatencyRecorder,
    PowerMeter,
    StateIntegrator,
    TimeSeries,
    percentile,
)
from repro.workloads import ServerVM


WARMUP_S = 10.0


class ListLatencyRecorder:
    """The list-backed :class:`LatencyRecorder` the typed buffer
    replaced, kept as the reference the buffer must match exactly."""

    def __init__(self, name: str = "", drop_warmup_before: float = 0.0) -> None:
        self.name = name
        self._warmup = drop_warmup_before
        self._latencies: list[float] = []
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._latencies)

    def record(self, completion_time: float, latency: float) -> None:
        if latency < 0:
            raise ConfigurationError("latency must be non-negative")
        if completion_time < self._warmup:
            self._dropped += 1
            return
        self._latencies.append(latency)

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._latencies)

    @property
    def dropped_warmup_samples(self) -> int:
        return self._dropped

    def mean(self) -> float:
        if not self._latencies:
            raise ConfigurationError(f"no latency samples recorded for {self.name!r}")
        return float(np.mean(self._latencies))

    def p50(self) -> float:
        return percentile(self._latencies, 50.0)

    def p95(self) -> float:
        return percentile(self._latencies, 95.0)

    def p99(self) -> float:
        return percentile(self._latencies, 99.0)

    def summary(self) -> dict[str, float]:
        if not self._latencies:
            raise ConfigurationError(f"no latency samples recorded for {self.name!r}")
        data = np.asarray(self._latencies, dtype=float)
        p50, p95, p99 = np.percentile(data, (50.0, 95.0, 99.0))
        return {
            "count": float(data.size),
            "mean": float(np.mean(data)),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }


def _statistics(recorder):
    return (recorder.mean, recorder.p50, recorder.p95, recorder.p99, recorder.summary)


def _observe(recorder) -> tuple:
    """Everything a recorder reports; a statistic of no samples reads
    as the error type it raises."""
    values = []
    for statistic in _statistics(recorder):
        try:
            values.append(statistic())
        except ConfigurationError:
            values.append(ConfigurationError)
    return (len(recorder), recorder.dropped_warmup_samples, recorder.samples, *values)


def _one_job_vm(busy_s, scalable_fraction=0.85, base_frequency_ghz=3.4):
    """A one-vcore VM holding one job of exactly ``busy_s`` seconds at its
    base clock (a zero-CV demand draw returns the mean)."""
    simulator = Simulator()
    vm = ServerVM(
        simulator,
        "vm",
        vcores=1,
        base_frequency_ghz=base_frequency_ghz,
        service_mean_s=busy_s,
        service_cv=0.0,
        scalable_fraction=scalable_fraction,
    )
    vm.submit(0.0)
    return vm, simulator


class TestCoreCounters:
    """The Aperf/Pperf counters a :class:`ServerVM` integrates."""

    def test_scalable_fraction_matches_accumulation(self):
        vm, sim = _one_job_vm(10.0, scalable_fraction=0.7)
        snap0 = vm.counter_snapshot()
        sim.run(until=10.0)
        snap1 = vm.counter_snapshot()
        delta = snap1.delta(snap0)
        assert delta.scalable_fraction == pytest.approx(0.7)
        assert delta.utilization == pytest.approx(1.0)

    def test_mixed_slices_blend_fractions(self):
        """Slices at two clocks add their cycles; ΔPperf/ΔAperf stays β."""
        vm, sim = _one_job_vm(100.0, scalable_fraction=0.5)
        sim.run(until=5.0)
        vm.set_frequency(1.7)
        sim.run(until=10.0)
        delta = vm.counter_snapshot().delta(CounterSnapshot(0.0, 0.0, 0.0, 0.0))
        assert delta.aperf == pytest.approx(5.0 * 3.4e9 + 5.0 * 1.7e9)
        assert delta.busy_seconds == pytest.approx(10.0)
        assert delta.scalable_fraction == pytest.approx(0.5)

    def test_idle_window_reports_fully_scalable(self):
        sim = Simulator()
        vm = ServerVM(sim, "vm")
        first = vm.counter_snapshot()
        sim.run(until=10.0)
        second = vm.counter_snapshot()
        delta = second.delta(first)
        assert delta.scalable_fraction == 1.0
        assert delta.utilization == 0.0

    def test_higher_frequency_accumulates_more_cycles(self):
        (slow, slow_sim), (fast, fast_sim) = (
            _one_job_vm(1.0, base_frequency_ghz=2.0),
            _one_job_vm(1.0, base_frequency_ghz=4.0),
        )
        slow_sim.run()
        fast_sim.run()
        assert fast.counter_snapshot().aperf == pytest.approx(2 * slow.counter_snapshot().aperf)

    def test_validation(self):
        """The counters' inputs are checked where they enter the VM:
        β and the base clock at construction, each new clock in
        ``set_frequency``. Busy time is positive by construction."""
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ServerVM(sim, "vm", scalable_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ServerVM(sim, "vm", scalable_fraction=-0.1)
        for base in (0.0, -3.4, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                ServerVM(sim, "vm", base_frequency_ghz=base)
        vm = ServerVM(sim, "vm")
        with pytest.raises(WorkloadError):
            vm.set_frequency(0.0)

    @pytest.mark.parametrize(
        "setting",
        [
            {"service_mean_s": math.nan},
            {"service_mean_s": math.inf},
            {"service_mean_s": 0.0},
            {"service_cv": math.nan},
            {"service_cv": math.inf},
            {"service_cv": -0.1},
        ],
        ids=repr,
    )
    def test_service_time_settings_must_be_finite(self, setting):
        # Construction only: a NaN mean completes every request at once,
        # and the auto-scaler builds VMs without a ServiceConfig.
        with pytest.raises(ConfigurationError):
            ServerVM(Simulator(), "vm", **setting)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_scalable_fraction_roundtrips(self, busy, freq, frac):
        vm, sim = _one_job_vm(busy, scalable_fraction=frac, base_frequency_ghz=freq)
        sim.run()
        delta = vm.counter_snapshot().delta(CounterSnapshot(0.0, 0.0, 0.0, 0.0))
        assert delta.aperf == pytest.approx(busy * freq * 1e9)
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

    def test_nan_time_rejected(self):
        series = TimeSeries()
        with pytest.raises(ConfigurationError):
            series.record(math.nan, 1.0)
        series.record(5.0, 1.0)
        with pytest.raises(ConfigurationError):
            series.record(math.nan, 2.0)
        # A stored NaN would have let this out-of-order sample through.
        with pytest.raises(ConfigurationError):
            series.record(1.0, 3.0)
        assert series.times == (5.0,)
        assert series.window_mean(5.0, 10.0) == 1.0


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

    def test_nan_time_rejected(self):
        integ = StateIntegrator(initial_value=2.0)
        with pytest.raises(ConfigurationError):
            integ.set(math.nan, 3.0)
        with pytest.raises(ConfigurationError):
            integ.finish(math.nan)
        integ.finish(10.0)
        assert integ.integral() == 20.0
        assert integ.time_average() == 2.0

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

    def test_nan_latency_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            recorder.record(0.0, math.nan)
        assert recorder.samples == (1.0,)
        assert recorder.summary()["p99"] == 1.0

    @pytest.mark.parametrize("latency", [math.inf, -math.inf])
    def test_infinite_latency_rejected(self, latency):
        recorder = LatencyRecorder()
        recorder.record(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            recorder.record(1.0, latency)
        assert recorder.samples == (1.0,)
        assert recorder.p50() == 1.0

    @pytest.mark.parametrize("warmup", [math.nan, math.inf, -1.0])
    def test_warmup_must_be_finite_and_non_negative(self, warmup):
        with pytest.raises(ConfigurationError):
            LatencyRecorder(drop_warmup_before=warmup)

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.one_of(
                        st.just(WARMUP_S),
                        st.floats(min_value=0.0, max_value=2 * WARMUP_S),
                    ),
                    st.floats(min_value=0.0, max_value=1e4),
                ),
                st.just("stats"),
            ),
            max_size=60,
        )
    )
    def test_matches_the_list_backed_reference(self, operations):
        recorder = LatencyRecorder("buffer", drop_warmup_before=WARMUP_S)
        reference = ListLatencyRecorder("buffer", drop_warmup_before=WARMUP_S)
        for operation in operations + ["stats"]:
            if operation == "stats":
                assert _observe(recorder) == _observe(reference)
            else:
                recorder.record(*operation)
                reference.record(*operation)

    def test_records_after_every_statistic(self):
        recorder = LatencyRecorder()
        recorder.record(1.0, 2.0)
        results = [statistic() for statistic in _statistics(recorder)]
        # Fails with BufferError if any statistic left a view of the
        # buffer alive.
        recorder.record(1.0, 4.0)
        assert results[0] == 2.0
        assert recorder.samples == (2.0, 4.0)
        assert recorder.mean() == 3.0

    def test_records_while_an_empty_statistic_error_lives(self):
        recorder = LatencyRecorder("empty")
        errors = []
        for statistic in _statistics(recorder):
            with pytest.raises(ConfigurationError) as caught:
                statistic()
            errors.append(caught)
        # Each kept exception holds its traceback and with it the frames
        # it was raised in; none of them may hold a view of the buffer.
        recorder.record(1.0, 4.0)
        assert all(caught.value is not None for caught in errors)
        assert recorder.samples == (4.0,)

    def test_samples_cost_8_bytes_each(self):
        recorder = LatencyRecorder()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for index in range(200_000):
                recorder.record(1.0, index * 1e-3)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recorder) == 200_000
        # 1.6 MB of float64 plus the buffer's over-allocation; a list of
        # Python floats costs about 6.4 MB.
        assert after - before < 2.5e6

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

    def test_nan_power_rejected(self):
        meter = PowerMeter(initial_watts=100.0)
        with pytest.raises(ConfigurationError):
            meter.set_power(1.0, math.nan)
        meter.finish(10.0)
        assert meter.average_watts() == 100.0
