"""Tests for schedules and the open-loop arrival source."""

import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import OpenLoopSource, PiecewiseSchedule, Simulator


class TestPiecewiseSchedule:
    def test_values_at_boundaries(self):
        schedule = PiecewiseSchedule([(0.0, 100.0), (10.0, 200.0)])
        assert schedule.value_at(-1.0) == 0.0
        assert schedule.value_at(0.0) == 100.0
        assert schedule.value_at(9.999) == 100.0
        assert schedule.value_at(10.0) == 200.0
        assert schedule.value_at(1e9) == 200.0

    def test_default_before_first_step(self):
        schedule = PiecewiseSchedule([(5.0, 1.0)], default=42.0)
        assert schedule.value_at(0.0) == 42.0

    def test_stepped_builder_matches_paper_ramp(self):
        # 500 QPS, +500 every 5 minutes, 8 levels -> max 4000.
        schedule = PiecewiseSchedule.stepped(initial=500, step=500, period=300, count=8)
        assert schedule.value_at(0.0) == 500
        assert schedule.value_at(299.0) == 500
        assert schedule.value_at(300.0) == 1000
        assert schedule.value_at(7 * 300.0) == 4000
        assert schedule.end_time == 7 * 300.0

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ConfigurationError):
            PiecewiseSchedule([(0.0, 1.0), (0.0, 2.0)])

    def test_stepped_requires_positive_count(self):
        with pytest.raises(ConfigurationError):
            PiecewiseSchedule.stepped(1, 1, 1, 0)


class TestOpenLoopSource:
    def test_deterministic_rate_produces_expected_count(self):
        sim = Simulator()
        arrivals = []
        OpenLoopSource(sim, arrivals.append, rate_per_second=10.0, deterministic=True)
        sim.run(until=10.0)
        assert len(arrivals) == 100

    def test_poisson_rate_statistically_close(self):
        sim = Simulator(seed=3)
        arrivals = []
        OpenLoopSource(sim, arrivals.append, rate_per_second=50.0)
        sim.run(until=100.0)
        assert len(arrivals) == pytest.approx(5000, rel=0.1)

    def test_rate_change_takes_effect(self):
        sim = Simulator()
        arrivals = []
        source = OpenLoopSource(sim, arrivals.append, rate_per_second=1.0, deterministic=True)
        sim.at(10.0, lambda: source.set_rate(100.0))
        sim.run(until=11.0)
        # ~10 arrivals in the first 10 s, then ~100 in the final second.
        assert len(arrivals) > 80

    def test_zero_rate_pauses(self):
        sim = Simulator()
        arrivals = []
        source = OpenLoopSource(sim, arrivals.append, rate_per_second=10.0, deterministic=True)
        sim.at(1.0, lambda: source.set_rate(0.0))
        sim.run(until=100.0)
        count_at_pause = len(arrivals)
        assert count_at_pause <= 11
        assert source.rate == 0.0

    def test_resume_after_pause(self):
        sim = Simulator()
        arrivals = []
        source = OpenLoopSource(sim, arrivals.append, rate_per_second=10.0, deterministic=True)
        sim.at(1.0, lambda: source.set_rate(0.0))
        sim.at(50.0, lambda: source.set_rate(10.0))
        sim.run(until=51.0)
        assert any(t > 50.0 for t in arrivals)

    def test_stop_is_permanent(self):
        sim = Simulator()
        arrivals = []
        source = OpenLoopSource(sim, arrivals.append, rate_per_second=10.0, deterministic=True)
        sim.at(1.0, source.stop)
        sim.run(until=100.0)
        assert len(arrivals) <= 11
        source.set_rate(100.0)
        sim.run(until=200.0)
        assert all(t <= 1.1 for t in arrivals)

    def test_negative_rate_rejected(self):
        sim = Simulator()
        source = OpenLoopSource(sim, lambda t: None, rate_per_second=1.0)
        with pytest.raises(SimulationError):
            source.set_rate(-1.0)

    @pytest.mark.parametrize("rate", [-5.0, math.nan, math.inf])
    def test_constructor_rejects_a_negative_or_non_finite_rate(self, rate):
        with pytest.raises(SimulationError, match="finite and non-negative"):
            OpenLoopSource(Simulator(), lambda t: None, rate_per_second=rate)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_set_rate_rejects_a_non_finite_rate(self, rate):
        sim = Simulator()
        arrivals = []
        source = OpenLoopSource(sim, arrivals.append, rate_per_second=2.0, deterministic=True)
        with pytest.raises(SimulationError, match="finite and non-negative"):
            source.set_rate(rate)
        assert source.rate == 2.0  # the rejected rate changed nothing
        sim.run(until=1.0)
        assert arrivals == [0.5, 1.0]

    def test_generated_counter(self):
        sim = Simulator()
        source = OpenLoopSource(sim, lambda t: None, rate_per_second=5.0, deterministic=True)
        sim.run(until=2.0)
        assert source.generated == 10
