"""Tests for the log histogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import LogHistogram


class TestLogHistogram:
    def test_quantiles_within_relative_error(self):
        rng = np.random.default_rng(3)
        samples = rng.lognormal(mean=-6.0, sigma=0.8, size=20_000)
        histogram = LogHistogram(growth=1.05)
        for sample in samples:
            histogram.record(float(sample))
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            approx = histogram.quantile(q)
            assert approx == pytest.approx(exact, rel=0.08), q

    def test_mean_exact(self):
        histogram = LogHistogram()
        for value in (0.001, 0.002, 0.003):
            histogram.record(value)
        assert histogram.mean() == pytest.approx(0.002)
        assert histogram.count == 3

    def test_merge(self):
        a, b = LogHistogram(), LogHistogram()
        for value in (0.01, 0.02):
            a.record(value)
        for value in (0.03, 0.04):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.mean() == pytest.approx(0.025)

    def test_merge_geometry_mismatch(self):
        with pytest.raises(ConfigurationError):
            LogHistogram(growth=1.05).merge(LogHistogram(growth=1.1))

    def test_clamping_and_validation(self):
        histogram = LogHistogram(min_value=1e-3, max_value=10.0)
        histogram.record(1e-9)   # clamped up
        histogram.record(1e9)    # clamped into the top bucket
        assert histogram.count == 2
        with pytest.raises(ConfigurationError):
            histogram.record(-1.0)
        with pytest.raises(ConfigurationError):
            LogHistogram().quantile(1.5)
        with pytest.raises(ConfigurationError):
            LogHistogram().quantile(0.5)  # empty

    def test_nan_rejected_as_configuration_error(self):
        histogram = LogHistogram()
        with pytest.raises(ConfigurationError):
            histogram.record(float("nan"))
        assert histogram.count == 0

    def test_infinity_rejected_and_leaves_the_mean_finite(self):
        # An accepted inf used to make every later mean inf.
        histogram = LogHistogram()
        with pytest.raises(ConfigurationError):
            histogram.record(float("inf"))
        histogram.record(1e-3)
        assert histogram.count == 1
        assert histogram.mean() == 1e-3
        assert histogram.summary()["max"] == 1e-3

    @given(st.lists(st.floats(min_value=1e-5, max_value=100.0), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_quantile_monotone(self, values):
        histogram = LogHistogram()
        for value in values:
            histogram.record(value)
        quantiles = [histogram.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert all(b >= a - 1e-12 for a, b in zip(quantiles, quantiles[1:]))
        assert histogram.quantile(1.0) <= max(values) * 1.06
