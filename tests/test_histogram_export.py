"""Tests for the log histogram and the result exporters."""

import csv
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import (
    LogHistogram,
    TimeSeries,
    write_json,
    write_records_csv,
    write_timeseries_csv,
)


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

    @given(st.lists(st.floats(min_value=1e-5, max_value=100.0), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_quantile_monotone(self, values):
        histogram = LogHistogram()
        for value in values:
            histogram.record(value)
        quantiles = [histogram.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert all(b >= a - 1e-12 for a, b in zip(quantiles, quantiles[1:]))
        assert histogram.quantile(1.0) <= max(values) * 1.06


@dataclass
class _Row:
    name: str
    value: float


class TestExport:
    def test_records_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        count = write_records_csv(path, [_Row("a", 1.0), _Row("b", 2.0)])
        assert count == 2
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0] == {"name": "a", "value": "1.0"}

    def test_records_csv_accepts_dicts(self, tmp_path):
        path = tmp_path / "dicts.csv"
        assert write_records_csv(path, [{"x": 1}, {"x": 2}]) == 2

    def test_records_csv_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_records_csv(tmp_path / "e.csv", [])
        with pytest.raises(ConfigurationError):
            write_records_csv(tmp_path / "m.csv", [{"a": 1}, {"b": 2}])
        with pytest.raises(ConfigurationError):
            write_records_csv(tmp_path / "t.csv", [42])

    def test_timeseries_csv(self, tmp_path):
        series = TimeSeries("util")
        series.record(0.0, 0.5)
        series.record(3.0, 0.6)
        path = tmp_path / "series.csv"
        assert write_timeseries_csv(path, series) == 2
        content = path.read_text().splitlines()
        assert content[0] == "series,time,value"
        assert content[1] == "util,0.0,0.5"

    def test_json_with_dataclasses(self, tmp_path):
        path = tmp_path / "snap.json"
        write_json(path, {"rows": [_Row("a", 1.0)], "meta": 3})
        payload = json.loads(path.read_text())
        assert payload["rows"][0]["name"] == "a"
        assert payload["meta"] == 3

    def test_json_golden_text_is_key_sorted(self, tmp_path):
        """The exact bytes written are pinned: sorted keys, 2-space
        indent, trailing newline — the diffable-export contract."""
        path = tmp_path / "golden.json"
        write_json(path, {"zeta": 1, "alpha": {"b": 2, "a": _Row("r", 0.5)}})
        assert path.read_text() == (
            "{\n"
            '  "alpha": {\n'
            '    "a": {\n'
            '      "name": "r",\n'
            '      "value": 0.5\n'
            "    },\n"
            '    "b": 2\n'
            "  },\n"
            '  "zeta": 1\n'
            "}\n"
        )

    def test_json_text_is_insertion_order_independent(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        write_json(one, {"b": 1, "a": 2})
        write_json(two, {"a": 2, "b": 1})
        assert one.read_text() == two.read_text()
