"""Exact percentiles: every statistic must equal ``np.percentile`` bit for bit.

``np.percentile`` (``method="linear"``) is the oracle. A result is
compared by ``repr``, which tells every float64 apart, except that an
input holding ``-0.0`` is compared with ``==``: ``-0.0`` and ``0.0`` tie
under numpy's partition, so which of the two a tied rank reads is
unspecified.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import LatencyRecorder, LatencyWindow, percentile
from repro.telemetry import percentiles as percentiles_module

#: Samples per pass of the percentile routine: sizes are drawn around
#: its multiples so that arrays start, end and tie across chunk edges.
CHUNK = percentiles_module._CHUNK

#: What ``LatencyRecorder`` may hold: finite and non-negative.
RECORDABLE = ("spread", "ties", "equal", "zeros", "ulps")
#: ``percentile()`` also takes negatives, signed zeros and infinities.
GENERAL = RECORDABLE + ("signed", "negative-zero", "infinite")

QS = (0.0, 50.0, 95.0, 99.0, 100.0)


def _samples(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "spread":
        return rng.lognormal(-5.0, 1.0, n)
    if kind == "ties":
        return rng.integers(0, 4, n) * 0.25e-3
    if kind == "equal":
        return np.full(n, rng.lognormal(-5.0, 1.0))
    if kind == "zeros":
        return rng.lognormal(-5.0, 1.0, n) * (rng.random(n) < 0.3)
    if kind == "ulps":
        # A few hundred values one ulp apart: ranks are told apart only
        # by the lowest bits.
        return 1.0 + rng.integers(0, 300, n) * np.finfo(float).eps
    if kind == "signed":
        return rng.normal(0.0, 1.0, n) * rng.integers(0, 3, n)
    if kind == "negative-zero":
        return np.where(rng.random(n) < 0.5, -0.0, rng.normal(0.0, 1.0, n))
    if kind == "infinite":
        values = rng.normal(0.0, 1.0, n)
        values[rng.random(n) < 0.05] = math.inf
        values[rng.random(n) < 0.05] = -math.inf
        return values
    raise AssertionError(kind)


def _sizes():
    edges = st.sampled_from((1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1))
    return st.one_of(edges, st.integers(1, 300), st.integers(CHUNK + 1, 4 * CHUNK + 100))


def _assert_same(got: float, want, data: np.ndarray) -> None:
    want = float(want)
    if np.signbit(data[data == 0.0]).any():
        assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)
    else:
        assert repr(got) == repr(want), (got, want)


def _storm_window_p99(recorder: LatencyRecorder, start: int, stop: int) -> float:
    """The storm's p99 over the samples recorded inside its window."""
    return recorder.percentile(99.0, start, stop)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(RECORDABLE),
    n=_sizes(),
    seed=st.integers(0, 2**32 - 1),
    window=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_recorder_statistics_equal_numpy(kind, n, seed, window):
    data = _samples(kind, n, seed)
    recorder = LatencyRecorder("oracle")
    recorder.extend(data)
    assert repr(recorder.p50()) == repr(float(np.percentile(data, 50.0)))
    assert repr(recorder.p95()) == repr(float(np.percentile(data, 95.0)))
    assert repr(recorder.p99()) == repr(float(np.percentile(data, 99.0)))
    want = np.percentile(data, (50.0, 95.0, 99.0))
    summary = recorder.summary()
    assert summary["count"] == float(n)
    assert repr(summary["mean"]) == repr(float(np.mean(data)))
    for key, value in zip(("p50", "p95", "p99"), want):
        assert repr(summary[key]) == repr(float(value))
    start, stop = sorted(round(edge * n) for edge in window)
    if stop > start:
        got = _storm_window_p99(recorder, start, stop)
        assert repr(got) == repr(float(np.percentile(data[start:stop], 99.0)))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(GENERAL),
    n=_sizes(),
    seed=st.integers(0, 2**32 - 1),
    q=st.one_of(st.sampled_from(QS), st.floats(0.0, 100.0)),
)
def test_percentile_equals_numpy(kind, n, seed, q):
    data = _samples(kind, n, seed)
    with np.errstate(invalid="ignore"):
        want = np.percentile(data, q)
    _assert_same(percentile(data, q), want, data)
    _assert_same(percentile(data.tolist(), q), want, data)


@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False),
            st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324)),
        ),
        min_size=1,
        max_size=200,
    ),
    st.floats(0.0, 100.0),
)
def test_percentile_of_any_small_list_equals_numpy(values, q):
    data = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.percentile(data, q)
    _assert_same(percentile(values, q), want, data)


def test_percentile_of_nan_is_nan():
    for n in (1, 5, 3 * CHUNK):
        data = np.arange(n, dtype=float)
        data[n // 2] = math.nan
        assert math.isnan(np.percentile(data, 50.0))
        assert math.isnan(percentile(data, 50.0))
        assert math.isnan(percentile(data, 0.0))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(GENERAL),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from((1, 3, 64)),
    q=st.one_of(st.sampled_from(QS), st.floats(0.0, 100.0)),
)
def test_small_chunks_reach_every_narrowing_level(kind, n, seed, chunk, q):
    """With chunks of a few samples a bucket rarely fits one, so ranks
    are narrowed down to the last digit and single-value buckets."""
    data = _samples(kind, n, seed)
    with np.errstate(invalid="ignore"):
        want = np.percentile(data, q), np.percentile(data, (50.0, 95.0, 99.0))
    with mock.patch.object(percentiles_module, "_CHUNK", chunk):
        got = percentile(data, q), percentiles_module._percentiles(data, (50.0, 95.0, 99.0))
    _assert_same(got[0], want[0], data)
    for value, expected in zip(got[1], want[1]):
        _assert_same(value, expected, data)


def _filled(values) -> LatencyRecorder:
    recorder = LatencyRecorder("memory")
    recorder.extend(values)
    return recorder


@pytest.mark.parametrize("kind", ["spread", "equal"])
def test_statistics_of_a_million_samples_stay_under_2_mb(kind):
    """The buffer is 8 MB; a copy of it alone would be 8 MB."""
    recorder = _filled(_samples(kind, 1_000_000, seed=5))
    tracemalloc.start()
    try:
        for statistic in (recorder.p95, recorder.summary):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            statistic()
            _, peak = tracemalloc.get_traced_memory()
            assert peak - before < 2e6, statistic.__name__
    finally:
        tracemalloc.stop()
    # Fails with BufferError if a statistic left a view of the buffer alive.
    recorder.record(1.0, 1.0)


def test_window_percentile_reads_the_slice_and_leaves_no_view():
    recorder = _filled(np.arange(3 * CHUNK, dtype=float))
    assert recorder.percentile(99.0, 10, 2 * CHUNK + 5) == np.percentile(
        np.arange(10, 2 * CHUNK + 5, dtype=float), 99.0
    )
    assert recorder.percentile(50.0, -4) == 3 * CHUNK - 2.5
    with pytest.raises(ConfigurationError, match="no latency samples"):
        recorder.percentile(99.0, 5, 5)
    with pytest.raises(ConfigurationError):
        recorder.percentile(101.0)
    recorder.record(1.0, 1.0)
    assert len(recorder) == 3 * CHUNK + 1


@settings(max_examples=60, deadline=None)
@given(
    ticks=st.integers(1, 6),
    recorded=st.lists(st.lists(st.floats(0.0, 1e3), max_size=12), min_size=1, max_size=30),
    window=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    chunk=st.sampled_from((3, CHUNK)),
)
def test_latency_window_holds_exactly_its_last_ticks(ticks, recorded, window, chunk):
    """Tick by tick, the window reads as a recorder holding only the
    samples of its last ``ticks`` closed ticks, and its buffer holds at
    most twice those."""
    recorder = LatencyWindow(ticks, "window")
    closed: list[list[float]] = []
    for values in recorded:
        recorder.extend(values)
        recorder.close_tick()
        closed.append(values)
        kept = [value for values in closed[-ticks:] for value in values]
        assert recorder.samples == tuple(kept)
        assert len(recorder) == len(kept)
        assert len(recorder._latencies) <= 2 * len(kept)
    data = np.asarray(kept)
    if not kept:
        with pytest.raises(ConfigurationError, match="no latency samples"):
            recorder.summary()
        return
    with mock.patch.object(percentiles_module, "_CHUNK", chunk):
        summary = recorder.summary()
        start, stop = sorted(round(edge * data.size) for edge in window)
        if stop > start:
            got = recorder.percentile(99.0, start, stop)
            assert repr(got) == repr(float(np.percentile(data[start:stop], 99.0)))
    assert summary["count"] == data.size
    assert repr(summary["mean"]) == repr(float(np.mean(data)))
    for key, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
        assert repr(summary[key]) == repr(float(np.percentile(data, q)))
    # Fails with BufferError if a statistic left a view of the buffer alive.
    recorder.record(1.0, 1.0)
    recorder.close_tick()


def test_latency_window_keeps_at_least_one_tick():
    with pytest.raises(ConfigurationError, match="at least one tick"):
        LatencyWindow(0)
