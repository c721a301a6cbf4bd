"""Percentile estimation for latency and power distributions.

The paper reports P95 and P99 latencies and P99 power draw. We keep
exact samples in :class:`LatencyRecorder` and compute percentiles with
the standard nearest-rank-with-interpolation definition that NumPy
uses, so reported numbers are stable across runs with the same seed.

The samples live in an ``array("d")``: 8 bytes each, against about 32
for a Python float held in a list, so the ~1.8M requests of one Fig. 16
ramp take about 14 MB. ``np.asarray`` reads that buffer as a zero-copy
float64 view, so a statistic copies no samples. While a view is alive
the buffer cannot grow, so no view may outlive the statistic that took
it (see :meth:`LatencyRecorder._data`). Growth stays unbounded; a
bounded alternative with approximate quantiles is
:class:`~repro.telemetry.histogram.LogHistogram`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError


def percentile(samples: Sequence[float] | np.ndarray, q: float) -> float:
    """Return the ``q``-th percentile (0..100) of ``samples``."""
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("percentile q must be within [0, 100]")
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ConfigurationError("cannot take a percentile of zero samples")
    return float(np.percentile(data, q))


class LatencyRecorder:
    """Collects request latencies and summarizes them.

    ``drop_warmup_before`` excludes samples whose *completion* time falls
    in the warmup period, matching standard practice of discarding the
    cold start from latency statistics.
    """

    def __init__(self, name: str = "", drop_warmup_before: float = 0.0) -> None:
        self.name = name
        self._warmup = drop_warmup_before
        self._latencies = array("d")
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._latencies)

    def record(self, completion_time: float, latency: float) -> None:
        """Record one request's end-to-end latency."""
        if not latency >= 0:
            raise ConfigurationError(f"latency must be non-negative, got {latency}")
        if completion_time < self._warmup:
            self._dropped += 1
            return
        self._latencies.append(latency)

    def extend(self, latencies: Iterable[float], completion_time: float = float("inf")) -> None:
        """Record many latencies sharing one completion timestamp."""
        for latency in latencies:
            self.record(completion_time, latency)

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._latencies)

    @property
    def dropped_warmup_samples(self) -> int:
        return self._dropped

    def _data(self) -> np.ndarray:
        """The samples as a float64 array, a view of the buffer.

        Checks for emptiness *before* taking the view: an exception
        raised with a view in its frame would keep the buffer exported
        for as long as the exception lives, and every later
        :meth:`record` would fail with :class:`BufferError`. Callers
        must likewise drop the view before they return. A recorder
        unpickled from a cache entry written when the samples were a
        list still works: ``np.asarray`` copies the list instead.
        """
        if not self._latencies:
            raise ConfigurationError(f"no latency samples recorded for {self.name!r}")
        return np.asarray(self._latencies, dtype=float)

    def mean(self) -> float:
        return float(np.mean(self._data()))

    def p50(self) -> float:
        return percentile(self._data(), 50.0)

    def p95(self) -> float:
        return percentile(self._data(), 95.0)

    def p99(self) -> float:
        return percentile(self._data(), 99.0)

    def summary(self) -> dict[str, float]:
        """Return mean/P50/P95/P99 and the sample count.

        Equal to :meth:`mean`, :meth:`p50`, :meth:`p95` and :meth:`p99`,
        but takes one view of the samples for all four.
        """
        data = self._data()
        p50, p95, p99 = np.percentile(data, (50.0, 95.0, 99.0))
        return {
            "count": float(data.size),
            "mean": float(np.mean(data)),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }


__all__ = ["LatencyRecorder", "percentile"]
