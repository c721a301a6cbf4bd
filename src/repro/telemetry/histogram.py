"""Log-bucketed latency histogram (HDR-style, bounded memory).

:class:`LatencyRecorder` keeps every sample exactly, 8 bytes each in a
float64 buffer: about 14 MB for the ~1.8M requests of one Fig. 16
ramp, which is fine for simulation horizons but still grows without
bound in an unbounded production-style run. :class:`LogHistogram`
provides the bounded alternative: geometric buckets with a
configurable precision, O(1) recording, and quantile queries with
bounded relative error.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError


class LogHistogram:
    """Geometric-bucket histogram over positive values."""

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 3600.0,
        growth: float = 1.05,
    ) -> None:
        """``growth`` is the bucket-edge ratio: quantiles carry at most
        ``growth - 1`` relative error (5% by default)."""
        if not 0 < min_value < max_value:
            raise ConfigurationError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ConfigurationError("growth must exceed 1")
        self.min_value = min_value
        self.max_value = max_value
        self.growth = growth
        self._log_growth = math.log(growth)
        bucket_count = self._index_of(max_value) + 2
        self._buckets = [0] * bucket_count
        self._count = 0
        self._sum = 0.0
        self._max_seen = 0.0
        self._min_seen = math.inf

    def _index_of(self, value: float) -> int:
        clamped = min(max(value, self.min_value), self.max_value)
        return int(math.log(clamped / self.min_value) / self._log_growth)

    def _bucket_value(self, index: int) -> float:
        """Representative (geometric-mean) value of a bucket."""
        low = self.min_value * self.growth**index
        return low * math.sqrt(self.growth)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one observation."""
        if not value >= 0:
            raise ConfigurationError(f"histogram values must be non-negative, got {value}")
        value = max(value, self.min_value)
        self._buckets[self._index_of(value)] += 1
        self._count += 1
        self._sum += value
        self._max_seen = max(self._max_seen, value)
        self._min_seen = min(self._min_seen, value)

    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram (same geometry) into this one."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.growth != self.growth
        ):
            raise ConfigurationError("cannot merge histograms with different geometry")
        for index, count in enumerate(other._buckets):
            self._buckets[index] += count
        self._count += other._count
        self._sum += other._sum
        self._max_seen = max(self._max_seen, other._max_seen)
        self._min_seen = min(self._min_seen, other._min_seen)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        if self._count == 0:
            raise ConfigurationError("empty histogram")
        return self._sum / self._count

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within the bucket error."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be within [0, 1]")
        if self._count == 0:
            raise ConfigurationError("empty histogram")
        target = q * self._count
        running = 0
        for index, bucket_count in enumerate(self._buckets):
            running += bucket_count
            if running >= target and bucket_count > 0:
                return min(self._bucket_value(index), self._max_seen)
        return self._max_seen

    def p95(self) -> float:
        return self.quantile(0.95)

    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.p95(),
            "p99": self.p99(),
            "max": self._max_seen,
        }


__all__ = ["LogHistogram"]
