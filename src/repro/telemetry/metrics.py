"""Time-series metric recording with windowed aggregation.

The auto-scaler in the paper averages CPU utilization "over the last
3 minutes (to avoid noise)" for scale-out/in decisions and "over the last
30 seconds" for scale-up/down decisions. :class:`TimeSeries` supports
exactly those queries: record timestamped samples, then ask for the mean
over a trailing window. A piecewise-constant variant integrates state
signals (VM counts, frequency) over time, which is how VM×hours is
computed for Table XI.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Sample:
    """One timestamped observation."""

    time: float
    value: float


class TimeSeries:
    """An append-only series of timestamped samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Sample]:
        return (Sample(t, v) for t, v in zip(self._times, self._values))

    def record(self, time: float, value: float) -> None:
        """Append a sample. Timestamps must be non-decreasing (and not NaN)."""
        last = self._times[-1] if self._times else -math.inf
        if not time >= last:
            raise ConfigurationError(
                f"samples must be appended in time order ({time} after {last})"
            )
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> Sequence[float]:
        return tuple(self._times)

    @property
    def values(self) -> Sequence[float]:
        return tuple(self._values)

    def latest(self) -> Sample | None:
        """Return the most recent sample, if any."""
        if not self._times:
            return None
        return Sample(self._times[-1], self._values[-1])

    def window_mean(self, now: float, window: float) -> float | None:
        """Mean of samples with ``now - window <= time <= now``.

        Returns None when the window holds no samples (the auto-scaler
        treats that as "not enough telemetry yet").
        """
        if window <= 0:
            raise ConfigurationError("window must be positive")
        start = bisect_left(self._times, now - window)
        end = bisect_left(self._times, now + 1e-12)
        # include samples exactly at `now`
        while end < len(self._times) and self._times[end] <= now:
            end += 1
        if end <= start:
            return None
        selected = self._values[start:end]
        return sum(selected) / len(selected)

    def mean(self) -> float | None:
        """Mean over the whole series."""
        if not self._values:
            return None
        return sum(self._values) / len(self._values)


class StateIntegrator:
    """Integrates a piecewise-constant state signal over time.

    Used for VM×hours (integrate VM count) and average power (integrate
    watts). Call :meth:`set` whenever the state changes and
    :meth:`finish` once at the end of the horizon.
    """

    def __init__(self, initial_value: float = 0.0, start_time: float = 0.0) -> None:
        self._value = float(initial_value)
        self._last_time = float(start_time)
        self._integral = 0.0
        self._elapsed = 0.0
        self._trace: list[Sample] = [Sample(start_time, initial_value)]

    @property
    def value(self) -> float:
        """The current state value."""
        return self._value

    @property
    def trace(self) -> Sequence[Sample]:
        """The recorded step changes (time, new value)."""
        return tuple(self._trace)

    def set(self, time: float, value: float) -> None:
        """Change the state at ``time``."""
        if not time >= self._last_time:
            raise ConfigurationError("state changes must be applied in time order")
        self._advance(time)
        self._value = float(value)
        self._trace.append(Sample(time, self._value))

    def finish(self, time: float) -> None:
        """Account the final segment up to ``time``."""
        self._advance(time)

    def integral(self) -> float:
        """∫ value dt over all accounted segments (value-seconds)."""
        return self._integral

    def time_average(self) -> float:
        """Time-weighted average of the state over accounted segments."""
        if self._elapsed <= 0:
            return self._value
        return self._integral / self._elapsed

    def _advance(self, time: float) -> None:
        if not time >= self._last_time:
            raise ConfigurationError("cannot integrate backwards in time")
        span = time - self._last_time
        self._integral += self._value * span
        self._elapsed += span
        self._last_time = time


__all__ = ["Sample", "TimeSeries", "StateIntegrator"]
