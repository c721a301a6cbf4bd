"""Trace-driven diurnal request load for the live service.

Serving "millions of users" means the offered load breathes: a smooth
diurnal swell between a night-time trough and a daytime peak, with
operator- or fault-injected surges on top. :class:`DiurnalTrace` is the
deterministic rate profile; :class:`ArrivalProcess` turns a profile
into individual request arrival times via the standard unit-rate
construction — a homogeneous Poisson process in "work time" stretched
through the integrated rate — so the same seed yields the same arrival
sequence no matter how the enclosing loop ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.random import RandomStreams


@dataclass(frozen=True)
class DiurnalTrace:
    """A smooth trough-to-peak diurnal rate profile.

    ``rate_rps(t)`` starts at the trough (t=0 is "midnight"), peaks at
    ``period_s/2``, and returns — the classic single-peak diurnal
    shape. Surge behaviour is layered on by the caller (the service
    core multiplies in demand surges), keeping the trace itself pure.
    """

    trough_rps: float
    peak_rps: float
    period_s: float = 86_400.0

    def __post_init__(self) -> None:
        # Each check fails on NaN, which passes a ``< 0`` test.
        if not 0.0 <= self.trough_rps < math.inf:
            raise ConfigurationError("trough rate must be non-negative and finite")
        if not self.trough_rps <= self.peak_rps < math.inf:
            raise ConfigurationError("peak rate must be finite and cannot undercut the trough")
        if not 0.0 < self.period_s < math.inf:
            raise ConfigurationError("diurnal period must be positive and finite")

    def rate_rps(self, time_s: float) -> float:
        """Offered request rate at simulated time ``time_s``."""
        swell = 0.5 * (1.0 - math.cos(2.0 * math.pi * (time_s / self.period_s)))
        return self.trough_rps + (self.peak_rps - self.trough_rps) * swell


class ArrivalProcess:
    """Deterministic non-homogeneous Poisson arrivals from named streams.

    Exponential unit-rate gaps are drawn from one named stream; real
    arrival times come from integrating the (piecewise-constant per
    tick) offered rate. Because the gap sequence depends only on the
    stream seed — never on tick boundaries or rate history — replaying
    a run replays its exact arrivals.
    """

    def __init__(self, streams: RandomStreams, stream_name: str) -> None:
        self._streams = streams
        self._stream_name = stream_name
        self._unit_clock = 0.0
        self._next_unit: float | None = None
        self.generated = 0

    def arrivals(self, start_s: float, duration_s: float, rate_rps: float) -> list[float]:
        """Arrival times in ``[start_s, start_s + duration_s)`` at ``rate_rps``."""
        if duration_s <= 0:
            raise ConfigurationError("arrival window must be positive")
        if rate_rps <= 0:
            return []
        streams, name = self._streams, self._stream_name
        unit_clock = self._unit_clock
        next_unit = self._next_unit
        if next_unit is None:
            next_unit = unit_clock + streams.exponential(name, 1.0)
        horizon = unit_clock + rate_rps * duration_s
        times: list[float] = []
        while next_unit <= horizon:
            times.append(start_s + (next_unit - unit_clock) / rate_rps)
            next_unit += streams.exponential(name, 1.0)
        self._next_unit = next_unit
        self._unit_clock = horizon
        self.generated += len(times)
        return times


__all__ = ["DiurnalTrace", "ArrivalProcess"]
