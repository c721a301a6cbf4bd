"""Server power metering.

A :class:`PowerMeter` samples a piecewise-constant power signal: model
code calls :meth:`set_power` whenever the server's draw changes, and the
meter integrates energy and keeps the step trace so average and P99
power (as reported throughout the paper's evaluation) can be computed
*time-weighted* — a P99 over raw step events would be biased by how
often the power changed, not by how long it was held.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..units import watt_seconds_to_kwh
from .metrics import StateIntegrator


class PowerMeter:
    """Integrates a server's power draw over simulated time."""

    def __init__(self, start_time: float = 0.0, initial_watts: float = 0.0) -> None:
        self._integrator = StateIntegrator(initial_value=initial_watts, start_time=start_time)
        self._finished_at: float | None = None

    @property
    def watts(self) -> float:
        """The current power draw."""
        return self._integrator.value

    @property
    def trace(self):
        """The recorded power steps as (time, watts) samples."""
        return self._integrator.trace

    def set_power(self, time: float, watts: float) -> None:
        """Record that the draw changed to ``watts`` at ``time``."""
        if not watts >= 0:
            raise ConfigurationError(f"power draw must be non-negative, got {watts}")
        self._integrator.set(time, watts)

    def finish(self, time: float) -> None:
        """Close the measurement horizon at ``time``."""
        self._integrator.finish(time)
        self._finished_at = time

    def average_watts(self) -> float:
        """Time-weighted average power over the measured horizon."""
        return self._integrator.time_average()

    def energy_joules(self) -> float:
        """Total energy consumed over the measured horizon."""
        return self._integrator.integral()

    def energy_kwh(self) -> float:
        """Total energy in kWh."""
        return watt_seconds_to_kwh(self.energy_joules())

    def percentile_watts(self, q: float) -> float:
        """Time-weighted power percentile (e.g. ``q=99`` for P99 draw)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError("percentile q must be within [0, 100]")
        trace = self._integrator.trace
        end_time = self._finished_at
        if end_time is None:
            end_time = trace[-1].time
        levels: list[float] = []
        durations: list[float] = []
        for current, nxt in zip(trace, trace[1:]):
            span = nxt.time - current.time
            if span > 0:
                levels.append(current.value)
                durations.append(span)
        final_span = end_time - trace[-1].time
        if final_span > 0:
            levels.append(trace[-1].value)
            durations.append(final_span)
        if not levels:
            return self._integrator.value
        order = np.argsort(levels)
        sorted_levels = np.asarray(levels, dtype=float)[order]
        sorted_durations = np.asarray(durations, dtype=float)[order]
        cumulative = np.cumsum(sorted_durations)
        target = (q / 100.0) * cumulative[-1]
        index = int(np.searchsorted(cumulative, target, side="left"))
        index = min(index, len(sorted_levels) - 1)
        return float(sorted_levels[index])

    def p99_watts(self) -> float:
        """Time-weighted 99th-percentile power draw."""
        return self.percentile_watts(99.0)


__all__ = ["PowerMeter"]
