"""Higher-level process helpers layered over the event kernel.

Two utilities the cluster and workload models share:

* :class:`OpenLoopSource` — an open-loop (Poisson by default) arrival
  process that calls a sink for every generated arrival and whose rate
  can be re-programmed while the simulation runs. Used to drive the
  client-server application with the paper's stepped QPS schedules.
* :class:`PiecewiseSchedule` — a step function of simulated time, used
  both for load schedules ("500 QPS, +500 every 5 minutes") and for
  recording piecewise-constant state such as VM counts and frequencies.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import ConfigurationError, SimulationError
from .kernel import Simulator


@dataclass(frozen=True)
class ScheduleStep:
    """One step of a piecewise-constant schedule."""

    start_time: float
    value: float


class PiecewiseSchedule:
    """A piecewise-constant function of simulated time.

    Steps must be supplied in increasing time order. Queries before the
    first step return ``default``.
    """

    def __init__(self, steps: Iterable[tuple[float, float]], default: float = 0.0) -> None:
        ordered = [ScheduleStep(float(t), float(v)) for t, v in steps]
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start_time <= earlier.start_time:
                raise ConfigurationError("schedule steps must be strictly increasing in time")
        self._steps = ordered
        self._times = [step.start_time for step in ordered]
        self._default = default

    @classmethod
    def stepped(
        cls, initial: float, step: float, period: float, count: int, start_time: float = 0.0
    ) -> "PiecewiseSchedule":
        """Build the paper's ramp schedules: ``initial``, then ``+step``
        every ``period`` seconds, for ``count`` total levels."""
        if count < 1:
            raise ConfigurationError("stepped schedule needs count >= 1")
        steps = [
            (start_time + index * period, initial + index * step) for index in range(count)
        ]
        return cls(steps)

    @property
    def steps(self) -> Sequence[ScheduleStep]:
        return tuple(self._steps)

    @property
    def end_time(self) -> float:
        """Time at which the final level begins (not when it ends)."""
        if not self._steps:
            return 0.0
        return self._steps[-1].start_time

    def value_at(self, time: float) -> float:
        """Return the schedule's value at simulated ``time``."""
        index = bisect_right(self._times, time) - 1
        if index < 0:
            return self._default
        return self._steps[index].value


class OpenLoopSource:
    """An open-loop arrival generator with a programmable rate.

    Arrivals are generated one ahead: after each arrival fires, the next
    inter-arrival gap is drawn from the *current* rate, so rate changes
    take effect within one arrival. A rate of zero pauses the source; it
    resumes when :meth:`set_rate` is called with a positive rate.

    ``burst_mean`` > 1 makes arrivals *bursty*: each arrival epoch
    delivers a geometrically-distributed batch of requests (mean
    ``burst_mean``) and epochs are spaced so the long-run rate is
    unchanged. Real clients burst (connection reuse, fan-out, retries);
    burstiness raises transient queueing at the same mean utilization.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: Callable[[float], None],
        rate_per_second: float = 0.0,
        stream_name: str = "arrivals",
        deterministic: bool = False,
        burst_mean: float = 1.0,
    ) -> None:
        if burst_mean < 1.0:
            raise SimulationError("burst_mean must be >= 1")
        self._simulator = simulator
        self._sink = sink
        self._stream = stream_name
        self._burst_stream = f"{stream_name}:burst"
        self._deterministic = deterministic
        self._burst_mean = float(burst_mean)
        # Geometric bursts on {1, 2, ...} with mean burst_mean: each
        # request continues the burst with probability 1 - 1/burst_mean,
        # so a burst is 1 + floor(log(u) / log(that probability)).
        self._log_continue = (
            math.log(1.0 - 1.0 / self._burst_mean) if self._burst_mean != 1.0 else 0.0
        )
        self._pending = None
        self._stopped = False
        self._generated = 0
        self._set_rate(float(rate_per_second))
        if self._rate > 0:
            self._schedule_next()

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def generated(self) -> int:
        """Total arrivals produced so far."""
        return self._generated

    def set_rate(self, rate_per_second: float) -> None:
        """Re-program the arrival rate, effective immediately."""
        self._set_rate(float(rate_per_second))
        if self._pending is not None:
            self._simulator.cancel(self._pending)
            self._pending = None
        if self._rate > 0 and not self._stopped:
            self._schedule_next()

    def _set_rate(self, rate: float) -> None:
        # An infinite rate would fire every arrival at one instant, and a
        # NaN one would silently pause the source.
        if not 0.0 <= rate < math.inf:
            raise SimulationError(f"arrival rate must be finite and non-negative, got {rate}")
        self._rate = rate
        #: Mean gap between arrival epochs at this rate.
        self._epoch_gap = 1.0 / (rate / self._burst_mean) if rate > 0 else math.inf

    def stop(self) -> None:
        """Permanently stop generating arrivals."""
        self._stopped = True
        if self._pending is not None:
            self._simulator.cancel(self._pending)
            self._pending = None

    def _schedule_next(self) -> None:
        if self._rate <= 0 or self._stopped:
            return
        if self._deterministic:
            gap = self._epoch_gap
        else:
            gap = self._simulator.streams.exponential(self._stream, self._epoch_gap)
        self._pending = self._simulator.after(gap, self._fire, name="arrival")

    def _fire(self) -> None:
        self._pending = None
        now = self._simulator.now
        burst = 1
        if self._burst_mean != 1.0:
            draw = self._simulator.streams.uniform(self._burst_stream, 0.0, 1.0)
            burst += int(math.log(max(draw, 1e-12)) / self._log_continue)
        for _ in range(burst):
            self._generated += 1
            self._sink(now)
        self._schedule_next()


__all__ = ["OpenLoopSource", "PiecewiseSchedule", "ScheduleStep"]
