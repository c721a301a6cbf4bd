"""The overclocking guard: safety envelope for sustained overclocking.

The paper's Section IV take-aways each come with a "must be carefully
managed" clause. :class:`OverclockGuard` is that management loop in one
object — before granting a frequency it checks, in order:

1. **stability** — the requested ratio must be below the crash margin,
   and the correctable-error monitor must not be alarming;
2. **health** — the fleet health pipeline's per-host envelope (a
   screened margin estimate or a derate) caps the grant;
3. **lifetime** — the wear-out counter must afford the extra damage (or
   the request stays within the lifetime-neutral green band);
4. **power** — the host's delivery headroom must cover the extra watts.

The guard returns the highest safe ratio at or below the request, so
callers can ask for the moon and get the envelope.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import ConfigurationError
from ..telemetry.sensors import FusedReading
from .failure_modes import OperatingCondition
from .safety import SafetySupervisor
from .stability import StabilityModel, StabilityMonitor
from .wearout import WearoutCounter

#: Ratio at or below which lifetime is unaffected in the paper's
#: HFE-7000 configuration (the Figure 5 green band).
LIFETIME_NEUTRAL_RATIO = 1.23


class GuardDecision(NamedTuple):
    """The guard's answer to one overclock request (an immutable record:
    per-window health loops ask once per host)."""

    requested_ratio: float
    granted_ratio: float
    #: One of "none", "stability", "health", "alarm", "lifetime",
    #: "power", "telemetry".
    limited_by: str

    @property
    def granted(self) -> bool:
        return self.granted_ratio > 1.0


class OverclockGuard:
    """Grants the largest safe overclock ratio for one host."""

    def __init__(
        self,
        stability: StabilityModel | None = None,
        monitor: StabilityMonitor | None = None,
        wearout: WearoutCounter | None = None,
        overclocked_condition: OperatingCondition | None = None,
        nominal_condition: OperatingCondition | None = None,
        extra_watts_per_ratio: float = 435.0,
        step_ratio: float = 0.01,
        safety: SafetySupervisor | None = None,
    ) -> None:
        """``extra_watts_per_ratio`` converts ratio above 1.0 into added
        socket watts (the paper's measured slope: +100 W buys +23%, i.e.
        ~435 W per unit ratio). ``safety`` attaches a fail-safe telemetry
        supervisor: while it is degraded every decision grants base
        frequency (``limited_by="telemetry"``)."""
        if step_ratio <= 0:
            raise ConfigurationError("step ratio must be positive")
        self.stability = stability if stability is not None else StabilityModel()
        self.monitor = monitor
        self.safety = safety
        self.wearout = wearout
        self.overclocked_condition = overclocked_condition
        self.nominal_condition = nominal_condition
        self.extra_watts_per_ratio = extra_watts_per_ratio
        self.step_ratio = step_ratio
        self._alarmed = False
        self._health_limit_ratio: float | None = None

    # ------------------------------------------------------------------
    # Telemetry feed
    # ------------------------------------------------------------------
    def observe_errors(self, time_hours: float, cumulative_errors: float) -> None:
        """Feed the correctable-error counter; an alarm forces base clock
        until :meth:`clear_alarm`.

        When the monitor is configured with hysteresis
        (``clear_after_quiet > 0``) the guard follows its latch: the
        alarm also clears once enough quiet observations accumulate,
        without waiting for an operator.
        """
        if self.monitor is None:
            return
        if self.monitor.observe(time_hours, cumulative_errors):
            self._alarmed = True
        elif (
            self._alarmed
            and self.monitor.clear_after_quiet > 0
            and not self.monitor.alarmed
        ):
            self._alarmed = False

    def observe_telemetry(self, reading: FusedReading) -> None:
        """Feed one control tick's fused sensor reading to the safety
        supervisor (no-op without one). A run of unhealthy readings trips
        the fail-safe; the next :meth:`decide` then de-rates to base."""
        if self.safety is not None:
            self.safety.observe(reading)

    @property
    def telemetry_degraded(self) -> bool:
        return self.safety is not None and self.safety.degraded

    def clear_alarm(self) -> None:
        """Operator acknowledgement after investigating an error spike."""
        self._alarmed = False

    # ------------------------------------------------------------------
    # Health envelope feed
    # ------------------------------------------------------------------
    def set_health_limit(self, ratio: float) -> None:
        """Cap grants at ``ratio`` (from the fleet health pipeline —
        a screened per-part margin estimate or a drift derate)."""
        if ratio < 1.0:
            raise ConfigurationError("health limit cannot be below stock")
        self._health_limit_ratio = ratio

    def clear_health_limit(self) -> None:
        """Remove the health cap (host screened clean or envelope reset)."""
        self._health_limit_ratio = None

    @property
    def health_limit_ratio(self) -> float | None:
        return self._health_limit_ratio

    @property
    def alarmed(self) -> bool:
        return self._alarmed

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(
        self,
        requested_ratio: float,
        power_headroom_watts: float = float("inf"),
        utilization: float = 1.0,
    ) -> GuardDecision:
        """Largest safe ratio at or below the request."""
        if requested_ratio < 1.0:
            raise ConfigurationError("requested ratio must be >= 1.0")
        # 0. Telemetry health: a blind guard must not overclock at all.
        if self.telemetry_degraded:
            return GuardDecision(requested_ratio, 1.0, "telemetry")
        if self._alarmed:
            return GuardDecision(requested_ratio, 1.0, "alarm")

        ratio = requested_ratio
        limited_by = "none"

        # 1. Stability: never at or beyond the crash margin; stay inside
        #    the stable envelope.
        stable_max = self.stability.max_stable_ratio()
        if ratio > stable_max:
            ratio = stable_max
            limited_by = "stability"

        # 1b. Health: this part's measured envelope may sit below the
        #     population model's margin (drift caught by the fleet
        #     pipeline) — the tighter of the two wins.
        if self._health_limit_ratio is not None and ratio > self._health_limit_ratio:
            ratio = self._health_limit_ratio
            limited_by = "health"

        # 2. Power: the extra watts must fit the delivery headroom.
        max_by_power = 1.0 + power_headroom_watts / self.extra_watts_per_ratio
        if ratio > max_by_power:
            ratio = max(1.0, max_by_power)
            limited_by = "power"

        # 3. Lifetime: beyond the neutral band the wear-out budget pays.
        if (
            ratio > LIFETIME_NEUTRAL_RATIO
            and self.wearout is not None
            and self.overclocked_condition is not None
            and self.nominal_condition is not None
        ):
            affordable_hours = self.wearout.affordable_overclock_hours(
                self.overclocked_condition, self.nominal_condition, utilization
            )
            if affordable_hours < 1.0:
                ratio = LIFETIME_NEUTRAL_RATIO
                limited_by = "lifetime"

        ratio = min(ratio, requested_ratio)
        return GuardDecision(
            requested_ratio,
            round(ratio, 6),
            limited_by if ratio < requested_ratio else "none",
        )


__all__ = ["OverclockGuard", "GuardDecision", "LIFETIME_NEUTRAL_RATIO"]
