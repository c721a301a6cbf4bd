"""Computational stability under overclocking (paper Section IV).

Excessive overclocking induces bitflips from aggressive circuit timing
and voltage droop. The paper's six-month characterization found:

* no correctable errors on small tank #1 (W-3175X at up to +23% over
  all-core turbo);
* 56 CPU cache correctable errors on small tank #2 over six months of
  "very aggressive" overclocking;
* no silent errors anywhere;
* ungraceful crashes only when voltage/frequency were pushed to excess.

:class:`StabilityModel` captures this shape: a negligible background
error rate inside the stable margin (+23% over turbo), an exponential
ramp beyond it, and a crash threshold past the ramp.
:class:`StabilityMonitor` implements the paper's proposed guardrail —
watch the *rate of change* of correctable errors and back off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError, StabilityError

#: Six months expressed in hours — the paper's characterization window.
SIX_MONTHS_HOURS = 183.0 * 24.0

#: Correctable errors per ungraceful crash. The characterization saw 56
#: correctable errors and zero crashes over six months of aggressive
#: overclocking, so crashes are at least an order of magnitude rarer
#: than correctable errors at the same operating point.
DEFAULT_ERRORS_PER_CRASH = 500.0


@dataclass(frozen=True)
class StabilityModel:
    """Correctable-error rate and crash behaviour vs overclock ratio.

    ``overclock_ratio`` is frequency divided by the part's all-core
    turbo (1.0 = stock, 1.23 = the paper's stable envelope).
    """

    #: Overclock ratio up to which operation is error-free in practice.
    stable_margin: float = 1.23
    #: Ratio at which the part ungracefully crashes.
    crash_margin: float = 1.35
    #: Scale of the exponential error ramp beyond the stable margin
    #: (errors/hour per e-fold of excess ratio).
    base_error_rate_per_hour: float = 0.013
    #: e-folding width of the exponential ramp, in ratio units.
    ramp_width: float = 0.025
    #: Error floor inside the stable margin (errors/hour). The default
    #: 0.0 reproduces tank #1 (no errors in six months); the paper's
    #: tank #2 — 56 correctable errors while *inside* its aggressive
    #: envelope — is ``56 / SIX_MONTHS_HOURS`` ≈ 0.0127.
    background_error_rate_per_hour: float = 0.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.stable_margin < self.crash_margin:
            raise ConfigurationError("need 1.0 <= stable_margin < crash_margin")
        if self.ramp_width <= 0:
            raise ConfigurationError("ramp width must be positive")
        if self.background_error_rate_per_hour < 0:
            raise ConfigurationError("background error rate cannot be negative")

    def correctable_error_rate_per_hour(self, overclock_ratio: float) -> float:
        """Expected correctable errors per hour at ``overclock_ratio``.

        Continuous at ``stable_margin``: the ramp uses ``expm1`` so the
        rate approaches the background floor as the excess approaches
        zero — the margin is where errors *start*, not a cliff. Monotone
        non-decreasing in the ratio.
        """
        if overclock_ratio <= 0:
            raise ConfigurationError("overclock ratio must be positive")
        if overclock_ratio <= self.stable_margin:
            return self.background_error_rate_per_hour
        excess = overclock_ratio - self.stable_margin
        return self.background_error_rate_per_hour + (
            self.base_error_rate_per_hour * math.expm1(excess / self.ramp_width)
        )

    def expected_errors(self, overclock_ratio: float, hours: float) -> float:
        """Expected correctable-error count over ``hours`` of operation."""
        if hours < 0:
            raise ConfigurationError("hours must be non-negative")
        return self.correctable_error_rate_per_hour(overclock_ratio) * hours

    def crash_rate_per_hour(
        self,
        overclock_ratio: float,
        errors_per_crash: float = DEFAULT_ERRORS_PER_CRASH,
    ) -> float:
        """Expected ungraceful crashes per hour at ``overclock_ratio``.

        Inside the stable margin the rate is zero — the background error
        floor is benign (the paper's tank #2 logged 56 correctable
        errors and zero crashes); between the margins it follows the
        correctable-error *ramp* scaled down by ``errors_per_crash``; at
        or past the crash margin the part cannot operate at all and the
        rate is infinite. Fault injectors sample exponential crash times
        from this rate.
        """
        if errors_per_crash <= 0:
            raise ConfigurationError("errors_per_crash must be positive")
        if self.crashes(overclock_ratio):
            return math.inf
        ramp = (
            self.correctable_error_rate_per_hour(overclock_ratio)
            - self.background_error_rate_per_hour
        )
        return ramp / errors_per_crash

    def crashes(self, overclock_ratio: float) -> bool:
        """True when the part cannot operate at this ratio at all."""
        return overclock_ratio >= self.crash_margin

    def check(self, overclock_ratio: float) -> None:
        """Raise :class:`StabilityError` at crash-inducing ratios."""
        if self.crashes(overclock_ratio):
            raise StabilityError(
                f"overclock ratio {overclock_ratio:.3f} is at or beyond the crash "
                f"margin {self.crash_margin:.3f}"
            )

    def max_stable_ratio(self) -> float:
        """Largest ratio with a zero observed error rate."""
        return self.stable_margin


@dataclass
class StabilityMonitor:
    """Watches correctable-error counts and flags runaway growth.

    The paper proposes "monitoring the rate of change in correctable
    errors" as the production guardrail. The monitor keeps the last
    observation and reports when the inter-observation error *rate*
    exceeds a threshold, signalling the controller to reduce frequency.

    The alarm is *latched with hysteresis*: once it fires, ``alarmed``
    stays True until ``clear_after_quiet`` consecutive observations come
    in below ``clear_threshold_per_hour`` (which defaults to the firing
    threshold, and may be set lower to widen the hysteresis band).
    ``clear_after_quiet=0`` — the default — latches forever, leaving the
    decision to clear with the operator (:meth:`reset_alarm`).
    """

    rate_threshold_per_hour: float = 1.0
    #: Consecutive quiet observations required to auto-clear a latched
    #: alarm; 0 means the alarm only clears via :meth:`reset_alarm`.
    clear_after_quiet: int = 0
    #: Rate below which an observation counts as quiet (defaults to
    #: ``rate_threshold_per_hour``).
    clear_threshold_per_hour: float | None = None
    _last_time_hours: float | None = field(default=None, init=False)
    _last_count: float = field(default=0.0, init=False)
    alarms: int = field(default=0, init=False)
    _alarmed: bool = field(default=False, init=False)
    _quiet_streak: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.clear_after_quiet < 0:
            raise ConfigurationError("clear_after_quiet cannot be negative")
        if (
            self.clear_threshold_per_hour is not None
            and self.clear_threshold_per_hour > self.rate_threshold_per_hour
        ):
            raise ConfigurationError(
                "the clear threshold cannot exceed the firing threshold "
                "(hysteresis bands open downwards)"
            )

    @property
    def alarmed(self) -> bool:
        """True while the alarm is latched."""
        return self._alarmed

    def reset_alarm(self) -> None:
        """Operator acknowledgement: unlatch the alarm immediately."""
        self._alarmed = False
        self._quiet_streak = 0

    def observe(self, time_hours: float, cumulative_errors: float) -> bool:
        """Record a counter reading; returns True when an alarm fires."""
        if cumulative_errors < 0:
            raise ConfigurationError("error counts cannot be negative")
        if self._last_time_hours is None:
            self._last_time_hours = time_hours
            self._last_count = cumulative_errors
            return False
        if time_hours < self._last_time_hours:
            raise ConfigurationError("observations must be in time order")
        if cumulative_errors < self._last_count:
            raise ConfigurationError("cumulative error counts cannot decrease")
        span = time_hours - self._last_time_hours
        delta = cumulative_errors - self._last_count
        self._last_time_hours = time_hours
        self._last_count = cumulative_errors
        if span <= 0:
            return False
        rate = delta / span
        if rate > self.rate_threshold_per_hour:
            self.alarms += 1
            self._alarmed = True
            self._quiet_streak = 0
            return True
        clear_below = (
            self.rate_threshold_per_hour
            if self.clear_threshold_per_hour is None
            else self.clear_threshold_per_hour
        )
        if rate <= clear_below:
            self._quiet_streak += 1
            if self._alarmed and 0 < self.clear_after_quiet <= self._quiet_streak:
                self._alarmed = False
        else:
            # Inside the hysteresis band: neither alarming nor quiet.
            self._quiet_streak = 0
        return False


__all__ = [
    "StabilityModel",
    "StabilityMonitor",
    "SIX_MONTHS_HOURS",
    "DEFAULT_ERRORS_PER_CRASH",
]
