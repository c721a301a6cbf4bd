"""Per-host circuit breaker for the actuation path.

A host whose BMC stops acknowledging commands should not soak the
controller in futile retries — and, worse, a controller that keeps
*believing* its commands land will make decisions on state that no
longer exists. :class:`CircuitBreaker` is the standard three-state
remedy, clocked on simulated time:

* **CLOSED** — commands flow; consecutive failures are counted.
* **OPEN** — after ``failure_threshold`` consecutive failures the
  breaker rejects sends outright for ``open_duration_s`` (callers fail
  fast and lean on the reconciliation loop instead).
* **HALF_OPEN** — after the cool-down one probe command is let through;
  success re-closes the breaker, failure re-opens it for another full
  cool-down.

The breaker is deliberately ignorant of *why* sends fail — timeouts,
drops, and partitions all look identical from the controller side, which
is exactly the point: an open breaker is the controller's only honest
signal that it is flying blind on that host.
"""

from __future__ import annotations

from enum import Enum

from ..errors import ConfigurationError


class BreakerState(Enum):
    """Circuit-breaker states (closed → open → half-open)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Bound once: ``allow`` and ``record_success`` run for every command
#: and ack, and an enum member read through its class costs several
#: plain global reads.
_CLOSED = BreakerState.CLOSED


class CircuitBreaker:
    """Consecutive-failure breaker over one controller→host link."""

    def __init__(
        self,
        failure_threshold: int = 3,
        open_duration_s: float = 30.0,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        if open_duration_s <= 0:
            raise ConfigurationError("open_duration_s must be positive")
        self.failure_threshold = failure_threshold
        self.open_duration_s = open_duration_s
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._open_until = 0.0
        self._probe_in_flight = False
        #: Times the breaker tripped CLOSED/HALF_OPEN → OPEN.
        self.opens = 0
        #: Times the cool-down elapsed and a probe was admitted.
        self.probes = 0
        #: Times a probe succeeded and the breaker re-closed.
        self.closes = 0

    @property
    def is_open(self) -> bool:
        """True while sends are being rejected (OPEN, cool-down running)."""
        return self.state is BreakerState.OPEN

    def allow(self, now: float) -> bool:
        """May a command be sent at ``now``? (May transition to HALF_OPEN.)"""
        if self.state is _CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now < self._open_until:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probe_in_flight = False
        # HALF_OPEN: exactly one probe at a time.
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        self.probes += 1
        return True

    def record_success(self) -> None:
        """An ack arrived: reset the failure count, close if probing."""
        self._consecutive_failures = 0
        if self.state is not _CLOSED:
            self.state = BreakerState.CLOSED
            self._probe_in_flight = False
            self.closes += 1

    def record_failure(self, now: float) -> None:
        """A send timed out (or was refused): count it, maybe trip."""
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to OPEN for a full cool-down.
            self._trip(now)
            return
        self._consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self._open_until = now + self.open_duration_s
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self.opens += 1


__all__ = ["BreakerState", "CircuitBreaker"]
