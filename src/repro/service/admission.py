"""Token-bucket admission control with per-priority-class limits.

Admission is the outermost ring of the overload-control stack: work the
service cannot afford is cheapest to refuse *before* it consumes queue
slots, scheduler attention, or — worst — server time it will only waste
by missing its deadline. Each priority class gets its own
:class:`TokenBucket`, so a runaway batch client can exhaust only its own
budget while interactive traffic keeps flowing, and the brownout ladder
can tighten the screws class by class instead of all-or-nothing.

Everything here is deterministic and simulation-time driven: buckets
refill as a pure function of elapsed simulated seconds, never of
wall-clock time, so an admitted/rejected decision sequence replays
bit-identically under the same seed and tick schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from ..errors import ConfigurationError


class PriorityClass(IntEnum):
    """Request priority classes, ordered most- to least-important.

    Lower numeric value = more important (so ``sorted()`` walks the
    classes in strict priority order). The names mirror the paper's VM
    taxonomy: interactive production traffic, ordinary production
    traffic, and preemptible batch work.
    """

    CRITICAL = 0
    STANDARD = 1
    BATCH = 2


@dataclass
class TokenBucket:
    """A deterministic token bucket over simulated time.

    ``rate_per_s`` tokens accrue per simulated second up to ``burst``.
    ``take`` is the whole API: it advances the refill to ``now`` and
    answers whether the requested tokens were available.
    """

    rate_per_s: float
    burst: float
    level: float = field(default=-1.0)
    _last_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ConfigurationError("token rate must be positive")
        if self.burst <= 0:
            raise ConfigurationError("token burst must be positive")
        if self.level < 0:
            self.level = self.burst  # start full: cold services accept bursts

    def take(self, now_s: float, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` at ``now_s`` if the bucket can afford them.

        Time only moves forward: a ``now_s`` at or before the last
        refill adds nothing and leaves the refill clock where it was.
        """
        if tokens <= 0:
            raise ConfigurationError("token takes must be positive")
        level = self.level
        elapsed = now_s - self._last_s
        if elapsed > 0:
            level += elapsed * self.rate_per_s
            burst = self.burst
            level = level if level < burst else burst  # min(burst, level)
            self._last_s = now_s
        if level + 1e-12 >= tokens:
            self.level = level - tokens
            return True
        self.level = level
        return False


@dataclass(frozen=True)
class ClassPolicy:
    """Admission parameters of one priority class."""

    #: Sustained admission rate (requests per simulated second).
    rate_per_s: float
    #: Burst allowance (requests admitted above the sustained rate).
    burst: float
    #: End-to-end deadline propagated onto every admitted request.
    deadline_s: float

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ConfigurationError("class deadline must be positive")


class AdmissionController:
    """Per-class token buckets plus brownout-driven class gating.

    The controller owns two orthogonal reasons to refuse work:

    * **throttle** — the class's token bucket is empty (the client is
      over its sustained budget);
    * **gate** — the brownout ladder set a priority floor
      (:meth:`set_priority_floor`), so classes below the floor are
      refused outright regardless of budget.

    Both outcomes are counted separately so telemetry can distinguish
    "you asked for too much" from "the service is protecting itself".
    """

    def __init__(self, policies: dict[PriorityClass, ClassPolicy]) -> None:
        if not policies:
            raise ConfigurationError("admission needs at least one class policy")
        self.policies = dict(policies)
        self._buckets = {
            klass: TokenBucket(rate_per_s=policy.rate_per_s, burst=policy.burst)
            for klass, policy in policies.items()
        }
        #: Classes numerically above the floor are refused at the door.
        self._priority_floor: PriorityClass | None = None
        self.admitted = 0
        self.throttled = 0
        self.gated = 0

    def set_priority_floor(self, floor: PriorityClass | None) -> None:
        """Refuse classes *less important than* ``floor`` (None = admit all)."""
        self._priority_floor = floor

    def admit(self, now_s: float, klass: PriorityClass) -> str:
        """Decide one arrival: ``"admitted"``, ``"gated"``, or ``"throttled"``."""
        bucket = self._buckets.get(klass)
        if bucket is None:
            raise ConfigurationError(f"no admission policy for class {klass!r}")
        floor = self._priority_floor
        if floor is not None and klass > floor:
            self.gated += 1
            return "gated"
        if not bucket.take(now_s):
            self.throttled += 1
            return "throttled"
        self.admitted += 1
        return "admitted"


__all__ = [
    "PriorityClass",
    "TokenBucket",
    "ClassPolicy",
    "AdmissionController",
]
