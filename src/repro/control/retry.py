"""Shared retry policy: bounded attempts, exponential backoff, seeded jitter.

Two subsystems retry things: the sweep engine re-spawns broken process
pools, and the command bus re-sends unacknowledged actuation commands.
Before this module each hardcoded its own constants; :class:`RetryPolicy`
is the one shared description of "how hard to try again".

Jitter is *deterministic*: rather than consulting a global RNG, the
jittered delay for attempt ``n`` of operation ``key`` is derived from
``split_seed(seed, f"retry:{key}:{n}")`` — the same seed-splitting
primitive every other reproducible subsystem uses — so a retried run
replays the exact same backoff schedule, and two concurrent commands
never perturb each other's delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.random import split_seed

#: Denominator turning a 64-bit child seed into a unit uniform.
_TWO_64 = float(2**64)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, and how long to wait between tries.

    ``max_attempts`` counts *total* attempts including the first, so
    ``max_attempts=1`` means "never retry". The nominal delay before
    retry attempt ``n`` (1-based, i.e. after the ``n``-th failure) is
    ``base_delay_s * backoff_factor**(n-1)``, capped at ``max_delay_s``.
    ``jitter_fraction`` spreads each delay uniformly within
    ``±fraction`` of its nominal value, deterministically (see module
    docstring) — the standard thundering-herd defence, made replayable.

    Every setting must be finite. :meth:`resend_span_s` bounds how long
    after its first send a command can be sent again, which is how long
    a host must remember its key to deduplicate every copy.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    max_delay_s: float = 30.0
    jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it: a NaN delay would
        # only surface at the first retry, inside the simulator.
        if not 1 <= self.max_attempts < math.inf:
            raise ConfigurationError("max_attempts must be at least 1")
        if not 0.0 <= self.base_delay_s < math.inf:
            raise ConfigurationError("base_delay_s must be finite and non-negative")
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ConfigurationError("backoff_factor must be finite and at least 1.0")
        if not self.base_delay_s <= self.max_delay_s < math.inf:
            raise ConfigurationError("max_delay_s must be finite and at least base_delay_s")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError("jitter_fraction must be within [0, 1)")

    @property
    def max_retries(self) -> int:
        """Retries available after the first attempt."""
        return self.max_attempts - 1

    def backoff_s(self, attempt: int) -> float:
        """Nominal (jitter-free) delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError(f"retry attempts are 1-based, got {attempt}")
        try:
            grown = self.base_delay_s * self.backoff_factor ** (attempt - 1)
        except OverflowError:  # the growth passed the float range, and so the cap
            grown = math.inf if self.base_delay_s > 0.0 else 0.0
        return min(self.max_delay_s, grown)

    def jittered_backoff_s(self, attempt: int, seed: int = 0, key: str = "") -> float:
        """The delay before retry ``attempt``, jittered deterministically.

        The jitter depends only on ``(seed, key, attempt)`` — never on
        call order — so replaying a campaign replays its exact timing.
        """
        nominal = self.backoff_s(attempt)
        if self.jitter_fraction == 0.0 or nominal == 0.0:
            return nominal
        unit = split_seed(seed, f"retry:{key}:{attempt}") / _TWO_64  # [0, 1)
        return nominal * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))

    def resend_span_s(self, ack_timeout_s: float) -> float:
        """The longest time from a command's first send to its last resend.

        Retry ``n`` goes out at most ``ack_timeout_s`` after attempt
        ``n`` (the bus waits that long for its ack) plus the jittered
        backoff, and :meth:`jittered_backoff_s` never exceeds
        ``backoff_s(n) * (1 + jitter_fraction)``. So the span is the sum
        of those terms over retries ``1 .. max_attempts - 1``; it is 0
        when the policy never retries. A breaker fast-fail skips the
        wait for an ack and only shortens the span.
        """
        stretch = 1.0 + self.jitter_fraction
        span = 0.0
        for attempt in range(1, self.max_attempts):
            span += ack_timeout_s + self.backoff_s(attempt) * stretch
        return span

    def schedule(self, seed: int = 0, key: str = "") -> tuple[float, ...]:
        """Every retry delay this policy will use, in order."""
        return tuple(
            self.jittered_backoff_s(attempt, seed=seed, key=key)
            for attempt in range(1, self.max_attempts)
        )


#: The sweep engine's default ``retry_policy``: three pool attempts,
#: waiting 50 ms before the second and 100 ms before the third.
ENGINE_POOL_RETRIES = RetryPolicy(max_attempts=3, base_delay_s=0.05)

#: Command-bus default: four sends, 2 s → 4 s → 8 s with ±25% jitter —
#: tuned so a transient drop is survived within one scale-out window.
COMMAND_RETRIES = RetryPolicy(
    max_attempts=4, base_delay_s=2.0, backoff_factor=2.0, jitter_fraction=0.25
)

__all__ = ["RetryPolicy", "ENGINE_POOL_RETRIES", "COMMAND_RETRIES"]
