"""A deterministic, seed-driven unreliable transport.

:class:`LossyChannel` sits between the controller's
:class:`~repro.control.bus.CommandBus` and each host's
:class:`~repro.control.bus.HostAgent` and misbehaves on purpose: it
drops, delays, duplicates, and partitions messages, with every decision
drawn from named seeded streams (one per target link) so a given seed
produces the same misbehaviour schedule every run.

The channel is direction-agnostic — commands ride it host-ward, acks
ride it controller-ward — and both directions share one link identity
(the target host id), so a partitioned host loses its acks along with
its commands, exactly like a real network split.

Fault injection (the ``cmd-*`` kinds in :mod:`repro.faults`) acts by
mutating per-target *overrides* on a live channel: an elevated drop
probability, an added delay, a duplicate probability, or a partition
window. Overrides are plain state, so injectors can arm and clear them
as ordinary simulator events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from ..sim.kernel import Simulator
from ..sim.random import RandomStreams, split_seed

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..faults.timeline import FaultTimeline

#: Timeline kind recorded when the channel eats a message.
CMD_LOST = "cmd-lost"


def _unnamed() -> str:
    """The name of a message sent without one."""
    return ""


def _duplicate_of(describe: Callable[[], str]) -> str:
    """The name of a duplicated message."""
    return f"dup {describe()}"


@dataclass(frozen=True)
class ChannelConfig:
    """Baseline (un-faulted) behaviour of a lossy channel.

    Delays are drawn uniformly from ``[min_delay_s, max_delay_s]`` per
    message; probabilities apply independently per message. The default
    is a perfect, instantaneous network — experiments opt into pain.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    min_delay_s: float = 0.0
    max_delay_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1), got {value}")
        # Written so that NaN fails it too: a NaN or infinite delay would
        # only surface later, at the first send.
        if not 0.0 <= self.min_delay_s <= self.max_delay_s < math.inf:
            raise ConfigurationError("need 0 <= min_delay_s <= max_delay_s < inf")


class LossyChannel:
    """Seed-driven drop/delay/duplicate/partition transport.

    :attr:`longest_delay_s` is the longest delay any message has been
    scheduled with so far: the base draw plus the target's extra-delay
    override at send time. It only grows, so clearing an override never
    shortens it. A host agent adds it to the bus's resend span to know
    when no copy of a command can still be in flight.
    """

    def __init__(
        self,
        simulator: Simulator,
        seed: int = 0,
        config: ChannelConfig | None = None,
        timeline: "FaultTimeline | None" = None,
        name: str = "channel",
    ) -> None:
        self._sim = simulator
        self.config = config if config is not None else ChannelConfig()
        self.name = name
        self.timeline = timeline
        # The channel's own stream registry: its draws never share state
        # with the model (or the fault campaign) it disrupts.
        self._streams = RandomStreams(split_seed(seed, f"control:{name}"))
        # Per-target fault overrides (set/cleared by injectors).
        self._drop_override: dict[str, float] = {}
        self._dup_override: dict[str, float] = {}
        self._extra_delay: dict[str, float] = {}
        self._partition_until: dict[str, float] = {}
        # Per-target arrival event names, bound on first use.
        self._event_names: dict[str, str] = {}
        #: Longest delay ``_schedule`` has used (see the class docstring).
        self.longest_delay_s = 0.0
        # Counters.
        self.messages = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0

    # ------------------------------------------------------------------
    # Fault controls (driven by the cmd-* injectors)
    # ------------------------------------------------------------------
    def partition(self, target: str, duration_s: float | None = None) -> None:
        """Cut the link to ``target`` for ``duration_s`` (None = forever)."""
        until = math.inf if duration_s is None else self._sim.now + duration_s
        self._partition_until[target] = until

    def heal(self, target: str) -> None:
        """End a partition early (idempotent)."""
        self._partition_until.pop(target, None)

    def is_partitioned(self, target: str) -> bool:
        until = self._partition_until.get(target)
        if until is None:
            return False
        if self._sim.now >= until:
            del self._partition_until[target]
            return False
        return True

    def set_drop(self, target: str, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("drop probability must be within [0, 1]")
        self._drop_override[target] = probability

    def clear_drop(self, target: str) -> None:
        self._drop_override.pop(target, None)

    def set_duplicate(self, target: str, probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError("duplicate probability must be within [0, 1)")
        self._dup_override[target] = probability

    def clear_duplicate(self, target: str) -> None:
        self._dup_override.pop(target, None)

    def set_extra_delay(self, target: str, delay_s: float) -> None:
        if not 0.0 <= delay_s < math.inf:
            raise ConfigurationError(f"extra delay must be finite and non-negative, got {delay_s}")
        self._extra_delay[target] = delay_s

    def clear_extra_delay(self, target: str) -> None:
        self._extra_delay.pop(target, None)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def deliver(
        self,
        target: str,
        action: Callable[[], None],
        describe: Callable[[], str] = _unnamed,
    ) -> bool:
        """Attempt to carry one message over the ``target`` link.

        Returns True when delivery (or a delayed delivery) was
        *scheduled* — the caller still must not assume arrival: a
        partition beginning while the message is in flight eats it.
        False means the message was dropped at send time.

        ``describe`` returns the message's name for the timeline; it is
        called only when the channel loses the message.
        """
        self.messages += 1
        # Partitions are rare: skip the lookup while none is armed.
        if self._partition_until and self.is_partitioned(target):
            self._record_loss(target, "partitioned", describe)
            return False
        drop_p = self._drop_override.get(target, self.config.drop_probability)
        if drop_p > 0.0 and self._streams.uniform(f"drop:{target}", 0.0, 1.0) < drop_p:
            self._record_loss(target, "dropped", describe)
            return False
        self._schedule(target, action, describe)
        dup_p = self._dup_override.get(target, self.config.duplicate_probability)
        if dup_p > 0.0 and self._streams.uniform(f"dup:{target}", 0.0, 1.0) < dup_p:
            self.duplicated += 1
            self._schedule(target, action, partial(_duplicate_of, describe))
        return True

    def _schedule(
        self, target: str, action: Callable[[], None], describe: Callable[[], str]
    ) -> None:
        config = self.config
        low, high = config.min_delay_s, config.max_delay_s
        base = low if high <= low else self._streams.uniform(f"delay:{target}", low, high)
        delay = base + self._extra_delay.get(target, 0.0)
        if delay > self.longest_delay_s:
            self.longest_delay_s = delay
        arrive = partial(self._arrive, target, action, describe)
        name = self._event_names.get(target)
        if name is None:
            name = self._event_names[target] = f"{self.name}:{target}"
        if delay <= 0.0:
            self._sim.after(0.0, arrive, name=name)
        else:
            self._sim.after(delay, arrive, name=name)

    def _arrive(
        self, target: str, action: Callable[[], None], describe: Callable[[], str]
    ) -> None:
        # In-flight messages die with the link, like real packets.
        if self._partition_until and self.is_partitioned(target):
            self._record_loss(target, "in-flight", describe)
            return
        self.delivered += 1
        action()

    def _record_loss(self, target: str, how: str, describe: Callable[[], str]) -> None:
        self.dropped += 1
        if self.timeline is not None:
            self.timeline.record(self._sim.now, CMD_LOST, target, f"{how} {describe()}")


__all__ = ["ChannelConfig", "LossyChannel", "CMD_LOST"]
