"""The command bus: reliable actuation over an unreliable transport.

The paper's auto-scaler (§VI-D) silently assumes its frequency-set and
VM-deploy commands reach hosts instantly and reliably. This module is
the machinery a real tank deployment needs when they do not:

* :class:`Command` — typed, idempotency-keyed actuation messages
  (``set-frequency``, ``deploy-vm``, ``retire-vm``, ``heartbeat``).
* :class:`CommandBus` — the controller-side endpoint: bounded retries
  with exponential backoff and deterministic jitter
  (:class:`~repro.control.retry.RetryPolicy`), an ack timeout per
  attempt, and a per-host :class:`~repro.control.breaker.CircuitBreaker`
  so a dark host fails fast instead of soaking the retry budget.
* :class:`HostAgent` — the host-side endpoint: idempotency-key dedup
  (a retried command applies once even when the first ack was the
  thing that got lost; a key is forgotten once no copy of its command
  can still arrive), sequence-based staleness rejection (a delayed
  old ``set-frequency`` cannot overwrite a newer one), and the
  **dead-man lease** — miss ``lease_misses`` controller heartbeats and
  the host autonomously reverts its frequency to base, so a partitioned
  overclocked host can never cook itself.

Every endpoint shares one
:class:`~repro.telemetry.counters.ControlPlaneCounters` and optionally
records into one :class:`~repro.faults.timeline.FaultTimeline`, so a
whole run's actuation story is auditable and signature-checkable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..errors import ConfigurationError, ControlError
from ..sim.events import Event
from ..sim.kernel import Simulator
from ..telemetry.counters import ControlPlaneCounters
from .breaker import CircuitBreaker
from .channel import LossyChannel
from .retry import COMMAND_RETRIES, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..faults.timeline import FaultTimeline

#: Timeline kinds recorded by the bus machinery.
BREAKER_OPEN = "breaker-open"
LEASE_EXPIRED = "lease-expired"
CMD_FAILED = "cmd-failed"


class CommandKind(Enum):
    """The actuation verbs the controller may issue."""

    SET_FREQUENCY = "set-frequency"
    DEPLOY_VM = "deploy-vm"
    RETIRE_VM = "retire-vm"
    HEARTBEAT = "heartbeat"


#: The verb of every tick's liveness message, bound once.
_HEARTBEAT = CommandKind.HEARTBEAT

#: ``now`` scaled by this is ``now`` less the float-rounding margin of
#: the dedup horizon (see :meth:`HostAgent.receive`).
_LESS_ROUNDING_MARGIN = 1.0 - 1e-9


class Command(NamedTuple):
    """One typed actuation message.

    The ``idempotency_key`` identifies the *logical* command across
    retries and duplications; ``sequence`` orders commands from one bus
    so late deliveries can be recognised as stale. An immutable record
    (a ``NamedTuple``): every heartbeat builds one.
    """

    kind: CommandKind
    target: str
    idempotency_key: str
    sequence: int
    payload: float | str | None = None
    issued_at_s: float = 0.0

    def describe(self) -> str:
        payload = "" if self.payload is None else f"={self.payload}"
        # ``_value_`` is the plain attribute behind ``.value``'s descriptor.
        return f"{self.kind._value_}{payload}#{self.sequence}"


class Ack(NamedTuple):
    """A host's acknowledgement of one applied (or rejected) command.

    Every ack piggybacks the host's *current* frequency, so any
    acknowledged command — even a heartbeat — doubles as a state report
    the reconciliation loop can diff against desired state.
    """

    idempotency_key: str
    target: str
    applied_at_s: float
    frequency_ghz: float = 0.0
    detail: str = ""

    def describe(self) -> str:
        return f"ack {self.idempotency_key}"


@dataclass(slots=True)
class _Pending:
    """Controller-side state for one in-flight logical command.

    The target's agent and breaker are looked up once, at send.
    """

    command: Command
    agent: HostAgent
    breaker: CircuitBreaker
    attempt: int
    retry: bool
    on_applied: Callable[[Ack], None] | None
    on_failed: Callable[[Command, str], None] | None
    emergency: bool
    timeout_event: Event | None = None


class HostAgent:
    """The host-side command endpoint (BMC/hypervisor stand-in).

    ``apply_frequency`` / ``deploy_vm`` / ``retire_vm`` are the actuator
    callbacks into the model; the agent owns dedup, staleness, lease
    supervision, and ack emission. The dead-man lease arms at
    construction: a controller that never heartbeats is indistinguishable
    from a partition, and the host de-rates either way.

    The dedup cache remembers each key's ack only as long as a copy of
    its command can still arrive (see :meth:`receive`), so it holds
    about ``resend_span_s + longest delay`` seconds of commands rather
    than the whole run's. :meth:`CommandBus.attach` sets
    :attr:`resend_span_s` and :attr:`command_channel`; an agent on no
    bus keeps every ack.
    """

    def __init__(
        self,
        simulator: Simulator,
        host_id: str,
        channel: LossyChannel,
        base_frequency_ghz: float,
        apply_frequency: Callable[[float], None] | None = None,
        deploy_vm: Callable[[str], None] | None = None,
        retire_vm: Callable[[str], None] | None = None,
        heartbeat_interval_s: float = 3.0,
        lease_misses: int = 3,
        counters: ControlPlaneCounters | None = None,
        timeline: "FaultTimeline | None" = None,
        on_lease_expired: Callable[[str], None] | None = None,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be positive")
        if lease_misses < 1:
            raise ConfigurationError("lease_misses must be at least 1")
        if base_frequency_ghz <= 0:
            raise ConfigurationError("base frequency must be positive")
        self._sim = simulator
        self.host_id = host_id
        self.channel = channel
        self.base_frequency_ghz = base_frequency_ghz
        self.frequency_ghz = base_frequency_ghz
        self._apply_frequency = apply_frequency
        self._deploy_vm = deploy_vm
        self._retire_vm = retire_vm
        self.heartbeat_interval_s = heartbeat_interval_s
        self.lease_misses = lease_misses
        self.counters = counters if counters is not None else ControlPlaneCounters()
        self.timeline = timeline
        self.on_lease_expired = on_lease_expired
        #: Set by :meth:`CommandBus.attach`; acks travel back through it.
        self.reply: Callable[[Ack], None] | None = None
        self._acked: dict[str, Ack] = {}
        #: The cached acks in the order they were applied: their
        #: ``applied_at_s`` never decreases, so expiry pops from the left.
        self._ack_order: deque[Ack] = deque()
        #: Longest time from a command's first send to its last resend,
        #: and the channel its copies ride; both set by the bus.
        self.resend_span_s = math.inf
        self.command_channel = channel
        self._last_frequency_sequence = -1
        self._last_heartbeat_s = simulator.now
        self.lease_expiries = 0
        self._sim.every(
            heartbeat_interval_s, self._check_lease, name=f"lease:{host_id}"
        )

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    @property
    def is_overclocked(self) -> bool:
        return self.frequency_ghz > self.base_frequency_ghz + 1e-12

    @property
    def cached_acks(self) -> int:
        """How many acks the dedup cache holds now."""
        return len(self._acked)

    def receive(self, command: Command) -> None:
        """Process one delivered command (possibly a duplicate).

        Before the dedup lookup, forget every ack that no copy of its
        command can still reach. The argument is exact: an ack first
        applied at ``a`` belongs to a command issued at or before ``a``;
        the bus sends every copy of that key by ``issue + span``
        (:meth:`RetryPolicy.resend_span_s`), and each copy arrives at
        most the channel's longest delay ``D`` after its send. So once
        ``now > a + span + D`` every copy has already arrived, and the
        key can never be looked up again. ``D`` is the longest delay used
        so far, and every send of the key happened before ``now``, so
        each copy's delay is already counted in it.

        The kernel's event times and this bound are sums of at most
        ``4 * max_attempts + 5`` floats no larger than ``now``, each
        rounded by at most half an ulp; the bound therefore also waits
        ``1e-9 * now``, which covers that rounding for any policy with
        fewer than a million attempts.
        """
        now = self._sim.now
        # Any controller message proves the control link is alive — a
        # partitioned host misses everything, so everything renews.
        self._last_heartbeat_s = now
        acked = self._acked
        order = self._ack_order
        if order:
            cutoff = (
                now * _LESS_ROUNDING_MARGIN
                - self.resend_span_s
                - self.command_channel.longest_delay_s
            )
            while order and order[0].applied_at_s < cutoff:
                del acked[order.popleft().idempotency_key]
        key = command.idempotency_key
        cached = acked.get(key)
        if cached is not None:
            self.counters.dedup_hits += 1
            self._send_ack(cached)
            return
        # Applying may change the frequency the ack reports: apply first.
        detail = self._apply(command)
        ack = acked[key] = Ack(key, self.host_id, now, self.frequency_ghz, detail)
        order.append(ack)
        self._send_ack(ack)

    def _apply(self, command: Command) -> str:
        kind = command.kind
        if kind is _HEARTBEAT:
            return "alive"
        if kind is CommandKind.SET_FREQUENCY:
            if command.sequence < self._last_frequency_sequence:
                # A delayed old set-frequency must not overwrite a newer
                # one: ack it (it is superseded, retrying is pointless)
                # but do not apply it.
                self.counters.stale_rejects += 1
                return "stale"
            self._last_frequency_sequence = command.sequence
            frequency = float(command.payload)  # type: ignore[arg-type]
            self.frequency_ghz = frequency
            if self._apply_frequency is not None:
                self._apply_frequency(frequency)
            return f"{frequency:.3f}GHz"
        if kind is CommandKind.DEPLOY_VM:
            if self._deploy_vm is None:
                raise ControlError(f"host {self.host_id} cannot deploy VMs")
            self._deploy_vm(str(command.payload))
            return f"deploy {command.payload}"
        if kind is CommandKind.RETIRE_VM:
            if self._retire_vm is None:
                raise ControlError(f"host {self.host_id} cannot retire VMs")
            self._retire_vm(str(command.payload))
            return f"retire {command.payload}"
        raise ControlError(f"unhandled command kind {command.kind}")  # pragma: no cover

    def _send_ack(self, ack: Ack) -> None:
        reply = self.reply
        if reply is None:
            return
        self.channel.deliver(self.host_id, partial(reply, ack), describe=ack.describe)

    # ------------------------------------------------------------------
    # Dead-man lease
    # ------------------------------------------------------------------
    def _check_lease(self) -> None:
        now = self._sim.now
        # The lease runs ``lease_misses`` heartbeat intervals past the last heartbeat.
        if now <= self._last_heartbeat_s + self.lease_misses * self.heartbeat_interval_s + 1e-9:
            return
        if not self.is_overclocked:
            return
        # The controller has gone quiet past the lease window while this
        # host is overclocked: fail safe, autonomously, now.
        previous = self.frequency_ghz
        self.frequency_ghz = self.base_frequency_ghz
        if self._apply_frequency is not None:
            self._apply_frequency(self.base_frequency_ghz)
        self.lease_expiries += 1
        self.counters.lease_expiries += 1
        if self.timeline is not None:
            self.timeline.record(
                now,
                LEASE_EXPIRED,
                self.host_id,
                f"{previous:.3f}->{self.base_frequency_ghz:.3f}GHz "
                f"after {self.lease_misses} missed heartbeat(s)",
            )
        if self.on_lease_expired is not None:
            self.on_lease_expired(self.host_id)


class CommandBus:
    """Controller-side endpoint: retries, timeouts, circuit breakers."""

    def __init__(
        self,
        simulator: Simulator,
        channel: LossyChannel,
        retry_policy: RetryPolicy | None = None,
        ack_timeout_s: float = 1.0,
        breaker_threshold: int = 3,
        breaker_open_s: float = 30.0,
        seed: int = 0,
        name: str = "bus",
        counters: ControlPlaneCounters | None = None,
        timeline: "FaultTimeline | None" = None,
    ) -> None:
        # Written so that NaN fails it: a NaN timeout would only surface
        # at the first send, as an event scheduled at NaN time.
        if not 0.0 < ack_timeout_s < math.inf:
            raise ConfigurationError("ack_timeout_s must be positive and finite")
        self._sim = simulator
        self.channel = channel
        self.retry_policy = retry_policy if retry_policy is not None else COMMAND_RETRIES
        self.ack_timeout_s = ack_timeout_s
        #: Longest time from a command's first send to its last resend.
        self.resend_span_s = self.retry_policy.resend_span_s(ack_timeout_s)
        self.breaker_threshold = breaker_threshold
        self.breaker_open_s = breaker_open_s
        self.seed = seed
        self.name = name
        self.counters = counters if counters is not None else ControlPlaneCounters()
        self.timeline = timeline
        self._agents: dict[str, HostAgent] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._pending: dict[str, _Pending] = {}
        self._sequence = 0
        self._timeout_name = f"{name}:timeout"
        #: Optional global observer invoked for every accepted ack —
        #: the reconciler hangs here to harvest piggybacked state.
        self.on_ack: Callable[[Ack], None] | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, agent: HostAgent) -> HostAgent:
        """Register a host endpoint (its acks route back to this bus).

        The agent learns this bus's resend span and channel, which bound
        how long it must remember each command's key.
        """
        if agent.host_id in self._agents:
            raise ConfigurationError(f"agent {agent.host_id} is already attached")
        self._agents[agent.host_id] = agent
        agent.reply = self._receive_ack
        agent.resend_span_s = self.resend_span_s
        agent.command_channel = self.channel
        return agent

    def agent_for(self, target: str) -> HostAgent:
        agent = self._agents.get(target)
        if agent is None:
            raise ControlError(f"no host agent attached for target {target!r}")
        return agent

    def breaker_for(self, target: str) -> CircuitBreaker:
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_threshold, self.breaker_open_s)
            self._breakers[target] = breaker
        return breaker

    @property
    def open_breakers(self) -> tuple[str, ...]:
        """Targets whose breaker is currently OPEN (controller is blind)."""
        return tuple(
            sorted(
                target
                for target, breaker in self._breakers.items()
                if breaker.is_open
            )
        )

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def has_pending(
        self,
        target: str,
        kind: CommandKind | None = None,
        payload: float | str | None = None,
    ) -> bool:
        """Is a command to ``target`` still awaiting its ack?

        ``kind``/``payload`` narrow the match (None = any) — the
        reconciler uses this to avoid racing commands already in flight.
        """
        return any(
            pending.command.target == target
            and (kind is None or pending.command.kind is kind)
            and (payload is None or pending.command.payload == payload)
            for pending in self._pending.values()
        )

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(
        self,
        kind: CommandKind,
        target: str,
        payload: float | str | None = None,
        on_applied: Callable[[Ack], None] | None = None,
        on_failed: Callable[[Command, str], None] | None = None,
        retry: bool | None = None,
        emergency: bool = False,
    ) -> Command:
        """Issue one logical command; retries and dedup are automatic.

        Heartbeats default to fire-and-forget (``retry=False``): the
        next tick sends a fresh one anyway, and a missed ack still
        feeds the breaker, which is the signal that matters.

        ``emergency`` commands bypass open circuit breakers: a breaker
        exists to protect the *retry budget*, but a facility emergency
        must reach even a host the controller has written off — the
        attempt goes out on every retry regardless of breaker state
        (the channel may still eat it; the dead-man lease remains the
        backstop of last resort).
        """
        agent = self.agent_for(target)  # fail fast on unknown targets
        if retry is None:
            retry = kind is not _HEARTBEAT
        self._sequence += 1
        sequence = self._sequence
        # ``_value_`` is the plain attribute behind ``.value``'s descriptor.
        key = f"{self.name}:{target}:{kind._value_}:{sequence}"
        command = Command(kind, target, key, sequence, payload, self._sim.now)
        self.counters.commands_sent += 1
        self._pending[key] = _Pending(
            command,
            agent,
            self.breaker_for(target),
            0,
            retry,
            on_applied,
            on_failed,
            emergency,
        )
        self._attempt(key)
        return command

    def _attempt(self, key: str) -> None:
        pending = self._pending.get(key)
        if pending is None:  # acked (or failed) while a retry was queued
            return
        pending.attempt += 1
        counters = self.counters
        if pending.attempt > 1:
            counters.retries += 1
        if not pending.breaker.allow(self._sim.now):
            if not pending.emergency:
                counters.breaker_fast_fails += 1
                self._retry_or_fail(key, reason="breaker-open")
                return
            counters.emergency_bypasses += 1
        counters.attempts += 1
        command = pending.command
        agent = pending.agent
        # The channel names a message only when it loses it.
        self.channel.deliver(
            command.target, partial(agent.receive, command), describe=command.describe
        )
        # A retry is scheduled only once this watchdog has fired, so the
        # attempt it carries is still current when it fires.
        pending.timeout_event = self._sim.after(
            self.ack_timeout_s,
            partial(self._on_timeout, key, pending.attempt),
            name=self._timeout_name,
        )

    def _on_timeout(self, key: str, attempt: int) -> None:
        pending = self._pending.get(key)
        if pending is None or pending.attempt != attempt:
            return  # acked, or a later attempt owns the watchdog now
        self.counters.timeouts += 1
        self._record_breaker_failure(pending.breaker, pending.command.target)
        self._retry_or_fail(key, reason="ack-timeout")

    def _retry_or_fail(self, key: str, reason: str) -> None:
        pending = self._pending.get(key)
        if pending is None:  # pragma: no cover - defensive
            return
        command = pending.command
        if pending.retry and pending.attempt < self.retry_policy.max_attempts:
            delay = self.retry_policy.jittered_backoff_s(
                pending.attempt, seed=self.seed, key=key
            )
            self._sim.after(
                delay, partial(self._attempt, key), name=f"{self.name}:retry:{key}"
            )
            return
        del self._pending[key]
        self.counters.failures += 1
        if self.timeline is not None:
            self.timeline.record(
                self._sim.now,
                CMD_FAILED,
                command.target,
                f"{command.describe()} {reason} after {pending.attempt} attempt(s)",
            )
        if pending.on_failed is not None:
            pending.on_failed(command, reason)

    def _record_breaker_failure(self, breaker: CircuitBreaker, target: str) -> None:
        opens_before = breaker.opens
        breaker.record_failure(self._sim.now)
        if breaker.opens > opens_before:
            self.counters.breaker_opens += 1
            if self.timeline is not None:
                self.timeline.record(
                    self._sim.now,
                    BREAKER_OPEN,
                    target,
                    f"cooling down {self.breaker_open_s:.0f}s",
                )

    # ------------------------------------------------------------------
    # Ack path
    # ------------------------------------------------------------------
    def _receive_ack(self, ack: Ack) -> None:
        pending = self._pending.pop(ack.idempotency_key, None)
        if pending is None:
            return  # duplicate ack for an already-settled command
        event = pending.timeout_event
        if event is not None:
            self._sim.cancel(event)
        self.counters.acks += 1
        # The ack came from the command's own target: its breaker is the
        # one looked up at send.
        pending.breaker.record_success()
        if self.on_ack is not None:
            self.on_ack(ack)
        if pending.on_applied is not None:
            pending.on_applied(ack)


__all__ = [
    "CommandKind",
    "Command",
    "Ack",
    "HostAgent",
    "CommandBus",
    "BREAKER_OPEN",
    "LEASE_EXPIRED",
    "CMD_FAILED",
]
