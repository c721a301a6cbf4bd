"""One-stop wiring for a controller's actuation path.

:class:`ActuationLink` bundles the four control-plane pieces — a
:class:`~repro.control.channel.LossyChannel`, a
:class:`~repro.control.bus.CommandBus`, one
:class:`~repro.control.bus.HostAgent` per host, and a
:class:`~repro.control.reconcile.Reconciler` — behind the small verb set
a controller actually needs: :meth:`set_frequency`, :meth:`deploy_vm`,
:meth:`retire_vm`, :meth:`heartbeat`. The live service core and the
partition, heat-wave and oversubscription experiments each build one,
the experiments to race controller variants over identical fault
schedules.

Everything in the bundle shares one seed, one
:class:`~repro.telemetry.counters.ControlPlaneCounters`, and one
optional timeline, so a link is a self-contained, replayable actuation
story.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from ..sim.kernel import Simulator
from ..telemetry.counters import ControlPlaneCounters
from .bus import Ack, Command, CommandBus, CommandKind, HostAgent
from .channel import ChannelConfig, LossyChannel
from .reconcile import Reconciler
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..faults.timeline import FaultTimeline


class ActuationLink:
    """Channel + bus + host agents + reconciler, wired and seeded once.

    Set ``reconcile_interval_s=None`` (or ``retry_policy`` with
    ``max_attempts=1`` plus huge ``lease_misses``) to build deliberately
    *naive* links for robustness comparisons.
    """

    def __init__(
        self,
        simulator: Simulator,
        seed: int = 0,
        channel_config: ChannelConfig | None = None,
        retry_policy: RetryPolicy | None = None,
        ack_timeout_s: float = 1.0,
        heartbeat_interval_s: float = 3.0,
        lease_misses: int = 3,
        reconcile_interval_s: float | None = 15.0,
        breaker_threshold: int = 3,
        breaker_open_s: float = 30.0,
        counters: ControlPlaneCounters | None = None,
        timeline: "FaultTimeline | None" = None,
        name: str = "actuation",
    ) -> None:
        self._sim = simulator
        self.name = name
        self.seed = seed
        self.heartbeat_interval_s = heartbeat_interval_s
        self.lease_misses = lease_misses
        self.counters = counters if counters is not None else ControlPlaneCounters()
        self.timeline = timeline
        self.channel = LossyChannel(
            simulator,
            seed=seed,
            config=channel_config,
            timeline=timeline,
            name=f"{name}:channel",
        )
        self.bus = CommandBus(
            simulator,
            self.channel,
            retry_policy=retry_policy,
            ack_timeout_s=ack_timeout_s,
            breaker_threshold=breaker_threshold,
            breaker_open_s=breaker_open_s,
            seed=seed,
            name=f"{name}:bus",
            counters=self.counters,
            timeline=timeline,
        )
        self.reconciler: Reconciler | None = None
        if reconcile_interval_s is not None:
            self.reconciler = Reconciler(
                simulator,
                self.bus,
                interval_s=reconcile_interval_s,
                counters=self.counters,
                timeline=timeline,
                name=f"{name}:reconciler",
            )
        self._agents: dict[str, HostAgent] = {}
        self._hosts: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_host(
        self,
        host_id: str,
        base_frequency_ghz: float,
        apply_frequency: Callable[[float], None] | None = None,
        deploy_vm: Callable[[str], None] | None = None,
        retire_vm: Callable[[str], None] | None = None,
        on_lease_expired: Callable[[str], None] | None = None,
    ) -> HostAgent:
        """Create, attach, and return the agent endpoint for one host."""
        agent = HostAgent(
            self._sim,
            host_id,
            self.channel,
            base_frequency_ghz=base_frequency_ghz,
            apply_frequency=apply_frequency,
            deploy_vm=deploy_vm,
            retire_vm=retire_vm,
            heartbeat_interval_s=self.heartbeat_interval_s,
            lease_misses=self.lease_misses,
            counters=self.counters,
            timeline=self.timeline,
            on_lease_expired=on_lease_expired,
        )
        self.bus.attach(agent)
        self._agents[host_id] = agent
        self._hosts = tuple(sorted(self._agents))
        if self.reconciler is not None:
            self.reconciler.note_frequency(host_id, base_frequency_ghz)
            self.reconciler.set_desired_frequency(host_id, base_frequency_ghz)
        return agent

    @property
    def hosts(self) -> tuple[str, ...]:
        """Attached host ids, sorted (kept as hosts are added)."""
        return self._hosts

    def agent(self, host_id: str) -> HostAgent:
        agent = self._agents.get(host_id)
        if agent is None:
            raise ConfigurationError(f"no agent for host {host_id!r} on this link")
        return agent

    @property
    def open_breakers(self) -> tuple[str, ...]:
        return self.bus.open_breakers

    @property
    def lease_expiries(self) -> int:
        return sum(agent.lease_expiries for agent in self._agents.values())

    # ------------------------------------------------------------------
    # Controller verbs
    # ------------------------------------------------------------------
    def set_frequency(
        self,
        frequency_ghz: float,
        hosts: tuple[str, ...] | None = None,
        emergency: bool = False,
    ) -> None:
        """Fan the desired frequency out to ``hosts`` (default: all).

        ``emergency=True`` marks the commands as emergency priority:
        they bypass open circuit breakers so a facility-wide revoke
        reaches even hosts the bus has written off as dark.
        """
        for host_id in hosts if hosts is not None else self.hosts:
            self.agent(host_id)  # fail fast on typos
            if self.reconciler is not None:
                self.reconciler.set_desired_frequency(host_id, frequency_ghz)
            self.bus.send(
                CommandKind.SET_FREQUENCY, host_id, frequency_ghz, emergency=emergency
            )

    def deploy_vm(
        self,
        token: str,
        host_id: str,
        on_applied: Callable[[Ack], None] | None = None,
        on_failed: Callable[[Command, str], None] | None = None,
    ) -> None:
        """Issue a deploy; the reconciler re-issues it if it is lost."""
        if self.reconciler is not None:
            self.reconciler.want_vm(token, host_id)

            def applied(ack: Ack) -> None:
                self.reconciler.confirm_vm(token)
                if on_applied is not None:
                    on_applied(ack)

            self.bus.send(
                CommandKind.DEPLOY_VM,
                host_id,
                token,
                on_applied=applied,
                on_failed=on_failed,
            )
        else:
            self.bus.send(
                CommandKind.DEPLOY_VM,
                host_id,
                token,
                on_applied=on_applied,
                on_failed=on_failed,
            )

    def retire_vm(
        self,
        token: str,
        host_id: str,
        on_failed: Callable[[Command, str], None] | None = None,
    ) -> None:
        if self.reconciler is not None:
            self.reconciler.drop_vm(token)
        self.bus.send(CommandKind.RETIRE_VM, host_id, token, on_failed=on_failed)

    def heartbeat(self) -> None:
        """Fire-and-forget liveness to every host (renews their leases)."""
        bus, heartbeat = self.bus, CommandKind.HEARTBEAT
        for host_id in self._hosts:
            bus.send(heartbeat, host_id)


__all__ = ["ActuationLink"]
