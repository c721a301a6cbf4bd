"""The power-budget arbiter: one gatekeeper for both headroom markets.

The same electrical headroom gets sold twice — as *packed VMs*
(oversubscribed admission against predicted peaks) and as *frequency*
(overclock grants that raise a host's draw). Each sale alone is safe;
together they can exceed a row budget the moment prediction errs. The
:class:`PowerBudgetArbiter` is the single point both sales clear
through: every VM admission and every overclock grant is checked
against the remaining oversubscribed budget at *every* level of the
delivery tree (host → rack PDU → row → UPS → substation), and revokes
return their watts to every level at once.

Two invariants (pinned by property tests) follow from the design:

* **conservation** — the sum of grants charged under any node never
  exceeds that node's oversubscribed budget, because a grant is only
  issued when the full ancestor chain has headroom;
* **monotonicity** — replaying an identical request sequence against a
  tree with any budget raised never loses a grant that succeeded
  before: decisions are greedy, order-preserving, and depend only on
  remaining headroom, which can only grow when budgets grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, PowerBudgetExceeded
from .predictor import PeakPowerPredictor
from .tree import DeliveryLevel, PowerDeliveryHierarchy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.timeline import FaultTimeline

#: Timeline kind recorded when the arbiter denies a request.
ARBITER_DENIED = "power-denied"


@dataclass(frozen=True)
class GrantDecision:
    """Outcome of one admission or overclock request."""

    granted: bool
    requested_watts: float
    #: The first ancestor (nearest the leaf) that lacked headroom.
    limiting_node: str | None = None
    #: Headroom remaining at the limiting node when denied.
    shortfall_watts: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.granted


class PowerBudgetArbiter:
    """Grants and revokes VM admissions and overclocks against the tree."""

    def __init__(
        self,
        hierarchy: PowerDeliveryHierarchy,
        predictor: PeakPowerPredictor | None = None,
        idle_watts_per_host: float = 0.0,
        timeline: "FaultTimeline | None" = None,
    ) -> None:
        if idle_watts_per_host < 0:
            raise ConfigurationError("idle watts cannot be negative")
        self.hierarchy = hierarchy
        self.predictor = predictor if predictor is not None else PeakPowerPredictor()
        self.timeline = timeline
        #: Watts charged against each node (grants, not metered draw).
        self._charged: dict[str, float] = {name: 0.0 for name in hierarchy.nodes}
        self._vm_grants: dict[str, tuple[str, float]] = {}  # vm_id -> (host, W)
        self._oc_grants: dict[str, float] = {}  # host -> W
        self.admissions_denied = 0
        self.overclocks_denied = 0
        if idle_watts_per_host:
            for host in hierarchy.hosts:
                self._charge(host, idle_watts_per_host)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def charged_watts(self, node: str) -> float:
        """Total granted watts currently charged under ``node``."""
        return self._charged[node]

    def headroom_watts(self, node: str) -> float:
        """Oversubscribed budget minus charges at ``node``."""
        return self.hierarchy.nodes[node].budget_watts - self._charged[node]

    @property
    def overclocked_hosts(self) -> list[str]:
        return sorted(self._oc_grants)

    @property
    def admitted_vms(self) -> list[str]:
        return sorted(self._vm_grants)

    def vms_on_host(self, host: str) -> list[str]:
        return sorted(
            vm_id for vm_id, (owner, _) in self._vm_grants.items() if owner == host
        )

    def _charge(self, host: str, watts: float) -> None:
        for name in self.hierarchy.lineage(host):
            self._charged[name] += watts

    def _refund(self, host: str, watts: float) -> None:
        for name in self.hierarchy.lineage(host):
            self._charged[name] = max(0.0, self._charged[name] - watts)

    def _check(self, host: str, watts: float) -> GrantDecision:
        """Headroom check along the full ancestor chain, leaf first."""
        for name in self.hierarchy.lineage(host):
            headroom = self.headroom_watts(name)
            if watts > headroom:
                return GrantDecision(
                    granted=False,
                    requested_watts=watts,
                    limiting_node=name,
                    shortfall_watts=watts - headroom,
                )
        return GrantDecision(granted=True, requested_watts=watts)

    def _deny(self, time_s: float, what: str, target: str, decision: GrantDecision) -> None:
        if self.timeline is not None:
            self.timeline.record(
                time_s,
                ARBITER_DENIED,
                target,
                f"{what} {decision.requested_watts:.0f}W short "
                f"{decision.shortfall_watts:.0f}W at {decision.limiting_node}",
            )

    # ------------------------------------------------------------------
    # VM admission (headroom sold as packed VMs)
    # ------------------------------------------------------------------
    def admit_vm(
        self,
        vm_id: str,
        host: str,
        workload_class: str,
        vcores: int,
        time_s: float = 0.0,
    ) -> GrantDecision:
        """Admit one VM at its predicted peak, or deny with the reason."""
        if vm_id in self._vm_grants:
            raise ConfigurationError(f"VM {vm_id!r} is already admitted")
        if self.hierarchy.nodes[host].level is not DeliveryLevel.HOST:
            raise ConfigurationError(f"{host!r} is not a host-level node")
        watts = self.predictor.predict_vm_peak_watts(workload_class, vcores)
        decision = self._check(host, watts)
        if decision.granted:
            self._charge(host, watts)
            self._vm_grants[vm_id] = (host, watts)
        else:
            self.admissions_denied += 1
            self._deny(time_s, "admit", f"{host}:{vm_id}", decision)
        return decision

    def release_vm(self, vm_id: str) -> float:
        """Return an admitted VM's watts to every level; returns them."""
        try:
            host, watts = self._vm_grants.pop(vm_id)
        except KeyError:
            raise ConfigurationError(f"VM {vm_id!r} has no admission grant") from None
        self._refund(host, watts)
        return watts

    # ------------------------------------------------------------------
    # Overclock grants (headroom sold as frequency)
    # ------------------------------------------------------------------
    def grant_overclock(
        self, host: str, extra_watts: float, time_s: float = 0.0
    ) -> GrantDecision:
        """Grant one host's overclock uplift against the remaining headroom."""
        if extra_watts <= 0:
            raise ConfigurationError("overclock uplift must be positive watts")
        if host in self._oc_grants:
            raise ConfigurationError(f"host {host!r} already holds an overclock grant")
        if self.hierarchy.nodes[host].level is not DeliveryLevel.HOST:
            raise ConfigurationError(f"{host!r} is not a host-level node")
        decision = self._check(host, extra_watts)
        if decision.granted:
            self._charge(host, extra_watts)
            self._oc_grants[host] = extra_watts
        else:
            self.overclocks_denied += 1
            self._deny(time_s, "overclock", host, decision)
        return decision

    def revoke_overclock(self, host: str) -> float:
        """Return one host's overclock watts to every level; returns them."""
        try:
            watts = self._oc_grants.pop(host)
        except KeyError:
            raise ConfigurationError(f"host {host!r} holds no overclock grant") from None
        self._refund(host, watts)
        return watts

    def revoke_all_overclocks(self) -> list[str]:
        """Emergency sweep: revoke every grant; returns the hosts, sorted."""
        hosts = sorted(self._oc_grants)
        for host in hosts:
            self.revoke_overclock(host)
        return hosts

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def verify_conservation(self) -> None:
        """Raise :class:`PowerBudgetExceeded` if any node is over-charged.

        Holds by construction; exposed so property tests (and paranoid
        callers) can assert it after arbitrary grant/revoke sequences.
        """
        for name, node in self.hierarchy.nodes.items():
            if self._charged[name] > node.budget_watts + 1e-9:
                raise PowerBudgetExceeded(
                    f"{name}: charged {self._charged[name]:.1f} W exceeds "
                    f"oversubscribed budget {node.budget_watts:.1f} W"
                )


__all__ = ["GrantDecision", "PowerBudgetArbiter", "ARBITER_DENIED"]
