"""Fleet-level capacity management (paper Figures 6–7).

Two Section V use-cases live at fleet scope:

* **Buffer reduction** (Fig. 6) — air-cooled fleets reserve idle servers
  as failover buffers; an overclockable fleet replaces the static buffer
  with a *virtual* one: run customer VMs on all servers, and on a
  failure re-create the affected VMs on survivors and overclock them.
* **Capacity-crisis mitigation** (Fig. 7) — when demand outruns supply,
  overclocking raises per-server throughput so the existing fleet
  absorbs the gap until new servers land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError, PlacementError
from ..silicon.configs import FrequencyConfig, OC1
from .host import Host
from .placement import PlacementEngine, PlacementPolicy
from .vm import VMInstance, VMSpec


@dataclass(frozen=True)
class FailoverOutcome:
    """Result of recovering from a host failure."""

    failed_host_id: str
    recreated_vms: int
    lost_vms: int
    overclocked_hosts: tuple[str, ...]


class Fleet:
    """A pool of hosts with optional static buffer reservation."""

    def __init__(
        self,
        hosts: Sequence[Host],
        buffer_hosts: int = 0,
        policy: PlacementPolicy = PlacementPolicy.BEST_FIT,
    ) -> None:
        if buffer_hosts < 0 or buffer_hosts > len(hosts):
            raise ConfigurationError("buffer_hosts must be within [0, len(hosts)]")
        self._hosts = list(hosts)
        # The last `buffer_hosts` hosts are held back from placement.
        self._buffer = set(host.host_id for host in self._hosts[len(hosts) - buffer_hosts :])
        active = [host for host in self._hosts if host.host_id not in self._buffer]
        self._engine = PlacementEngine(active, policy)
        self._failed: set[str] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> tuple[Host, ...]:
        return tuple(self._hosts)

    @property
    def sellable_vcores(self) -> int:
        """Vcores available for customer VMs (buffers excluded)."""
        return sum(
            host.vcore_capacity
            for host in self._hosts
            if host.host_id not in self._buffer and host.host_id not in self._failed
        )

    def host_by_id(self, host_id: str) -> Host:
        for host in self._hosts:
            if host.host_id == host_id:
                return host
        raise ConfigurationError(f"no host {host_id} in fleet")

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, vm: VMInstance) -> Host:
        """Place a customer VM on a non-buffer, non-failed host."""
        return self._engine.place(vm)

    def fill_with(self, spec: VMSpec, prefix: str = "vm") -> int:
        """Place as many ``spec``-shaped VMs as fit; returns the count."""
        placed = 0
        while True:
            vm = VMInstance(vm_id=f"{prefix}-{placed}", spec=spec)
            try:
                self._engine.place(vm)
            except PlacementError:
                return placed
            placed += 1

    # ------------------------------------------------------------------
    # Failover (Figure 6)
    # ------------------------------------------------------------------
    def fail_host(
        self,
        host_id: str,
        overclock_config: FrequencyConfig = OC1,
        use_buffer: bool = True,
    ) -> FailoverOutcome:
        """Fail a host and recover its VMs.

        Recovery order: static buffer hosts first (the air-cooled
        strategy), then survivors with room — and any survivor that
        absorbs displaced VMs is overclocked to compensate for the
        added load (the 2PIC virtual-buffer strategy).
        """
        host = self.host_by_id(host_id)
        if host_id in self._failed:
            raise ConfigurationError(f"host {host_id} has already failed")
        self._failed.add(host_id)
        displaced = [vm for vm in host.vms if vm.is_active]
        for vm in displaced:
            try:
                self._engine.evict(vm.vm_id)
            except PlacementError:
                host.evict(vm.vm_id)  # pragma: no cover - defensive
        # A dead host must not receive the re-created VMs.
        try:
            self._engine.remove_host(host_id)
        except PlacementError:
            pass  # host was a buffer never added to the pool

        # Promote buffers into the placement pool on demand.
        if use_buffer:
            for buffer_id in sorted(self._buffer):
                self._engine.add_host(self.host_by_id(buffer_id))
            self._buffer.clear()

        recreated = 0
        lost = 0
        overclocked: list[str] = []
        for vm in displaced:
            try:
                target = self._engine.place(vm)
            except PlacementError:
                lost += 1
                continue
            recreated += 1
            if (
                target.committed_vcores > target.spec.pcores
                and not target.is_overclocked
                and target.spec.cpu.unlocked
                and target.cooling.is_liquid
            ):
                target.set_config(overclock_config)
                overclocked.append(target.host_id)
        return FailoverOutcome(
            failed_host_id=host_id,
            recreated_vms=recreated,
            lost_vms=lost,
            overclocked_hosts=tuple(dict.fromkeys(overclocked)),
        )


def hottest_first(
    hosts: Sequence[Host], tj_by_host: Mapping[str, float]
) -> list[Host]:
    """Deterministic triage order for emergency actions: hottest first.

    Live hosts sorted by descending junction temperature, then by
    ``host_id`` so equal-temperature hosts (and hosts missing from the
    temperature map, ranked coldest) always come out in the same order —
    evacuation and shutdown decisions must not depend on dict iteration.
    """
    return sorted(
        (host for host in hosts if not host.failed),
        key=lambda host: (
            -tj_by_host.get(host.host_id, float("-inf")),
            host.host_id,
        ),
    )


@dataclass(frozen=True)
class CapacityGapPlan:
    """How a supply shortfall is bridged (Figure 7)."""

    demand_vcores: int
    supply_vcores: int
    gap_vcores: int
    bridged_vcores: int
    hosts_overclocked: int

    @property
    def fully_bridged(self) -> bool:
        return self.bridged_vcores >= self.gap_vcores


def bridge_capacity_gap(
    hosts: Sequence[Host],
    demand_vcores: int,
    overclock_config: FrequencyConfig = OC1,
    extra_ratio_when_overclocked: float = 1.2,
) -> CapacityGapPlan:
    """Mitigate a capacity crisis by overclock-backed oversubscription.

    Each overclockable host's sellable vcores grow by
    ``extra_ratio_when_overclocked`` (the performance reclaimed by
    overclocking compensates the oversubscription, per Section VI-C).
    Hosts are overclocked one at a time until demand is met.
    """
    supply = sum(host.vcore_capacity for host in hosts)
    gap = max(0, demand_vcores - supply)
    plan_bridged = 0
    overclocked = 0
    if gap > 0:
        for host in hosts:
            if plan_bridged >= gap:
                break
            if not (host.spec.cpu.unlocked and host.cooling.is_liquid):
                continue
            extra = int(host.spec.pcores * (extra_ratio_when_overclocked - 1.0))
            if extra <= 0:
                continue
            host.oversubscription_ratio = extra_ratio_when_overclocked
            host.set_config(overclock_config)
            plan_bridged += extra
            overclocked += 1
    return CapacityGapPlan(
        demand_vcores=demand_vcores,
        supply_vcores=supply,
        gap_vcores=gap,
        bridged_vcores=plan_bridged,
        hosts_overclocked=overclocked,
    )


__all__ = [
    "Fleet",
    "FailoverOutcome",
    "CapacityGapPlan",
    "bridge_capacity_gap",
    "hottest_first",
]
