"""RAPL-style power capping (paper Section IV, "Power consumption").

Overclocking in power-oversubscribed datacenters risks tripping delivery
limits; capping mechanisms respond by stepping CPU frequency down until
the draw fits. :class:`PowerCapGovernor` implements that loop over a
host's frequency bins, optionally with workload-priority awareness
(priority-based capping per Dynamo/Flex: low-priority hosts shed power
first). :func:`enforce_delivery_limits` runs the priority-aware loop
at every breached level of a
:class:`~repro.power.tree.PowerDeliveryHierarchy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError, PowerBudgetExceeded
from ..power.tree import PowerDeliveryHierarchy
from ..silicon.configs import FrequencyConfig
from .host import Host


def _downbinned(config: FrequencyConfig, core_ghz: float) -> FrequencyConfig:
    """A copy of ``config`` with the core clock lowered to ``core_ghz``."""
    return FrequencyConfig(
        name=f"{config.name}@{core_ghz:.2f}",
        core_ghz=core_ghz,
        voltage_offset_mv=config.voltage_offset_mv if core_ghz > 3.4 else 0.0,
        turbo_enabled=config.turbo_enabled,
        llc_ghz=config.llc_ghz,
        memory_ghz=config.memory_ghz,
    )


@dataclass(frozen=True)
class CapResult:
    """Outcome of a capping action on one host."""

    host_id: str
    capped: bool
    original_core_ghz: float
    final_core_ghz: float
    final_watts: float


class PowerCapGovernor:
    """Steps core frequency down until a host fits its power cap."""

    def __init__(self, bin_ghz: float = 0.1, min_core_ghz: float = 1.2) -> None:
        # Written so that NaN fails: a NaN bin never reaches the floor,
        # so enforce would loop forever.
        if not 0.0 < bin_ghz < math.inf:
            raise ConfigurationError("frequency bin must be positive and finite")
        if not 0.0 < min_core_ghz < math.inf:
            raise ConfigurationError("frequency floor must be positive and finite")
        self.bin_ghz = bin_ghz
        self.min_core_ghz = min_core_ghz

    def floor_watts(self, host: Host, config: FrequencyConfig) -> float:
        """What ``host`` draws under ``config`` lowered to the frequency
        floor with every committed vcore busy: the lowest cap
        :meth:`enforce` can meet from ``config`` at utilization 1.0."""
        return host.power_model.watts(
            _downbinned(config, self.min_core_ghz),
            min(float(host.spec.pcores), float(host.committed_vcores)),
        )

    def enforce(
        self, host: Host, cap_watts: float, utilization: float = 1.0
    ) -> CapResult:
        """Lower ``host``'s core clock until its draw fits ``cap_watts``.

        Raises :class:`PowerBudgetExceeded` when even the minimum
        frequency cannot satisfy the cap.
        """
        original = host.config
        current = original
        while True:
            watts = host.power_model.watts(
                current,
                min(float(host.spec.pcores), host.committed_vcores * utilization),
            )
            if watts <= cap_watts:
                if current is not original:
                    host.set_config(current)
                return CapResult(
                    host_id=host.host_id,
                    capped=current is not original,
                    original_core_ghz=original.core_ghz,
                    final_core_ghz=current.core_ghz,
                    final_watts=watts,
                )
            if current.core_ghz <= self.min_core_ghz:
                # The draw above was evaluated *at* the floor frequency,
                # so the shortfall is the true unclosable gap.
                raise PowerBudgetExceeded(
                    f"host {host.host_id}: cannot satisfy cap {cap_watts:.0f} W "
                    f"even at {current.core_ghz:g} GHz (draw {watts:.0f} W, "
                    f"shortfall {watts - cap_watts:.0f} W)"
                )
            # Clamp the last step to the floor instead of skipping past
            # it: a cap satisfiable only at exactly min_core_ghz must be
            # satisfied, not raised on.
            next_core = max(
                round(current.core_ghz - self.bin_ghz, 3), self.min_core_ghz
            )
            current = _downbinned(current, next_core)

    def enforce_fleet(
        self,
        hosts: Sequence[Host],
        cap_watts_per_host: float,
        utilization: float = 1.0,
    ) -> list[CapResult]:
        """Uniform emergency cap: every live host to the same per-host cap.

        The degradation ladder's stage-2 action: when the *facility* is
        the constraint, priority games are pointless — every watt heats
        the same shared pool, so every host caps alike. Failed (or shut
        down) hosts draw nothing and are skipped; an empty fleet is a
        no-op, not an error.
        """
        if not hosts:
            return []
        return [
            self.enforce(host, cap_watts_per_host, utilization)
            for host in hosts
            if not host.failed
        ]

    def enforce_priority_aware(
        self,
        hosts: Sequence[tuple[Host, int]],
        total_cap_watts: float,
        utilization: float = 1.0,
    ) -> list[CapResult]:
        """Shed power from low-priority hosts first.

        ``hosts`` is a list of (host, priority) with *lower* priority
        numbers shed first. High-priority (overclocked/critical) hosts
        keep their frequency until the budget demands otherwise —
        the paper's "workload-priority-based capping" mitigation.
        """
        results: list[CapResult] = []
        ordered = sorted(hosts, key=lambda pair: pair[1])
        total = sum(host.power_watts(utilization) for host, _ in ordered)
        for host, _priority in ordered:
            if total <= total_cap_watts:
                results.append(
                    CapResult(
                        host_id=host.host_id,
                        capped=False,
                        original_core_ghz=host.config.core_ghz,
                        final_core_ghz=host.config.core_ghz,
                        final_watts=host.power_watts(utilization),
                    )
                )
                continue
            before = host.power_watts(utilization)
            # Cap this host as hard as needed (down to its own floor) to
            # close the fleet-level gap.
            needed = before - (total - total_cap_watts)
            target = max(needed, 0.0)
            try:
                result = self.enforce(host, max(target, 1.0), utilization)
            except PowerBudgetExceeded:
                # Floor reached: take what we can get at minimum frequency.
                original_core_ghz = host.config.core_ghz
                floor_config = _downbinned(host.config, self.min_core_ghz)
                host.set_config(floor_config)
                result = CapResult(
                    host_id=host.host_id,
                    capped=True,
                    original_core_ghz=original_core_ghz,
                    final_core_ghz=self.min_core_ghz,
                    final_watts=host.power_watts(utilization),
                )
            total = total - before + result.final_watts
            results.append(result)
        if total > total_cap_watts:
            raise PowerBudgetExceeded(
                f"fleet draw {total:.0f} W still exceeds cap {total_cap_watts:.0f} W "
                "after capping every host"
            )
        return results


def enforce_delivery_limits(
    hierarchy: PowerDeliveryHierarchy,
    hosts: Mapping[str, tuple[Host, int]],
    utilization: float = 1.0,
) -> list[CapResult]:
    """Cap hosts until every node of ``hierarchy`` fits its rated limit.

    ``hosts`` maps each host-level node name to its (host, priority).
    Breached nodes are resolved bottom-up, and within each one
    lower-priority hosts shed frequency first (the paper's recommended
    mitigation, after Dynamo/Flex). Raises :class:`PowerBudgetExceeded`,
    naming the node, when a breach survives even with every host under
    it at its frequency floor. Those hosts stay at their floor: that is
    the most the cap can shed.
    """
    governor = PowerCapGovernor()
    results: list[CapResult] = []
    # Children before parents: capping a rack may already fix the row.
    for name in sorted(
        hierarchy.nodes, key=lambda node: len(hierarchy.ancestors(node)), reverse=True
    ):
        under = [hosts[host] for host in hierarchy.subtree_hosts(name)]
        limit = hierarchy.nodes[name].rated_watts
        if sum(host.power_watts(utilization) for host, _ in under) > limit:
            try:
                results.extend(governor.enforce_priority_aware(under, limit, utilization))
            except PowerBudgetExceeded as error:
                raise PowerBudgetExceeded(f"delivery node {name!r}: {error}") from None
    return results


__all__ = ["PowerCapGovernor", "CapResult", "enforce_delivery_limits"]
