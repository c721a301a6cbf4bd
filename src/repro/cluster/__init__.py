"""Cluster substrate: VMs, hosts, placement, power capping, and fleets.

Implements the provider-side machinery the paper's Section V use-cases
run on: VM lifecycle with realistic deploy latency, oversubscribed
hosting with an interference model, multi-dimensional bin packing,
RAPL-style power capping, and fleet-level buffer/capacity management.
"""

from .fleet import (
    CapacityGapPlan,
    FailoverOutcome,
    Fleet,
    bridge_capacity_gap,
    hottest_first,
)
from .host import Host
from .hypervisor import (
    DEFAULT_DISK_CAPACITY,
    InstanceOutcome,
    LATENCY_AMPLIFICATION,
    OversubscribedHost,
    ScenarioInstance,
)
from .lifecycle import PAPER_SCALE_OUT_LATENCY_S, VMLifecycleManager
from .migration import (
    MigrationManager,
    MigrationPlan,
    MigrationRecord,
    StopgapOutcome,
    evacuate_host,
    overclock_stopgap_plan,
    plan_migration,
)
from .placement import (
    PackingStats,
    PlacementEngine,
    PlacementPolicy,
    packing_density_gain,
)
from .power_cap import CapResult, PowerCapGovernor, enforce_delivery_limits
from .skus import (
    Band,
    GREEN_SKU,
    HighPerformanceSKU,
    RED_SKU,
    RedBandSession,
    STANDARD_SKU,
)
from .vm import VMInstance, VMSpec, VMState

__all__ = [
    "MigrationManager",
    "MigrationPlan",
    "MigrationRecord",
    "StopgapOutcome",
    "overclock_stopgap_plan",
    "plan_migration",
    "evacuate_host",
    "Band",
    "HighPerformanceSKU",
    "RedBandSession",
    "STANDARD_SKU",
    "GREEN_SKU",
    "RED_SKU",
    "VMSpec",
    "VMInstance",
    "VMState",
    "Host",
    "ScenarioInstance",
    "InstanceOutcome",
    "OversubscribedHost",
    "LATENCY_AMPLIFICATION",
    "DEFAULT_DISK_CAPACITY",
    "PlacementEngine",
    "PlacementPolicy",
    "PackingStats",
    "packing_density_gain",
    "PowerCapGovernor",
    "CapResult",
    "enforce_delivery_limits",
    "Fleet",
    "FailoverOutcome",
    "CapacityGapPlan",
    "bridge_capacity_gap",
    "hottest_first",
    "VMLifecycleManager",
    "PAPER_SCALE_OUT_LATENCY_S",
]
