"""Use-case demonstrations for the paper's conceptual Figures 5–8.

Figures 5–8 are illustrations, not measurements; each has concrete
machinery in this library, and these entry points exercise it:

* **Figure 5** — frequency bands and the high-performance VM offering
  (the green/red bands of :mod:`repro.cluster.skus`) plus the dense
  packing comparison (two VMs at base vs three with overclocking);
* **Figure 6** — static vs virtual (overclocked) failover buffers;
* **Figure 7** — bridging a capacity gap by overclock-backed
  oversubscription;
* **Figure 8** — the two auto-scaling maneuvers (hide vs avoid) as
  timelines extracted from short closed-loop simulations.
"""

from __future__ import annotations

from ..autoscale.controller import AutoScaler
from ..autoscale.policy import AutoscalePolicy, ScalerMode
from ..cluster.fleet import Fleet, bridge_capacity_gap
from ..cluster.host import Host
from ..cluster.skus import GREEN_SKU, RED_SKU, STANDARD_SKU
from ..cluster.vm import VMSpec
from ..silicon.configs import OC1
from ..silicon.cpu import XEON_W3175X
from ..sim.kernel import Simulator
from ..sim.processes import OpenLoopSource, PiecewiseSchedule
from ..thermal.cooling import TWO_PHASE_IMMERSION
from .tables import pct, render_table


def _immersion_host(host_id: str, ratio: float = 1.0) -> Host:
    return Host(host_id, cooling=TWO_PHASE_IMMERSION, oversubscription_ratio=ratio)


# ----------------------------------------------------------------------
# Figure 5 — bands, SKUs, dense packing
# ----------------------------------------------------------------------
def run_fig5() -> dict[str, object]:
    """Band/SKU line-up and the packing dividend."""
    domains = XEON_W3175X.domains
    skus = [
        (sku.name, sku.band, sku.frequency_ghz(domains), sku.price_multiplier)
        for sku in (STANDARD_SKU, GREEN_SKU, RED_SKU)
    ]
    # Packing: same host, 1:1 vs overclock-backed 1.2:1. 11-vcore VMs on
    # a 28-pcore host make the dividend a whole extra VM: 2 fit at 1:1,
    # 3 fit in the 33 oversubscribed vcores (Fig. 5d's 2 -> 3 story).
    spec = VMSpec(vcores=11, memory_gb=24.0)
    plain = _immersion_host("plain")
    packed = _immersion_host("packed", ratio=1.2)
    packed.set_config(OC1)

    def fill(host: Host) -> int:
        from ..cluster.vm import VMInstance

        count = 0
        while host.fits(spec):
            host.place(VMInstance(f"{host.host_id}-{count}", spec))
            count += 1
        return count

    return {"skus": skus, "vms_plain": fill(plain), "vms_overclocked": fill(packed)}


def format_fig5() -> str:
    result = run_fig5()
    sku_table = render_table(
        ["SKU", "Band", "Frequency", "Price"],
        [
            (name, band, f"{freq:.2f} GHz", f"{price:.2f}x")
            for name, band, freq, price in result["skus"]
        ],
        title="Figure 5 — frequency bands as sellable VM classes",
    )
    packing = (
        f"\nDense packing (11-vcore VMs on one 28-core host): "
        f"{result['vms_plain']} at 1:1 vs {result['vms_overclocked']} with "
        f"overclock-backed oversubscription."
    )
    return sku_table + packing


# ----------------------------------------------------------------------
# Figure 6 — buffers
# ----------------------------------------------------------------------
def run_fig6(hosts: int = 10, buffer_hosts: int = 2) -> dict[str, object]:
    """Static vs virtual buffer: sellable capacity and failover outcome.

    The virtual-buffer fleet sells full 1:1 capacity on *every* host;
    its hosts carry a 1.2:1 admission ceiling that is reserved for
    failover — on a host failure, survivors absorb the displaced VMs
    (becoming oversubscribed) and get overclocked to compensate.
    """
    spec = VMSpec(vcores=4, memory_gb=8.0)
    static = Fleet([_immersion_host(f"s{i}") for i in range(hosts)], buffer_hosts=buffer_hosts)
    static_vms = static.fill_with(spec, prefix="s")

    from ..cluster.placement import PlacementPolicy
    from ..cluster.vm import VMInstance

    virtual_hosts = [_immersion_host(f"v{i}", ratio=1.2) for i in range(hosts)]
    # Worst-fit spreads the 1:1-worth of VMs evenly, leaving every
    # host's 0.2 admission headroom free for failover.
    virtual = Fleet(virtual_hosts, buffer_hosts=0, policy=PlacementPolicy.WORST_FIT)
    vms_per_host = virtual_hosts[0].spec.pcores // spec.vcores  # 1:1 worth
    virtual_vms = vms_per_host * hosts
    for index in range(virtual_vms):
        virtual.place(VMInstance(f"v-vm{index}", spec))
    outcome = virtual.fail_host("v0")
    return {
        "static_vms": static_vms,
        "virtual_vms": virtual_vms,
        "failover_recreated": outcome.recreated_vms,
        "failover_lost": outcome.lost_vms,
        "overclocked_hosts": len(outcome.overclocked_hosts),
    }


def format_fig6() -> str:
    result = run_fig6()
    gain = result["virtual_vms"] / result["static_vms"] - 1.0
    rows = [
        ("static buffer (2 hosts idle)", result["static_vms"], "-"),
        (
            "virtual buffer (overclock on failure)",
            result["virtual_vms"],
            f"{result['failover_recreated']} re-created, "
            f"{result['overclocked_hosts']} hosts overclocked",
        ),
    ]
    table = render_table(
        ["Strategy", "Customer VMs", "After one host failure"],
        rows,
        title="Figure 6 — static vs virtual failover buffers (10 hosts)",
    )
    return table + f"\n\nVirtual buffers sell {pct(gain)} more capacity."


# ----------------------------------------------------------------------
# Figure 7 — capacity crisis
# ----------------------------------------------------------------------
def run_fig7(hosts: int = 10, demand_overshoot: float = 1.15):
    """Bridge a forecast miss with overclock-backed oversubscription."""
    fleet = [_immersion_host(f"c{i}") for i in range(hosts)]
    supply = sum(host.vcore_capacity for host in fleet)
    return bridge_capacity_gap(fleet, demand_vcores=int(supply * demand_overshoot))


def format_fig7() -> str:
    plan = run_fig7()
    rows = [
        ("forecast demand", f"{plan.demand_vcores} vcores"),
        ("built supply", f"{plan.supply_vcores} vcores"),
        ("gap", f"{plan.gap_vcores} vcores"),
        ("bridged by overclocking", f"{plan.bridged_vcores} vcores "
                                    f"({plan.hosts_overclocked} hosts)"),
        ("status", "fully bridged" if plan.fully_bridged else "NOT bridged"),
    ]
    return render_table(
        ["Capacity crisis", ""],
        rows,
        title="Figure 7 — bridging a supply gap without new servers",
    )


# ----------------------------------------------------------------------
# Figure 8 — the two auto-scaling maneuvers
# ----------------------------------------------------------------------
def run_fig8(seed: int = 3) -> dict[str, list[tuple[float, float]]]:
    """Frequency timelines for OC-E (hide) and OC-A (avoid) on one step.

    A single 700→1400 QPS step against two VMs: OC-E overclocks through
    the deploy window then drops back (Fig. 8a's t1→t2); OC-A scales up
    pre-emptively at the lower threshold (Fig. 8b's t1).
    """
    timelines: dict[str, list[tuple[float, float]]] = {}
    for mode in (ScalerMode.OC_E, ScalerMode.OC_A):
        simulator = Simulator(seed=seed)
        autoscaler = AutoScaler(
            simulator, AutoscalePolicy(mode=mode), initial_vms=2, warmup_s=10.0
        )
        schedule = PiecewiseSchedule([(0.0, 700.0), (120.0, 1400.0)])
        source = OpenLoopSource(
            simulator, autoscaler.load_balancer.route, rate_per_second=700.0
        )
        simulator.every(
            5.0, lambda src=source, sch=schedule, s=simulator: src.set_rate(sch.value_at(s.now))
        )
        simulator.run(until=600.0)
        result = autoscaler.finish()
        timelines[mode.value] = [(s.time, s.value) for s in result.frequency_trace]
    return timelines


def format_fig8(timelines: dict[str, list[tuple[float, float]]] | None = None) -> str:
    timelines = timelines if timelines is not None else run_fig8()
    lines = ["Figure 8 — scale-up maneuvers on a 700->1400 QPS step (two VMs)"]
    for mode, samples in timelines.items():
        overclocked = [time for time, freq in samples if freq > 3.4]
        if overclocked:
            lines.append(
                f"  {mode}: overclocked from t={overclocked[0]:.0f}s to "
                f"t={overclocked[-1]:.0f}s "
                f"({len(overclocked) * 3.0:.0f}s total above base clock)"
            )
        else:
            lines.append(f"  {mode}: never overclocked")
    return "\n".join(lines)


__all__ = [
    "run_fig5",
    "format_fig5",
    "run_fig6",
    "format_fig6",
    "run_fig7",
    "format_fig7",
    "run_fig8",
    "format_fig8",
]
