#!/usr/bin/env python
"""Provider-side overclocking operations (paper Sections IV-V).

Walks the operational machinery a cloud provider needs around
guaranteed overclocking:

1. the power-delivery hierarchy: oversubscribed breakers, live breach
   detection, priority-aware capping;
2. the overclock guard: stability + lifetime + power checks before any
   frequency grant;
3. high-performance VM SKUs: green-band (lifetime-neutral) and red-band
   (credit-funded) offerings;
4. the overclock stop-gap: compensate a packing collision instantly,
   migrate the VM away, then restore nominal clocks.

Run:  python examples/provider_operations.py
"""

from repro.cluster import (
    GREEN_SKU,
    Host,
    MigrationManager,
    RED_SKU,
    RedBandSession,
    VMInstance,
    VMSpec,
    enforce_delivery_limits,
    overclock_stopgap_plan,
)
from repro.power import DeliveryLevel, DeliveryNode, PowerDeliveryHierarchy
from repro.reliability import (
    OverclockGuard,
    StabilityMonitor,
    WearoutCounter,
    immersion_condition,
)
from repro.silicon import OC1, XEON_W3175X
from repro.sim import Simulator
from repro.thermal import HFE_7000, TWO_PHASE_IMMERSION


def loaded_host(host_id: str) -> Host:
    host = Host(host_id, cooling=TWO_PHASE_IMMERSION)
    host.set_config(OC1)
    for index in range(7):
        host.place(VMInstance(f"{host_id}-vm{index}", VMSpec(4, 8.0)))
    return host


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Power delivery: a row breaker oversubscribed by overclocking.
    # ------------------------------------------------------------------
    # One row feeding two racks of one host each; rack-0's host sheds first.
    nodes = [DeliveryNode("row", DeliveryLevel.ROW, 450.0)]
    hosts = {}
    for rack_index in range(2):
        rack, name = f"rack-{rack_index}", f"r{rack_index}-h0"
        nodes.append(DeliveryNode(rack, DeliveryLevel.RACK_PDU, 450.0, parent="row"))
        nodes.append(DeliveryNode(name, DeliveryLevel.HOST, 400.0, parent=rack))
        hosts[name] = (loaded_host(name), 0 if rack_index == 0 else 10)
    hierarchy = PowerDeliveryHierarchy(nodes)
    provisioned = sum(host.peak_power_watts() for host, _ in hosts.values())
    print("Power delivery (row limit 450 W):")
    print(f"  provisioned peak : {provisioned:.0f} W "
          f"({provisioned / hierarchy.root.rated_watts:.2f}x oversubscribed)")
    draws = hierarchy.rollup(
        {name: host.power_watts(1.0) for name, (host, _) in hosts.items()}
    )
    breaches = [name for name, node in hierarchy.nodes.items() if draws[name] > node.rated_watts]
    print(f"  breaches at full load: {breaches}")
    results = enforce_delivery_limits(hierarchy, hosts, utilization=1.0)
    for result in results:
        action = "capped" if result.capped else "kept"
        print(f"  {result.host_id}: {result.original_core_ghz:.1f} -> "
              f"{result.final_core_ghz:.1f} GHz ({action})")

    # ------------------------------------------------------------------
    # 2. The overclock guard.
    # ------------------------------------------------------------------
    nominal = immersion_condition(HFE_7000, 205.0, 0.90)
    overclocked = immersion_condition(HFE_7000, 305.0, 0.98)
    counter = WearoutCounter()
    counter.record(hours=4383.0, condition=nominal, utilization=0.4)  # half a year
    guard = OverclockGuard(
        monitor=StabilityMonitor(rate_threshold_per_hour=0.5),
        wearout=counter,
        overclocked_condition=overclocked,
        nominal_condition=nominal,
    )
    print("\nOverclock guard decisions:")
    for request, headroom in ((1.20, 500.0), (1.40, 500.0), (1.20, 20.0)):
        decision = guard.decide(request, power_headroom_watts=headroom)
        print(f"  request {request:.2f}x, headroom {headroom:4.0f} W -> "
              f"granted {decision.granted_ratio:.2f}x (limited by {decision.limited_by})")
    guard.observe_errors(0.0, 0.0)
    guard.observe_errors(1.0, 5.0)  # error burst!
    decision = guard.decide(1.20)
    print(f"  after an error-rate alarm -> granted {decision.granted_ratio:.2f}x "
          f"({decision.limited_by})")

    # ------------------------------------------------------------------
    # 3. High-performance SKUs.
    # ------------------------------------------------------------------
    domains = XEON_W3175X.domains
    print("\nHigh-performance VM SKUs on the W-3175X:")
    for sku in (GREEN_SKU, RED_SKU):
        print(f"  {sku.name}: {sku.frequency_ghz(domains):.2f} GHz "
              f"({sku.band} band, {sku.price_multiplier:.2f}x price)")
    red_condition = immersion_condition(HFE_7000, 340.0, 1.01)
    session = RedBandSession(counter, red_condition, nominal)
    print(f"  red-band budget: {session.affordable_hours():,.0f} hours from banked credit")
    spent = session.record(hours=24.0)
    print(f"  sold a 24 h red-band burst: {spent:.5f} lifetime damage, "
          f"{session.affordable_hours():,.0f} hours left")

    # ------------------------------------------------------------------
    # 4. The overclock stop-gap around live migration.
    # ------------------------------------------------------------------
    simulator = Simulator()
    manager = MigrationManager(simulator)
    crowded = Host("crowded", cooling=TWO_PHASE_IMMERSION, oversubscription_ratio=1.2)
    spare = Host("spare", cooling=TWO_PHASE_IMMERSION)
    victim = VMInstance("victim", VMSpec(4, 32.0))
    crowded.place(victim)
    record = overclock_stopgap_plan(simulator, manager, crowded, victim, spare)
    print(f"\nStop-gap: crowded host overclocked to {crowded.config.core_ghz:.1f} GHz "
          f"while a {record.plan.duration_s:.0f} s migration moves "
          f"{record.plan.memory_gb:.0f} GB")
    simulator.run(until=record.plan.duration_s + 1.0)
    print(f"  migration done; crowded host restored to "
          f"{crowded.config.core_ghz:.1f} GHz; VM now on "
          f"{'spare' if any(v.vm_id == 'victim' for v in spare.vms) else '???'}")


if __name__ == "__main__":
    main()
