"""Tests for capping live hosts down to a power-delivery hierarchy's limits."""

import pytest

from repro.cluster import Host, VMInstance, VMSpec, enforce_delivery_limits
from repro.errors import ConfigurationError, PowerBudgetExceeded
from repro.power import DeliveryLevel, DeliveryNode, PowerDeliveryHierarchy
from repro.silicon import OC1
from repro.thermal import TWO_PHASE_IMMERSION


def loaded_host(host_id: str, overclocked: bool = True) -> Host:
    host = Host(host_id, cooling=TWO_PHASE_IMMERSION)
    if overclocked:
        host.set_config(OC1)
    for index in range(7):
        host.place(VMInstance(f"{host_id}-vm{index}", VMSpec(4, 8.0)))
    return host


def two_rack_row(
    hosts_per_rack: int,
    rack_rated: float,
    row_rated: float,
    host_rated: float = 400.0,
    overclocked: bool = True,
) -> tuple[PowerDeliveryHierarchy, dict[str, tuple[Host, int]]]:
    """One row feeding two racks; rack-0's hosts get priority 0 (shed first)."""
    nodes = [DeliveryNode("row", DeliveryLevel.ROW, row_rated)]
    hosts = {}
    for rack_index in range(2):
        rack = f"rack-{rack_index}"
        nodes.append(DeliveryNode(rack, DeliveryLevel.RACK_PDU, rack_rated, parent="row"))
        for host_index in range(hosts_per_rack):
            name = f"r{rack_index}-h{host_index}"
            nodes.append(DeliveryNode(name, DeliveryLevel.HOST, host_rated, parent=rack))
            hosts[name] = (loaded_host(name, overclocked), 0 if rack_index == 0 else 10)
    return PowerDeliveryHierarchy(nodes), hosts


def draws(hosts: dict[str, tuple[Host, int]], utilization: float) -> dict[str, float]:
    return {name: host.power_watts(utilization) for name, (host, _) in hosts.items()}


def breaches(hierarchy: PowerDeliveryHierarchy, hosts, utilization: float) -> list[str]:
    rolled = hierarchy.rollup(draws(hosts, utilization))
    return [name for name, node in hierarchy.nodes.items() if rolled[name] > node.rated_watts]


class TestPowerNode:
    def test_aggregation(self):
        hierarchy, hosts = two_rack_row(hosts_per_rack=2, rack_rated=1000.0, row_rated=2000.0)
        rolled = hierarchy.rollup(draws(hosts, 1.0))
        assert rolled["rack-0"] == pytest.approx(
            hosts["r0-h0"][0].power_watts(1.0) + hosts["r0-h1"][0].power_watts(1.0)
        )
        assert rolled["row"] == pytest.approx(rolled["rack-0"] + rolled["rack-1"])
        provisioned = sum(host.peak_power_watts() for host, _ in hosts.values())
        assert provisioned > hierarchy.rollup(draws(hosts, 0.5))["row"]

    def test_oversubscription_ratio(self):
        hierarchy, hosts = two_rack_row(
            hosts_per_rack=1, rack_rated=250.0, row_rated=500.0, host_rated=250.0
        )
        provisioned = sum(host.peak_power_watts() for host, _ in hosts.values())
        assert provisioned / hierarchy.root.rated_watts > 1.0
        assert hierarchy.worst_headroom_fraction(draws(hosts, 1.0)) < 0.0

    def test_node_shape_validation(self):
        with pytest.raises(ConfigurationError):
            DeliveryNode("bad", DeliveryLevel.RACK_PDU, 0.0)
        with pytest.raises(ConfigurationError):
            PowerDeliveryHierarchy(
                [
                    DeliveryNode("rack", DeliveryLevel.RACK_PDU, 100.0),
                    DeliveryNode("host", DeliveryLevel.HOST, 100.0, parent="rack"),
                    DeliveryNode("nested", DeliveryLevel.HOST, 100.0, parent="host"),
                ]
            )


class TestPowerDeliveryTree:
    def test_no_breach_when_sized_generously(self):
        hierarchy, hosts = two_rack_row(hosts_per_rack=2, rack_rated=2000.0, row_rated=4000.0)
        assert breaches(hierarchy, hosts, 1.0) == []
        assert hierarchy.worst_headroom_fraction(draws(hosts, 1.0)) > 0

    def test_breach_detected_under_oversubscription(self):
        # The row breaker is oversubscribed; each rack fits on its own.
        hierarchy, hosts = two_rack_row(hosts_per_rack=2, rack_rated=700.0, row_rated=700.0)
        assert breaches(hierarchy, hosts, 1.0) == ["row"]
        row_draw = hierarchy.rollup(draws(hosts, 1.0))["row"]
        assert hierarchy.worst_headroom_fraction(draws(hosts, 1.0)) == pytest.approx(
            (700.0 - row_draw) / 700.0
        )
        assert row_draw > 700.0

    def test_enforce_caps_low_priority_first(self):
        hierarchy, hosts = two_rack_row(hosts_per_rack=1, rack_rated=450.0, row_rated=450.0)
        results = enforce_delivery_limits(hierarchy, hosts, utilization=1.0)
        assert breaches(hierarchy, hosts, 1.0) == []
        capped = {r.host_id: r.capped for r in results}
        assert capped["r0-h0"]          # low priority shed
        assert not capped["r1-h0"]      # high priority kept its clock

    def test_enforce_raises_when_impossible(self):
        hierarchy, hosts = two_rack_row(
            hosts_per_rack=1, rack_rated=50.0, row_rated=50.0, host_rated=50.0
        )
        with pytest.raises(PowerBudgetExceeded):
            enforce_delivery_limits(hierarchy, hosts, utilization=1.0)

    def test_headroom_is_tightest_breaker(self):
        hierarchy, hosts = two_rack_row(
            hosts_per_rack=1, rack_rated=410.0, row_rated=410.0, overclocked=False
        )
        draw = hierarchy.rollup(draws(hosts, 0.5))["row"]
        assert hierarchy.worst_headroom_fraction(draws(hosts, 0.5)) == pytest.approx(
            (410.0 - draw) / 410.0
        )
