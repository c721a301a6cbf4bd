"""Power-delivery tree: shape validation, breaker trip curves and rollup."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.power import (
    Breaker,
    BreakerCurve,
    DeliveryLevel,
    DeliveryNode,
    PowerDeliveryHierarchy,
)


def small_tree() -> PowerDeliveryHierarchy:
    nodes = [
        DeliveryNode("substation", DeliveryLevel.SUBSTATION, 4000.0, 1.1),
        DeliveryNode("ups-0", DeliveryLevel.UPS, 3000.0, 1.1, parent="substation"),
        DeliveryNode("row-0", DeliveryLevel.ROW, 2000.0, 1.2, parent="ups-0"),
    ]
    for rack in range(2):
        rack_name = f"rack-{rack}"
        nodes.append(
            DeliveryNode(rack_name, DeliveryLevel.RACK_PDU, 800.0, 1.25, parent="row-0")
        )
        for host in range(2):
            nodes.append(
                DeliveryNode(
                    f"{rack_name}/h{host}", DeliveryLevel.HOST, 400.0, parent=rack_name
                )
            )
    return PowerDeliveryHierarchy(nodes)


class TestTreeValidation:
    def test_budget_is_rated_times_oversubscription(self):
        node = DeliveryNode("n", DeliveryLevel.ROW, 2000.0, 1.25, parent="u")
        assert node.budget_watts == pytest.approx(2500.0)

    def test_rejects_undersubscription(self):
        with pytest.raises(ConfigurationError):
            DeliveryNode("n", DeliveryLevel.ROW, 2000.0, 0.9, parent="u")

    def test_rejects_nonpositive_rating(self):
        with pytest.raises(ConfigurationError):
            DeliveryNode("n", DeliveryLevel.ROW, 0.0, parent="u")

    @pytest.mark.parametrize(
        "rated, oversubscription",
        [(math.nan, 1.0), (math.inf, 1.0), (2000.0, math.nan), (2000.0, math.inf)],
    )
    def test_rejects_non_finite_rating_or_oversubscription(self, rated, oversubscription):
        # A NaN-rated breaker never trips, even at 10x its draw.
        with pytest.raises(ConfigurationError):
            DeliveryNode("n", DeliveryLevel.ROW, rated, oversubscription, parent="u")

    def test_rejects_two_roots(self):
        with pytest.raises(ConfigurationError):
            PowerDeliveryHierarchy(
                [
                    DeliveryNode("a", DeliveryLevel.SUBSTATION, 100.0),
                    DeliveryNode("b", DeliveryLevel.SUBSTATION, 100.0),
                ]
            )

    def test_rejects_parent_at_wrong_level(self):
        with pytest.raises(ConfigurationError):
            PowerDeliveryHierarchy(
                [
                    DeliveryNode("sub", DeliveryLevel.SUBSTATION, 100.0),
                    DeliveryNode("row", DeliveryLevel.ROW, 50.0, parent="sub"),
                ]
            )

    def test_rejects_child_rated_above_parent(self):
        with pytest.raises(ConfigurationError):
            PowerDeliveryHierarchy(
                [
                    DeliveryNode("sub", DeliveryLevel.SUBSTATION, 100.0),
                    DeliveryNode("ups", DeliveryLevel.UPS, 200.0, parent="sub"),
                ]
            )

    def test_lineage_and_ancestors(self):
        tree = small_tree()
        assert list(tree.ancestors("rack-0/h1")) == [
            "rack-0",
            "row-0",
            "ups-0",
            "substation",
        ]
        assert tree.lineage("rack-0/h1")[0] == "rack-0/h1"
        assert set(tree.subtree_hosts("rack-1")) == {"rack-1/h0", "rack-1/h1"}
        assert tree.hosts == sorted(tree.hosts)


class TestBreakerCurve:
    def test_trip_time_matches_pinned_2x_point(self):
        curve = BreakerCurve(trip_seconds_at_2x=8.0)
        assert curve.trip_time_s(2.0) == pytest.approx(8.0)
        # Milder overloads are tolerated longer, per I²t.
        assert curve.trip_time_s(1.5) > curve.trip_time_s(2.0)
        assert curve.trip_time_s(1.0) == float("inf")

    def test_thermal_trip_integrates_over_ticks(self):
        breaker = Breaker(BreakerCurve(trip_seconds_at_2x=8.0))
        tripped_at = None
        for tick in range(20):
            if breaker.observe(float(tick), 1.0, 200.0, 100.0):
                tripped_at = float(tick)
                break
        # 2x overload accumulates 3 heat/s against a threshold of 24.
        assert tripped_at == pytest.approx(7.0)

    def test_instant_magnetic_trip(self):
        breaker = Breaker()
        assert breaker.observe(0.0, 1.0, 301.0, 100.0)
        assert breaker.tripped_at_s == 0.0

    def test_cooling_resets_partial_heat(self):
        curve = BreakerCurve(trip_seconds_at_2x=8.0, cooling_per_second=0.05)
        breaker = Breaker(curve)
        breaker.observe(0.0, 5.0, 200.0, 100.0)  # 15 of 24 heat
        assert 0 < breaker.heat < curve.heat_threshold
        for tick in range(20):
            breaker.observe(5.0 + tick, 1.0, 50.0, 100.0)
        assert breaker.heat == 0.0
        assert not breaker.tripped

    @pytest.mark.parametrize(
        "field", ["trip_seconds_at_2x", "instant_trip_ratio", "cooling_per_second"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        # With a NaN trip_seconds_at_2x, a breaker held at 2.5x never trips.
        with pytest.raises(ConfigurationError):
            BreakerCurve(**{field: value})

    def test_nan_dt_rejected_without_poisoning_heat(self):
        def trip_tick(breaker: Breaker) -> int | None:
            for tick in range(20):
                if breaker.observe(float(tick), 1.0, 250.0, 100.0):
                    return tick
            return None

        breaker = Breaker()
        with pytest.raises(ConfigurationError):
            breaker.observe(0.0, math.nan, 250.0, 100.0)
        assert breaker.heat == 0.0
        assert trip_tick(breaker) == trip_tick(Breaker()) == 4

    def test_trip_latches_until_reset(self):
        breaker = Breaker()
        assert breaker.observe(0.0, 1.0, 400.0, 100.0)
        assert not breaker.observe(1.0, 1.0, 400.0, 100.0)  # no re-trip
        breaker.reset()
        assert not breaker.tripped
        assert breaker.observe(2.0, 1.0, 400.0, 100.0)


class TestRollupAndTrips:
    def test_rollup_sums_subtrees(self):
        tree = small_tree()
        draws = {"rack-0/h0": 100.0, "rack-0/h1": 150.0, "rack-1/h0": 200.0}
        rolled = tree.rollup(draws)
        assert rolled["rack-0"] == pytest.approx(250.0)
        assert rolled["rack-1"] == pytest.approx(200.0)
        assert rolled["row-0"] == pytest.approx(450.0)
        assert rolled["substation"] == pytest.approx(450.0)

    def test_tripped_row_kills_all_hosts_below(self):
        # A tree where the row feed is the unique thin link: racks and
        # hosts stay inside their ratings while the row overloads.
        nodes = [
            DeliveryNode("substation", DeliveryLevel.SUBSTATION, 4000.0),
            DeliveryNode("ups-0", DeliveryLevel.UPS, 3000.0, parent="substation"),
            DeliveryNode("row-0", DeliveryLevel.ROW, 900.0, parent="ups-0"),
            DeliveryNode("rack-0", DeliveryLevel.RACK_PDU, 800.0, parent="row-0"),
            DeliveryNode("rack-1", DeliveryLevel.RACK_PDU, 800.0, parent="row-0"),
            DeliveryNode("rack-0/h0", DeliveryLevel.HOST, 400.0, parent="rack-0"),
            DeliveryNode("rack-0/h1", DeliveryLevel.HOST, 400.0, parent="rack-0"),
            DeliveryNode("rack-1/h0", DeliveryLevel.HOST, 400.0, parent="rack-1"),
            DeliveryNode("rack-1/h1", DeliveryLevel.HOST, 400.0, parent="rack-1"),
        ]
        tree = PowerDeliveryHierarchy(nodes)
        draws = {name: 200.0 for name in tree.hosts}  # row at 800/900
        assert tree.observe_breakers(0.0, 1.0, draws) == []
        surged = {name: 390.0 for name in tree.hosts}
        # Row at 1560/900 (ratio 1.73, thermal); racks at 780/800 and
        # hosts at 390/400 stay inside rating.
        newly = []
        for tick in range(30):
            newly += tree.observe_breakers(float(tick), 1.0, surged)
            if newly:
                break
        assert newly == ["row-0"]
        assert set(tree.dead_hosts()) == set(tree.hosts)

    def test_hosts_under_tripped_ancestor_stop_integrating(self):
        tree = small_tree()
        tree.nodes["rack-0"].breaker.tripped_at_s = 0.0
        # Per the observe_breakers contract the caller zeroes dead
        # hosts' draws; the live rack stays healthy, and the dead rack's
        # subtree is skipped rather than cascading.
        draws = {"rack-0/h0": 0.0, "rack-0/h1": 0.0, "rack-1/h0": 300.0, "rack-1/h1": 300.0}
        assert tree.observe_breakers(1.0, 1.0, draws) == []
        assert tree.dead_hosts() == ["rack-0/h0", "rack-0/h1"]
