"""Hierarchical power-delivery model with oversubscribed budgets.

Cloud providers provision more IT equipment than the delivery
infrastructure could supply at simultaneous peak ("power
oversubscription", Kumbhare et al.), betting on workload diversity. The
bet is placed at every level of the delivery tree — host PSU feeds into
rack PDU into row into UPS into substation — and each level carries
three numbers:

* a **rated limit** (what the conductor/breaker is built for),
* an **oversubscribed budget** (rated × oversubscription ratio — what
  capacity planning *sells* against), and
* a **breaker** with a time-over-threshold trip curve: short excursions
  above the rated limit are survivable, sustained ones are not.

The model is *name-keyed and scale-free*: hosts are leaf names with
per-host draws supplied from outside, so the same tree drives a
six-host ``power-trip`` scenario, an 8-host crisis experiment and a
region-sized rollup. Capping live :class:`~repro.cluster.host.Host`
objects down to every rated limit is
:func:`repro.cluster.power_cap.enforce_delivery_limits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from ..errors import ConfigurationError


class DeliveryLevel(Enum):
    """The levels of the delivery tree, root to leaf."""

    SUBSTATION = "substation"
    UPS = "ups"
    ROW = "row"
    RACK_PDU = "rack-pdu"
    HOST = "host"


#: Parent level expected for each level (root has none).
_PARENT_LEVEL: dict[DeliveryLevel, DeliveryLevel | None] = {
    DeliveryLevel.SUBSTATION: None,
    DeliveryLevel.UPS: DeliveryLevel.SUBSTATION,
    DeliveryLevel.ROW: DeliveryLevel.UPS,
    DeliveryLevel.RACK_PDU: DeliveryLevel.ROW,
    DeliveryLevel.HOST: DeliveryLevel.RACK_PDU,
}


@dataclass(frozen=True)
class BreakerCurve:
    """Inverse-time (I²t-style) trip curve of one breaker.

    A real thermal-magnetic breaker tolerates overload in proportion to
    how far over the rating the current is: the thermal element
    accumulates heat at a rate ∝ (I/I_rated)² − 1 while overloaded and
    cools while not. This parameterization pins the curve by one
    intuitive point — how long a 2× overload is tolerated — and an
    instantaneous-trip ratio for the magnetic element.
    """

    #: Seconds of sustained 2× overload before the thermal element trips.
    trip_seconds_at_2x: float = 8.0
    #: Overload ratio at or above which the magnetic element trips
    #: instantly (one observation is enough).
    instant_trip_ratio: float = 3.0
    #: Accumulated-heat decay per second while under the rated limit,
    #: as a fraction of the trip threshold.
    cooling_per_second: float = 0.05

    def __post_init__(self) -> None:
        # Written so that NaN fails each check: a NaN curve never trips.
        if not 0.0 < self.trip_seconds_at_2x < math.inf:
            raise ConfigurationError("trip_seconds_at_2x must be positive and finite")
        if not 1.0 < self.instant_trip_ratio < math.inf:
            raise ConfigurationError("instant_trip_ratio must exceed 1.0 and be finite")
        if not 0.0 <= self.cooling_per_second < math.inf:
            raise ConfigurationError(
                "cooling_per_second must be non-negative and finite"
            )

    @property
    def heat_threshold(self) -> float:
        """Accumulated (ratio² − 1)·seconds at which the breaker trips."""
        return 3.0 * self.trip_seconds_at_2x  # 2² − 1 = 3 per second at 2×

    def trip_time_s(self, overload_ratio: float) -> float:
        """Time-to-trip under a constant ``overload_ratio`` (> 1)."""
        if overload_ratio <= 1.0:
            return float("inf")
        if overload_ratio >= self.instant_trip_ratio:
            return 0.0
        return self.heat_threshold / (overload_ratio**2 - 1.0)


class Breaker:
    """One breaker's thermal state: accumulates overload, trips once."""

    def __init__(self, curve: BreakerCurve | None = None) -> None:
        self.curve = curve if curve is not None else BreakerCurve()
        self.heat = 0.0
        self.tripped_at_s: float | None = None

    @property
    def tripped(self) -> bool:
        return self.tripped_at_s is not None

    def observe(self, now_s: float, dt_s: float, draw_watts: float, rated_watts: float) -> bool:
        """Integrate one control tick of draw; returns True on a new trip."""
        if self.tripped:
            return False
        # One comparison per tick that also rejects NaN, which would
        # poison ``heat`` for good and keep the breaker from ever tripping.
        if not dt_s >= 0.0:
            raise ConfigurationError("dt must be non-negative")
        ratio = draw_watts / rated_watts
        if ratio >= self.curve.instant_trip_ratio:
            self.tripped_at_s = now_s
            return True
        if ratio > 1.0:
            self.heat += dt_s * (ratio**2 - 1.0)
            if self.heat >= self.curve.heat_threshold:
                self.tripped_at_s = now_s
                return True
        else:
            self.heat = max(
                0.0,
                self.heat - dt_s * self.curve.cooling_per_second * self.curve.heat_threshold,
            )
        return False

    def reset(self) -> None:
        """Close the breaker again (manual re-arm after repair)."""
        self.heat = 0.0
        self.tripped_at_s = None


@dataclass
class DeliveryNode:
    """One node of the delivery tree (any level, including hosts)."""

    name: str
    level: DeliveryLevel
    rated_watts: float
    #: Budget = rated × oversubscription; what admission control sells.
    oversubscription: float = 1.0
    parent: str | None = None
    breaker: Breaker = field(default_factory=Breaker)

    def __post_init__(self) -> None:
        # NaN fails both checks: a NaN-rated breaker would never trip.
        if not 0.0 < self.rated_watts < math.inf:
            raise ConfigurationError(
                f"{self.name}: rated limit must be positive and finite"
            )
        if not 1.0 <= self.oversubscription < math.inf:
            raise ConfigurationError(
                f"{self.name}: oversubscription ratio must be >= 1.0 and finite"
            )

    @property
    def budget_watts(self) -> float:
        """The oversubscribed budget admission control grants against."""
        return self.rated_watts * self.oversubscription


class PowerDeliveryHierarchy:
    """The full five-level delivery tree, keyed by node name.

    Construction validates shape: exactly one root, every non-root
    parent exists and sits one level up, and a child's *rated* limit
    never exceeds its parent's (a breaker cannot protect a feed fatter
    than its own).
    """

    def __init__(self, nodes: Iterable[DeliveryNode]) -> None:
        self.nodes: dict[str, DeliveryNode] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ConfigurationError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        roots = [node for node in self.nodes.values() if node.parent is None]
        if len(roots) != 1:
            raise ConfigurationError(
                f"need exactly one root node, found {len(roots)}"
            )
        self.root = roots[0]
        self._children: dict[str, list[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            if node.parent is None:
                continue
            parent = self.nodes.get(node.parent)
            if parent is None:
                raise ConfigurationError(
                    f"{node.name}: parent {node.parent!r} does not exist"
                )
            expected = _PARENT_LEVEL[node.level]
            if expected is not None and parent.level is not expected:
                raise ConfigurationError(
                    f"{node.name} ({node.level.value}) must hang off a "
                    f"{expected.value}, not {parent.level.value} {parent.name!r}"
                )
            if node.rated_watts > parent.rated_watts:
                raise ConfigurationError(
                    f"{node.name}: rated {node.rated_watts:.0f} W exceeds its "
                    f"parent {parent.name!r} rating {parent.rated_watts:.0f} W "
                    "(a breaker cannot protect a feed fatter than its own)"
                )
            self._children[parent.name].append(node.name)
        self._ancestors: dict[str, tuple[str, ...]] = {}
        for name in self.nodes:
            chain = []
            cursor = self.nodes[name].parent
            while cursor is not None:
                chain.append(cursor)
                cursor = self.nodes[cursor].parent
            self._ancestors[name] = tuple(chain)
        #: The breakers' visit order, sorted once like the topology above.
        self._sorted_names = tuple(sorted(self.nodes))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> list[str]:
        """Every leaf (HOST-level) node name, sorted for determinism."""
        return sorted(
            name for name, node in self.nodes.items() if node.level is DeliveryLevel.HOST
        )

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(self._children[name])

    def ancestors(self, name: str) -> tuple[str, ...]:
        """Ancestor chain of ``name``, nearest first (excludes itself)."""
        return self._ancestors[name]

    def lineage(self, host: str) -> tuple[str, ...]:
        """The host plus every ancestor — the path a watt travels."""
        return (host, *self._ancestors[host])

    def subtree_hosts(self, name: str) -> list[str]:
        """Every HOST-level leaf under ``name`` (sorted; includes itself
        when ``name`` is a host)."""
        node = self.nodes[name]
        if node.level is DeliveryLevel.HOST:
            return [name]
        collected: list[str] = []
        for child in self._children[name]:
            collected.extend(self.subtree_hosts(child))
        return sorted(collected)

    # ------------------------------------------------------------------
    # Rollup and enforcement
    # ------------------------------------------------------------------
    def rollup(self, draw_by_host: Mapping[str, float]) -> dict[str, float]:
        """Aggregate per-host draw up the tree; returns draw per node."""
        draws = {name: 0.0 for name in self.nodes}
        for host, watts in draw_by_host.items():
            if host not in self.nodes:
                raise ConfigurationError(f"unknown host {host!r} in draw map")
            draws[host] = watts
            for ancestor in self._ancestors[host]:
                draws[ancestor] += watts
        return draws

    def worst_headroom_fraction(self, draw_by_host: Mapping[str, float]) -> float:
        """Thinnest margin to any *rated* limit: ``min (rated−draw)/rated``.

        This is the power ladder's margin axis — the analogue of
        :func:`repro.emergency.ladder.worst_margin_c`. Negative means at
        least one breaker is already overloaded and accumulating heat.
        """
        draws = self.rollup(draw_by_host)
        return min(
            (node.rated_watts - draws[name]) / node.rated_watts
            for name, node in self.nodes.items()
        )

    def observe_breakers(
        self, now_s: float, dt_s: float, draw_by_host: Mapping[str, float]
    ) -> list[str]:
        """Integrate one tick into every breaker; returns new trips.

        A tripped node's subtree is dead: callers must zero those hosts'
        draws (they stop contributing heat and revenue alike). Nodes are
        visited in sorted-name order so trip order — and therefore the
        fault timeline — is deterministic.
        """
        draws = self.rollup(draw_by_host)
        tripped: list[str] = []
        nodes = self.nodes
        for name in self._sorted_names:
            node = nodes[name]
            if any(nodes[a].breaker.tripped for a in self._ancestors[name]):
                continue  # upstream already dark; no current flows here
            if node.breaker.observe(now_s, dt_s, draws[name], node.rated_watts):
                tripped.append(name)
        return tripped

    def dead_hosts(self) -> list[str]:
        """Hosts with a tripped breaker anywhere on their lineage."""
        return sorted(
            host
            for host in self.hosts
            if any(self.nodes[n].breaker.tripped for n in self.lineage(host))
        )


def build_uniform_hierarchy(
    hosts_per_rack: int,
    racks_per_row: int,
    rows_per_ups: int = 1,
    ups_count: int = 1,
    host_rated_watts: float = 400.0,
    rack_oversubscription: float = 1.2,
    row_oversubscription: float = 1.25,
    ups_oversubscription: float = 1.15,
    substation_oversubscription: float = 1.1,
    diversity: float = 0.85,
    curve: BreakerCurve | None = None,
) -> PowerDeliveryHierarchy:
    """A regular substation → UPS → row → rack → host tree.

    Each level's rated limit is sized to ``diversity`` × the sum of its
    children's rated limits — the physical statement of oversubscription
    (the wire is thinner than the sum of its feeds). The
    ``*_oversubscription`` ratios then inflate each level's *budget*
    beyond its rating, which is the capacity-planning bet the arbiter
    polices.
    """
    if min(hosts_per_rack, racks_per_row, rows_per_ups, ups_count) < 1:
        raise ConfigurationError("every level needs at least one child")
    if not 0.0 < diversity <= 1.0:
        raise ConfigurationError("diversity must be in (0, 1]")
    make_curve = lambda: Breaker(curve)  # noqa: E731 - tiny local factory

    def derated(children: int, child_rated: float) -> float:
        # Diversity only buys thinner wire when there are peers to
        # diversify over; a single feed gets a full-rated parent.
        return child_rated * max(1.0, diversity * children)

    nodes: list[DeliveryNode] = []
    rack_rated = derated(hosts_per_rack, host_rated_watts)
    row_rated = derated(racks_per_row, rack_rated)
    ups_rated = derated(rows_per_ups, row_rated)
    sub_rated = derated(ups_count, ups_rated)
    nodes.append(
        DeliveryNode(
            "substation",
            DeliveryLevel.SUBSTATION,
            sub_rated,
            substation_oversubscription,
            breaker=make_curve(),
        )
    )
    for u in range(ups_count):
        ups = f"ups-{u}"
        nodes.append(
            DeliveryNode(
                ups,
                DeliveryLevel.UPS,
                ups_rated,
                ups_oversubscription,
                parent="substation",
                breaker=make_curve(),
            )
        )
        for r in range(rows_per_ups):
            row = f"{ups}/row-{r}"
            nodes.append(
                DeliveryNode(
                    row,
                    DeliveryLevel.ROW,
                    row_rated,
                    row_oversubscription,
                    parent=ups,
                    breaker=make_curve(),
                )
            )
            for k in range(racks_per_row):
                rack = f"{row}/rack-{k}"
                nodes.append(
                    DeliveryNode(
                        rack,
                        DeliveryLevel.RACK_PDU,
                        rack_rated,
                        rack_oversubscription,
                        parent=row,
                        breaker=make_curve(),
                    )
                )
                for h in range(hosts_per_rack):
                    nodes.append(
                        DeliveryNode(
                            f"{rack}/host-{h}",
                            DeliveryLevel.HOST,
                            host_rated_watts,
                            parent=rack,
                            breaker=make_curve(),
                        )
                    )
    return PowerDeliveryHierarchy(nodes)


__all__ = [
    "DeliveryLevel",
    "BreakerCurve",
    "Breaker",
    "DeliveryNode",
    "PowerDeliveryHierarchy",
    "build_uniform_hierarchy",
]
