"""High-performance VM offerings (paper Section V, Figure 5).

The first use-case: "a provider could offer new high-performance VM
classes that run at even higher frequencies". Figure 5 splits the
immersion frequency range into a **green band** (up to +23% over turbo;
no lifetime impact in HFE-7000) and a **red band** (> 25%; runs on
lifetime credit and needs explicit budgeting).

:class:`HighPerformanceSKU` defines the offering;
:class:`RedBandSession` accounts a red-band burst against a wear-out
counter so the provider spends banked lifetime credit deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, ReliabilityError
from ..reliability.failure_modes import OperatingCondition
from ..reliability.wearout import WearoutCounter
from ..silicon.domains import OperatingDomains


class Band:
    """Frequency band labels for Figure 5."""

    BASE = "base"
    TURBO = "turbo"
    GREEN = "green"
    RED = "red"


#: Green band ceiling: the paper's stable, lifetime-neutral +23%.
GREEN_BAND_CEILING_RATIO = 1.23

#: Red band floor (the paper: "> 25% frequency increase").
RED_BAND_FLOOR_RATIO = 1.25


@dataclass(frozen=True)
class HighPerformanceSKU:
    """A sellable VM class pinned to a frequency band."""

    name: str
    vcores: int
    band: str
    #: Frequency as a ratio over all-core turbo.
    frequency_ratio: float
    price_multiplier: float

    def __post_init__(self) -> None:
        if self.vcores < 1:
            raise ConfigurationError("SKU needs at least one vcore")
        if self.band not in (Band.BASE, Band.TURBO, Band.GREEN, Band.RED):
            raise ConfigurationError(f"unknown band {self.band!r}")
        if self.band == Band.GREEN and not 1.0 < self.frequency_ratio <= GREEN_BAND_CEILING_RATIO:
            raise ConfigurationError(
                f"green-band SKUs must sit in (1.0, {GREEN_BAND_CEILING_RATIO}]"
            )
        if self.band == Band.RED and self.frequency_ratio < RED_BAND_FLOOR_RATIO:
            raise ConfigurationError(
                f"red-band SKUs start at {RED_BAND_FLOOR_RATIO}x"
            )
        if self.price_multiplier < 1.0:
            raise ConfigurationError("high-performance SKUs price at or above base")

    def frequency_ghz(self, domains: OperatingDomains) -> float:
        """Concrete clock for a processor's domain definition."""
        frequency = domains.turbo_ghz * self.frequency_ratio
        if frequency > domains.overclock_max_ghz:
            raise ConfigurationError(
                f"{self.name}: {frequency:.2f} GHz exceeds the part's "
                f"{domains.overclock_max_ghz:.2f} GHz ceiling"
            )
        return frequency


#: A reference SKU line-up for examples and tests.
STANDARD_SKU = HighPerformanceSKU("standard", 4, Band.TURBO, 1.0, 1.0)
GREEN_SKU = HighPerformanceSKU("hp-green", 4, Band.GREEN, 1.20, 1.25)
RED_SKU = HighPerformanceSKU("hp-red", 4, Band.RED, 1.28, 1.60)


class RedBandSession:
    """A bounded red-band burst paid for with lifetime credit.

    The provider opens a session with a damage budget (a slice of the
    host's banked credit), records red-band hours against it, and the
    session refuses to continue once the budget is spent — "the extent
    and duration of this additional overclocking has to be balanced
    against the impact on lifetime".
    """

    def __init__(
        self,
        counter: WearoutCounter,
        red_condition: OperatingCondition,
        nominal_condition: OperatingCondition,
        budget_fraction_of_credit: float = 0.5,
    ) -> None:
        if not 0.0 < budget_fraction_of_credit <= 1.0:
            raise ConfigurationError("budget fraction must be in (0, 1]")
        credit = counter.lifetime_credit()
        if credit <= 0:
            raise ReliabilityError(
                "no lifetime credit banked; red-band operation is not affordable"
            )
        self._counter = counter
        self._red = red_condition
        self._nominal = nominal_condition
        self._budget = credit * budget_fraction_of_credit
        self._spent = 0.0

    @property
    def remaining_damage(self) -> float:
        return self._budget - self._spent

    def affordable_hours(self, utilization: float = 1.0) -> float:
        """Red-band hours the remaining budget can pay for."""
        rate = self._extra_damage_per_hour(utilization)
        if rate <= 0:
            return float("inf")
        return self.remaining_damage / rate

    def _extra_damage_per_hour(self, utilization: float) -> float:
        model = self._counter.model
        red_rate = 1.0 / model.lifetime_years(self._red)
        nominal_rate = 1.0 / model.lifetime_years(self._nominal)
        return max(0.0, (red_rate - nominal_rate) / 8766.0) * utilization

    def record(self, hours: float, utilization: float = 1.0) -> float:
        """Account ``hours`` of red-band operation; returns damage spent.

        Raises :class:`ReliabilityError` when the burst would exceed the
        session budget — the caller must drop back to the green band.
        """
        if hours < 0:
            raise ConfigurationError("hours must be non-negative")
        cost = self._extra_damage_per_hour(utilization) * hours
        if self._spent + cost > self._budget + 1e-12:
            raise ReliabilityError(
                f"red-band burst of {hours:.1f} h needs {cost:.5f} damage but only "
                f"{self.remaining_damage:.5f} remains in the session budget"
            )
        self._spent += cost
        self._counter.record(hours, self._red, utilization)
        return cost


__all__ = [
    "Band",
    "HighPerformanceSKU",
    "RedBandSession",
    "STANDARD_SKU",
    "GREEN_SKU",
    "RED_SKU",
    "GREEN_BAND_CEILING_RATIO",
    "RED_BAND_FLOOR_RATIO",
]
