"""Wear-out counters and lifetime-credit accounting (paper Section IV).

The fab's lifetime model assumes worst-case utilization, so
"moderately-utilized servers will accumulate lifetime credit. Such
servers can be overclocked beyond the 23% frequency boost … but the
extent and duration … has to be balanced against the impact on
lifetime." The paper says Microsoft is working with manufacturers to
expose wear-out counters; this module implements that proposed counter.

:class:`WearoutCounter` integrates damage (fraction-of-life consumed)
over operating segments. Damage accrues at the condition-dependent rate
scaled by utilization relative to the worst case; credit is the gap
between rated damage and accrued damage, and can be spent on
overclocked segments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, ReliabilityError
from ..units import hours_to_years
from .failure_modes import OperatingCondition
from .lifetime import CompositeLifetimeModel, RATED_LIFETIME_YEARS


@dataclass(frozen=True)
class WearSegment:
    """One recorded operating interval."""

    hours: float
    condition: OperatingCondition
    utilization: float
    damage: float


class WearoutCounter:
    """Accumulates fractional lifetime damage across operating segments.

    ``utilization_floor`` keeps some damage accruing even when idle —
    leakage, standby stress, and thermal cycling do not stop when the
    server idles.
    """

    def __init__(
        self,
        model: CompositeLifetimeModel | None = None,
        rated_lifetime_years: float = RATED_LIFETIME_YEARS,
        utilization_floor: float = 0.3,
    ) -> None:
        if rated_lifetime_years <= 0:
            raise ConfigurationError("rated lifetime must be positive")
        if not 0.0 <= utilization_floor <= 1.0:
            raise ConfigurationError("utilization floor must be within [0, 1]")
        self._model = model if model is not None else CompositeLifetimeModel()
        self._rated_years = rated_lifetime_years
        self._floor = utilization_floor
        self._damage = 0.0
        self._hours = 0.0
        self._segments: list[WearSegment] = []

    @property
    def model(self) -> CompositeLifetimeModel:
        return self._model

    @property
    def damage(self) -> float:
        """Fraction of total life consumed (0 = new, 1 = worn out)."""
        return self._damage

    @property
    def segments(self) -> tuple[WearSegment, ...]:
        return tuple(self._segments)

    def record(
        self, hours: float, condition: OperatingCondition, utilization: float = 1.0
    ) -> float:
        """Account ``hours`` at ``condition``; returns the damage added.

        Damage for the segment is::

            hours/ L(condition) × (floor + (1−floor)·utilization)

        so a worst-case-utilized segment matches the fab model exactly
        and an idle segment accrues the floor share.
        """
        if hours < 0:
            raise ConfigurationError("hours must be non-negative")
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be within [0, 1]")
        lifetime_years = self._model.lifetime_years(condition)
        scale = self._floor + (1.0 - self._floor) * utilization
        damage = hours_to_years(hours) / lifetime_years * scale
        self._damage += damage
        self._hours += hours
        self._segments.append(
            WearSegment(hours=hours, condition=condition, utilization=utilization, damage=damage)
        )
        return damage

    def rated_damage(self) -> float:
        """Damage a worst-case server would have accrued by now."""
        return hours_to_years(self._hours) / self._rated_years

    def lifetime_credit(self) -> float:
        """Damage budget banked vs the worst-case schedule (can be < 0)."""
        return self.rated_damage() - self._damage

    def remaining_years_at(self, condition: OperatingCondition, utilization: float = 1.0) -> float:
        """Years until worn out if held at ``condition`` from now on."""
        remaining_budget = 1.0 - self._damage
        if remaining_budget <= 0:
            return 0.0
        lifetime_years = self._model.lifetime_years(condition)
        scale = self._floor + (1.0 - self._floor) * utilization
        if scale <= 0:
            raise ReliabilityError("damage scale must be positive")
        return remaining_budget * lifetime_years / scale

    def affordable_overclock_hours(
        self,
        overclocked: OperatingCondition,
        nominal: OperatingCondition,
        utilization: float = 1.0,
    ) -> float:
        """Hours of overclocking the banked credit can pay for.

        Spending credit means running at the overclocked condition's
        *extra* damage rate (over nominal) until the bank is empty.
        """
        credit = self.lifetime_credit()
        if credit <= 0:
            return 0.0
        scale = self._floor + (1.0 - self._floor) * utilization
        oc_rate = scale / self._model.lifetime_years(overclocked)
        nominal_rate = scale / self._model.lifetime_years(nominal)
        extra_rate_per_year = oc_rate - nominal_rate
        if extra_rate_per_year <= 0:
            return float("inf")
        years = credit / extra_rate_per_year
        return years * 8766.0


__all__ = ["WearoutCounter", "WearSegment"]
