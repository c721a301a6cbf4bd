"""The brownout ladder: staged service degradation under overload.

Overload has the same shape as a facility emergency — a shared margin
collapses and per-request protections fire too late — so the brownout
ladder is built on the exact :class:`~repro.emergency.ladder.StagedLadder`
machinery the thermal and power-delivery emergencies use. The margin
here is **SLO headroom**: the latency SLO minus the CoDel-style queue
delay signal, in seconds. As the standing queue grows the headroom
shrinks and the ladder walks its rungs, cheapest mitigation first:

1. **SHED_LOW_PRIORITY** — stop admitting batch work and drop what is
   already queued; interactive traffic keeps its budget.
2. **REVOKE_BOOST** — give back the overclock grants. Boost watts are
   heat the shared tank must move; under a combined demand+thermal
   storm the boost is the first thing the thermal ladder would take
   anyway, and volunteering it keeps the two ladders from fighting.
3. **DEGRADED_RESPONSES** — serve cheaper variants (lower service
   demand per request) so the fleet's remaining capacity covers more
   of the offered load.
4. **REJECT_ADMISSION** — refuse everything but critical traffic at
   the door.

Relaxation inherits the hysteresis and clean-tick discipline of the
shared ladder, so headroom oscillating around a threshold cannot flap
admissions on and off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

from ..emergency.ladder import StagedLadder
from ..errors import ConfigurationError
from ..telemetry.counters import ServiceCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.timeline import FaultTimeline

#: Timeline kind recorded when the brownout ladder steps up one rung.
BROWNOUT_ESCALATE = "brownout-escalate"

#: Timeline kind recorded when the brownout ladder steps down one rung.
BROWNOUT_RELAX = "brownout-relax"


class BrownoutStage(IntEnum):
    """Brownout rungs, ordered by severity (and customer impact)."""

    NORMAL = 0
    SHED_LOW_PRIORITY = 1
    REVOKE_BOOST = 2
    DEGRADED_RESPONSES = 3
    REJECT_ADMISSION = 4


@dataclass(frozen=True)
class BrownoutConfig:
    """SLO-headroom thresholds and hysteresis of the brownout ladder.

    Margins are ``slo_s - delay_signal`` in seconds. A rung engages
    when the headroom falls to its threshold or below; thresholds must
    be finite and strictly decreasing down the ladder.
    """

    #: The latency SLO the ladder defends (p99, seconds).
    slo_s: float = 0.40
    #: Headroom at or below which batch work is shed.
    shed_headroom_s: float = 0.30
    #: Headroom at or below which overclock boosts are revoked.
    revoke_headroom_s: float = 0.24
    #: Headroom at or below which responses degrade.
    degraded_headroom_s: float = 0.18
    #: Headroom at or below which admission rejects non-critical work.
    reject_headroom_s: float = 0.10
    #: Extra headroom required before a tick counts as clean.
    hysteresis_s: float = 0.04
    #: Consecutive clean ticks before the ladder steps down one rung.
    relax_clean_ticks: int = 3

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it: a NaN threshold
        # would pass every ordering comparison below.
        if not 0.0 < self.slo_s < math.inf:
            raise ConfigurationError("latency SLO must be positive and finite")
        rungs = (
            self.shed_headroom_s,
            self.revoke_headroom_s,
            self.degraded_headroom_s,
            self.reject_headroom_s,
        )
        if not all(-math.inf < rung < math.inf for rung in rungs):
            raise ConfigurationError("brownout thresholds must be finite")
        if any(lower >= upper for upper, lower in zip(rungs, rungs[1:])):
            raise ConfigurationError(
                "brownout thresholds must be strictly decreasing "
                "(shed > revoke > degraded > reject)"
            )
        if self.slo_s <= self.shed_headroom_s:
            raise ConfigurationError("the SLO must exceed the first rung's headroom")
        if not 0.0 < self.hysteresis_s < math.inf:
            raise ConfigurationError("hysteresis must be positive and finite")
        if not 1 <= self.relax_clean_ticks < math.inf:
            raise ConfigurationError("relax_clean_ticks must be at least 1")

    def thresholds(self) -> dict[BrownoutStage, float]:
        return {
            BrownoutStage.SHED_LOW_PRIORITY: self.shed_headroom_s,
            BrownoutStage.REVOKE_BOOST: self.revoke_headroom_s,
            BrownoutStage.DEGRADED_RESPONSES: self.degraded_headroom_s,
            BrownoutStage.REJECT_ADMISSION: self.reject_headroom_s,
        }


def _format_headroom(margin: float) -> str:
    """Deterministic margin rendering for timeline records."""
    return f"headroom={margin:.3f}s"


class BrownoutLadder(StagedLadder):
    """Walks the brownout rungs against the current SLO headroom.

    Wire rung actions with :meth:`register`, then call :meth:`observe`
    once per control tick with ``slo_s - delay_signal``. Counter
    accounting lands in the shared :class:`ServiceCounters` so the
    telemetry endpoint tells one integrated story.
    """

    def __init__(
        self,
        config: BrownoutConfig | None = None,
        counters: ServiceCounters | None = None,
        timeline: "FaultTimeline | None" = None,
    ) -> None:
        self.config = config if config is not None else BrownoutConfig()
        super().__init__(
            stages=BrownoutStage,
            thresholds=self.config.thresholds(),
            hysteresis=self.config.hysteresis_s,
            relax_clean_ticks=self.config.relax_clean_ticks,
            timeline=timeline,
            escalate_kind=BROWNOUT_ESCALATE,
            relax_kind=BROWNOUT_RELAX,
            margin_format=_format_headroom,
        )
        self.counters = counters if counters is not None else ServiceCounters()

    def headroom(self, delay_signal_s: float) -> float:
        """Convert a delay signal into the ladder's margin."""
        return self.config.slo_s - delay_signal_s

    def _on_escalate(self, stage: IntEnum) -> None:
        self.counters.brownout_escalations += 1

    def _on_relax(self, released: IntEnum) -> None:
        self.counters.brownout_relaxations += 1

    def _on_tick(self) -> None:
        if self.emergency:
            self.counters.brownout_ticks += 1


__all__ = [
    "BROWNOUT_ESCALATE",
    "BROWNOUT_RELAX",
    "BrownoutStage",
    "BrownoutConfig",
    "BrownoutLadder",
]
