"""Staged emergency degradation ladders (thermal and otherwise).

When a *shared* resource fails — condenser pumps lost, a heat wave
collapsing the condenser's approach temperature, a row breaker about to
trip — every host under it degrades together, and per-host protections
(RAPL, Tjmax trip) fire too late and too hard: they either do nothing
until the shared pool is already gone or they crash-stop hosts and take
the VMs with them.

:class:`StagedLadder` is the reusable middle path: a hysteretic state
machine over one scalar *margin* (distance from disaster, in whatever
unit the domain measures it) that walks an ordered set of rungs,
cheapest mitigation first. Escalation is immediate — a fast transient
can cross several rungs in one control tick and every crossed rung's
action fires. Relaxation is deliberate: the margin must clear the
current rung's threshold by a hysteresis band for a number of
consecutive clean ticks, and the ladder steps down one rung at a time,
so a margin oscillating around a threshold cannot flap actions.

:class:`EmergencyCoordinator` is the thermal specialization built on it
(margin = ``Tjmax - Tj`` of the fleet's hottest junction, in °C):

1. **REVOKE_OVERCLOCK** — drop every overclock grant back to base
   frequency (issued at *emergency* priority so an open circuit breaker
   cannot veto the revoke).
2. **POWER_CAP** — fleet-wide per-host power cap; every watt saved is
   heat the crippled condenser no longer has to move.
3. **EVACUATE** — live-migrate VMs off the hottest hosts to reserve
   capacity while they can still run.
4. **SHUTDOWN** — controlled power-off of the (now empty) hottest hosts
   before any junction reaches Tjmax.

The coordinator mirrors its state into
:class:`~repro.reliability.safety.SafetySupervisor` (facility emergency
is a first-class degraded state: no overclock grants, no recovery
boosts, no scale-in) and counts everything in
:class:`~repro.telemetry.counters.EmergencyCounters`. The power-delivery
specialization lives in :mod:`repro.power.ladder` and shares every line
of the escalation/relaxation machinery through :class:`StagedLadder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..errors import ConfigurationError
from ..telemetry.counters import EmergencyCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.timeline import FaultEvent, FaultTimeline
    from ..reliability.safety import SafetySupervisor

#: Timeline kind recorded when the thermal ladder steps up one rung.
EMERGENCY_ESCALATE = "emergency-escalate"

#: Timeline kind recorded when the thermal ladder steps down one rung.
EMERGENCY_RELAX = "emergency-relax"


class EmergencyStage(IntEnum):
    """Thermal ladder rungs, ordered by severity (and customer cost)."""

    NORMAL = 0
    REVOKE_OVERCLOCK = 1
    POWER_CAP = 2
    EVACUATE = 3
    SHUTDOWN = 4


@dataclass(frozen=True)
class LadderConfig:
    """Thermal-margin thresholds and hysteresis of the ladder.

    Margins are ``Tjmax - Tj`` of the fleet's hottest junction, in °C.
    A stage engages when the margin falls to its threshold or below;
    thresholds must therefore be finite and strictly decreasing down the
    ladder.
    """

    #: Margin at or below which overclock grants are revoked.
    revoke_margin_c: float = 25.0
    #: Margin at or below which the fleet-wide power cap engages.
    cap_margin_c: float = 20.0
    #: Margin at or below which VMs evacuate the hottest hosts.
    evacuate_margin_c: float = 15.0
    #: Margin at or below which the hottest hosts shut down.
    shutdown_margin_c: float = 10.0
    #: Extra margin (beyond the current rung's threshold) required
    #: before a tick counts as clean for relaxation.
    hysteresis_c: float = 3.0
    #: Consecutive clean ticks before the ladder steps down one rung.
    relax_clean_ticks: int = 3

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it: a NaN margin would
        # pass the ordering comparison.
        rungs = (
            self.revoke_margin_c,
            self.cap_margin_c,
            self.evacuate_margin_c,
            self.shutdown_margin_c,
        )
        if not all(-math.inf < rung < math.inf for rung in rungs):
            raise ConfigurationError("ladder margins must be finite")
        if any(lower >= upper for upper, lower in zip(rungs, rungs[1:])):
            raise ConfigurationError(
                "ladder margins must be strictly decreasing "
                "(revoke > cap > evacuate > shutdown)"
            )
        if not 0.0 < self.hysteresis_c < math.inf:
            raise ConfigurationError("hysteresis must be positive and finite")
        if not 1 <= self.relax_clean_ticks < math.inf:
            raise ConfigurationError("relax_clean_ticks must be at least 1")

    def margin_for(self, stage: EmergencyStage) -> float:
        """The engage threshold of ``stage`` (not defined for NORMAL)."""
        if stage is EmergencyStage.NORMAL:
            raise ConfigurationError("NORMAL has no engage threshold")
        return {
            EmergencyStage.REVOKE_OVERCLOCK: self.revoke_margin_c,
            EmergencyStage.POWER_CAP: self.cap_margin_c,
            EmergencyStage.EVACUATE: self.evacuate_margin_c,
            EmergencyStage.SHUTDOWN: self.shutdown_margin_c,
        }[stage]


@dataclass(frozen=True)
class StageActions:
    """What to do when a rung engages, and how to undo it on the way up.

    Both callables return a short deterministic description that lands
    in the fault timeline (and therefore in the run signature) — no
    object ids, no wall-clock times.
    """

    engage: Callable[[], str]
    release: Callable[[], str] | None = None


#: Per-stage counter attribute on :class:`EmergencyCounters`.
_STAGE_COUNTER = {
    EmergencyStage.REVOKE_OVERCLOCK: "overclock_revokes",
    EmergencyStage.POWER_CAP: "power_caps",
    EmergencyStage.EVACUATE: "evacuations",
    EmergencyStage.SHUTDOWN: "shutdowns",
}


def worst_margin_c(tj_by_host: Mapping[str, float], tjmax_c: float) -> float:
    """The fleet's thinnest thermal margin: ``min(Tjmax - Tj)``.

    An empty map means no host is dissipating — margin is unbounded.
    """
    if not tj_by_host:
        return float("inf")
    return min(tjmax_c - tj for tj in tj_by_host.values())


class StagedLadder:
    """Hysteretic staged-degradation machine over one scalar margin.

    The domain supplies the stage enum (member 0 = normal, members
    strictly increasing in severity), a strictly decreasing engage
    threshold per actionable stage, timeline kinds for the two
    transition directions, and a deterministic margin renderer. Wire
    stage actions with :meth:`register`, then call :meth:`observe` once
    per control tick with the current margin.

    Subclasses hook :meth:`_on_escalate` / :meth:`_on_relax` for
    domain-specific counters; the escalation, hysteresis, and bounded
    re-arm logic is shared verbatim between the thermal
    :class:`EmergencyCoordinator` and the power-delivery ladder in
    :mod:`repro.power.ladder`.
    """

    def __init__(
        self,
        stages: type[IntEnum],
        thresholds: Mapping[IntEnum, float],
        hysteresis: float,
        relax_clean_ticks: int,
        timeline: "FaultTimeline | None" = None,
        escalate_kind: str = "escalate",
        relax_kind: str = "relax",
        margin_format: Callable[[float], str] | None = None,
    ) -> None:
        members = list(stages)
        if not members or members[0] != 0:
            raise ConfigurationError("stage enum must start at a NORMAL member 0")
        actionable = members[1:]
        if [int(stage) for stage in members] != list(range(len(members))):
            raise ConfigurationError("stage enum members must be consecutive integers")
        if set(thresholds) != set(actionable):
            raise ConfigurationError(
                "thresholds must cover every actionable stage exactly once"
            )
        ordered = [thresholds[stage] for stage in actionable]
        if any(lower >= upper for upper, lower in zip(ordered, ordered[1:])):
            raise ConfigurationError(
                "ladder thresholds must be strictly decreasing with severity"
            )
        if hysteresis <= 0:
            raise ConfigurationError("hysteresis must be positive")
        if relax_clean_ticks < 1:
            raise ConfigurationError("relax_clean_ticks must be at least 1")
        self.stages = stages
        self.thresholds = dict(thresholds)
        self.hysteresis = hysteresis
        self.relax_clean_ticks = relax_clean_ticks
        self.timeline = timeline
        self.escalate_kind = escalate_kind
        self.relax_kind = relax_kind
        self.margin_format = (
            margin_format if margin_format is not None else lambda m: f"margin={m:.3g}"
        )
        self.stage = stages(0)
        self._normal = stages(0)
        self._deepest = members[-1]
        #: Members by value (validated consecutive from 0): the next rung
        #: is an index, not an enum lookup, on every tick.
        self._members = tuple(members)
        self._clean_streak = 0
        self._actions: dict[IntEnum, StageActions] = {}

    @property
    def emergency(self) -> bool:
        """True while any rung of the ladder is engaged."""
        return self.stage is not self._normal

    def register(
        self,
        stage: IntEnum,
        engage: Callable[[], str],
        release: Callable[[], str] | None = None,
    ) -> None:
        """Attach the engage (and optional release) action of one rung."""
        if stage == self._normal:
            raise ConfigurationError("NORMAL is not an actionable stage")
        self._actions[self.stages(stage)] = StageActions(engage=engage, release=release)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def observe(self, time_s: float, margin: float) -> IntEnum:
        """Fold one control tick's margin into the ladder."""
        escalated = False
        while self.stage is not self._deepest:
            nxt = self._members[self.stage + 1]
            if margin > self.thresholds[nxt]:
                break
            self._escalate(time_s, nxt, margin)
            escalated = True
        if self.emergency and not escalated:
            clear = self.thresholds[self.stage] + self.hysteresis
            if margin >= clear:
                self._clean_streak += 1
                if self._clean_streak >= self.relax_clean_ticks:
                    self._relax(time_s, margin)
                    self._clean_streak = 0
            else:
                self._clean_streak = 0
        self._on_tick()
        return self.stage

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _on_escalate(self, stage: IntEnum) -> None:
        """Called after the ladder stepped up to ``stage``."""

    def _on_relax(self, released: IntEnum) -> None:
        """Called after the ladder released ``released`` and stepped down."""

    def _on_tick(self) -> None:
        """Called at the end of every :meth:`observe`."""

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _escalate(self, time_s: float, stage: IntEnum, margin: float) -> None:
        self.stage = stage
        self._clean_streak = 0
        actions = self._actions.get(stage)
        outcome = actions.engage() if actions is not None else "no action wired"
        self._on_escalate(stage)
        if self.timeline is not None:
            self.timeline.record(
                time_s,
                self.escalate_kind,
                stage.name.lower(),
                f"{self.margin_format(margin)} {outcome}",
            )

    def _relax(self, time_s: float, margin: float) -> None:
        released = self.stage
        actions = self._actions.get(released)
        outcome = "released"
        if actions is not None and actions.release is not None:
            outcome = actions.release()
        self.stage = self.stages(released - 1)
        self._on_relax(released)
        if self.timeline is not None:
            self.timeline.record(
                time_s,
                self.relax_kind,
                released.name.lower(),
                f"{self.margin_format(margin)} {outcome}",
            )


def max_stage(
    timeline: Iterable[FaultEvent], stages: type[IntEnum], escalate_kind: str
) -> int:
    """Deepest rung a ladder reached (0 = never escalated), read from the
    ``escalate_kind`` records :class:`StagedLadder` writes into a run's
    timeline."""
    by_name = {stage.name.lower(): int(stage) for stage in stages}
    return max(
        (by_name.get(event.target, 0) for event in timeline if event.kind == escalate_kind),
        default=0,
    )


class EmergencyCoordinator(StagedLadder):
    """Walks the thermal degradation ladder against the worst margin.

    Wire stage actions with :meth:`register`, then call :meth:`observe`
    once per control tick with the current worst margin (``Tjmax - Tj``
    of the hottest junction, °C). Escalation fires every crossed rung's
    ``engage`` immediately; relaxation releases one rung at a time after
    the hysteresis clears.
    """

    def __init__(
        self,
        config: LadderConfig | None = None,
        safety: "SafetySupervisor | None" = None,
        timeline: "FaultTimeline | None" = None,
        counters: EmergencyCounters | None = None,
    ) -> None:
        self.config = config if config is not None else LadderConfig()
        super().__init__(
            stages=EmergencyStage,
            thresholds={
                stage: self.config.margin_for(stage)
                for stage in EmergencyStage
                if stage is not EmergencyStage.NORMAL
            },
            hysteresis=self.config.hysteresis_c,
            relax_clean_ticks=self.config.relax_clean_ticks,
            timeline=timeline,
            escalate_kind=EMERGENCY_ESCALATE,
            relax_kind=EMERGENCY_RELAX,
            margin_format=lambda margin: f"margin={margin:.1f}C",
        )
        self.safety = safety
        self.counters = counters if counters is not None else EmergencyCounters()

    def observe(self, time_s: float, margin_c: float) -> EmergencyStage:
        """Fold one control tick's worst thermal margin into the ladder."""
        stage = super().observe(time_s, margin_c)
        if self.safety is not None:
            self.safety.observe_facility(
                time_s,
                self.emergency,
                detail=f"ladder stage {self.stage.name} margin={margin_c:.1f}C",
            )
        return stage

    def _on_escalate(self, stage: IntEnum) -> None:
        self.counters.escalations += 1
        counter = _STAGE_COUNTER[EmergencyStage(stage)]
        setattr(self.counters, counter, getattr(self.counters, counter) + 1)

    def _on_relax(self, released: IntEnum) -> None:
        self.counters.relaxations += 1
        if self.stage is EmergencyStage.NORMAL:
            self.counters.rearms += 1

    def _on_tick(self) -> None:
        if self.emergency:
            self.counters.emergency_ticks += 1


__all__ = [
    "EMERGENCY_ESCALATE",
    "EMERGENCY_RELAX",
    "EmergencyStage",
    "LadderConfig",
    "StageActions",
    "StagedLadder",
    "EmergencyCoordinator",
    "max_stage",
    "worst_margin_c",
]
