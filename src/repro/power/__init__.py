"""Oversubscribed power delivery: the headroom sold twice.

The paper sells *thermal* headroom as frequency (overclocking);
prediction-based oversubscription (Kumbhare et al.) sells *electrical*
headroom as packed VMs. An immersion-cooled, overclocked fleet sells
the same headroom twice, and the power-delivery hierarchy is where the
two sales collide: every host, rack PDU, row, UPS, and substation
carries a rated limit, an oversubscribed budget, and a breaker with an
inverse-time trip curve.

This package models the collision and the machinery that survives it:

* :mod:`repro.power.tree` — the five-level delivery hierarchy, breaker
  trip curves, rollups, and headroom queries;
* :mod:`repro.power.predictor` — per-VM peak-power prediction from
  workload-class priors and online percentile estimation;
* :mod:`repro.power.arbiter` — the single gatekeeper clearing VM
  admissions and overclock grants against every tree level;
* :mod:`repro.power.ladder` — the staged power-emergency ladder (cap →
  revoke → shed → isolate) on the shared
  :class:`~repro.emergency.StagedLadder` machinery.

The crisis experiment racing naive vs arbitrated fleets is
:mod:`repro.experiments.oversubscription_crisis`.
"""

from .arbiter import ARBITER_DENIED, GrantDecision, PowerBudgetArbiter
from .ladder import (
    POWER_ESCALATE,
    POWER_RELAX,
    PowerEmergencyCoordinator,
    PowerEmergencyStage,
    PowerLadderConfig,
)
from .predictor import DEFAULT_PRIORS, PeakPowerPredictor, WorkloadClassPrior
from .tree import (
    Breaker,
    BreakerCurve,
    DeliveryLevel,
    DeliveryNode,
    PowerDeliveryHierarchy,
    build_uniform_hierarchy,
)

__all__ = [
    "ARBITER_DENIED",
    "Breaker",
    "BreakerCurve",
    "DEFAULT_PRIORS",
    "DeliveryLevel",
    "DeliveryNode",
    "GrantDecision",
    "POWER_ESCALATE",
    "POWER_RELAX",
    "PeakPowerPredictor",
    "PowerBudgetArbiter",
    "PowerDeliveryHierarchy",
    "PowerEmergencyCoordinator",
    "PowerEmergencyStage",
    "PowerLadderConfig",
    "WorkloadClassPrior",
    "build_uniform_hierarchy",
]
