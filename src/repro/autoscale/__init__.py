"""The paper's core contribution: the overclocking-enhanced auto-scaler.

Implements Equation 1 (the Aperf/Pperf frequency-scaling law), the
Section VI-D policy configuration, and the closed-loop controller with
its three modes (Baseline, OC-E, OC-A) evaluated in Figures 15–16 and
Table XI.
"""

from .controller import AutoScaler, AutoScalerResult
from .model import (
    minimum_frequency_below,
    predicted_utilization,
    utilization_headroom_frequency,
)
from .policy import PAPER_POLICY, AutoscalePolicy, ScalerMode

__all__ = [
    "AutoScaler",
    "AutoScalerResult",
    "predicted_utilization",
    "minimum_frequency_below",
    "utilization_headroom_frequency",
    "AutoscalePolicy",
    "ScalerMode",
    "PAPER_POLICY",
]
