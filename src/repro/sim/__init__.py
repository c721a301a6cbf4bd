"""Deterministic discrete-event simulation kernel.

This subpackage is the substrate under every closed-loop experiment in the
library: the cluster model, the M/G/k client-server application, and the
overclocking-enhanced auto-scaler all schedule their work through a
:class:`~repro.sim.kernel.Simulator`.
"""

from .events import Event, EventQueue
from .kernel import Simulator
from .processes import OpenLoopSource, PiecewiseSchedule, ScheduleStep
from .random import RandomStreams, split_seed

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "OpenLoopSource",
    "PiecewiseSchedule",
    "ScheduleStep",
    "RandomStreams",
    "split_seed",
]
