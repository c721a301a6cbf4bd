"""Live service mode: the simulator as a long-running, operable system.

Every prior robustness layer — fault injection, fail-safe telemetry,
unreliable actuation, facility emergencies, power oversubscription —
was exercised by *batch* experiments. This package gives them a live
surface: a control-plane process (``python -m repro serve``) that
advances the fleet continuously on a wall-clock-decoupled tick loop,
ingests trace-driven diurnal request load into the M/G/k queueing
workload, and serves HTTP endpoints for telemetry, streaming metrics,
and operator actions.

The robustness core is the overload-control stack:

* :mod:`repro.service.admission` — token-bucket admission control with
  per-priority-class limits;
* :mod:`repro.service.backlog` — bounded request queues with deadline
  propagation, timeout shedding, and a CoDel-style queue-delay
  controller;
* :mod:`repro.service.brownout` — the staged brownout ladder (shed
  low-priority → revoke boost → serve degraded → reject at admission)
  built on the same :class:`~repro.emergency.ladder.StagedLadder`
  machinery as the thermal and power emergencies;
* :mod:`repro.service.core` — the deterministic tick core that ties the
  stack to the fleet, the shared tank, the command bus, and the
  emergency coordinator;
* :mod:`repro.service.checkpoint` — the fsync'd
  :class:`~repro.engine.journal.RunJournal`-backed service WAL that
  makes a SIGKILL'd server resume with bit-identical tick signatures;
* :mod:`repro.service.server` — the asyncio HTTP shell, imported on
  first use of ``ServiceServer`` or ``serve``: the core, the WAL and
  the batch experiments never load asyncio.
"""

from .admission import AdmissionController, PriorityClass, TokenBucket
from .backlog import BoundedDeadlineQueue, QueueDelayController, Request
from .brownout import BrownoutConfig, BrownoutLadder, BrownoutStage
from .checkpoint import ServiceSession, service_wal_path
from .core import ServiceConfig, ServiceCore, TickSample

#: Names resolved from :mod:`repro.service.server` on first access.
_SERVER_NAMES = ("ServiceServer", "serve")


def __getattr__(name: str):
    if name in _SERVER_NAMES:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissionController",
    "PriorityClass",
    "TokenBucket",
    "BoundedDeadlineQueue",
    "QueueDelayController",
    "Request",
    "BrownoutConfig",
    "BrownoutLadder",
    "BrownoutStage",
    "ServiceSession",
    "service_wal_path",
    "ServiceConfig",
    "ServiceCore",
    "TickSample",
    "ServiceServer",
    "serve",
]
