"""Golden pins for the naive-vs-robust ladder experiments.

``tests/golden/ladders.json`` pins, at seeds 1, 2 and 7, one comparison
of each experiment the ``ladder-campaign`` benchmark runs:

* ``run_degraded_telemetry``: every controller outcome (naive and
  fail-safe per sensor-fault kind, and the total-loss run) plus the
  result's own scalars;
* ``run_partition_recovery``, ``run_envelope_rollout``,
  ``run_oversubscription_crisis``, ``run_sdc_hunt`` and
  ``run_heatwave_ride_through``: both arms' run results.

Every field is held as its exact ``repr``. The timeline tuples are left
out: each run result carries its ``timeline_signature`` (and, where it
has one, its ``run_signature``), which hash them.

The ``reports`` section holds the SHA-256 of each seeded comparison's
rendered text, ``format_X(run_X(seed=s))``, for the six above plus
``overload`` and ``recovery`` (the latter on a shrunk DES, see
``RECOVERY_SHRUNK``), so the listings and tables the CLI prints are
pinned byte for byte as well.

``tests/test_golden_ladders.py`` recomputes the pins and diffs them
against the file; it never writes it. Regenerate (and review the diff)
with ``make golden``, i.e. ``PYTHONPATH=src python tests/golden/ladders_pins.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from repro.experiments.degraded_telemetry import (
    format_degraded_telemetry,
    run_degraded_telemetry,
)
from repro.experiments.envelope_rollout import (
    format_envelope_rollout,
    run_envelope_rollout,
)
from repro.experiments.failure_recovery import (
    format_failure_recovery,
    run_failure_recovery,
)
from repro.experiments.heatwave_ride_through import (
    format_heatwave_ride_through,
    run_heatwave_ride_through,
)
from repro.experiments.overload_storm import format_overload_storm, run_overload_storm
from repro.experiments.oversubscription_crisis import (
    format_oversubscription_crisis,
    run_oversubscription_crisis,
)
from repro.experiments.partition_recovery import (
    format_partition_recovery,
    run_partition_recovery,
)
from repro.experiments.sdc_hunt import format_sdc_hunt, run_sdc_hunt

GOLDEN_PATH = Path(__file__).with_name("ladders.json")
SEEDS = (1, 2, 7)

#: The experiments, by the name the pins file them under.
EXPERIMENTS: dict[str, Callable[..., object]] = {
    "degraded-telemetry": run_degraded_telemetry,
    "partition": run_partition_recovery,
    "rollout": run_envelope_rollout,
    "oversubscribe": run_oversubscription_crisis,
    "healthscan": run_sdc_hunt,
    "heatwave": run_heatwave_ride_through,
}

#: A recovery DES short enough to pin at three seeds (under a second
#: each, where the default run takes about a minute).
RECOVERY_SHRUNK = {"qps": 400.0, "horizon_s": 60.0, "failure_at_s": 20.0, "warmup_s": 5.0}

#: The rendered reports: name -> (runner, formatter, runner overrides).
REPORTS: dict[str, tuple[Callable[..., object], Callable[..., str], dict[str, float]]] = {
    "degraded-telemetry": (run_degraded_telemetry, format_degraded_telemetry, {}),
    "partition": (run_partition_recovery, format_partition_recovery, {}),
    "rollout": (run_envelope_rollout, format_envelope_rollout, {}),
    "oversubscribe": (run_oversubscription_crisis, format_oversubscription_crisis, {}),
    "healthscan": (run_sdc_hunt, format_sdc_hunt, {}),
    "heatwave": (run_heatwave_ride_through, format_heatwave_ride_through, {}),
    "overload": (run_overload_storm, format_overload_storm, {}),
    "recovery": (run_failure_recovery, format_failure_recovery, RECOVERY_SHRUNK),
}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def fields_pin(record: object) -> dict[str, str]:
    """Every field of one dataclass as its ``repr``, the timeline left out."""
    return {
        spec.name: repr(getattr(record, spec.name))
        for spec in dataclasses.fields(record)
        if spec.name != "timeline"
    }


def degraded_pin(result) -> dict[str, object]:
    """Each controller outcome, and the result's own scalars."""
    pins: dict[str, object] = {
        "by_kind": {
            kind: {outcome.label: fields_pin(outcome) for outcome in outcomes}
            for kind, outcomes in result.by_kind.items()
        },
        "total_loss": fields_pin(result.total_loss),
    }
    for spec in dataclasses.fields(result):
        if spec.name not in pins:
            pins[spec.name] = repr(getattr(result, spec.name))
    return pins


def experiment_pin(name: str, seed: int) -> dict[str, object]:
    """One comparison at ``seed``: each arm's run result."""
    comparison = EXPERIMENTS[name](seed=seed)
    if name == "degraded-telemetry":
        return degraded_pin(comparison)
    return {
        spec.name: fields_pin(getattr(comparison, spec.name))
        for spec in dataclasses.fields(comparison)
    }


def report_pin(name: str, seed: int) -> str:
    """SHA-256 of one comparison's rendered text at ``seed``."""
    run, render, overrides = REPORTS[name]
    text = render(run(seed=seed, **overrides))
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict[str, object]:
    return {
        "generated_with": versions(),
        "seeds": list(SEEDS),
        "experiments": {
            name: {str(seed): experiment_pin(name, seed) for seed in SEEDS}
            for name in EXPERIMENTS
        },
        "reports": {
            name: {str(seed): report_pin(name, seed) for seed in SEEDS}
            for name in REPORTS
        },
    }


def render(pins: dict[str, object]) -> str:
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def main() -> int:
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
