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

``tests/test_golden_ladders.py`` recomputes the pins and diffs them
against the file; it never writes it. Regenerate (and review the diff)
with ``make golden``, i.e. ``PYTHONPATH=src python tests/golden/ladders_pins.py``.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from repro.experiments.degraded_telemetry import run_degraded_telemetry
from repro.experiments.envelope_rollout import run_envelope_rollout
from repro.experiments.heatwave_ride_through import run_heatwave_ride_through
from repro.experiments.oversubscription_crisis import run_oversubscription_crisis
from repro.experiments.partition_recovery import run_partition_recovery
from repro.experiments.sdc_hunt import run_sdc_hunt

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


def compute() -> dict[str, object]:
    return {
        "generated_with": versions(),
        "seeds": list(SEEDS),
        "experiments": {
            name: {str(seed): experiment_pin(name, seed) for seed in SEEDS}
            for name in EXPERIMENTS
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
