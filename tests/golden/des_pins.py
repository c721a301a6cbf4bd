"""Golden pins for the per-request DES: auto-scaler runs and the service chain.

``tests/golden/des.json`` pins, at seeds 1, 2 and 7, every value as its
exact ``repr``:

* ``run_fig16_mode`` for BASELINE, OC-E and OC-A on a shrunk ramp (two
  10 s levels, 5 s warm-up): requests recorded and dropped in warm-up,
  mean/p50/p95/p99 latency, VM-hours, max VMs, scale-out/in counts and
  average watts;
* ``run_fig15`` on 6 s phases: each phase's sample count and mean
  utilization and frequency, plus every trace sample.
  ``phase_summary`` settles for 60 s, longer than a short phase, so the
  pins summarize each phase whole;
* a robust ``ServiceCore`` over 300 ticks with a demand surge at tick
  100: the chain signature every 50 ticks and the final counters.

``tests/test_golden_des.py`` recomputes the pins and diffs them against
the file; it never writes it. Regenerate (and review the diff) with
``make golden``, i.e. ``PYTHONPATH=src python tests/golden/des_pins.py``.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.autoscale.policy import ScalerMode
from repro.experiments.autoscaling import FIG15_QPS_LEVELS, run_fig15, run_fig16_mode
from repro.service.core import ServiceCore

GOLDEN_PATH = Path(__file__).with_name("des.json")
SEEDS = (1, 2, 7)
MODES = (ScalerMode.BASELINE, ScalerMode.OC_E, ScalerMode.OC_A)

#: The shrunk Fig. 16 ramp: 500 then 1000 QPS, 10 s each.
FIG16_LEVELS = 2
FIG16_STEP_PERIOD_S = 10.0
FIG16_WARMUP_S = 5.0

#: Fig. 15's five QPS phases, 6 s each (two control decisions).
FIG15_PHASE_S = 6.0

#: The service chain: ticks, the surge, and the signature stride.
SERVICE_TICKS = 300
SERVICE_OPS = {100: {"op": "demand-surge", "factor": 2.5, "duration_s": 60.0}}
SERVICE_STRIDE = 50


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def fig16_pin(mode: ScalerMode, seed: int) -> dict[str, str]:
    """Table XI statistics of one shrunk ramp."""
    result = run_fig16_mode(
        mode,
        seed,
        warmup_s=FIG16_WARMUP_S,
        levels=FIG16_LEVELS,
        step_period_s=FIG16_STEP_PERIOD_S,
    )
    latency = result.latency
    values = {
        "requests": len(latency),
        "warmup_dropped": latency.dropped_warmup_samples,
        "mean_s": latency.mean(),
        "p50_s": latency.p50(),
        "p95_s": latency.p95(),
        "p99_s": latency.p99(),
        "vm_hours": result.vm_hours(),
        "max_vms": result.max_vms,
        "scale_out_events": result.scale_out_events,
        "scale_in_events": result.scale_in_events,
        "average_watts": result.power.average_watts(),
    }
    return {key: repr(value) for key, value in values.items()}


def fig15_pin(seed: int) -> dict[str, object]:
    """Per-phase means and every utilization/frequency sample."""
    result = run_fig15(seed, phase_seconds=FIG15_PHASE_S)
    phases = []
    for index, qps in enumerate(FIG15_QPS_LEVELS):
        start, end = index * FIG15_PHASE_S, (index + 1) * FIG15_PHASE_S
        utils = [s.value for s in result.utilization if start <= s.time < end]
        freqs = [s.value for s in result.frequency_ghz if start <= s.time < end]
        phases.append(
            {
                "qps": repr(qps),
                "samples": repr(len(utils)),
                "mean_utilization": repr(sum(utils) / len(utils)),
                "mean_frequency_ghz": repr(sum(freqs) / len(freqs)),
            }
        )
    return {
        "phases": phases,
        "utilization": [f"{s.time!r} {s.value!r}" for s in result.utilization],
        "frequency_ghz": [f"{s.time!r} {s.value!r}" for s in result.frequency_ghz],
    }


def service_pin(seed: int) -> dict[str, object]:
    """The robust service's signature chain and final counters."""
    core = ServiceCore(seed, mode="robust")
    signatures = {}
    for boundary in range(SERVICE_TICKS):
        if boundary in SERVICE_OPS:
            core.apply_op(SERVICE_OPS[boundary])
        core.tick()
        if core.tick_index % SERVICE_STRIDE == 0:
            signatures[str(core.tick_index)] = core.signature
    return {"signatures": signatures, "counters": repr(core.counters)}


def compute() -> dict[str, object]:
    return {
        "generated_with": versions(),
        "seeds": list(SEEDS),
        "fig16": {
            mode.value: {str(seed): fig16_pin(mode, seed) for seed in SEEDS} for mode in MODES
        },
        "fig15": {str(seed): fig15_pin(seed) for seed in SEEDS},
        "service": {str(seed): service_pin(seed) for seed in SEEDS},
    }


def render(pins: dict[str, object]) -> str:
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def main() -> int:
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
