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
  100: the chain signature every 50 ticks and the final counters;
* ``run_storm_mode`` from ``experiments/overload_storm.py`` in naive and
  robust mode: the chain and timeline signatures and every scalar field
  of the result. Naive fleets trip at Tjmax and restore; robust fleets
  climb the brownout ladder to degraded serving and the emergency
  ladder to EVACUATE or SHUTDOWN;
* a 200-tick ``ServiceCore`` in each mode with the duplicate-execution
  SDC audit on and one corrupting host, through a power cap that is
  later cleared, a VM crash and an overclock disable/enable: the chain
  signature every 50 ticks, the final counters and health counters, and
  the timeline signature;
* 400-tick ``ServiceCore`` runs in each mode, with a 2.5x surge at tick
  100, on two configs that reach the dispatch path's edge branches: a
  dispatch slack longer than the critical deadline with six requests in
  flight at most, which sheds every critical request at dispatch and
  often finds the fleet full with nothing queued, and a fleet that
  takes only two requests in flight: the chain signature every 50
  ticks, the final counters, the backlog's deepest point and the
  timeline signature.

``tests/test_golden_des.py`` recomputes the pins and diffs them against
the file; it never writes it. Regenerate (and review the diff) with
``make golden``, i.e. ``PYTHONPATH=src python tests/golden/des_pins.py``.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.autoscale.policy import ScalerMode
from repro.experiments.autoscaling import FIG15_QPS_LEVELS, run_fig15, run_fig16_mode
from repro.experiments.overload_storm import run_storm_mode
from repro.service.core import ServiceConfig, ServiceCore

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

#: Both service modes, for the storm and the ops chain.
SERVICE_MODES = ("naive", "robust")

#: The ops chain: an audited fleet with one corrupting host, and the
#: operator ops that reach the power-cap, vm-crash and overclock paths.
OPS_TICKS = 200
OPS_CONFIG = ServiceConfig(
    sdc_audit_fraction=0.1,
    sdc_faulty_hosts=("h1",),
    sdc_corruption_per_request=0.02,
)
OPS_SCHEDULE = {
    20: {"op": "power-cap", "watts": 90.0},
    60: {"op": "power-cap", "watts": None},
    90: {"op": "vm-crash", "host": "h2"},
    120: {"op": "overclock", "enable": False},
    160: {"op": "overclock", "enable": True},
}


#: The dispatch-edge chains: ticks, the surge, and the two configs.
DISPATCH_TICKS = 400
DISPATCH_OPS = {100: {"op": "demand-surge", "factor": 2.5, "duration_s": 60.0}}
DISPATCH_CONFIGS = {
    "slack-0.6-in-flight-6": ServiceConfig(dispatch_slack_s=0.6, max_in_flight=6),
    "in-flight-2": ServiceConfig(max_in_flight=2),
}


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


def _chain(core: ServiceCore, ticks: int, ops: dict[int, dict]) -> dict[str, str]:
    """Tick ``core``, applying each op at its boundary; signature every stride."""
    signatures = {}
    for boundary in range(ticks):
        if boundary in ops:
            core.apply_op(ops[boundary])
        core.tick()
        if core.tick_index % SERVICE_STRIDE == 0:
            signatures[str(core.tick_index)] = core.signature
    return signatures


def service_pin(seed: int) -> dict[str, object]:
    """The robust service's signature chain and final counters."""
    core = ServiceCore(seed, mode="robust")
    signatures = _chain(core, SERVICE_TICKS, SERVICE_OPS)
    return {"signatures": signatures, "counters": repr(core.counters)}


def storm_pin(mode: str, seed: int) -> dict[str, str]:
    """Every scalar field of one overload-storm run (the timeline by signature)."""
    result = run_storm_mode(mode, seed)
    return {
        spec.name: repr(getattr(result, spec.name))
        for spec in dataclasses.fields(result)
        if spec.name != "timeline"
    }


def ops_pin(mode: str, seed: int) -> dict[str, object]:
    """The audited ops chain: signatures, counters, health and timeline."""
    core = ServiceCore(seed, OPS_CONFIG, mode)
    signatures = _chain(core, OPS_TICKS, OPS_SCHEDULE)
    return {
        "signatures": signatures,
        "counters": repr(core.counters),
        "health": repr(core.health),
        "timeline_signature": core.timeline.signature(),
    }


def dispatch_pin(config: str, mode: str, seed: int) -> dict[str, object]:
    """A dispatch-edge chain: signatures, counters, deepest backlog, timeline."""
    core = ServiceCore(seed, DISPATCH_CONFIGS[config], mode)
    signatures = _chain(core, DISPATCH_TICKS, DISPATCH_OPS)
    snapshot = core.snapshot()
    return {
        "signatures": signatures,
        "counters": repr(core.counters),
        "queue_max_depth": repr(snapshot["queue_max_depth"]),
        "timeline_signature": snapshot["timeline_signature"],
    }


def compute() -> dict[str, object]:
    return {
        "generated_with": versions(),
        "seeds": list(SEEDS),
        "fig16": {
            mode.value: {str(seed): fig16_pin(mode, seed) for seed in SEEDS} for mode in MODES
        },
        "fig15": {str(seed): fig15_pin(seed) for seed in SEEDS},
        "service": {str(seed): service_pin(seed) for seed in SEEDS},
        "storm": {
            mode: {str(seed): storm_pin(mode, seed) for seed in SEEDS} for mode in SERVICE_MODES
        },
        "ops": {
            mode: {str(seed): ops_pin(mode, seed) for seed in SEEDS} for mode in SERVICE_MODES
        },
        "dispatch": {
            config: {
                mode: {str(seed): dispatch_pin(config, mode, seed) for seed in SEEDS}
                for mode in SERVICE_MODES
            }
            for config in DISPATCH_CONFIGS
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
