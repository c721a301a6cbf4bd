"""Golden pins for the fault layer: every kind's timeline and callbacks.

``tests/golden/faults.json`` pins, at seeds 1, 2 and 7:

* one campaign per :class:`~repro.faults.plan.FaultKind`, each with a
  pinned and a sampled spec, run against minimal real targets — its
  timeline signature and events, the ordered log of every callback and
  target mutation the injectors make (each entry notes how many
  timeline records existed when it ran, which pins each callback to its
  side of the record), and the targets' final state;
* the error type and message of every arm-time validation;
* the SHA-256 of ``run_scenarios([name], seed)`` output for every
  ``faults`` scenario except ``host-failure`` (a ~1 min DES).

``tests/test_golden_faults.py`` recomputes the pins and diffs them
against the file; it never writes it. Regenerate (and review the diff)
with ``make golden``, i.e. ``PYTHONPATH=src python tests/golden/faults_pins.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cluster.host import Host
from repro.cluster.vm import VMInstance, VMSpec
from repro.control.channel import LossyChannel
from repro.faults import (
    ChannelFaultInjector,
    FacilityFaultInjector,
    FaultCampaign,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HostFailureInjector,
    PowerPredictionFaultInjector,
    PowerSurgeInjector,
    PowerTripInjector,
    RolloutFaultInjector,
    SensorFaultInjector,
    SiliconHealthInjector,
    ThermalExcursionInjector,
    VMCrashInjector,
    register_channel_injectors,
    register_facility_injectors,
    register_health_injectors,
    register_power_injectors,
    register_rollout_injectors,
    register_sensor_injectors,
)
from repro.faults.scenarios import SCENARIOS, run_scenarios
from repro.power.predictor import PeakPowerPredictor
from repro.power.tree import DeliveryLevel, DeliveryNode
from repro.reliability.stability import StabilityModel
from repro.sim.kernel import Simulator
from repro.telemetry.sensors import FaultySensor, VirtualSensor
from repro.thermal.facility import FacilityState
from repro.thermal.junction import JunctionModel

GOLDEN_PATH = Path(__file__).with_name("faults.json")
SEEDS = (1, 2, 7)
HORIZON_S = 600.0
#: Sampled specs fire after an Exp(50 s) wait; pinned ones at t=30 s.
SAMPLED_RATE_PER_HOUR = 72.0
#: ``host-failure`` runs the full failure-recovery DES (~1 min).
SLOW_SCENARIOS = frozenset({"host-failure"})

#: kind -> (targets, magnitudes, durations) of its pinned and sampled
#: specs. Kinds that never clear still get a sampled duration, which
#: pins that no ``recovered`` record follows.
SPEC_SHAPES: dict[FaultKind, tuple[tuple[str, str], tuple[float, float], tuple[float, float]]] = {
    FaultKind.VM_CRASH: (("vm-a", "vm-b"), (0.0, 0.0), (0.0, 10.0)),
    FaultKind.HOST_FAILURE: (("h0", "h1"), (0.0, 0.0), (0.0, 10.0)),
    FaultKind.THERMAL_EXCURSION: (("cpu0", "cpu1"), (30.0, 10.0), (20.0, 30.0)),
    FaultKind.POWER_TRIP: (("rack", "row"), (0.4, 0.2), (20.0, 30.0)),
    FaultKind.SENSOR_STUCK: (("tj0", "tj1"), (0.0, 0.0), (20.0, 30.0)),
    FaultKind.SENSOR_DROPOUT: (("tj0", "tj1"), (0.0, 0.0), (20.0, 30.0)),
    FaultKind.SENSOR_NOISE: (("tj0", "tj1"), (2.0, 0.5), (20.0, 30.0)),
    FaultKind.SENSOR_LAG: (("tj0", "tj1"), (3.0, 1.0), (20.0, 30.0)),
    FaultKind.SENSOR_SPIKE: (("tj0", "tj1"), (10.0, 4.0), (20.0, 30.0)),
    FaultKind.CMD_DROP: (("h0", "h1"), (1.0, 0.5), (20.0, 30.0)),
    FaultKind.CMD_DELAY: (("h0", "h1"), (2.0, 0.25), (20.0, 30.0)),
    FaultKind.CMD_DUPLICATE: (("h0", "h1"), (0.3, 0.6), (20.0, 30.0)),
    FaultKind.CMD_PARTITION: (("h0", "h1"), (0.0, 0.0), (20.0, 30.0)),
    FaultKind.FACILITY_CONDENSER: (("plant", "plant"), (0.5, 0.3), (20.0, 30.0)),
    FaultKind.FACILITY_WATER: (("plant", "plant"), (0.5, 1.0), (20.0, 30.0)),
    FaultKind.FACILITY_HEATWAVE: (("plant", "plant"), (8.0, 5.0), (20.0, 30.0)),
    FaultKind.FACILITY_BROWNOUT: (("plant", "plant"), (0.25, 0.5), (20.0, 30.0)),
    FaultKind.POWER_UNDERPREDICTION: (("p0", "p1"), (0.4, 0.2), (20.0, 30.0)),
    FaultKind.POWER_SURGE: (("row", "rack"), (0.3, 0.5), (20.0, 30.0)),
    FaultKind.SILICON_MARGIN_DRIFT: (("h0", "h1"), (0.03, 0.01), (0.0, 10.0)),
    FaultKind.MCE_BURST: (("h0", "h1"), (5.0, 2.6), (0.0, 10.0)),
    FaultKind.SDC: (("h0", "h1"), (0.0, 0.0), (0.0, 10.0)),
    FaultKind.BAD_ENVELOPE: (("fleet", "h1"), (0.07, 0.02), (0.0, 10.0)),
    FaultKind.ROLLOUT_STALL: (("h0", "h1"), (0.0, 0.0), (2.0, 4.0)),
}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


class _Log:
    """Ordered log of the callbacks and target mutations of one campaign."""

    def __init__(self, campaign: FaultCampaign) -> None:
        self.campaign = campaign
        self.entries: list[str] = []

    def __call__(self, name: str, *args: object) -> None:
        self.entries.append(
            f"t={self.campaign.simulator.now!r} records={len(self.campaign.timeline)} "
            f"{name}{args!r}"
        )

    def callback(self, name: str, result: object = None) -> Callable[..., object]:
        def logged(*args: object) -> object:
            self(name, *args)
            return result

        return logged


class _LoggedSensor(FaultySensor):
    def __init__(self, log: _Log, name: str, seed: int) -> None:
        super().__init__(VirtualSensor(name, lambda: 50.0), seed=seed)
        self._log = log

    def inject(self, fault) -> None:
        self._log("sensor.inject", self.name, fault.mode.value, fault.magnitude)
        super().inject(fault)

    def clear(self) -> None:
        self._log("sensor.clear", self.name)
        super().clear()


class _LoggedChannel(LossyChannel):
    def __init__(self, log: _Log, seed: int) -> None:
        super().__init__(log.campaign.simulator, seed=seed)
        self._log = log

    def partition(self, target, duration_s=None) -> None:
        self._log("channel.partition", target, duration_s)
        super().partition(target, duration_s)

    def set_drop(self, target, probability) -> None:
        self._log("channel.set_drop", target, probability)
        super().set_drop(target, probability)

    def clear_drop(self, target) -> None:
        self._log("channel.clear_drop", target)
        super().clear_drop(target)

    def set_duplicate(self, target, probability) -> None:
        self._log("channel.set_duplicate", target, probability)
        super().set_duplicate(target, probability)

    def clear_duplicate(self, target) -> None:
        self._log("channel.clear_duplicate", target)
        super().clear_duplicate(target)

    def set_extra_delay(self, target, delay_s) -> None:
        self._log("channel.set_extra_delay", target, delay_s)
        super().set_extra_delay(target, delay_s)

    def clear_extra_delay(self, target) -> None:
        self._log("channel.clear_extra_delay", target)
        super().clear_extra_delay(target)


class _LoggedPredictor(PeakPowerPredictor):
    def __init__(self, log: _Log, name: str) -> None:
        super().__init__()
        self._log = log
        self._name = name

    def inject_bias(self, fraction: float) -> None:
        self._log("predictor.inject_bias", self._name, fraction)
        super().inject_bias(fraction)

    def clear_bias(self) -> None:
        self._log("predictor.clear_bias", self._name)
        super().clear_bias()


def _rack(name: str, rated_watts: float) -> DeliveryNode:
    return DeliveryNode(name, DeliveryLevel.RACK_PDU, rated_watts)


def _junction() -> JunctionModel:
    return JunctionModel(reference_temp_c=34.0, thermal_resistance_c_per_w=0.08, tj_max_c=110.0)


def _specs(kind: FaultKind) -> tuple[FaultSpec, ...]:
    """A pinned spec at t=30 s, a sampled one, and kind-specific extras."""
    targets, magnitudes, durations = SPEC_SHAPES[kind]
    specs = [
        FaultSpec(kind=kind, target=targets[0], at_s=30.0,
                  magnitude=magnitudes[0], duration_s=durations[0]),
        FaultSpec(kind=kind, target=targets[1], rate_per_hour=SAMPLED_RATE_PER_HOUR,
                  magnitude=magnitudes[1], duration_s=durations[1]),
    ]
    if kind is FaultKind.VM_CRASH:
        # No spec rate: falls back to the stability model's own rate.
        specs.append(FaultSpec(kind=kind, target="vm-c"))
    if kind is FaultKind.CMD_PARTITION:
        # duration 0 partitions until healed and records no recovery.
        specs.append(FaultSpec(kind=kind, target="h1", at_s=200.0))
    return tuple(specs)


def _register(kind: FaultKind, campaign: FaultCampaign, log: _Log,
              seed: int) -> Callable[[], list[str]]:
    """Register ``kind``'s injectors on real targets; returns a state probe."""
    if kind is FaultKind.VM_CRASH:
        campaign.register(
            VMCrashInjector(on_crash=log.callback("on_crash"), stability=StabilityModel())
        )
    elif kind is FaultKind.HOST_FAILURE:
        campaign.register(HostFailureInjector(on_failure=log.callback("on_failure")))
    elif kind is FaultKind.THERMAL_EXCURSION:
        campaign.register(
            ThermalExcursionInjector(
                junctions={"cpu0": _junction(), "cpu1": _junction()},
                load_watts=log.callback("load_watts", 600.0),
            )
        )
    elif kind is FaultKind.POWER_TRIP:
        # Each node feeds one 8-vcore host: the rack (draw 118.88 W)
        # breaches once derated; the row does not.
        host = Host("rack-host")
        host.place(VMInstance(vm_id="rack-vm", spec=VMSpec(vcores=8, memory_gb=32.0)))
        nodes = {"rack": _rack("rack", 150.0), "row": _rack("row", 1000.0)}
        campaign.register(
            PowerTripInjector(
                nodes=nodes,
                draw_watts=lambda target: host.power_watts(0.9),
                on_trip=lambda node: log("on_trip", node.name, node.rated_watts),
            )
        )
        return lambda: [f"{name}.limit_watts={node.rated_watts!r}" for name, node in nodes.items()]
    elif kind.value.startswith("sensor-"):
        sensors = {name: _LoggedSensor(log, name, seed) for name in ("tj0", "tj1")}
        register_sensor_injectors(campaign, sensors)
        return lambda: [f"{name}.fault={sensor.fault!r}" for name, sensor in sensors.items()]
    elif kind.value.startswith("cmd-"):
        channel = _LoggedChannel(log, seed)
        register_channel_injectors(campaign, {"h0": channel, "h1": channel})
        return lambda: [f"{name}.partitioned={channel.is_partitioned(name)}"
                        for name in ("h0", "h1")]
    elif kind.value.startswith("facility-"):
        state = FacilityState()
        register_facility_injectors(campaign, {"plant": state})
        return lambda: [f"plant={state!r}"]
    elif kind in (FaultKind.POWER_UNDERPREDICTION, FaultKind.POWER_SURGE):
        predictors = {name: _LoggedPredictor(log, name) for name in ("p0", "p1")}
        register_power_injectors(
            campaign,
            predictors,
            log.callback("on_surge"),
            log.callback("on_surge_end"),
            surge_targets={"row": "row", "rack": "rack"},
        )
        return lambda: [f"{name}.bias={predictor.bias_fraction!r}"
                        for name, predictor in predictors.items()]
    elif kind in (FaultKind.SILICON_MARGIN_DRIFT, FaultKind.MCE_BURST, FaultKind.SDC):
        register_health_injectors(
            campaign,
            on_drift=log.callback("on_drift"),
            on_burst=log.callback("on_burst"),
            on_sdc=log.callback("on_sdc"),
        )
    else:
        register_rollout_injectors(
            campaign,
            on_bad_envelope=log.callback("on_bad_envelope"),
            on_stall=log.callback("on_stall"),
        )
    return lambda: []


def campaign_pin(kind: FaultKind, seed: int) -> dict[str, object]:
    """Arm and run ``kind``'s golden campaign at ``seed``."""
    plan = FaultPlan(seed=seed, scenario=f"golden-{kind.value}", specs=_specs(kind))
    simulator = Simulator(seed=seed)
    campaign = FaultCampaign(simulator, plan)
    log = _Log(campaign)
    probe = _register(kind, campaign, log, seed)
    campaign.arm()
    simulator.run(until=HORIZON_S)
    return {
        "signature": campaign.timeline.signature(),
        "events": [event.describe() for event in campaign.timeline],
        "callbacks": log.entries,
        "final": probe(),
    }


# ----------------------------------------------------------------------
# Arm-time validation
# ----------------------------------------------------------------------
def _noop(*args: object) -> None:
    return None


def _failure(action: Callable[[], object]) -> str:
    try:
        action()
    except Exception as error:  # the pin is the error's type and message
        return f"{type(error).__name__}: {error}"
    return "ok"


def _arm(spec: FaultSpec, register: Callable[[FaultCampaign], object],
         advance_s: float = 0.0) -> str:
    """Outcome of arming a one-spec plan (``advance_s`` runs time first)."""
    simulator = Simulator(seed=1)
    if advance_s:
        simulator.after(advance_s, _noop)
        simulator.run()
    campaign = FaultCampaign(simulator, FaultPlan(seed=1, scenario="golden", specs=(spec,)))

    def arm() -> None:
        register(campaign)
        campaign.arm()

    return _failure(arm)


def validation_pins() -> dict[str, str]:
    """Error type and message of every arm-time and build-time check."""
    K = FaultKind

    def spec(kind: FaultKind, target: str, **kwargs: float) -> FaultSpec:
        return FaultSpec(kind=kind, target=target, at_s=kwargs.pop("at_s", 1.0), **kwargs)

    def bare(injector):
        return lambda campaign: campaign.register(injector)

    def host(campaign):
        campaign.register(HostFailureInjector(on_failure=_noop))

    def thermal(campaign):
        campaign.register(ThermalExcursionInjector({"cpu": _junction()}, lambda target: 600.0))

    def trip(campaign):
        campaign.register(
            PowerTripInjector(nodes={"rack": _rack("rack", 500.0)}, draw_watts=lambda target: 0.0)
        )

    def sensors(campaign):
        register_sensor_injectors(
            campaign, {"tj0": FaultySensor(VirtualSensor("tj0", lambda: 50.0))}
        )

    def channels(campaign):
        register_channel_injectors(campaign, {"h0": LossyChannel(campaign.simulator)})

    def facilities(campaign):
        register_facility_injectors(campaign, {"plant": FacilityState()})

    def power(campaign):
        register_power_injectors(
            campaign, {"p0": PeakPowerPredictor()}, _noop, surge_targets={"row": "row"}
        )

    def health(campaign):
        register_health_injectors(campaign, _noop, _noop, _noop)

    def rollout(campaign):
        register_rollout_injectors(campaign, _noop, _noop)

    return {
        "campaign-no-injector": _arm(spec(K.HOST_FAILURE, "h0"), _noop),
        "campaign-pinned-in-past": _arm(spec(K.HOST_FAILURE, "h0", at_s=5.0), host,
                                        advance_s=10.0),
        "campaign-no-rate": _arm(FaultSpec(kind=K.HOST_FAILURE, target="h0"), host),
        "thermal-magnitude": _arm(spec(K.THERMAL_EXCURSION, "cpu"), thermal),
        "thermal-unknown-target": _arm(spec(K.THERMAL_EXCURSION, "nope", magnitude=5.0),
                                       thermal),
        "power-trip-magnitude": _arm(spec(K.POWER_TRIP, "rack"), trip),
        "power-trip-unknown-target": _arm(spec(K.POWER_TRIP, "row", magnitude=0.5), trip),
        "sensor-unknown-target": _arm(spec(K.SENSOR_STUCK, "tj9"), sensors),
        "sensor-noise-magnitude": _arm(spec(K.SENSOR_NOISE, "tj0"), sensors),
        "sensor-spike-magnitude": _arm(spec(K.SENSOR_SPIKE, "tj0"), sensors),
        "sensor-lag-magnitude": _arm(spec(K.SENSOR_LAG, "tj0"), sensors),
        "sensor-foreign-kind": _failure(lambda: SensorFaultInjector(K.VM_CRASH, {})),
        "cmd-drop-magnitude": _arm(spec(K.CMD_DROP, "h0"), channels),
        "cmd-duplicate-magnitude": _arm(spec(K.CMD_DUPLICATE, "h0", magnitude=1.0), channels),
        "cmd-delay-magnitude": _arm(spec(K.CMD_DELAY, "h0"), channels),
        "cmd-delay-nan-magnitude": _arm(spec(K.CMD_DELAY, "h0", magnitude=math.nan), channels),
        "cmd-unknown-target": _arm(spec(K.CMD_PARTITION, "h9"), channels),
        "cmd-foreign-kind": _failure(lambda: ChannelFaultInjector(K.SDC, {})),
        "facility-heatwave-magnitude": _arm(spec(K.FACILITY_HEATWAVE, "plant"), facilities),
        "facility-condenser-magnitude": _arm(
            spec(K.FACILITY_CONDENSER, "plant", magnitude=1.5), facilities),
        "facility-unknown-target": _arm(spec(K.FACILITY_WATER, "tank", magnitude=0.5),
                                        facilities),
        "facility-foreign-kind": _failure(lambda: FacilityFaultInjector(K.CMD_DROP, {})),
        "underprediction-magnitude": _arm(
            spec(K.POWER_UNDERPREDICTION, "p0", magnitude=1.0), power),
        "underprediction-unknown-target": _arm(
            spec(K.POWER_UNDERPREDICTION, "p9", magnitude=0.5), power),
        "underprediction-no-targets": _arm(
            spec(K.POWER_UNDERPREDICTION, "p0", magnitude=0.5),
            bare(PowerPredictionFaultInjector({}))),
        "surge-magnitude": _arm(spec(K.POWER_SURGE, "row"), power),
        "surge-unknown-target": _arm(spec(K.POWER_SURGE, "rack", magnitude=0.5), power),
        "surge-any-target": _arm(spec(K.POWER_SURGE, "rack", magnitude=0.5),
                                 bare(PowerSurgeInjector(_noop))),
        "drift-magnitude": _arm(spec(K.SILICON_MARGIN_DRIFT, "h0"), health),
        "mce-burst-magnitude": _arm(spec(K.MCE_BURST, "h0", magnitude=0.5), health),
        "drift-no-callback": _arm(spec(K.SILICON_MARGIN_DRIFT, "h0", magnitude=0.1),
                                  bare(SiliconHealthInjector(K.SILICON_MARGIN_DRIFT))),
        "mce-burst-no-callback": _arm(spec(K.MCE_BURST, "h0", magnitude=2.0),
                                      bare(SiliconHealthInjector(K.MCE_BURST))),
        "sdc-no-callback": _arm(spec(K.SDC, "h0"), bare(SiliconHealthInjector(K.SDC))),
        "health-foreign-kind": _failure(lambda: SiliconHealthInjector(K.HOST_FAILURE)),
        "bad-envelope-magnitude": _arm(spec(K.BAD_ENVELOPE, "fleet"), rollout),
        "rollout-stall-duration": _arm(spec(K.ROLLOUT_STALL, "h0"), rollout),
        "bad-envelope-no-callback": _arm(spec(K.BAD_ENVELOPE, "fleet", magnitude=0.1),
                                         bare(RolloutFaultInjector(K.BAD_ENVELOPE))),
        "rollout-stall-no-callback": _arm(spec(K.ROLLOUT_STALL, "h0", duration_s=2.0),
                                          bare(RolloutFaultInjector(K.ROLLOUT_STALL))),
        "rollout-foreign-kind": _failure(lambda: RolloutFaultInjector(K.VM_CRASH)),
    }


# ----------------------------------------------------------------------
# CLI scenarios
# ----------------------------------------------------------------------
def scenario_names() -> list[str]:
    return sorted(name for name in SCENARIOS if name not in SLOW_SCENARIOS)


def scenario_pin(name: str, seed: int) -> str:
    """SHA-256 of one ``faults`` scenario's CLI output."""
    buffer = io.StringIO()
    run_scenarios([name], seed=seed, stream=buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def compute() -> dict[str, object]:
    return {
        "generated_with": versions(),
        "seeds": list(SEEDS),
        "campaigns": {
            kind.value: {str(seed): campaign_pin(kind, seed) for seed in SEEDS}
            for kind in sorted(FaultKind, key=lambda kind: kind.value)
        },
        "validation": validation_pins(),
        "scenarios": {
            name: {str(seed): scenario_pin(name, seed) for seed in SEEDS}
            for name in scenario_names()
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
