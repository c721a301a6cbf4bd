"""Deterministic fault injectors wired into the discrete-event kernel.

A :class:`FaultCampaign` owns one simulator, one
:class:`~repro.faults.plan.FaultPlan`, and one
:class:`~repro.faults.timeline.FaultTimeline`. Injectors register per
:class:`~repro.faults.plan.FaultKind`; :meth:`FaultCampaign.arm` walks
the plan and lets each injector schedule its fault as ordinary
simulator events. Sampled fault times come from the campaign's *own*
random streams (seeded from the plan, one stream per spec), so the
injected chaos never perturbs — and is never perturbed by — the model's
random draws.

Every kind shares one lifecycle, :meth:`FaultInjector.schedule`; a kind
only validates its specs, applies its effect (returning the timeline
detail and an optional undo) and runs its callbacks. The injectors act
through callbacks (``on_crash``, ``on_failure``, ...) rather than poking
model internals: the same campaign drives a bare
:class:`~repro.cluster.lifecycle.VMLifecycleManager` in a unit test and
a full closed-loop auto-scaler in an experiment.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

from ..control.channel import LossyChannel
from ..errors import FaultError, InjectionError
from ..power.predictor import PeakPowerPredictor
from ..power.tree import DeliveryNode
from ..reliability.stability import StabilityModel
from ..sim.kernel import Simulator
from ..sim.random import RandomStreams
from ..telemetry.sensors import FaultySensor, SensorFault, SensorFaultMode
from ..thermal.facility import FacilityState
from ..thermal.junction import JunctionModel
from .plan import (
    CHANNEL_FAULT_KINDS,
    FACILITY_FAULT_KINDS,
    HEALTH_FAULT_KINDS,
    ROLLOUT_FAULT_KINDS,
    SENSOR_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from .timeline import FaultTimeline

#: Timeline kinds derived from faults (not directly injectable).
TJ_ALARM = "tj-alarm"
BREAKER_BREACH = "breaker-breach"
RECOVERED = "recovered"


class _Effect(NamedTuple):
    """What :meth:`FaultInjector.inject` did to its target."""

    #: Detail of the fault's timeline record.
    detail: str
    #: Reverts the effect and returns the ``recovered`` record's detail;
    #: run ``duration_s`` after the fault. None: the fault never clears.
    undo: Callable[[], str] | None = None
    #: A derived ``(kind, detail)`` record logged right after the fault.
    alarm: tuple[str, str] | None = None


class FaultInjector:
    """Base class: the fault lifecycle every kind shares.

    :meth:`schedule` arms one spec: it validates the spec, resolves its
    target and samples its delay. When the fault fires it applies the
    kind's effect (:meth:`inject`), records the fault and any alarm the
    effect raised, and runs :meth:`fired`. When ``duration_s > 0`` and
    the effect returned an undo, it schedules the undo, records
    ``recovered`` with the undo's detail, and runs :meth:`recovered`.
    """

    kind: FaultKind
    #: Spec target → the object :meth:`inject` acts on; None passes the
    #: target name through unchecked.
    targets: Mapping[str, object] | None = None
    #: Rate for sampled specs that carry none (None: they must).
    derived_rate_per_hour: float | None = None

    def validate(self, spec: FaultSpec) -> None:
        """Reject a malformed spec (runs at arm time)."""

    def inject(self, spec: FaultSpec, target) -> _Effect:
        """Apply the fault to ``target``, the resolved spec target."""
        raise NotImplementedError

    def fired(self, spec: FaultSpec, target) -> None:
        """Callback hook: runs right after the fault is recorded."""

    def recovered(self, spec: FaultSpec) -> None:
        """Callback hook: runs right after ``recovered`` is recorded."""

    def schedule(self, campaign: "FaultCampaign", index: int, spec: FaultSpec) -> None:
        """Arm ``spec`` (the plan's ``index``-th) into ``campaign``."""
        self.validate(spec)
        target = spec.target
        if self.targets is not None:
            target = _lookup(self.targets, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec, self.derived_rate_per_hour)
        if delay is None:
            return
        name = f"fault:{spec.kind.value}:{spec.target}"

        def fire() -> None:
            effect = self.inject(spec, target)
            now = campaign.simulator.now
            campaign.timeline.record(now, spec.kind.value, spec.target, effect.detail)
            if effect.alarm is not None:
                campaign.timeline.record(now, effect.alarm[0], spec.target, effect.alarm[1])
            self.fired(spec, target)
            if spec.duration_s > 0 and effect.undo is not None:

                def recover() -> None:
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, spec.target, effect.undo()
                    )
                    self.recovered(spec)

                campaign.simulator.after(spec.duration_s, recover, name=f"{name}:recover")

        campaign.simulator.after(delay, fire, name=name)


class FaultCampaign:
    """Arms a fault plan against one simulator run."""

    def __init__(self, simulator: Simulator, plan: FaultPlan) -> None:
        self.simulator = simulator
        self.plan = plan
        self.timeline = FaultTimeline()
        # Independent stream registry: campaign draws never share state
        # with the model's own RandomStreams.
        self._streams = RandomStreams(plan.seed)
        self._injectors: dict[FaultKind, FaultInjector] = {}
        self._armed = False

    def register(self, injector: FaultInjector) -> "FaultCampaign":
        """Attach an injector; one per kind (returns self for chaining)."""
        if injector.kind in self._injectors:
            raise FaultError(f"an injector for {injector.kind.value} is already registered")
        self._injectors[injector.kind] = injector
        return self

    def arm(self) -> None:
        """Schedule every spec in the plan. Call exactly once, before
        :meth:`Simulator.run`."""
        if self._armed:
            raise FaultError("campaign is already armed")
        self._armed = True
        for index, spec in enumerate(self.plan.specs):
            injector = self._injectors.get(spec.kind)
            if injector is None:
                raise InjectionError(
                    f"no injector registered for {spec.kind.value} "
                    f"(spec {index} of plan {self.plan.scenario!r})"
                )
            injector.schedule(self, index, spec)

    # ------------------------------------------------------------------
    # Time sampling
    # ------------------------------------------------------------------
    def delay_for(
        self, index: int, spec: FaultSpec, derived_rate_per_hour: float | None = None
    ) -> float | None:
        """Seconds from now until spec ``index`` fires, or None for never.

        Pinned specs (``at_s``) convert to a relative delay; sampled
        specs draw an exponential waiting time from the spec's stream at
        ``rate_per_hour`` (the spec's own, else ``derived_rate_per_hour``
        from the injector's physics). A zero rate suppresses the fault;
        an infinite rate fires it immediately.
        """
        now = self.simulator.now
        if spec.at_s is not None:
            if spec.at_s < now:
                raise InjectionError(
                    f"fault {index} pinned to t={spec.at_s}s but campaign armed at {now}s"
                )
            return spec.at_s - now
        rate = spec.rate_per_hour if spec.rate_per_hour is not None else derived_rate_per_hour
        if rate is None:
            raise InjectionError(
                f"fault {index} ({spec.kind.value}) has no time and no rate to sample from"
            )
        if rate <= 0:
            return None
        if math.isinf(rate):
            return 0.0
        return self._streams.exponential(self.plan.stream_key(index), 3600.0 / rate)


def _lookup(mapping: Mapping[str, object], target: str, kind: FaultKind):
    """Resolve a spec target against an injector's target map."""
    if target in mapping:
        return mapping[target]
    if not target and len(mapping) == 1:
        return next(iter(mapping.values()))
    raise InjectionError(
        f"{kind.value} injector has no target {target!r} "
        f"(knows: {', '.join(sorted(mapping)) or 'none'})"
    )


#: Overclock ratio the crash injector derives its fallback rate at.
_STOCK_RATIO = 1.0


class VMCrashInjector(FaultInjector):
    """Overclock-induced VM crashes, sampled from the stability model.

    The fallback crash *rate* for sampled specs without one comes from
    :meth:`~repro.reliability.stability.StabilityModel.crash_rate_per_hour`
    at stock clocks; specs at a given overclock take the model's rate at
    their ratio as ``rate_per_hour``, so pushing the ratio past the
    stable margin makes injected crashes exponentially more frequent —
    the paper's "ungraceful crashes under excess voltage/frequency" made
    executable.
    """

    kind = FaultKind.VM_CRASH

    def __init__(
        self, on_crash: Callable[[str], None], stability: StabilityModel | None = None
    ) -> None:
        self.on_crash = on_crash
        stability = stability if stability is not None else StabilityModel()
        self.derived_rate_per_hour = stability.crash_rate_per_hour(_STOCK_RATIO)

    def inject(self, spec: FaultSpec, target: str) -> _Effect:
        if spec.at_s is not None:
            return _Effect(f"ratio={_STOCK_RATIO:.3f}")
        rate = spec.rate_per_hour
        if rate is None:
            rate = self.derived_rate_per_hour
        return _Effect(f"rate={rate:.2e}/h")

    def fired(self, spec: FaultSpec, target: str) -> None:
        self.on_crash(spec.target)


class HostFailureInjector(FaultInjector):
    """Whole-host failures: every VM on the target goes down at once."""

    kind = FaultKind.HOST_FAILURE

    def __init__(self, on_failure: Callable[[str], None]) -> None:
        self.on_failure = on_failure

    def inject(self, spec: FaultSpec, target: str) -> _Effect:
        return _Effect("")

    def fired(self, spec: FaultSpec, target: str) -> None:
        self.on_failure(spec.target)


class ThermalExcursionInjector(FaultInjector):
    """Coolant excursions: the thermal reference temperature steps up.

    ``magnitude`` is the step in °C (condenser degradation, facility
    water event, or the effective rise from fluid-level loss). While the
    excursion lasts, junction temperatures are evaluated against the
    elevated reference; a load pushed past ``tj_max`` records a
    ``tj-alarm`` event — the signal a production controller would use to
    de-clock.
    """

    kind = FaultKind.THERMAL_EXCURSION

    def __init__(
        self, junctions: Mapping[str, JunctionModel], load_watts: Callable[[str], float]
    ) -> None:
        self.targets = dict(junctions)
        self.load_watts = load_watts

    def elevated_model(self, target: str, delta_c: float) -> JunctionModel:
        base = _lookup(self.targets, target, self.kind)
        return JunctionModel(
            reference_temp_c=base.reference_temp_c + delta_c,
            thermal_resistance_c_per_w=base.thermal_resistance_c_per_w,
            tj_max_c=base.tj_max_c,
        )

    def validate(self, spec: FaultSpec) -> None:
        if spec.magnitude <= 0:
            raise InjectionError("thermal excursion needs a positive magnitude (°C)")

    def inject(self, spec: FaultSpec, target: JunctionModel) -> _Effect:
        elevated = self.elevated_model(spec.target, spec.magnitude)
        tj = elevated.junction_temp_c(self.load_watts(spec.target))
        alarm = None
        if tj > elevated.tj_max_c:
            alarm = (TJ_ALARM, f"Tj={tj:.1f}C > Tjmax={elevated.tj_max_c:.1f}C")
        return _Effect(
            f"dT=+{spec.magnitude:.1f}C Tj={tj:.1f}C",
            lambda: f"dT=-{spec.magnitude:.1f}C",
            alarm,
        )


class PowerTripInjector(FaultInjector):
    """Power-delivery trips: a breaker loses part of its rating.

    ``magnitude`` is the fraction of the node's rated limit lost
    (0 < m < 1). The injector derates the
    :class:`~repro.power.tree.DeliveryNode` in place, reads the node's
    draw once per fire (``draw_watts(target)``), records any resulting
    breach (the capping governor's cue), and restores the rating after
    ``duration_s``.
    """

    kind = FaultKind.POWER_TRIP

    def __init__(
        self,
        nodes: Mapping[str, DeliveryNode],
        draw_watts: Callable[[str], float],
        on_trip: Callable[[DeliveryNode], None] | None = None,
    ) -> None:
        self.targets = dict(nodes)
        self.draw_watts = draw_watts
        self.on_trip = on_trip

    def validate(self, spec: FaultSpec) -> None:
        if not 0.0 < spec.magnitude < 1.0:
            raise InjectionError(
                "power trip magnitude is the fraction of the limit lost; "
                f"need 0 < m < 1, got {spec.magnitude}"
            )

    def inject(self, spec: FaultSpec, node: DeliveryNode) -> _Effect:
        lost = node.rated_watts * spec.magnitude
        node.rated_watts -= lost
        draw = self.draw_watts(spec.target)
        alarm = None
        if draw > node.rated_watts:
            alarm = (BREAKER_BREACH, f"draw={draw:.0f}W > limit={node.rated_watts:.0f}W")

        def undo() -> str:
            node.rated_watts += lost
            return f"+{lost:.0f}W limit={node.rated_watts:.0f}W"

        return _Effect(f"-{lost:.0f}W limit={node.rated_watts:.0f}W", undo, alarm)

    def fired(self, spec: FaultSpec, node: DeliveryNode) -> None:
        if self.on_trip is not None:
            self.on_trip(node)


#: FaultKind → transform applied by :class:`SensorFaultInjector`.
_SENSOR_MODE_BY_KIND: dict[FaultKind, SensorFaultMode] = {
    FaultKind.SENSOR_STUCK: SensorFaultMode.STUCK,
    FaultKind.SENSOR_DROPOUT: SensorFaultMode.DROPOUT,
    FaultKind.SENSOR_NOISE: SensorFaultMode.NOISE,
    FaultKind.SENSOR_LAG: SensorFaultMode.LAG,
    FaultKind.SENSOR_SPIKE: SensorFaultMode.SPIKE,
}


class SensorFaultInjector(FaultInjector):
    """Corrupts one telemetry channel instead of breaking hardware.

    One injector instance handles one sensor-fault :class:`FaultKind`
    (the campaign registry maps kind → injector); use
    :func:`register_sensor_injectors` to cover all five at once. At fire
    time the target :class:`~repro.telemetry.sensors.FaultySensor` gets
    the matching transform injected; ``duration_s > 0`` schedules the
    clear. ``magnitude`` follows the transform's meaning — noise sigma,
    spike amplitude, or lag depth in samples.
    """

    def __init__(self, kind: FaultKind, sensors: Mapping[str, FaultySensor]) -> None:
        if kind not in SENSOR_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a sensor-fault kind")
        self.kind = kind
        self.targets = dict(sensors)

    def _fault(self, spec: FaultSpec) -> SensorFault:
        return SensorFault(mode=_SENSOR_MODE_BY_KIND[self.kind], magnitude=spec.magnitude)

    def validate(self, spec: FaultSpec) -> None:
        self._fault(spec)

    def inject(self, spec: FaultSpec, sensor: FaultySensor) -> _Effect:
        fault = self._fault(spec)
        sensor.inject(fault)

        def undo() -> str:
            sensor.clear()
            return fault.mode.value

        detail = f"magnitude={spec.magnitude:g}" if spec.magnitude else fault.mode.value
        return _Effect(detail, undo)


class ChannelFaultInjector(FaultInjector):
    """Breaks the actuation transport instead of hardware or telemetry.

    One injector instance handles one control-plane
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_channel_injectors` to cover all four at once). The
    target names the controller→host *link*; at fire time the matching
    :class:`~repro.control.channel.LossyChannel` override is set —
    elevated drop probability, added delay, duplicate probability, or a
    full partition — and cleared again after ``duration_s``.
    ``magnitude`` follows the kind's meaning: a probability for drops
    and duplicates, seconds for delays; partitions ignore it
    (``duration_s == 0`` partitions until something calls ``heal``).
    """

    def __init__(self, kind: FaultKind, channels: Mapping[str, LossyChannel]) -> None:
        if kind not in CHANNEL_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a control-plane fault kind")
        self.kind = kind
        self.targets = dict(channels)

    def validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.CMD_DROP and not 0.0 < spec.magnitude <= 1.0:
            raise InjectionError("cmd-drop magnitude is a probability in (0, 1]")
        if self.kind is FaultKind.CMD_DUPLICATE and not 0.0 < spec.magnitude < 1.0:
            raise InjectionError("cmd-duplicate magnitude is a probability in (0, 1)")
        if self.kind is FaultKind.CMD_DELAY and not 0.0 < spec.magnitude < math.inf:
            raise InjectionError("cmd-delay magnitude is a positive delay in seconds")

    def inject(self, spec: FaultSpec, channel: LossyChannel) -> _Effect:
        target, magnitude = spec.target, spec.magnitude
        if self.kind is FaultKind.CMD_PARTITION:
            duration = spec.duration_s if spec.duration_s > 0 else None
            channel.partition(target, duration)
            detail = f"for {spec.duration_s:.0f}s" if duration is not None else "until healed"
            # The channel expires partitions lazily; the undo only records
            # the heal so timelines carry the full fault window.
            return _Effect(detail, lambda: "partition healed")
        if self.kind is FaultKind.CMD_DROP:
            # p=1 is allowed (a total blackhole) even though baseline
            # channel configs cap below 1 — that is the fault's point.
            channel.set_drop(target, magnitude)
            detail, clear = f"p={magnitude:g}", channel.clear_drop
        elif self.kind is FaultKind.CMD_DUPLICATE:
            channel.set_duplicate(target, magnitude)
            detail, clear = f"p={magnitude:g}", channel.clear_duplicate
        else:  # CMD_DELAY
            channel.set_extra_delay(target, magnitude)
            detail, clear = f"+{magnitude:g}s", channel.clear_extra_delay

        def undo() -> str:
            clear(target)
            return self.kind.value

        return _Effect(detail, undo)


#: FaultKind → the :class:`~repro.thermal.facility.FacilityState` field
#: the fault derates (heat waves are additive and handled separately).
_FACILITY_FIELD_BY_KIND: dict[FaultKind, str] = {
    FaultKind.FACILITY_CONDENSER: "pump_fraction",
    FaultKind.FACILITY_WATER: "water_fraction",
    FaultKind.FACILITY_BROWNOUT: "power_fraction",
}


class FacilityFaultInjector(FaultInjector):
    """Breaks the cooling plant itself — the shared-fate fault class.

    One injector instance handles one ``facility-*``
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_facility_injectors` to cover all four at once). The
    target names a :class:`~repro.thermal.facility.FacilityState`; at
    fire time the matching term derates — pump, water, or utility-power
    fraction for condenser/water/brownout faults (``magnitude`` is the
    fraction lost, up to 1.0 = total loss), or an additive ambient rise
    in °C for heat waves — and ``duration_s > 0`` schedules the inverse.
    Unlike every other kind, one facility fault threatens *all* hosts
    sharing the tank at once.
    """

    def __init__(self, kind: FaultKind, facilities: Mapping[str, FacilityState]) -> None:
        if kind not in FACILITY_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a facility fault kind")
        self.kind = kind
        self.targets = dict(facilities)

    def validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.FACILITY_HEATWAVE:
            if spec.magnitude <= 0.0:
                raise InjectionError(
                    "facility-heatwave magnitude is a positive ambient rise in °C"
                )
        elif not 0.0 < spec.magnitude <= 1.0:
            raise InjectionError(
                f"{self.kind.value} magnitude is the fraction of capacity "
                f"lost; need 0 < m <= 1, got {spec.magnitude}"
            )

    def inject(self, spec: FaultSpec, state: FacilityState) -> _Effect:
        if self.kind is FaultKind.FACILITY_HEATWAVE:
            state.ambient_extra_c += spec.magnitude

            def revert() -> None:
                state.ambient_extra_c -= spec.magnitude

            detail = f"+{spec.magnitude:g}C ambient={state.ambient_c:.1f}C"
        else:
            field = _FACILITY_FIELD_BY_KIND[self.kind]
            lost = getattr(state, field) * spec.magnitude
            setattr(state, field, getattr(state, field) - lost)

            def revert() -> None:
                setattr(state, field, getattr(state, field) + lost)

            detail = f"-{spec.magnitude:g} {field}={getattr(state, field):.3f}"

        def undo() -> str:
            revert()
            return f"{self.kind.value} cond={state.condenser_fraction():.3f}"

        return _Effect(f"{detail} cond={state.condenser_fraction():.3f}", undo)


class PowerPredictionFaultInjector(FaultInjector):
    """Biases the peak-power predictor instead of breaking hardware.

    ``magnitude`` is the under-prediction fraction (0 < m < 1): every
    prediction scales down by it, so admission control keeps clearing
    VMs against watts that will not be there at peak. The target names a
    :class:`~repro.power.predictor.PeakPowerPredictor`;
    ``duration_s > 0`` schedules the bias clear. This is the quiet fault
    of the family — nothing trips at injection time; the damage surfaces
    only when real draws exceed the optimistic grants.
    """

    kind = FaultKind.POWER_UNDERPREDICTION

    def __init__(self, predictors: Mapping[str, PeakPowerPredictor]) -> None:
        self.targets = dict(predictors)

    def validate(self, spec: FaultSpec) -> None:
        if not 0.0 < spec.magnitude < 1.0:
            raise InjectionError(
                "power-underprediction magnitude is the fraction predictions "
                f"shrink by; need 0 < m < 1, got {spec.magnitude}"
            )

    def inject(self, spec: FaultSpec, predictor: PeakPowerPredictor) -> _Effect:
        predictor.inject_bias(spec.magnitude)

        def undo() -> str:
            predictor.clear_bias()
            return "prediction bias cleared"

        return _Effect(f"bias={spec.magnitude:g}", undo)


class PowerSurgeInjector(FaultInjector):
    """Synchronized demand peaks: the diversity bet lost all at once.

    ``magnitude`` is the fractional draw increase (0.3 = every host in
    the target subtree pulls 30% above its metered baseline) — the
    correlated-peak event oversubscription bets against. The injector
    acts through callbacks so the same campaign drives a bare draw model
    in unit tests and the full crisis experiment: ``on_surge(target,
    fraction)`` at fire time, ``on_end(target)`` after ``duration_s``.
    """

    kind = FaultKind.POWER_SURGE

    def __init__(
        self,
        on_surge: Callable[[str, float], None],
        on_end: Callable[[str], None] | None = None,
        targets: Mapping[str, object] | None = None,
    ) -> None:
        self.on_surge = on_surge
        self.on_end = on_end
        self.targets = dict(targets) if targets is not None else None

    def validate(self, spec: FaultSpec) -> None:
        if spec.magnitude <= 0.0:
            raise InjectionError(
                "power-surge magnitude is a positive fractional draw increase"
            )

    def inject(self, spec: FaultSpec, target: object) -> _Effect:
        self.on_surge(spec.target, spec.magnitude)
        return _Effect(f"+{spec.magnitude:g}x draw", lambda: "surge ended")

    def recovered(self, spec: FaultSpec) -> None:
        if self.on_end is not None:
            self.on_end(spec.target)


class SiliconHealthInjector(FaultInjector):
    """Ages silicon and pollutes machine-check telemetry on demand.

    One injector instance handles one silicon-health
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_health_injectors` to cover all three at once); like
    every injector it acts through callbacks so the same campaign
    drives a bare :class:`~repro.health.part.SiliconPart` map in a unit
    test and the full health pipeline in ``experiments.sdc_hunt``:

    * ``silicon-margin-drift`` — ``on_drift(host, magnitude)``: the
      host's stable margin drops by ``magnitude`` ratio units at fire
      time (accelerated aging; magnitude must be positive).
    * ``mce-burst`` — ``on_burst(host, count)``: ``magnitude`` (≥ 1,
      rounded) spurious correctable errors land in the host's next
      observation window — noise the detector must not over-react to.
    * ``sdc`` — ``on_sdc(host)``: one forced silent corruption charged
      to the host's ground-truth record.
    """

    def __init__(
        self,
        kind: FaultKind,
        on_drift: Callable[[str, float], None] | None = None,
        on_burst: Callable[[str, int], None] | None = None,
        on_sdc: Callable[[str], None] | None = None,
    ) -> None:
        if kind not in HEALTH_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a silicon-health fault kind")
        self.kind = kind
        self.on_drift = on_drift
        self.on_burst = on_burst
        self.on_sdc = on_sdc

    def validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.SILICON_MARGIN_DRIFT:
            if spec.magnitude <= 0.0:
                raise InjectionError(
                    "silicon-margin-drift magnitude is a positive ratio loss"
                )
            if self.on_drift is None:
                raise InjectionError("silicon-margin-drift needs an on_drift callback")
        elif self.kind is FaultKind.MCE_BURST:
            if spec.magnitude < 1.0:
                raise InjectionError("mce-burst magnitude is an error count >= 1")
            if self.on_burst is None:
                raise InjectionError("mce-burst needs an on_burst callback")
        elif self.on_sdc is None:
            raise InjectionError("sdc needs an on_sdc callback")

    def inject(self, spec: FaultSpec, target: str) -> _Effect:
        if self.kind is FaultKind.SILICON_MARGIN_DRIFT:
            self.on_drift(spec.target, spec.magnitude)
            return _Effect(f"-{spec.magnitude:g} stable margin")
        if self.kind is FaultKind.MCE_BURST:
            count = int(round(spec.magnitude))
            self.on_burst(spec.target, count)
            return _Effect(f"{count} spurious CEs")
        self.on_sdc(spec.target)
        return _Effect("forced silent corruption")


class RolloutFaultInjector(FaultInjector):
    """Breaks change management: bad envelopes and wedged pushes.

    One injector instance handles one change-management
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_rollout_injectors` to cover both); like every
    injector it acts through callbacks, so the same campaign drives a
    bare dict of envelopes in a unit test and the full
    :class:`~repro.rollout.controller.RolloutController` pipeline in
    ``experiments.envelope_rollout``:

    * ``bad-envelope`` — ``on_bad_envelope(target, magnitude)``: a
      config push raises the target scope's envelope ``magnitude``
      ratio units above what the silicon sustains (magnitude must be
      positive) — the mischaracterized change the canary must catch.
    * ``rollout-stall`` — ``on_stall(target, duration_s)``: the
      envelope push to ``target`` hangs unconfirmed for ``duration_s``
      (wedged config agent); the controller must refuse to bake a
      half-applied wave.
    """

    def __init__(
        self,
        kind: FaultKind,
        on_bad_envelope: Callable[[str, float], None] | None = None,
        on_stall: Callable[[str, float], None] | None = None,
    ) -> None:
        if kind not in ROLLOUT_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a rollout fault kind")
        self.kind = kind
        self.on_bad_envelope = on_bad_envelope
        self.on_stall = on_stall

    def validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.BAD_ENVELOPE:
            if spec.magnitude <= 0.0:
                raise InjectionError(
                    "bad-envelope magnitude is a positive ratio overshoot"
                )
            if self.on_bad_envelope is None:
                raise InjectionError("bad-envelope needs an on_bad_envelope callback")
        else:
            if spec.duration_s <= 0.0:
                raise InjectionError("rollout-stall needs a positive duration")
            if self.on_stall is None:
                raise InjectionError("rollout-stall needs an on_stall callback")

    def inject(self, spec: FaultSpec, target: str) -> _Effect:
        # A stall is over when its push confirms; it records no recovery.
        if self.kind is FaultKind.BAD_ENVELOPE:
            self.on_bad_envelope(spec.target, spec.magnitude)
            return _Effect(f"+{spec.magnitude:g} over the stable envelope")
        self.on_stall(spec.target, spec.duration_s)
        return _Effect(f"push wedged for {spec.duration_s:g}s")


def _register_each(
    campaign: FaultCampaign,
    kinds: frozenset[FaultKind],
    build: Callable[[FaultKind], FaultInjector],
) -> FaultCampaign:
    """Register ``build(kind)`` for each of ``kinds``, in value order."""
    for kind in sorted(kinds, key=lambda k: k.value):
        campaign.register(build(kind))
    return campaign


def register_rollout_injectors(
    campaign: FaultCampaign,
    on_bad_envelope: Callable[[str, float], None],
    on_stall: Callable[[str, float], None],
) -> FaultCampaign:
    """Register one :class:`RolloutFaultInjector` per rollout kind."""
    return _register_each(
        campaign,
        ROLLOUT_FAULT_KINDS,
        lambda kind: RolloutFaultInjector(
            kind, on_bad_envelope=on_bad_envelope, on_stall=on_stall
        ),
    )


def register_health_injectors(
    campaign: FaultCampaign,
    on_drift: Callable[[str, float], None],
    on_burst: Callable[[str, int], None],
    on_sdc: Callable[[str], None],
) -> FaultCampaign:
    """Register one :class:`SiliconHealthInjector` per health kind."""
    return _register_each(
        campaign,
        HEALTH_FAULT_KINDS,
        lambda kind: SiliconHealthInjector(
            kind, on_drift=on_drift, on_burst=on_burst, on_sdc=on_sdc
        ),
    )


def register_power_injectors(
    campaign: FaultCampaign,
    predictors: Mapping[str, PeakPowerPredictor],
    on_surge: Callable[[str, float], None],
    on_surge_end: Callable[[str], None] | None = None,
    surge_targets: Mapping[str, object] | None = None,
) -> FaultCampaign:
    """Register both ``power-*`` injectors against one campaign."""
    campaign.register(PowerPredictionFaultInjector(predictors))
    campaign.register(
        PowerSurgeInjector(on_surge, on_end=on_surge_end, targets=surge_targets)
    )
    return campaign


def register_facility_injectors(
    campaign: FaultCampaign, facilities: Mapping[str, FacilityState]
) -> FaultCampaign:
    """Register one :class:`FacilityFaultInjector` per facility kind."""
    return _register_each(
        campaign, FACILITY_FAULT_KINDS, lambda kind: FacilityFaultInjector(kind, facilities)
    )


def register_channel_injectors(
    campaign: FaultCampaign, channels: Mapping[str, LossyChannel]
) -> FaultCampaign:
    """Register one :class:`ChannelFaultInjector` per control-plane kind."""
    return _register_each(
        campaign, CHANNEL_FAULT_KINDS, lambda kind: ChannelFaultInjector(kind, channels)
    )


def register_sensor_injectors(
    campaign: FaultCampaign, sensors: Mapping[str, FaultySensor]
) -> FaultCampaign:
    """Register one :class:`SensorFaultInjector` per sensor-fault kind."""
    return _register_each(
        campaign, SENSOR_FAULT_KINDS, lambda kind: SensorFaultInjector(kind, sensors)
    )


__all__ = [
    "FaultCampaign",
    "FaultInjector",
    "VMCrashInjector",
    "HostFailureInjector",
    "ThermalExcursionInjector",
    "PowerTripInjector",
    "SensorFaultInjector",
    "ChannelFaultInjector",
    "FacilityFaultInjector",
    "PowerPredictionFaultInjector",
    "PowerSurgeInjector",
    "SiliconHealthInjector",
    "RolloutFaultInjector",
    "register_health_injectors",
    "register_rollout_injectors",
    "register_sensor_injectors",
    "register_channel_injectors",
    "register_facility_injectors",
    "register_power_injectors",
    "TJ_ALARM",
    "BREAKER_BREACH",
    "RECOVERED",
]
