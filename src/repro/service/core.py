"""The deterministic heart of the live service: one tick at a time.

:class:`ServiceCore` advances a small immersion-cooled fleet serving
trace-driven diurnal load entirely in *simulated* time. The asyncio
shell (:mod:`repro.service.server`) decides how fast wall-clock ticks
happen; this module decides — bit-reproducibly — what each tick does:

1. apply any operator ops queued since the last tick;
2. draw this tick's arrivals from the diurnal trace and feed them
   through admission → bounded deadline queue → processor-sharing fleet;
3. integrate the shared tank's thermals from the fleet's power draw;
4. run the control ladders: the CoDel-style delay signal drives the
   brownout ladder, the worst junction margin drives the thermal
   emergency ladder, and the two compose through the boost gate
   (overclocks require *both* ladders quiet and telemetry healthy);
5. fold everything into a chained tick signature.

The signature chain is the crash-safety contract: a core rebuilt from
the same seed and config, with the same ops replayed at the same tick
indices, reproduces the chain bit-for-bit — which is exactly what the
:class:`~repro.service.checkpoint.ServiceSession` WAL verifies after a
SIGKILL.

Two modes share every line of workload and physics:

* ``robust`` — the full overload stack described above;
* ``naive`` — no admission, no queue bounds, no deadline shedding, no
  ladders: every request is dispatched on arrival, overclock is never
  revoked, and the only thermal protection is the hardware trip at
  Tjmax (which destroys in-flight work). This is the strawman the
  overload-storm experiment races against.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Mapping

from ..cluster.host import Host
from ..cluster.power_cap import PowerCapGovernor
from ..cluster.vm import VMInstance, VMSpec
from ..control.link import ActuationLink
from ..emergency.ladder import EmergencyCoordinator, EmergencyStage, LadderConfig
from ..errors import ConfigurationError
from ..faults.timeline import FaultTimeline
from ..health.audit import SdcAuditor
from ..reliability.safety import SafetySupervisor
from ..silicon.configs import config_by_name
from ..sim.kernel import Simulator
from ..sim.random import split_seed
from ..telemetry.counters import HealthCounters, ServiceCounters
from ..telemetry.percentiles import LatencyWindow
from ..thermal.fluids import FC_3284
from ..thermal.transient import TankFluidRC
from ..workloads.diurnal import ArrivalProcess, DiurnalTrace
from ..workloads.queueing import LoadBalancer, ServerVM
from .admission import AdmissionController, ClassPolicy, PriorityClass
from .backlog import BoundedDeadlineQueue, QueueDelayController, Request
from .brownout import BrownoutConfig, BrownoutLadder, BrownoutStage

#: The service's two operating modes.
MODES = ("robust", "naive")

#: Operator ops :meth:`ServiceCore.apply_op` understands.
OP_KINDS = (
    "demand-surge",
    "thermal-excursion",
    "power-cap",
    "overclock",
    "vm-crash",
    "rollout",
)

#: The largest ``demand-surge`` factor an operator may apply. Arrivals
#: scale with the factor, so a huge one makes a single tick schedule
#: without bound; the storm experiment and the benchmark surge 2.6× and
#: 3.0×.
MAX_SURGE_FACTOR = 10.0


def _number(op: Mapping[str, object], key: str) -> float:
    """``op[key]``, which must be a JSON number: ``float()`` would also
    read ``true`` as 1.0 and the string ``"10"`` as 10.0."""
    value = op[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise ConfigurationError(f"{key!r} must be finite") from None


def _flag(op: Mapping[str, object], key: str) -> bool:
    """``op[key]``, which must be a JSON boolean: anything else would be
    read by its truth value, and ``bool("false")`` is true."""
    value = op[key]
    if not isinstance(value, bool):
        raise ConfigurationError(f"{key!r} must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that shapes one service run except the seed and mode.

    Defaults are calibrated to the four-host demo fleet: 16 vcores at a
    40 ms mean service demand give ~400 rps of base capacity, the
    diurnal peak loads it to ~65%, and a 2–3× demand surge pushes it
    firmly past saturation — the regime the overload stack exists for.
    """

    # Tick and fleet shape.
    tick_s: float = 0.25
    hosts: int = 4
    vcores_per_host: int = 4
    service_mean_s: float = 0.04
    service_cv: float = 0.8
    scalable_fraction: float = 0.85

    # Diurnal offered load (compressed day for fast runs).
    trough_rps: float = 120.0
    peak_rps: float = 260.0
    period_s: float = 240.0
    #: Offered-traffic mix by :class:`PriorityClass` order
    #: (critical, standard, batch); must sum to 1.
    class_mix: tuple[float, float, float] = (0.2, 0.5, 0.3)

    # Admission policies (robust mode only).
    critical_policy: ClassPolicy = ClassPolicy(rate_per_s=90.0, burst=40.0, deadline_s=0.5)
    standard_policy: ClassPolicy = ClassPolicy(rate_per_s=220.0, burst=60.0, deadline_s=0.7)
    batch_policy: ClassPolicy = ClassPolicy(rate_per_s=120.0, burst=40.0, deadline_s=1.6)

    # Backlog and dispatch.
    queue_capacity: int = 400
    max_in_flight: int = 48
    delay_target_s: float = 0.05
    delay_window_ticks: int = 3
    #: Don't dispatch work whose deadline is closer than this: it would
    #: complete late and waste the server time on-time work needed.
    dispatch_slack_s: float = 0.08

    # Brownout ladder.
    brownout: BrownoutConfig = BrownoutConfig()
    degraded_demand_scale: float = 0.5

    # Thermal plant and emergency ladder.
    fluid_mass_grams: float = 1500.0
    tank_capacity_watts: float = 500.0
    theta_c_per_w: float = 0.25
    tjmax_c: float = 85.0
    emergency: LadderConfig = LadderConfig(
        revoke_margin_c=11.0,
        cap_margin_c=9.0,
        evacuate_margin_c=5.0,
        shutdown_margin_c=2.5,
        hysteresis_c=1.5,
        relax_clean_ticks=4,
    )
    emergency_cap_watts: float = 95.0
    trip_recovery_s: float = 25.0

    # Frequency configurations (Table VII names).
    base_config_name: str = "B2"
    boost_config_name: str = "OC1"

    # Duplicate-execution SDC audit. Inert at the defaults: no request
    # is sampled, no host corrupts, and the tick signature chain is
    # bit-identical to a build without the audit. ``sdc_faulty_hosts``
    # names hosts whose results silently corrupt with probability
    # ``sdc_corruption_per_request`` per served request; robust mode
    # re-executes a ``sdc_audit_fraction`` sample on a second host and
    # charges signature mismatches, naive mode lets corruption escape.
    sdc_audit_fraction: float = 0.0
    sdc_faulty_hosts: tuple[str, ...] = ()
    sdc_corruption_per_request: float = 0.0

    # Telemetry. ``history_ticks`` is how many of the last ticks keep
    # their per-tick sample and their request latencies.
    warmup_s: float = 5.0
    history_ticks: int = 512

    def __post_init__(self) -> None:
        # Each check fails on NaN, which passes a ``<= 0`` test: an
        # infinite tick would never finish drawing its arrivals, and an
        # infinite rate turns the arrival clock into NaN.
        if not 0.0 < self.tick_s < math.inf:
            raise ConfigurationError("tick length must be positive and finite")
        if self.hosts < 1 or self.vcores_per_host < 1:
            raise ConfigurationError("the fleet needs at least one host and vcore")
        if len(self.class_mix) != len(PriorityClass):
            raise ConfigurationError("class_mix needs one share per priority class")
        if not all(0.0 <= share < math.inf for share in self.class_mix):
            raise ConfigurationError("class_mix shares must be non-negative and finite")
        if not abs(sum(self.class_mix) - 1.0) <= 1e-9:
            raise ConfigurationError("class_mix must sum to 1")
        if self.queue_capacity < 1 or self.max_in_flight < 1:
            raise ConfigurationError("queue capacity and in-flight bound must be >= 1")
        if not 0.0 < self.degraded_demand_scale <= 1.0:
            raise ConfigurationError("degraded_demand_scale must be in (0, 1]")
        if not (
            0.0 < self.tank_capacity_watts < math.inf and 0.0 < self.fluid_mass_grams < math.inf
        ):
            raise ConfigurationError("tank parameters must be positive and finite")
        if not (0.0 < self.theta_c_per_w < math.inf and 0.0 < self.tjmax_c < math.inf):
            raise ConfigurationError("thermal parameters must be positive and finite")
        if not 0.0 < self.trip_recovery_s < math.inf:
            raise ConfigurationError("trip recovery time must be positive and finite")
        if self.history_ticks < 1:
            raise ConfigurationError("history must keep at least one tick")
        if not 0.0 <= self.sdc_audit_fraction <= 1.0:
            raise ConfigurationError("sdc_audit_fraction must be in [0, 1]")
        if not 0.0 <= self.sdc_corruption_per_request <= 1.0:
            raise ConfigurationError("sdc_corruption_per_request must be in [0, 1]")
        if self.sdc_audit_fraction > 0.0 and self.hosts < 2:
            raise ConfigurationError("the SDC audit needs a second host to re-execute on")
        # The float settings without a range above must still be finite.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{spec.name} must be finite, got {value!r}")
        config_by_name(self.base_config_name)
        config_by_name(self.boost_config_name)

    def policies(self) -> dict[PriorityClass, ClassPolicy]:
        return {
            PriorityClass.CRITICAL: self.critical_policy,
            PriorityClass.STANDARD: self.standard_policy,
            PriorityClass.BATCH: self.batch_policy,
        }


@dataclass(frozen=True)
class TickSample:
    """One tick's telemetry, as streamed by the metrics endpoint."""

    tick: int
    time_s: float
    offered: int
    admitted: int
    completed_ok: int
    completed_late: int
    shed_total: int
    queue_depth: int
    in_flight: int
    delay_signal_s: float
    brownout_stage: str
    emergency_stage: str
    fluid_temp_c: float
    worst_margin_c: float | None
    fleet_power_watts: float
    boost_active: bool
    signature: str


class ServiceCore:
    """Deterministic tick engine for the live service (see module doc)."""

    def __init__(
        self,
        seed: int,
        config: ServiceConfig | None = None,
        mode: str = "robust",
    ) -> None:
        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        self.seed = seed
        self.mode = mode
        self.config = config if config is not None else ServiceConfig()
        cfg = self.config
        self._base = config_by_name(cfg.base_config_name)
        self._boost = config_by_name(cfg.boost_config_name)

        self._sim = Simulator(seed=seed)
        self.timeline = FaultTimeline()
        self.counters = ServiceCounters()
        self.latency = LatencyWindow(
            cfg.history_ticks, name=f"service:{mode}", drop_warmup_before=cfg.warmup_s
        )

        # Duplicate-execution SDC audit (None unless configured, so the
        # default signature chain never sees it).
        self.health = HealthCounters()
        self._sdc_faulty = frozenset(cfg.sdc_faulty_hosts)
        self._auditor: SdcAuditor | None = None
        if cfg.sdc_audit_fraction > 0.0 or self._sdc_faulty:
            self._auditor = SdcAuditor(
                split_seed(seed, "sdc-audit"), cfg.sdc_audit_fraction
            )

        # Workload: diurnal trace → per-class arrival processes → fleet.
        self._trace = DiurnalTrace(
            trough_rps=cfg.trough_rps, peak_rps=cfg.peak_rps, period_s=cfg.period_s
        )
        self._arrivals = {
            klass: ArrivalProcess(self._sim.streams, f"arrivals:{klass.name.lower()}")
            for klass in PriorityClass
        }
        self._lb = LoadBalancer()
        self._hosts: list[Host] = []
        self._server_vms: list[ServerVM] = []
        for index in range(cfg.hosts):
            host = Host(f"h{index}", config=self._base)
            host.place(
                VMInstance(f"h{index}-vm0", VMSpec(vcores=cfg.vcores_per_host, memory_gb=16))
            )
            server = ServerVM(
                self._sim,
                name=f"h{index}",
                vcores=cfg.vcores_per_host,
                base_frequency_ghz=self._base.core_ghz,
                service_mean_s=cfg.service_mean_s,
                service_cv=cfg.service_cv,
                scalable_fraction=cfg.scalable_fraction,
                latency_recorder=self.latency,
            )
            self._hosts.append(host)
            self._server_vms.append(server)
            self._lb.attach(server)
        self._placed_vms = {index: 0 for index in range(cfg.hosts)}

        # Per-class tables the request path reads instead of rebuilding
        # them per request: each class's deadline and completion callback,
        # and the classes that carry traffic with their share and arrival
        # callback, in priority order.
        policies = cfg.policies()
        self._class_deadline_s = {klass: policy.deadline_s for klass, policy in policies.items()}
        self._on_done_by_class = {
            klass: partial(self._on_done, deadline_s)
            for klass, deadline_s in self._class_deadline_s.items()
        }
        on_arrival = self._on_arrival if mode == "naive" else self._on_admitted
        self._class_shares = tuple(
            (klass, cfg.class_mix[int(klass)], partial(on_arrival, klass))
            for klass in sorted(PriorityClass)
            if cfg.class_mix[int(klass)] > 0
        )
        self._max_in_flight = cfg.max_in_flight
        self._dispatch_slack_s = cfg.dispatch_slack_s

        # Thermal plant shared by the fleet.
        self._tank = TankFluidRC(
            FC_3284,
            fluid_mass_grams=cfg.fluid_mass_grams,
            nominal_capacity_watts=cfg.tank_capacity_watts,
        )
        self._tj_by_host: dict[str, float] = {}
        self._fleet_power_watts = 0.0

        # Overload stack (robust mode only).
        self._admission: AdmissionController | None = None
        self._queue: BoundedDeadlineQueue | None = None
        self._delay = QueueDelayController(
            target_s=cfg.delay_target_s, window_ticks=cfg.delay_window_ticks
        )
        self._brownout: BrownoutLadder | None = None
        self._emergency: EmergencyCoordinator | None = None
        self.safety: SafetySupervisor | None = None
        self._link: ActuationLink | None = None
        self._governor = PowerCapGovernor()
        # The lowest per-host cap the governor can always meet: what a
        # host draws at the frequency floor with every committed vcore
        # busy, which is how it enforces. A host holds one VM of the same
        # size whatever happens to it, so no later tick draws more.
        self._min_cap_watts = max(
            self._governor.floor_watts(host, config)
            for host in self._hosts
            for config in (self._base, self._boost)
        )
        if mode == "robust":
            self._admission = AdmissionController(policies)
            self._queue = BoundedDeadlineQueue(capacity=cfg.queue_capacity)
            self._brownout = BrownoutLadder(
                config=cfg.brownout, counters=self.counters, timeline=self.timeline
            )
            self.safety = SafetySupervisor()
            self._emergency = EmergencyCoordinator(
                config=cfg.emergency, safety=self.safety, timeline=self.timeline
            )
            self._link = ActuationLink(
                self._sim,
                seed=seed,
                reconcile_interval_s=None,
                timeline=self.timeline,
                name="service",
            )
            for index, host in enumerate(self._hosts):
                self._link.add_host(
                    host.host_id,
                    base_frequency_ghz=self._base.core_ghz,
                    apply_frequency=partial(self._apply_frequency, index),
                )
            self._register_brownout_rungs()
            self._register_emergency_rungs()

        # Control state.
        self._boost_enabled = True  # operator intent
        self._boost_suspended = False  # brownout REVOKE_BOOST rung
        self._boost_active = False
        self._degraded_mode = False
        self._operator_cap_watts: float | None = None
        self._emergency_cap_watts: float | None = None
        self._rollout_hold = False  # operator hold on envelope rollouts
        self._capped = False
        self._surge_factor_value = 1.0
        self._surge_until_s: float | None = None
        self._excursion_until_s: float | None = None
        self._request_seq = 0
        self._tick_index = 0
        self._tick_delays: list[float] = []
        self._chain = hashlib.sha256(
            f"service|{seed}|{mode}|{cfg.tick_s!r}|{cfg.hosts}".encode()
        ).hexdigest()
        #: Every ServiceCounters field in declaration order, for the chain.
        self._counter_values = attrgetter(*(spec.name for spec in fields(self.counters)))
        self.history: deque[TickSample] = deque(maxlen=cfg.history_ticks)

        if mode == "naive":
            # Naive fleets pin the overclock at boot and never look back.
            self._set_fleet_config(self._boost)
            self._boost_active = True
            self.counters.boost_grants += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._sim.now

    @property
    def tick_index(self) -> int:
        return self._tick_index

    @property
    def signature(self) -> str:
        """Chained digest over every tick so far (the replay contract)."""
        return self._chain

    @property
    def brownout_stage(self) -> BrownoutStage:
        return self._brownout.stage if self._brownout is not None else BrownoutStage.NORMAL

    @property
    def emergency_stage(self) -> EmergencyStage:
        return (
            self._emergency.stage if self._emergency is not None else EmergencyStage.NORMAL
        )

    @property
    def boost_active(self) -> bool:
        return self._boost_active

    @property
    def rollout_hold(self) -> bool:
        """Operator hold on envelope rollouts (the ``rollout`` op)."""
        return self._rollout_hold

    @property
    def min_power_cap_watts(self) -> float:
        """The lowest ``power-cap`` op accepted (see :meth:`apply_op`)."""
        return self._min_cap_watts

    @property
    def queue_depth(self) -> int:
        return self._queue.depth if self._queue is not None else 0

    @property
    def in_flight(self) -> int:
        return self._lb.in_flight

    # ------------------------------------------------------------------
    # Operator ops (journaled by ServiceSession before they reach here)
    # ------------------------------------------------------------------
    def apply_op(self, op: Mapping[str, object]) -> str:
        """Apply one operator op at the current tick boundary.

        Ops must arrive *between* ticks — the WAL records them against
        the upcoming tick index, so replay re-applies them at exactly
        the same boundary. Returns a short deterministic description
        (also recorded in the fault timeline, and therefore part of the
        run signature). Every number must be a JSON number and every flag
        a JSON boolean, and a ``power-cap`` below
        :attr:`min_power_cap_watts` is refused, since the governor could
        never meet it. Each is checked before any state changes, each
        check written so that NaN fails it, so a rejected op leaves the
        core exactly as it was.
        """
        kind = op.get("op")
        now = self._sim.now
        if kind == "demand-surge":
            factor = _number(op, "factor")
            duration = _number(op, "duration_s")
            # A NaN factor starves the arrivals and a huge one floods a
            # tick; a NaN or infinite duration never ends the surge.
            if not (0.0 < factor <= MAX_SURGE_FACTOR and 0.0 < duration < math.inf):
                raise ConfigurationError(
                    f"surge factor must be within (0, {MAX_SURGE_FACTOR:g}] and "
                    "duration positive and finite"
                )
            self._surge_factor_value = factor
            self._surge_until_s = now + duration
            detail = f"factor={factor:.2f} duration={duration:.1f}s"
            self.timeline.record(now, "op-demand-surge", "service", detail)
            return detail
        if kind == "thermal-excursion":
            derate = _number(op, "derate")
            duration = _number(op, "duration_s")
            if not 0.0 <= derate <= 1.0:
                raise ConfigurationError("derate must be within [0, 1]")
            if not 0.0 < duration < math.inf:
                raise ConfigurationError("excursion duration must be positive and finite")
            self._tank.set_capacity(now, self.config.tank_capacity_watts * derate)
            self._excursion_until_s = now + duration
            detail = f"derate={derate:.2f} duration={duration:.1f}s"
            self.timeline.record(now, "thermal-excursion", "tank", detail)
            return detail
        if kind == "power-cap":
            cap = None if op.get("watts") is None else _number(op, "watts")
            # A cap below the floor draw makes every later tick raise.
            if cap is not None and not self._min_cap_watts <= cap < math.inf:
                raise ConfigurationError(
                    f"power cap must be finite and at least {self._min_cap_watts:.1f} W, "
                    "a host's draw at the capping frequency floor (or null to clear)"
                )
            self._operator_cap_watts = cap
            detail = "cleared" if cap is None else f"cap={cap:.0f}W"
            self.timeline.record(now, "op-power-cap", "fleet", detail)
            return detail
        if kind == "overclock":
            enable = _flag(op, "enable")
            self._boost_enabled = enable
            detail = "enabled" if enable else "disabled"
            self.timeline.record(now, "op-overclock", "fleet", detail)
            return detail
        if kind == "vm-crash":
            target = str(op["host"])  # type: ignore[index]
            for server in self._server_vms:
                if server.name == target:
                    dropped = server.drop_all_jobs()
                    self.counters.lost_to_trips += dropped
                    detail = f"dropped={dropped}"
                    self.timeline.record(now, "vm-crash", target, detail)
                    return detail
            raise ConfigurationError(f"no host named {target!r} in the fleet")
        if kind == "rollout":
            # Operator hold on envelope rollouts. The flag is the whole
            # contract: a RolloutController embedded next to this core
            # mirrors it via hold()/release(), so a held rollout freezes
            # (visible in RolloutCounters) without touching the tick
            # signature chain of runs that never use the op.
            hold = _flag(op, "hold")
            self._rollout_hold = hold
            detail = "held" if hold else "released"
            self.timeline.record(now, "op-rollout", "fleet", detail)
            return detail
        raise ConfigurationError(f"unknown op {kind!r}; known ops: {OP_KINDS}")

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def tick(self) -> TickSample:
        """Advance the service by one tick of simulated time."""
        cfg = self.config
        start = self._sim.now
        self._tick_index += 1
        self._tick_delays = []
        self._expire_windows(start)

        # Arrivals for this tick. Admission reads only its per-class
        # token buckets and the priority floor, which changes only in
        # the rung actions after the run below, so each drawn arrival is
        # admitted at its arrival time here, class by class. Only the
        # admitted ones become events, so queueing and dispatch happen
        # at their true arrival times.
        rate = self._trace.rate_rps(start) * self._surge_factor_value
        at = self._sim.at
        counters = self.counters
        admission = self._admission
        for klass, share, on_arrival in self._class_shares:
            times = self._arrivals[klass].arrivals(start, cfg.tick_s, rate * share)
            counters.offered += len(times)
            if admission is None:
                for time_s in times:
                    at(time_s, on_arrival, "arrival")
                continue
            admit = admission.admit
            for time_s in times:
                if admit(time_s, klass) == "admitted":
                    at(time_s, on_arrival, "arrival")
        self._sim.run(until=start + cfg.tick_s)
        now = self._sim.now

        # Control plane: backlog hygiene, delay signal, ladders, boost.
        if self._queue is not None:
            self._queue.expire(now)
        signal = self._delay.observe(
            self._tick_delays,
            self._queue.head_age_s(now) if self._queue is not None else 0.0,
        )
        if self._brownout is not None:
            self._brownout.observe(now, self._brownout.headroom(signal))
        margin = self._update_thermal(now)
        if self.mode == "robust":
            assert self._emergency is not None and self._link is not None
            assert self.safety is not None
            self._emergency.observe(now, margin if margin is not None else float("inf"))
            self.safety.observe_actuation(now, len(self._link.open_breakers))
            self._resolve_boost()
            self._enforce_caps()
            self._link.heartbeat()
            self._drain()
        else:
            self._check_trips(now)
        self._sync_counters()

        sample = self._make_sample(now, signal, margin)
        self.history.append(sample)
        self.latency.close_tick()
        return sample

    def run_ticks(self, count: int) -> TickSample:
        """Advance ``count`` ticks and return the last sample."""
        if count < 1:
            raise ConfigurationError("must advance at least one tick")
        sample = None
        for _ in range(count):
            sample = self.tick()
        assert sample is not None
        return sample

    # ------------------------------------------------------------------
    # Arrival → admission → backlog → dispatch
    # ------------------------------------------------------------------
    def _on_arrival(self, klass: PriorityClass) -> None:
        """Naive mode: no admission, no queue, no bounds: dispatch now."""
        # The event fires at its scheduled time, so the clock is the
        # arrival time, exactly.
        now = self._sim.now
        self.counters.admitted += 1
        vm = self._lb.route(now, 1.0, self._on_done_by_class[klass])
        if vm is None:
            self.counters.lost_to_trips += 1
        elif self._auditor is not None:
            self._request_seq += 1
            self._observe_result(self._request_seq, vm)

    def _on_admitted(self, klass: PriorityClass) -> None:
        """Robust mode: queue or dispatch a request :meth:`tick` admitted."""
        now = self._sim.now
        queue = self._queue
        assert queue is not None
        self._request_seq += 1
        deadline_s = now + self._class_deadline_s[klass]
        if not queue.depth and self._lb.in_flight < self._max_in_flight:
            # Nothing waits and the fleet has room: the request passes
            # through the backlog's accounting and dispatches now.
            if queue.pass_through(deadline_s, now, self._dispatch_slack_s):
                self._tick_delays.append(0.0)
                self._dispatch(klass, now, 1.0, self._request_seq)
            return
        if queue.push(Request(self._request_seq, klass, now, deadline_s)):
            self._drain()

    def _corruption_probability(self, host_id: str) -> float:
        if host_id in self._sdc_faulty:
            return self.config.sdc_corruption_per_request
        return 0.0

    def _audit_partner(self, primary: ServerVM) -> ServerVM | None:
        """Deterministic second host for duplicate execution: the next
        live host in fleet order, or None when the fleet is down to one."""
        start = self._server_vms.index(primary)
        count = len(self._server_vms)
        for step in range(1, count):
            index = (start + step) % count
            if not self._hosts[index].failed:
                return self._server_vms[index]
        return None

    def _observe_result(self, request_id: int, primary: ServerVM) -> None:
        """Sampled duplicate-execution SDC audit on one dispatched request.

        The corruption draw and the sampling draw are both pure
        functions of ``(seed, host, request id)``, so enabling the
        audit never perturbs any other random stream. Un-audited
        corruption (and all corruption in naive mode, which runs with
        ``sdc_audit_fraction=0``) counts as a silent escape.
        """
        auditor = self._auditor
        assert auditor is not None
        rid = f"r{request_id}"
        corrupted = auditor.corrupts(
            primary.name, rid, self._corruption_probability(primary.name)
        )
        secondary = self._audit_partner(primary) if auditor.should_audit(rid) else None
        if secondary is None:
            if corrupted:
                self.health.sdc_escapes += 1
            return
        self.health.audits += 1
        secondary_corrupted = auditor.corrupts(
            secondary.name, rid, self._corruption_probability(secondary.name)
        )
        charged = auditor.audit(
            rid, primary.name, secondary.name, corrupted, secondary_corrupted
        )
        if charged is not None:
            self.health.audit_mismatches += 1
            self.health.sdc_caught += 1
            self.timeline.record(
                self._sim.now, "sdc-audit", charged, f"mismatch request={rid}"
            )

    def _on_done(self, deadline_s: float, completion_s: float, arrival_s: float) -> None:
        """Count a completion on time or late against its class's
        ``deadline_s`` (relative to arrival), then refill the fleet."""
        if completion_s <= arrival_s + deadline_s:
            self.counters.completed_ok += 1
        else:
            self.counters.completed_late += 1
        queue = self._queue
        if queue is not None and queue.depth:  # robust mode with work waiting
            self._drain()

    def _dispatch(
        self, klass: PriorityClass, arrival_s: float, scale: float, request_id: int
    ) -> bool:
        """Route one admitted request to the fleet; False when no host is up."""
        if self._degraded_mode:
            scale *= self.config.degraded_demand_scale
            self.counters.degraded_served += 1
        vm = self._lb.route(arrival_s, scale, self._on_done_by_class[klass])
        if vm is None:
            self.counters.lost_to_trips += 1
            return False
        if self._auditor is not None:
            self._observe_result(request_id, vm)
        return True

    def _drain(self) -> None:
        """Dispatch queued work while the fleet has in-flight headroom."""
        queue = self._queue
        if queue is None or not queue.depth:  # naive mode, or nothing waiting
            return
        now = self._sim.now
        slack_s = self._dispatch_slack_s
        # Only the dispatches below change the fleet's in-flight count
        # here: count them instead of re-summing every VM on each pass.
        in_flight = self._lb.in_flight
        while in_flight < self._max_in_flight:
            request = queue.pop(now, slack_s)
            if request is None:
                return
            self._tick_delays.append(max(0.0, now - request.arrival_s))
            if not self._dispatch(
                request.klass, request.arrival_s, request.demand_scale, request.request_id
            ):
                return
            in_flight += 1
            if not queue.depth:
                return

    # ------------------------------------------------------------------
    # Thermal plant and trips
    # ------------------------------------------------------------------
    def _update_thermal(self, now: float) -> float | None:
        """Integrate tank thermals; return the worst margin (None = no hosts)."""
        cfg = self.config
        total = 0.0
        watts_by_host: dict[str, float] = {}
        for host, server in zip(self._hosts, self._server_vms):
            if host.failed:
                continue
            watts = host.power_watts(min(1.0, server.in_flight / server.vcores))
            watts_by_host[host.host_id] = watts
            total += watts
        self._fleet_power_watts = total
        self._tank.set_heat(now, total)
        self._tank.sample(now)
        reference = self._tank.saturation_c + self._tank.reference_offset_c
        theta = cfg.theta_c_per_w
        self._tj_by_host = {
            host_id: reference + theta * watts for host_id, watts in watts_by_host.items()
        }
        if not self._tj_by_host:
            return None
        return min(cfg.tjmax_c - tj for tj in self._tj_by_host.values())

    def _check_trips(self, now: float) -> None:
        """Naive mode's only thermal protection: the hardware Tjmax trip."""
        for index, host in enumerate(self._hosts):
            if host.failed:
                continue
            tj = self._tj_by_host.get(host.host_id)
            if tj is None or tj < self.config.tjmax_c:
                continue
            dropped = self._server_vms[index].drop_all_jobs()
            self.counters.lost_to_trips += dropped
            host.fail(now)
            self._lb.detach(self._server_vms[index])
            self.timeline.record(
                now, "host-failure", host.host_id, f"tj-trip tj={tj:.1f}C dropped={dropped}"
            )
            self._sim.at(
                now + self.config.trip_recovery_s,
                partial(self._restore_host, index),
                name=f"{host.host_id}:restore",
            )

    def _restore_host(self, index: int) -> None:
        host = self._hosts[index]
        if not host.failed:
            return
        host.restore()
        self._placed_vms[index] += 1
        host.place(
            VMInstance(
                f"{host.host_id}-vm{self._placed_vms[index]}",
                VMSpec(vcores=self.config.vcores_per_host, memory_gb=16),
            )
        )
        self._lb.attach(self._server_vms[index])
        self.timeline.record(self._sim.now, "recovered", host.host_id, "post-trip restart")

    # ------------------------------------------------------------------
    # Frequency control: boost gate and power caps
    # ------------------------------------------------------------------
    def _apply_frequency(self, index: int, frequency_ghz: float) -> None:
        """Host-agent actuation callback (robust mode's command path)."""
        self._server_vms[index].set_frequency(frequency_ghz)
        host = self._hosts[index]
        if not host.failed:
            target = (
                self._boost
                if frequency_ghz >= self._boost.core_ghz - 1e-9
                else self._base
            )
            host.set_config(target)

    def _set_fleet_config(self, config) -> None:
        """Direct (link-less) frequency actuation, for naive mode."""
        for host, server in zip(self._hosts, self._server_vms):
            if not host.failed:
                host.set_config(config)
            server.set_frequency(config.core_ghz)

    def _effective_cap_watts(self) -> float | None:
        caps = [
            cap
            for cap in (self._operator_cap_watts, self._emergency_cap_watts)
            if cap is not None
        ]
        return min(caps) if caps else None

    def _resolve_boost(self) -> None:
        """Grant or revoke the fleet overclock through the command bus.

        The gate composes every protection layer: operator intent, the
        brownout ladder's REVOKE_BOOST rung, the thermal emergency
        ladder, fail-safe telemetry state, and any active power cap.
        Revokes triggered by a thermal emergency go out at emergency
        priority so an open circuit breaker cannot veto them.
        """
        assert self._link is not None and self.safety is not None
        allowed = (
            self._boost_enabled
            and not self._boost_suspended
            and self.emergency_stage is EmergencyStage.NORMAL
            and not self.safety.degraded
            and self._effective_cap_watts() is None
        )
        if allowed and not self._boost_active:
            self._link.set_frequency(self._boost.core_ghz)
            self._boost_active = True
            self.counters.boost_grants += 1
        elif not allowed and self._boost_active:
            emergency = self.emergency_stage is not EmergencyStage.NORMAL
            self._link.set_frequency(self._base.core_ghz, emergency=emergency)
            self._boost_active = False
            self.counters.boost_revokes += 1

    def _enforce_caps(self) -> None:
        cap = self._effective_cap_watts()
        if cap is None:
            if self._capped:
                # Cap lifted: restore the nominal configuration.
                target = self._boost if self._boost_active else self._base
                self._set_fleet_config(target)
                self._capped = False
            return
        self._capped = True
        results = self._governor.enforce_fleet(self._hosts, cap, utilization=1.0)
        for result in results:
            if result.capped:
                for host, server in zip(self._hosts, self._server_vms):
                    if host.host_id == result.host_id:
                        server.set_frequency(result.final_core_ghz)

    # ------------------------------------------------------------------
    # Brownout and emergency rung wiring
    # ------------------------------------------------------------------
    def _register_brownout_rungs(self) -> None:
        assert self._brownout is not None
        self._brownout.register(
            BrownoutStage.SHED_LOW_PRIORITY,
            engage=self._engage_shed,
            release=self._release_shed,
        )
        self._brownout.register(
            BrownoutStage.REVOKE_BOOST,
            engage=self._engage_revoke_boost,
            release=self._release_revoke_boost,
        )
        self._brownout.register(
            BrownoutStage.DEGRADED_RESPONSES,
            engage=self._engage_degraded,
            release=self._release_degraded,
        )
        self._brownout.register(
            BrownoutStage.REJECT_ADMISSION,
            engage=self._engage_reject,
            release=self._release_reject,
        )

    def _engage_shed(self) -> str:
        assert self._admission is not None and self._queue is not None
        self._admission.set_priority_floor(PriorityClass.STANDARD)
        dropped = self._queue.shed_class(PriorityClass.BATCH)
        return f"batch gated, shed {dropped} queued"

    def _release_shed(self) -> str:
        assert self._admission is not None
        self._admission.set_priority_floor(None)
        return "batch admission restored"

    def _engage_revoke_boost(self) -> str:
        self._boost_suspended = True
        return "boost suspended"

    def _release_revoke_boost(self) -> str:
        self._boost_suspended = False
        return "boost permitted"

    def _engage_degraded(self) -> str:
        self._degraded_mode = True
        return f"serving degraded (scale={self.config.degraded_demand_scale:.2f})"

    def _release_degraded(self) -> str:
        self._degraded_mode = False
        return "serving full responses"

    def _engage_reject(self) -> str:
        assert self._admission is not None
        self._admission.set_priority_floor(PriorityClass.CRITICAL)
        return "admission critical-only"

    def _release_reject(self) -> str:
        assert self._admission is not None
        # One rung down is SHED_LOW_PRIORITY, whose floor is STANDARD.
        self._admission.set_priority_floor(PriorityClass.STANDARD)
        return "standard admission restored"

    def _register_emergency_rungs(self) -> None:
        assert self._emergency is not None
        self._emergency.register(
            EmergencyStage.REVOKE_OVERCLOCK,
            engage=self._engage_revoke_overclock,
            release=self._release_revoke_overclock,
        )
        self._emergency.register(
            EmergencyStage.POWER_CAP,
            engage=self._engage_emergency_cap,
            release=self._release_emergency_cap,
        )
        self._emergency.register(
            EmergencyStage.EVACUATE,
            engage=self._engage_evacuate,
            release=self._release_evacuate,
        )
        self._emergency.register(
            EmergencyStage.SHUTDOWN,
            engage=self._engage_shutdown,
            release=self._release_shutdown,
        )

    def _engage_revoke_overclock(self) -> str:
        return "boost gate closed"  # _resolve_boost enforces it

    def _release_revoke_overclock(self) -> str:
        return "boost gate reopened"

    def _engage_emergency_cap(self) -> str:
        self._emergency_cap_watts = self.config.emergency_cap_watts
        return f"fleet cap {self.config.emergency_cap_watts:.0f}W"

    def _release_emergency_cap(self) -> str:
        self._emergency_cap_watts = None
        return "fleet cap lifted"

    def _engage_evacuate(self) -> str:
        assert self._admission is not None and self._queue is not None
        self._admission.set_priority_floor(PriorityClass.CRITICAL)
        dropped = self._queue.shed_class(PriorityClass.BATCH)
        dropped += self._queue.shed_class(PriorityClass.STANDARD)
        return f"critical-only, shed {dropped} queued"

    def _release_evacuate(self) -> str:
        assert self._admission is not None
        floor = (
            PriorityClass.STANDARD
            if self.brownout_stage >= BrownoutStage.SHED_LOW_PRIORITY
            else None
        )
        self._admission.set_priority_floor(floor)
        return "evacuation stance relaxed"

    def _engage_shutdown(self) -> str:
        """Controlled power-off of hosts until the crippled condenser
        can carry what is left (the ladder's last rung).

        Unlike a Tjmax trip this is the coordinator's choice: shedding
        hosts *before* their junctions cross the limit, keeping at
        least one alive for critical traffic. The in-flight work lost
        is accounted, and the release action brings the hosts back.
        """
        capacity = self._tank.capacity_watts
        shut: list[str] = []
        dropped_total = 0
        while True:
            live = [
                (index, host)
                for index, host in enumerate(self._hosts)
                if not host.failed
            ]
            if len(live) <= 1:
                break
            projected = sum(host.power_watts(1.0) for _, host in live)
            if projected <= capacity:
                break
            # Hottest live host goes first (ties break by host order).
            index, host = max(
                live, key=lambda pair: self._tj_by_host.get(pair[1].host_id, 0.0)
            )
            dropped_total += self._server_vms[index].drop_all_jobs()
            host.controlled_shutdown(self._sim.now)
            self._lb.detach(self._server_vms[index])
            shut.append(host.host_id)
        self.counters.lost_to_trips += dropped_total
        if not shut:
            return "fleet already fits condenser capacity"
        return f"off: {','.join(shut)} (dropped={dropped_total})"

    def _release_shutdown(self) -> str:
        """Bring controlled-shutdown hosts back as headroom returns."""
        restored: list[str] = []
        for index, host in enumerate(self._hosts):
            if not host.shut_down:
                continue
            host.restore()
            self._placed_vms[index] += 1
            host.place(
                VMInstance(
                    f"{host.host_id}-vm{self._placed_vms[index]}",
                    VMSpec(vcores=self.config.vcores_per_host, memory_gb=16),
                )
            )
            host.set_config(self._base)
            self._server_vms[index].set_frequency(self._base.core_ghz)
            self._lb.attach(self._server_vms[index])
            restored.append(host.host_id)
        if not restored:
            return "no hosts to restore"
        return f"restored: {','.join(restored)}"

    # ------------------------------------------------------------------
    # Windowed ops
    # ------------------------------------------------------------------
    def _expire_windows(self, now: float) -> None:
        if self._surge_until_s is not None and now >= self._surge_until_s:
            self._surge_factor_value = 1.0
            self._surge_until_s = None
            self.timeline.record(now, "op-demand-surge", "service", "expired")
        if self._excursion_until_s is not None and now >= self._excursion_until_s:
            self._tank.set_capacity(now, self.config.tank_capacity_watts)
            self._excursion_until_s = None
            self.timeline.record(now, "thermal-excursion", "tank", "recovered")

    # ------------------------------------------------------------------
    # Accounting and telemetry
    # ------------------------------------------------------------------
    def _sync_counters(self) -> None:
        counters = self.counters
        if self._queue is not None:
            counters.shed_overflow = self._queue.shed_overflow
            counters.shed_expired = self._queue.shed_expired
            counters.shed_low_priority = self._queue.shed_brownout
        if self._admission is not None:
            counters.admitted = self._admission.admitted
            counters.rejected_throttled = self._admission.throttled
            counters.rejected_brownout = self._admission.gated

    def _make_sample(
        self, now: float, delay_signal_s: float, margin: float | None
    ) -> TickSample:
        """Chain this tick into the signature and return its sample."""
        counters = self.counters
        tick = self._tick_index
        queue_depth = self.queue_depth
        in_flight = self.in_flight
        brownout_stage = self.brownout_stage.name
        emergency_stage = self.emergency_stage.name
        fluid_temp_c = self._tank.fluid_temp_c
        fleet_power_watts = self._fleet_power_watts
        boost_active = self._boost_active
        line = (
            f"{tick}|{now!r}|{'|'.join(map(str, self._counter_values(counters)))}"
            f"|{queue_depth}|{in_flight}|{delay_signal_s!r}|{brownout_stage}"
            f"|{emergency_stage}|{fluid_temp_c!r}|{margin!r}|{fleet_power_watts!r}"
            f"|{boost_active}|{len(self.timeline)}"
        )
        self._chain = hashlib.sha256((self._chain + line).encode()).hexdigest()
        return TickSample(
            tick=tick,
            time_s=now,
            offered=counters.offered,
            admitted=counters.admitted,
            completed_ok=counters.completed_ok,
            completed_late=counters.completed_late,
            shed_total=(
                counters.shed_low_priority + counters.shed_expired + counters.shed_overflow
            ),
            queue_depth=queue_depth,
            in_flight=in_flight,
            delay_signal_s=delay_signal_s,
            brownout_stage=brownout_stage,
            emergency_stage=emergency_stage,
            fluid_temp_c=fluid_temp_c,
            worst_margin_c=margin,
            fleet_power_watts=fleet_power_watts,
            boost_active=boost_active,
            signature=self._chain,
        )

    def snapshot(self) -> dict:
        """Full service state for the telemetry endpoint (JSON-safe)."""
        counters = {
            spec.name: getattr(self.counters, spec.name)
            for spec in fields(self.counters)
        }
        latency = None
        if len(self.latency) > 0:
            latency = self.latency.summary()
        margin = None
        if self._tj_by_host:
            margin = min(
                self.config.tjmax_c - tj for tj in self._tj_by_host.values()
            )
        return {
            "mode": self.mode,
            "seed": self.seed,
            "tick": self._tick_index,
            "time_s": self._sim.now,
            "signature": self._chain,
            "counters": counters,
            "health": {
                spec.name: getattr(self.health, spec.name)
                for spec in fields(self.health)
            },
            "queue_depth": self.queue_depth,
            "queue_max_depth": self._queue.max_depth if self._queue is not None else 0,
            "in_flight": self.in_flight,
            "delay_signal_s": self._delay.delay_signal_s,
            "brownout_stage": self.brownout_stage.name,
            "emergency_stage": self.emergency_stage.name,
            "safety_degraded": bool(self.safety.degraded) if self.safety else False,
            "boost_active": self._boost_active,
            "boost_enabled": self._boost_enabled,
            "rollout_hold": self._rollout_hold,
            "fluid_temp_c": self._tank.fluid_temp_c,
            "superheat_c": self._tank.superheat_c,
            "worst_margin_c": margin,
            "fleet_power_watts": self._fleet_power_watts,
            "live_hosts": sum(1 for host in self._hosts if not host.failed),
            "latency": latency,
            "timeline_events": len(self.timeline),
            "timeline_signature": self.timeline.signature(),
        }


__all__ = [
    "MODES",
    "OP_KINDS",
    "ServiceConfig",
    "TickSample",
    "ServiceCore",
]
