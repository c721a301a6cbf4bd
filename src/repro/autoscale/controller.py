"""The overclocking-enhanced auto-scaler (paper Figure 14 and Section VI-D).

:class:`AutoScaler` is the ASC box in the paper's architecture diagram:
clients hit the load balancer, server VMs answer, and the controller —
every 3 seconds — reads Aperf/Pperf/utilization telemetry and decides:

* **scale-out/in** from the 3-minute average utilization (slow, costly:
  a new VM takes 60 s to deploy);
* **scale-up/down** from the 30-second average plus Eq. 1 (fast: a
  frequency change is effectively instantaneous).

Three modes reproduce the paper's Table XI rows: BASELINE (out/in only),
OC-E (overclock to hide the deploy window), OC-A (overclock to avoid
deploys, "scale up and then out").

Failure recovery (the degraded mode): when serving VMs crash —
injected by :mod:`repro.faults` or any other caller of
:meth:`AutoScaler.inject_vm_failures` — the controller immediately
redeploys replacements (paying the full 60 s window) and, when built
with a ``recovery_guard``, overclocks the *survivors* through
:class:`~repro.reliability.governor.OverclockGuard` until the
replacements land. This is the paper's "hide the scale-out latency"
mechanism pointed at failures instead of load spikes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster.lifecycle import VMLifecycleManager
from ..cluster.vm import VMInstance, VMSpec
from ..errors import ConfigurationError
from ..reliability.governor import OverclockGuard
from ..reliability.safety import SafetySupervisor
from ..silicon.configs import B2, FrequencyConfig
from ..silicon.server import ServerPowerModel
from ..sim.kernel import Simulator
from ..telemetry.counters import CounterSnapshot
from ..telemetry.metrics import StateIntegrator, TimeSeries
from ..telemetry.percentiles import LatencyRecorder
from ..telemetry.power_meter import PowerMeter
from ..workloads.queueing import LoadBalancer, ServerVM
from .model import minimum_frequency_below, utilization_headroom_frequency
from .policy import AutoscalePolicy, ScalerMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..control.bus import Command, HostAgent
    from ..control.link import ActuationLink


@dataclass
class _VMHandle:
    """Controller-side bookkeeping for one server VM."""

    instance: VMInstance
    app: ServerVM
    history: deque[CounterSnapshot] = field(default_factory=deque)

    def utilization_over(self, now: float, window_s: float) -> tuple[float, float]:
        """(utilization, scalable_fraction) over the trailing window."""
        current = self.app.counter_snapshot()
        reference = None
        for snapshot in self.history:
            if snapshot.time >= now - window_s:
                break
            reference = snapshot
        if reference is None:
            reference = self.history[0] if self.history else current
        delta = current.delta(reference)
        if delta.interval <= 0:
            return 0.0, 1.0
        utilization = min(1.0, delta.busy_seconds / (delta.interval * self.app.vcores))
        return utilization, delta.scalable_fraction


@dataclass
class AutoScalerResult:
    """Everything the Table XI / Figures 15–16 reproduction needs."""

    mode: str
    utilization_trace: TimeSeries
    frequency_trace: TimeSeries
    vm_count: StateIntegrator
    latency: LatencyRecorder
    power: PowerMeter
    scale_out_events: int
    scale_in_events: int
    max_vms: int
    #: Serving VMs that crashed (injected or otherwise) during the run.
    vm_failures: int = 0
    #: Times the degraded mode overclocked survivors to cover a redeploy.
    recovery_boosts: int = 0
    #: Control ticks spent with telemetry degraded (frequency held at base).
    telemetry_degraded_ticks: int = 0
    #: Times the safety supervisor tripped and forced a de-rate.
    telemetry_derates: int = 0
    #: Control ticks spent under a declared facility emergency (no
    #: scale-up, no overclock, no recovery boosts).
    facility_emergency_ticks: int = 0
    #: Actuation commands that exhausted every retry without an ack.
    actuation_failures: int = 0
    #: Command re-sends after ack timeouts or breaker fast-fails.
    actuation_retries: int = 0
    #: Times the fleet's dead-man lease reverted it to base frequency.
    lease_reverts: int = 0
    #: Drift repairs issued by the reconciliation loop.
    reconcile_repairs: int = 0

    def vm_hours(self) -> float:
        return self.vm_count.integral() / 3600.0


class AutoScaler:
    """Closed-loop controller over a fleet of server VMs."""

    def __init__(
        self,
        simulator: Simulator,
        policy: AutoscalePolicy,
        vm_spec: VMSpec | None = None,
        initial_vms: int = 1,
        scale_out_latency_s: float = 60.0,
        power_model: ServerPowerModel | None = None,
        warmup_s: float = 0.0,
        recovery_guard: OverclockGuard | None = None,
        recovery_headroom_watts: float = float("inf"),
        safety: SafetySupervisor | None = None,
    ) -> None:
        if initial_vms < 1:
            raise ConfigurationError("need at least one initial VM")
        self._sim = simulator
        self.policy = policy
        self._spec = vm_spec if vm_spec is not None else VMSpec(vcores=4, memory_gb=16.0)
        self._lifecycle = VMLifecycleManager(simulator, scale_out_latency_s)
        self.load_balancer = LoadBalancer()
        self._handles: dict[str, _VMHandle] = {}
        self._frequency_ghz = policy.min_frequency_ghz
        self._ladder = policy.frequency_ladder()
        self._scale_out_in_flight = False
        self._last_scale_out_at = -float("inf")
        self._power_model = power_model if power_model is not None else ServerPowerModel()
        #: Degraded mode: with a guard attached, survivors overclock to
        #: absorb lost capacity while replacement deploys are in flight.
        self.recovery_guard = recovery_guard
        self.recovery_headroom_watts = recovery_headroom_watts
        self._recovery_in_flight = 0
        self.vm_failures = 0
        self.recovery_boosts = 0
        #: Fail-safe telemetry supervisor: while degraded, the frequency
        #: governor is bypassed and the fleet holds base frequency.
        self.safety = safety
        self.telemetry_degraded_ticks = 0
        self.telemetry_derates = 0
        self.facility_emergency_ticks = 0
        #: Unreliable actuation path (None = perfect, instantaneous).
        #: While attached, ``_frequency_ghz`` is the controller's
        #: *desired* frequency; serving VMs change speed only when the
        #: SET_FREQUENCY command actually lands on the host agent.
        self.actuation: "ActuationLink | None" = None
        self._actuation_host = ""
        self._actuation_agent: "HostAgent | None" = None
        self._pending_deploys: dict[str, tuple[float | None, bool]] = {}
        self._deploy_seq = 0
        self.lease_reverts = 0

        # Telemetry sinks.
        self.latency = LatencyRecorder("autoscaler", drop_warmup_before=warmup_s)
        self.utilization_trace = TimeSeries("avg-util")
        self.frequency_trace = TimeSeries("frequency-ghz")
        self.vm_count = StateIntegrator(initial_value=0.0, start_time=simulator.now)
        self.power = PowerMeter(start_time=simulator.now)
        self.scale_out_events = 0
        self.scale_in_events = 0
        self.max_vms = 0

        for _ in range(initial_vms):
            self._deploy_vm(latency_override_s=0.0)
        self._sim.every(
            policy.decision_interval_s, self._decide, name="asc-decision"
        )

    # ------------------------------------------------------------------
    # VM management
    # ------------------------------------------------------------------
    @property
    def frequency_ghz(self) -> float:
        return self._frequency_ghz

    @property
    def active_vm_count(self) -> int:
        """VMs serving traffic (attached to the load balancer)."""
        return len(self.load_balancer.vms)

    @property
    def provisioned_vm_count(self) -> int:
        """VMs serving or deploying."""
        return len(self._lifecycle.active_instances)

    # ------------------------------------------------------------------
    # Unreliable actuation (the control plane between ASC and fleet)
    # ------------------------------------------------------------------
    def attach_actuation(self, link: "ActuationLink", host_id: str = "fleet") -> None:
        """Route all further actuation through an unreliable control plane.

        The link's host agent becomes the fleet's BMC: frequency changes,
        deploys, and retirements happen only when their commands survive
        the link's channel, and the agent's dead-man lease autonomously
        reverts the fleet to base frequency if the controller's
        heartbeats (sent every decision tick) stop arriving.
        """
        if self.actuation is not None:
            raise ConfigurationError("an actuation link is already attached")
        self.actuation = link
        self._actuation_host = host_id
        self._actuation_agent = link.add_host(
            host_id,
            base_frequency_ghz=self.policy.min_frequency_ghz,
            apply_frequency=self._apply_frequency_direct,
            deploy_vm=self._materialize_deploy,
            retire_vm=self._materialize_retire,
            on_lease_expired=self._on_lease_expired,
        )

    def _actual_frequency_ghz(self) -> float:
        """What the fleet is really running (vs. ``_frequency_ghz`` desired)."""
        if self._actuation_agent is not None:
            return self._actuation_agent.frequency_ghz
        return self._frequency_ghz

    def _on_lease_expired(self, host_id: str) -> None:
        self.lease_reverts += 1

    def _materialize_deploy(self, token: str) -> None:
        """A DEPLOY_VM command landed: actually create the VM."""
        params = self._pending_deploys.pop(token, None)
        if params is None:
            return  # duplicate/reconciled deploy for a settled token
        latency_override_s, recovery = params
        self._deploy_vm_direct(latency_override_s, recovery, counted=True)

    def _materialize_retire(self, token: str) -> None:
        """A RETIRE_VM command landed: detach the named VM if still serving."""
        handle = self._handles.get(token)
        if handle is None:
            return  # already retired, crashed, or duplicate delivery
        self.load_balancer.detach(handle.app)
        del self._handles[token]
        self._lifecycle.delete_vm(handle.instance.vm_id)
        self._record_vm_count()

    def _on_deploy_failed(self, command: "Command", reason: str) -> None:
        """A deploy exhausted its retries: give the decision loop its
        slot back (it will re-decide from live load next tick)."""
        token = str(command.payload)
        params = self._pending_deploys.pop(token, None)
        if params is None:
            return
        _, recovery = params
        if self.actuation is not None and self.actuation.reconciler is not None:
            self.actuation.reconciler.drop_vm(token)
        if recovery:
            self._recovery_in_flight -= 1
            if self._recovery_in_flight == 0:
                self._end_recovery_boost()
        else:
            self._scale_out_in_flight = False

    def _deploy_vm(
        self, latency_override_s: float | None = None, recovery: bool = False
    ) -> None:
        if self.actuation is None or latency_override_s == 0.0:
            # Bootstrap deploys predate the link; everything else rides it.
            self._deploy_vm_direct(latency_override_s, recovery)
            return
        self._deploy_seq += 1
        token = f"vm-deploy-{self._deploy_seq}"
        self._pending_deploys[token] = (latency_override_s, recovery)
        # Intent is booked now; the host materializes it when (if) the
        # command lands, and _on_deploy_failed returns the slot.
        if recovery:
            self._recovery_in_flight += 1
        else:
            self._scale_out_in_flight = True
        self.actuation.deploy_vm(
            token, self._actuation_host, on_failed=self._on_deploy_failed
        )

    def _deploy_vm_direct(
        self,
        latency_override_s: float | None = None,
        recovery: bool = False,
        counted: bool = False,
    ) -> None:
        def on_ready(instance: VMInstance) -> None:
            app = ServerVM(
                self._sim,
                name=instance.vm_id,
                vcores=self._spec.vcores,
                base_frequency_ghz=self.policy.min_frequency_ghz,
                latency_recorder=self.latency,
            )
            app.set_frequency(self._actual_frequency_ghz())
            self.load_balancer.attach(app)
            self._handles[instance.vm_id] = _VMHandle(instance=instance, app=app)
            if recovery:
                self._recovery_in_flight -= 1
                if self._recovery_in_flight == 0:
                    self._end_recovery_boost()
            else:
                self._scale_out_in_flight = False
            self._record_vm_count()

        self._lifecycle.request_vm(
            self._spec, on_ready=on_ready, latency_override_s=latency_override_s
        )
        if not counted:
            if recovery:
                self._recovery_in_flight += 1
            elif latency_override_s != 0.0:
                self._scale_out_in_flight = True
        self._record_vm_count()

    def _retire_vm(self) -> None:
        """Scale in: detach the most recent VM and let it drain.

        With actuation attached the controller picks the victim now but
        the detach happens only when the RETIRE_VM command lands — a
        lost retirement leaves the VM serving (billable drift the
        reconciliation loop exists to bound).
        """
        vms = self.load_balancer.vms
        if not vms:
            return
        app = vms[-1]
        if self.actuation is not None:
            self.actuation.retire_vm(app.name, self._actuation_host)
            return
        self.load_balancer.detach(app)
        handle = self._handles.pop(app.name)
        self._lifecycle.delete_vm(handle.instance.vm_id)
        self._record_vm_count()

    def _record_vm_count(self) -> None:
        count = len(self._lifecycle.running_instances) + len(
            self._lifecycle.creating_instances
        )
        self.vm_count.set(self._sim.now, float(count))
        self.max_vms = max(self.max_vms, count)

    # ------------------------------------------------------------------
    # Failure recovery (degraded mode)
    # ------------------------------------------------------------------
    @property
    def recovering(self) -> bool:
        """True while replacement deploys for crashed VMs are in flight."""
        return self._recovery_in_flight > 0

    def inject_vm_failures(self, count: int = 1) -> tuple[str, ...]:
        """Crash up to ``count`` serving VMs and start their recovery.

        Each victim is detached from the load balancer (its in-flight
        requests are lost — crashes are ungraceful), marked FAILED, and
        replaced by a fresh deploy that pays the full scale-out latency.
        With a ``recovery_guard``, survivors are overclocked for the
        redeploy window. Victims are the most recently attached VMs, so
        the choice is deterministic. Returns the failed VM ids.
        """
        failed: list[str] = []
        for _ in range(count):
            vms = self.load_balancer.vms
            if not vms:
                break
            app = vms[-1]
            self.load_balancer.detach(app)
            handle = self._handles.pop(app.name)
            self._lifecycle.fail_vm(handle.instance.vm_id)
            failed.append(handle.instance.vm_id)
            self.vm_failures += 1
            self._deploy_vm(recovery=True)
        if failed:
            self._record_vm_count()
            self._begin_recovery_boost()
        return tuple(failed)

    def _begin_recovery_boost(self) -> None:
        """Overclock survivors through the guard while redeploys run."""
        if self.recovery_guard is None or not self._handles:
            return
        # Never boost blind: degraded telemetry outranks failure recovery.
        if self.safety is not None and self.safety.degraded:
            return
        requested = self.policy.max_frequency_ghz / self.policy.min_frequency_ghz
        decision = self.recovery_guard.decide(
            requested, power_headroom_watts=self.recovery_headroom_watts
        )
        if decision.granted_ratio <= 1.0:
            return
        target = min(
            self.policy.max_frequency_ghz,
            self.policy.min_frequency_ghz * decision.granted_ratio,
        )
        # Snap down onto the ladder: real parts clock in discrete bins.
        target = max(
            (step for step in self._ladder if step <= target + 1e-9),
            default=self._ladder[0],
        )
        if target > self._frequency_ghz:
            self.recovery_boosts += 1
            self._apply_frequency(target)

    def _end_recovery_boost(self) -> None:
        """All replacements landed: hand frequency back to the policy.

        BASELINE never touches frequency in its decision loop, so the
        boost must be explicitly dropped; the OC modes re-decide every
        3 s and will converge on their own.
        """
        if self.policy.mode is ScalerMode.BASELINE:
            self._apply_frequency(self.policy.min_frequency_ghz)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _decide(self) -> None:
        now = self._sim.now
        # 0. Actuation-plane liveness: heartbeats renew the fleet's
        #    dead-man lease, and an open breaker degrades the safety
        #    supervisor exactly like lost telemetry.
        if self.actuation is not None:
            self.actuation.heartbeat()
            if self.safety is not None:
                self.safety.observe_actuation(now, len(self.actuation.open_breakers))
        # 1. Sample telemetry from every serving VM.
        utils: list[float] = []
        betas: list[float] = []
        for handle in self._handles.values():
            utilization, beta = handle.utilization_over(now, self.policy.scale_up_window_s)
            utils.append(utilization)
            betas.append(beta)
            handle.history.append(handle.app.counter_snapshot())
            while (
                len(handle.history) > 2
                and handle.history[1].time < now - self.policy.scale_out_window_s
            ):
                handle.history.popleft()
        if not utils:
            return
        short_util = sum(utils) / len(utils)
        beta = sum(betas) / len(betas)
        self.utilization_trace.record(now, short_util)
        self.frequency_trace.record(now, self._actual_frequency_ghz())
        self._sample_power(short_util)

        long_util = self.utilization_trace.window_mean(now, self.policy.scale_out_window_s)
        if long_util is None:
            long_util = short_util

        # 2. Telemetry health. A degraded control plane fails safe: hold
        #    base frequency and suspend scale-in (capacity may only grow)
        #    until the supervisor re-arms on clean samples.
        degraded = False
        facility_emergency = False
        if self.safety is not None:
            if self.safety.fusion is not None:
                self.safety.poll(now)
            degraded = self.safety.degraded
            facility_emergency = getattr(self.safety, "facility_emergency", False)
        if facility_emergency:
            # A cooling-plant emergency: adding load is the one thing the
            # facility cannot absorb right now, so scale-out stops too
            # (degraded-mode rules below already stop boosts/overclock).
            self.facility_emergency_ticks += 1
        if degraded:
            self.telemetry_degraded_ticks += 1
            if self._frequency_ghz > self.policy.min_frequency_ghz:
                self.telemetry_derates += 1
                self._apply_frequency(self.policy.min_frequency_ghz)

        # 3. Scale-out/in on the slow signal.
        if self.policy.enable_scale_out:
            self._scale_out_in(
                long_util,
                allow_scale_in=not degraded,
                allow_scale_out=not facility_emergency,
            )

        # 4. Frequency control (suppressed entirely while degraded).
        if degraded:
            return
        if self.policy.mode is ScalerMode.OC_A:
            # Model-driven scale-up/down on the fast signal (Fig. 8b).
            self._scale_up_down(short_util, beta)
        elif self.policy.mode is ScalerMode.OC_E:
            # "Scales up straight to OC1 frequency when the scale-out
            # threshold is crossed, i.e. there are no scale-up/down
            # thresholds" — frequency simply tracks the slow signal,
            # hiding both deploy windows and capped overload (Fig. 8a).
            if long_util > self.policy.scale_out_threshold:
                self._apply_frequency(self.policy.max_frequency_ghz)
            else:
                self._apply_frequency(self.policy.min_frequency_ghz)

    def _scale_out_in(
        self,
        long_util: float,
        allow_scale_in: bool = True,
        allow_scale_out: bool = True,
    ) -> None:
        if (
            allow_scale_out
            and long_util > self.policy.scale_out_threshold
            and not self._scale_out_in_flight
            and self.provisioned_vm_count < self.policy.max_vms
            and self._sim.now - self._last_scale_out_at >= self.policy.scale_out_cooldown_s
        ):
            self.scale_out_events += 1
            self._last_scale_out_at = self._sim.now
            self._deploy_vm()
        elif (
            allow_scale_in
            and long_util < self.policy.scale_in_threshold
            and self.active_vm_count > self.policy.min_vms
            and not self._scale_out_in_flight
        ):
            self.scale_in_events += 1
            self._retire_vm()

    def _scale_up_down(self, short_util: float, beta: float) -> None:
        if short_util > self.policy.scale_up_threshold:
            target = minimum_frequency_below(
                short_util,
                beta,
                self._frequency_ghz,
                self._ladder,
                self.policy.scale_up_threshold,
            )
            if target > self._frequency_ghz:
                self._apply_frequency(target)
        elif short_util < self.policy.scale_down_threshold:
            target = utilization_headroom_frequency(
                short_util,
                beta,
                self._frequency_ghz,
                self._ladder,
                self.policy.scale_up_threshold,
            )
            if target < self._frequency_ghz:
                self._apply_frequency(target)

    def _apply_frequency(self, frequency_ghz: float) -> None:
        """Desire ``frequency_ghz``; apply it directly or via the bus."""
        if frequency_ghz == self._frequency_ghz:
            return
        self._frequency_ghz = frequency_ghz
        if self.actuation is not None:
            self.actuation.set_frequency(frequency_ghz, hosts=(self._actuation_host,))
            return
        self._apply_frequency_direct(frequency_ghz)

    def _apply_frequency_direct(self, frequency_ghz: float) -> None:
        """The actuator: retune every serving VM (host-agent callback)."""
        for handle in self._handles.values():
            handle.app.set_frequency(frequency_ghz)

    # ------------------------------------------------------------------
    # Power accounting
    # ------------------------------------------------------------------
    def _sample_power(self, utilization: float) -> None:
        busy_cores = sum(
            handle.app.vcores * utilization for handle in self._handles.values()
        )
        busy_cores = min(busy_cores, float(self._power_model.spec.pcores))
        # Power follows the frequency the silicon actually runs, not the
        # one the controller believes it commanded.
        actual_ghz = self._actual_frequency_ghz()
        # Voltage tracks the V/F curve: the +50 mV offset applies in full
        # only at the top of the ladder (4.1 GHz), proportionally below.
        span = self.policy.max_frequency_ghz - self.policy.min_frequency_ghz
        offset_mv = 50.0 * max(
            0.0, (actual_ghz - self.policy.min_frequency_ghz) / span
        )
        config = FrequencyConfig(
            name="asc-dynamic",
            core_ghz=actual_ghz,
            voltage_offset_mv=offset_mv,
            turbo_enabled=None,
            llc_ghz=B2.llc_ghz,
            memory_ghz=B2.memory_ghz,
        )
        self.power.set_power(self._sim.now, self._power_model.watts(config, busy_cores))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finish(self) -> AutoScalerResult:
        """Close the metering horizon and return the run's results."""
        now = self._sim.now
        self.vm_count.finish(now)
        self.power.finish(now)
        return AutoScalerResult(
            mode=self.policy.mode.value,
            utilization_trace=self.utilization_trace,
            frequency_trace=self.frequency_trace,
            vm_count=self.vm_count,
            latency=self.latency,
            power=self.power,
            scale_out_events=self.scale_out_events,
            scale_in_events=self.scale_in_events,
            max_vms=self.max_vms,
            vm_failures=self.vm_failures,
            recovery_boosts=self.recovery_boosts,
            telemetry_degraded_ticks=self.telemetry_degraded_ticks,
            telemetry_derates=self.telemetry_derates,
            facility_emergency_ticks=self.facility_emergency_ticks,
            actuation_failures=(
                self.actuation.counters.failures if self.actuation is not None else 0
            ),
            actuation_retries=(
                self.actuation.counters.retries if self.actuation is not None else 0
            ),
            lease_reverts=self.lease_reverts,
            reconcile_repairs=(
                self.actuation.counters.reconcile_repairs
                if self.actuation is not None
                else 0
            ),
        )


__all__ = ["AutoScaler", "AutoScalerResult"]
