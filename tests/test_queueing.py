"""Tests for the processor-sharing server VM and load balancer."""

import math
from functools import partial
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.sim import OpenLoopSource, Simulator
from repro.telemetry import CounterSnapshot, LatencyRecorder
from repro.units import ghz_to_mhz
from repro.workloads import DEFAULT_SERVICE_MEAN_S, LoadBalancer, ServerVM

#: Offered load per vcore at a given QPS on a 4-vcore VM.
def offered_rho(qps, vcores=4):
    return qps * DEFAULT_SERVICE_MEAN_S / vcores



def run_vm(qps, seconds=60.0, frequency=None, seed=3, vcores=4):
    simulator = Simulator(seed=seed)
    recorder = LatencyRecorder()
    vm = ServerVM(simulator, "vm", vcores=vcores, latency_recorder=recorder)
    if frequency is not None:
        vm.set_frequency(frequency)
    OpenLoopSource(simulator, vm.submit, rate_per_second=qps)
    simulator.run(until=seconds)
    return vm, recorder, simulator


class TestServerVM:
    def test_utilization_matches_offered_load(self):
        vm, _, sim = run_vm(qps=700)
        utilization = vm.cumulative_busy_seconds / (sim.now * vm.vcores)
        assert utilization == pytest.approx(offered_rho(700), abs=0.03)

    def test_throughput_conserved(self):
        vm, recorder, _ = run_vm(qps=500)
        assert vm.completed_requests == pytest.approx(500 * 60, rel=0.1)
        assert len(recorder) == vm.completed_requests

    def test_latency_grows_with_load(self):
        _, light, _ = run_vm(qps=200)
        _, heavy, _ = run_vm(qps=900)
        assert heavy.p95() > light.p95()
        assert heavy.mean() > light.mean()

    def test_overclocking_reduces_latency(self):
        _, base, _ = run_vm(qps=880)
        _, fast, _ = run_vm(qps=880, frequency=4.1)
        ratio = fast.mean() / base.mean()
        # Per-request, Eq. 1 bounds the direct gain; under load the
        # queueing feedback amplifies it well beyond that bound.
        eq1_bound = 0.85 * 3.4 / 4.1 + 0.15
        assert ratio < eq1_bound
        assert ratio > 0.05

    def test_overclocking_rescues_a_saturated_vm(self):
        """At 1000 QPS a base-clock VM is past capacity (rho=1.05) and its
        queue grows without bound; at 4.1 GHz the same VM is stable."""
        base_vm, base, _ = run_vm(qps=1000)
        fast_vm, fast, _ = run_vm(qps=1000, frequency=4.1)
        assert base_vm.in_flight > 50          # diverging backlog
        assert fast_vm.in_flight < 50          # stable
        assert fast.mean() < base.mean() / 5.0

    def test_overclocking_gain_near_eq1_when_unloaded(self):
        _, base, _ = run_vm(qps=100)
        _, fast, _ = run_vm(qps=100, frequency=4.1)
        eq1_bound = 0.85 * 3.4 / 4.1 + 0.15
        assert fast.mean() / base.mean() == pytest.approx(eq1_bound, abs=0.05)

    def test_overclocking_reduces_utilization_by_eq1(self):
        vm_base, _, sim_base = run_vm(qps=750)
        vm_fast, _, sim_fast = run_vm(qps=750, frequency=4.1)
        util_base = vm_base.cumulative_busy_seconds / (sim_base.now * 4)
        util_fast = vm_fast.cumulative_busy_seconds / (sim_fast.now * 4)
        expected = util_base * (0.85 * 3.4 / 4.1 + 0.15)
        assert util_fast == pytest.approx(expected, abs=0.03)

    def test_counters_reflect_scalable_fraction(self):
        vm, _, sim = run_vm(qps=800)
        snapshot = vm.counter_snapshot()
        delta = snapshot.delta(type(snapshot)(time=0.0, aperf=0.0, pperf=0.0, busy_seconds=0.0))
        assert delta.scalable_fraction == pytest.approx(0.85, abs=1e-6)

    def test_frequency_change_mid_run(self):
        simulator = Simulator(seed=5)
        recorder = LatencyRecorder()
        vm = ServerVM(simulator, "vm", latency_recorder=recorder)
        OpenLoopSource(simulator, vm.submit, rate_per_second=1000)
        simulator.at(30.0, lambda: vm.set_frequency(4.1))
        simulator.run(until=60.0)
        assert vm.frequency_ghz == 4.1
        assert vm.completed_requests > 50_000

    def test_saturated_vm_backlogs(self):
        vm, _, _ = run_vm(qps=2000, seconds=30.0)  # capacity ~950 QPS
        assert vm.in_flight > 100

    def test_validation(self):
        simulator = Simulator()
        with pytest.raises(ConfigurationError):
            ServerVM(simulator, "vm", vcores=0)
        with pytest.raises(ConfigurationError):
            ServerVM(simulator, "vm", scalable_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ServerVM(simulator, "vm", service_mean_s=0.0)
        vm = ServerVM(simulator, "vm")
        with pytest.raises(WorkloadError):
            vm.set_frequency(0.0)

    @pytest.mark.parametrize("frequency", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, frequency):
        simulator = Simulator()
        vm = ServerVM(simulator, "vm")
        with pytest.raises(WorkloadError, match="finite"):
            vm.set_frequency(frequency)
        assert vm.frequency_ghz == 3.4

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_demand_scale_rejected(self, scale):
        simulator = Simulator()
        vm = ServerVM(simulator, "vm")
        with pytest.raises(WorkloadError, match="finite"):
            vm.submit(0.0, demand_scale=scale)
        assert vm.in_flight == 0


class ReferenceCoreCounters:
    """The Aperf/Pperf accumulator :class:`ServerVM` used to delegate to,
    kept as the reference its inline counters must match exactly."""

    def __init__(self):
        self._aperf = 0.0
        self._pperf = 0.0
        self._busy_seconds = 0.0

    def accumulate(self, busy_seconds, frequency_ghz, scalable_fraction):
        if busy_seconds < 0:
            raise WorkloadError("busy_seconds must be non-negative")
        if not 0.0 <= scalable_fraction <= 1.0:
            raise WorkloadError("scalable_fraction must be within [0, 1]")
        if frequency_ghz <= 0:
            raise WorkloadError("frequency must be positive")
        cycles = busy_seconds * ghz_to_mhz(frequency_ghz) * 1e6  # cycles = s * Hz
        self._aperf += cycles
        self._pperf += cycles * scalable_fraction
        self._busy_seconds += busy_seconds

    def snapshot(self, time):
        return CounterSnapshot(
            time=time,
            aperf=self._aperf,
            pperf=self._pperf,
            busy_seconds=self._busy_seconds,
        )


class ReferenceServerVM:
    """:class:`ServerVM` as it was before it integrated its own counters,
    changed only to cancel through ``Simulator.cancel``: the reference
    the VM must match bit for bit."""

    def __init__(
        self,
        simulator,
        name,
        vcores=4,
        base_frequency_ghz=3.4,
        service_mean_s=DEFAULT_SERVICE_MEAN_S,
        service_cv=0.8,
        scalable_fraction=0.85,
        latency_recorder=None,
    ):
        if vcores < 1:
            raise ConfigurationError("a server VM needs at least one vcore")
        if not 0.0 <= scalable_fraction <= 1.0:
            raise ConfigurationError("scalable_fraction must be within [0, 1]")
        if service_mean_s <= 0:
            raise ConfigurationError("service mean must be positive")
        self._sim = simulator
        self.name = name
        self.vcores = vcores
        self.base_frequency_ghz = base_frequency_ghz
        self._frequency_ghz = base_frequency_ghz
        self._service_mean = service_mean_s
        self._service_cv = service_cv
        self.scalable_fraction = scalable_fraction
        self._slowdown = self._slowdown_at(base_frequency_ghz)
        self._stream = f"service:{name}"
        self._event_name = f"{name}:complete"
        self._latency = latency_recorder
        self._counters = ReferenceCoreCounters()
        self._busy_seconds = 0.0
        self._completed = 0
        self._jobs = []
        self._job_seq = 0
        self._virtual_time = 0.0
        self._rate = 0.0
        self._last_advance = simulator.now
        self._pending_completion = None

    @property
    def frequency_ghz(self):
        return self._frequency_ghz

    def set_frequency(self, frequency_ghz):
        if frequency_ghz <= 0:
            raise WorkloadError("frequency must be positive")
        if frequency_ghz == self._frequency_ghz:
            return
        self._advance()
        self._frequency_ghz = frequency_ghz
        self._slowdown = self._slowdown_at(frequency_ghz)
        self._reschedule()

    def _slowdown_at(self, frequency_ghz):
        beta = self.scalable_fraction
        return beta * (self.base_frequency_ghz / frequency_ghz) + (1.0 - beta)

    def _advance(self):
        now = self._sim.now
        span = now - self._last_advance
        self._last_advance = now
        if span <= 0:
            return
        n = len(self._jobs)
        if n > 0:
            self._virtual_time += self._rate * span
            busy = (n if n < self.vcores else self.vcores) * span
            self._busy_seconds += busy
            self._counters.accumulate(busy, self._frequency_ghz, self.scalable_fraction)

    def _reschedule(self):
        if self._pending_completion is not None:
            self._sim.cancel(self._pending_completion)
            self._pending_completion = None
        jobs = self._jobs
        if not jobs:
            return
        n = len(jobs)
        vcores = self.vcores
        self._rate = rate = (vcores / n if n > vcores else 1.0) / self._slowdown
        delay = (jobs[0][0] - self._virtual_time) / rate
        self._pending_completion = self._sim.after(
            delay if delay > 0.0 else 0.0, self._complete_next, self._event_name
        )

    def _complete_next(self):
        self._pending_completion = None
        self._advance()
        if not self._jobs:
            return
        _target, _seq, arrival_time, on_complete = heappop(self._jobs)
        self._completed += 1
        now = self._sim.now
        if self._latency is not None:
            self._latency.record(now, now - arrival_time)
        if on_complete is not None:
            on_complete(now, arrival_time)
        self._reschedule()

    def submit(self, arrival_time, demand_scale=1.0, on_complete=None):
        if demand_scale <= 0:
            raise WorkloadError("demand_scale must be positive")
        self._advance()
        demand = demand_scale * self._sim.streams.lognormal(
            self._stream, self._service_mean, self._service_cv
        )
        self._job_seq += 1
        heappush(
            self._jobs, (self._virtual_time + demand, self._job_seq, arrival_time, on_complete)
        )
        self._reschedule()

    def drop_all_jobs(self):
        self._advance()
        dropped = len(self._jobs)
        self._jobs.clear()
        self._reschedule()
        return dropped

    @property
    def in_flight(self):
        return len(self._jobs)

    @property
    def cumulative_busy_seconds(self):
        return self._busy_seconds

    def counter_snapshot(self):
        self._advance()
        return self._counters.snapshot(self._sim.now)


#: One scheduled VM operation: submit (demand scale, arrival lag),
#: a clock change, a host trip, or a counter read.
_vm_ops = st.one_of(
    st.tuples(st.just("submit"), st.floats(0.05, 4.0), st.floats(0.0, 0.05)),
    st.tuples(st.just("frequency"), st.sampled_from([1.7, 2.8, 3.4, 4.1])),
    st.tuples(st.just("drop")),
    st.tuples(st.just("snapshot")),
)


def _drive_vm(vm_class, seed, schedule, untils):
    """Run ``schedule`` (``(time, op)`` pairs) on a fresh VM of
    ``vm_class`` over the ``untils`` segments; return everything the VM
    exposed along the way."""
    simulator = Simulator(seed=seed)
    recorder = LatencyRecorder()
    vm = vm_class(
        simulator, "vm", vcores=2, service_mean_s=0.08, latency_recorder=recorder
    )
    completions, reads = [], []

    def apply(op):
        kind = op[0]
        if kind == "submit":
            vm.submit(
                simulator.now - op[2],
                op[1],
                on_complete=lambda time, arrival: completions.append((time, arrival)),
            )
        elif kind == "frequency":
            vm.set_frequency(op[1])
        elif kind == "drop":
            reads.append(("dropped", vm.drop_all_jobs()))
        else:
            reads.append(vm.counter_snapshot())
        reads.append((vm.in_flight, vm.cumulative_busy_seconds))

    for time, op in schedule:
        simulator.at(time, partial(apply, op))
    for until in [*sorted(untils), None]:
        simulator.run(until=until)
        reads.append((simulator.now, vm.in_flight, vm.cumulative_busy_seconds))
        reads.append(vm.counter_snapshot())
    return completions, recorder.samples, reads


class TestServerVMMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.lists(st.tuples(st.floats(0.0, 2.0), _vm_ops), max_size=60),
        st.lists(st.floats(0.0, 2.5), max_size=4),
    )
    def test_bit_identical_to_reference(self, seed, schedule, untils):
        """Completions, latencies, counter snapshots, ``in_flight`` and
        busy seconds equal the reference's exactly (``==``, not approx)."""
        expected = _drive_vm(ReferenceServerVM, seed, schedule, untils)
        assert _drive_vm(ServerVM, seed, schedule, untils) == expected


class TestLoadBalancer:
    def test_round_robin_distribution(self):
        simulator = Simulator(seed=1)
        balancer = LoadBalancer()
        vms = [ServerVM(simulator, f"vm{i}") for i in range(3)]
        for vm in vms:
            balancer.attach(vm)
        OpenLoopSource(simulator, balancer.route, rate_per_second=900, deterministic=True)
        simulator.run(until=30.0)
        counts = [vm.completed_requests + vm.in_flight for vm in vms]
        assert max(counts) - min(counts) <= 1

    def test_detach_redirects_traffic(self):
        simulator = Simulator(seed=1)
        balancer = LoadBalancer()
        vms = [ServerVM(simulator, f"vm{i}") for i in range(2)]
        for vm in vms:
            balancer.attach(vm)
        OpenLoopSource(simulator, balancer.route, rate_per_second=200, deterministic=True)
        simulator.at(10.0, lambda: balancer.detach(vms[1]))
        simulator.run(until=20.0)
        total = sum(vm.completed_requests + vm.in_flight for vm in vms)
        assert total == pytest.approx(4000, abs=5)
        vm1_share = vms[1].completed_requests + vms[1].in_flight
        assert vm1_share == pytest.approx(1000, abs=5)

    def test_no_vms_drops_requests(self):
        balancer = LoadBalancer()
        balancer.route(0.0)
        assert balancer.dropped_requests == 1

    def test_attach_detach_validation(self):
        simulator = Simulator()
        balancer = LoadBalancer()
        vm = ServerVM(simulator, "vm")
        balancer.attach(vm)
        with pytest.raises(ConfigurationError):
            balancer.attach(vm)
        balancer.detach(vm)
        with pytest.raises(ConfigurationError):
            balancer.detach(vm)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["attach", "detach", "route", "drop", "run"]), st.integers(0, 2)),
            max_size=80,
        )
    )
    def test_in_flight_sums_the_attached_vms(self, ops):
        simulator = Simulator(seed=4)
        balancer = LoadBalancer()
        pool = [ServerVM(simulator, f"vm{i}", vcores=1, service_mean_s=0.5) for i in range(3)]
        for kind, index in ops:
            vm = pool[index]
            if kind == "attach" and vm not in balancer.vms:
                balancer.attach(vm)
            elif kind == "detach" and vm in balancer.vms:
                balancer.detach(vm)
            elif kind == "route":
                balancer.route(simulator.now)
            elif kind == "drop":
                vm.drop_all_jobs()
            elif kind == "run":
                simulator.run(until=simulator.now + 0.2 * index)
            assert balancer.in_flight == sum(attached.in_flight for attached in balancer.vms)
