"""The M/G/k Client-Server application (paper Table IX, Section VI-D).

This is the workload behind the auto-scaling evaluation: "client request
arrivals are Markovian, the service times follow a General distribution,
and there are k servers (i.e., VMs)". Each :class:`ServerVM` models one
VM running the service as a processor-sharing multi-core server (see
the class docstring). Service demand is drawn from a lognormal (the
General distribution) and stretched by the VM's current CPU frequency
through the scalable-fraction law::

    service_time(f) = demand × (β · f_base/f + (1 − β))

— the same mechanism Eq. 1 assumes, so the auto-scaler's model and the
simulated "hardware" agree about physics while the controller still has
to estimate β from noisy counters.

The VM also integrates its own simulated Aperf/Pperf counters (see
:mod:`repro.telemetry.counters`) and cumulative busy-seconds, so the
auto-scaler samples real telemetry through :meth:`ServerVM.counter_snapshot`.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable

from ..errors import ConfigurationError, WorkloadError
from ..sim.kernel import Simulator
from ..telemetry.counters import CounterSnapshot
from ..telemetry.percentiles import LatencyRecorder
from ..units import ghz_to_mhz

#: Calibrated service demand of one request at the base frequency
#: (seconds). Back-solved from the paper's Figure 16 end state: six
#: 4-vcore VMs at 4000 QPS peak near 70% utilization
#: (4000 × 4.2 ms / 24 vcores = 0.70 — the baseline's observed ceiling),
#: every +500 QPS step forces a scale-out, and early steps transiently
#: saturate a 1–2 VM deployment — the regime in which the 60 s deploy
#: latency actually hurts and overclocking visibly pays. Fig. 15's
#: levels then put 3 VMs at 35%/70%/18%/105%/35%, matching its
#: documented control behaviour (the 3000-QPS peak stays above the
#: scale-out threshold at any frequency).
DEFAULT_SERVICE_MEAN_S = 0.0042

#: Coefficient of variation of the General service distribution. Kept
#: below 1 so the latency tail reflects queueing (what the auto-scaler
#: can fix) rather than intrinsic service variance (what it cannot).
DEFAULT_SERVICE_CV = 0.8

#: Core-bound share of the Client-Server app (see catalog profile).
DEFAULT_SCALABLE_FRACTION = 0.85


class ServerVM:
    """One VM of the client-server application.

    The VM is modelled as a **processor-sharing** server: all in-flight
    requests share the ``vcores`` equally (each request runs on at most
    one core). This matches a multithreaded service under CPU
    contention — as load approaches capacity, *whole sojourn times*
    stretch, which is exactly the degradation the paper's auto-scaler
    exists to fix.

    Implementation: the classic virtual-time construction. All active
    jobs deplete remaining work at the same instantaneous rate
    ``min(1, vcores/n) / slowdown(f)``; a virtual clock advances at that
    rate, each job completes when the clock passes
    ``arrival_reading + demand``, and a heap of
    ``(target, seq, arrival_time, on_complete)`` tuples keyed on that
    target yields the next completion in O(log n). ``on_complete`` is
    invoked as ``on_complete(completion_time, arrival_time)`` when the
    job finishes.

    The rate changes only when ``n`` or the frequency does, and every
    such change re-arms the completion event, so :meth:`_reschedule`
    computes the rate and :meth:`_advance` integrates with it.
    :meth:`_advance` also integrates the Aperf/Pperf counters: every
    busy vcore-second runs ``f`` (in MHz) × 10⁶ active cycles, of which
    the scalable fraction β are unstalled. The per-request paths,
    :meth:`submit` and :meth:`_complete_next`, inline both with the same
    arithmetic in the same order.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        vcores: int = 4,
        base_frequency_ghz: float = 3.4,
        service_mean_s: float = DEFAULT_SERVICE_MEAN_S,
        service_cv: float = DEFAULT_SERVICE_CV,
        scalable_fraction: float = DEFAULT_SCALABLE_FRACTION,
        latency_recorder: LatencyRecorder | None = None,
    ) -> None:
        if vcores < 1:
            raise ConfigurationError("a server VM needs at least one vcore")
        if not 0.0 <= scalable_fraction <= 1.0:
            raise ConfigurationError("scalable_fraction must be within [0, 1]")
        # Written so that NaN fails them: a NaN mean completes every
        # request at once.
        if not 0.0 < service_mean_s < math.inf:
            raise ConfigurationError("service mean must be positive and finite")
        if not 0.0 <= service_cv < math.inf:
            raise ConfigurationError("service CV must be finite and non-negative")
        if not 0.0 < base_frequency_ghz < math.inf:
            raise ConfigurationError("base frequency must be positive and finite")
        self._sim = simulator
        self.name = name
        self.vcores = vcores
        self.base_frequency_ghz = base_frequency_ghz
        self._frequency_ghz = base_frequency_ghz
        self._mhz = ghz_to_mhz(base_frequency_ghz)
        self._service_mean = service_mean_s
        self._service_cv = service_cv
        self.scalable_fraction = scalable_fraction
        self._slowdown = self._slowdown_at(base_frequency_ghz)
        self._stream = f"service:{name}"
        self._event_name = f"{name}:complete"
        #: The completion event's callback, bound once.
        self._on_completion_event = self._complete_next
        self._latency = latency_recorder
        self._busy_seconds = 0.0
        self._aperf = 0.0
        self._pperf = 0.0
        self._completed = 0
        # Processor-sharing state.
        self._jobs: list[tuple[float, int, float, Callable[[float, float], None] | None]] = []
        self._job_seq = 0
        self._virtual_time = 0.0
        #: Work each active job depletes per second, set by _reschedule.
        self._rate = 0.0
        self._last_advance = simulator.now
        self._pending_completion = None

    # ------------------------------------------------------------------
    # Frequency control (the scale-up/down knob)
    # ------------------------------------------------------------------
    @property
    def frequency_ghz(self) -> float:
        return self._frequency_ghz

    def set_frequency(self, frequency_ghz: float) -> None:
        """Change the VM's clock. In-flight requests immediately deplete
        their remaining work faster/slower (frequency transitions take
        tens of µs — effectively instantaneous at ms service times)."""
        if not 0.0 < frequency_ghz < math.inf:
            raise WorkloadError("frequency must be positive and finite")
        if frequency_ghz == self._frequency_ghz:
            return
        self._advance()
        self._frequency_ghz = frequency_ghz
        self._mhz = ghz_to_mhz(frequency_ghz)
        self._slowdown = self._slowdown_at(frequency_ghz)
        self._reschedule()

    def _slowdown_at(self, frequency_ghz: float) -> float:
        """Service-time stretch at ``frequency_ghz`` (1.0 at base)."""
        beta = self.scalable_fraction
        return beta * (self.base_frequency_ghz / frequency_ghz) + (1.0 - beta)

    # ------------------------------------------------------------------
    # Processor-sharing engine
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Integrate virtual time and telemetry up to the present."""
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
            cycles = busy * self._mhz * 1e6  # cycles = s * Hz
            self._aperf += cycles
            self._pperf += cycles * self.scalable_fraction

    def _reschedule(self) -> None:
        """(Re)arm the completion event for the job finishing next."""
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
            delay if delay > 0.0 else 0.0, self._on_completion_event, self._event_name
        )

    def _complete_next(self) -> None:
        # _advance, the completion, then _reschedule, in one pass.
        self._pending_completion = None
        sim = self._sim
        now = sim.now
        jobs = self._jobs
        span = now - self._last_advance
        self._last_advance = now
        n = len(jobs)
        if span > 0 and n > 0:
            self._virtual_time += self._rate * span
            vcores = self.vcores
            busy = (n if n < vcores else vcores) * span
            self._busy_seconds += busy
            cycles = busy * self._mhz * 1e6  # cycles = s * Hz
            self._aperf += cycles
            self._pperf += cycles * self.scalable_fraction
        if not n:
            return
        _target, _seq, arrival_time, on_complete = heappop(jobs)
        self._completed += 1
        if self._latency is not None:
            self._latency.record(now, now - arrival_time)
        if on_complete is not None:
            on_complete(now, arrival_time)
        # The hook may have submitted to this VM, which re-arms the event.
        pending = self._pending_completion
        if pending is not None:
            Simulator.cancel(pending)
            self._pending_completion = None
        if not jobs:
            return
        n = len(jobs)
        vcores = self.vcores
        self._rate = rate = (vcores / n if n > vcores else 1.0) / self._slowdown
        delay = (jobs[0][0] - self._virtual_time) / rate
        self._pending_completion = sim.after(
            delay if delay > 0.0 else 0.0, self._on_completion_event, self._event_name
        )

    def submit(
        self,
        arrival_time: float,
        demand_scale: float = 1.0,
        on_complete: Callable[[float, float], None] | None = None,
    ) -> None:
        """Accept a request from the load balancer.

        ``demand_scale`` multiplies the drawn service demand — the
        brownout ladder's "degraded responses" rung serves a cheaper
        variant by passing a scale below 1.0. ``on_complete`` fires at
        completion with ``(completion_time, arrival_time)``; the live
        service uses it for deadline and goodput accounting.
        """
        if not 0.0 < demand_scale < math.inf:
            raise WorkloadError("demand_scale must be positive and finite")
        # _advance, the new job, then _reschedule, in one pass.
        sim = self._sim
        now = sim.now
        jobs = self._jobs
        vcores = self.vcores
        span = now - self._last_advance
        self._last_advance = now
        n = len(jobs)
        if span > 0 and n > 0:
            self._virtual_time += self._rate * span
            busy = (n if n < vcores else vcores) * span
            self._busy_seconds += busy
            cycles = busy * self._mhz * 1e6  # cycles = s * Hz
            self._aperf += cycles
            self._pperf += cycles * self.scalable_fraction
        demand = demand_scale * sim.streams.lognormal(
            self._stream, self._service_mean, self._service_cv
        )
        self._job_seq += 1
        virtual_time = self._virtual_time
        heappush(jobs, (virtual_time + demand, self._job_seq, arrival_time, on_complete))
        pending = self._pending_completion
        if pending is not None:
            Simulator.cancel(pending)
        n += 1
        self._rate = rate = (vcores / n if n > vcores else 1.0) / self._slowdown
        delay = (jobs[0][0] - virtual_time) / rate
        self._pending_completion = sim.after(
            delay if delay > 0.0 else 0.0, self._on_completion_event, self._event_name
        )

    def drop_all_jobs(self) -> int:
        """Destroy every in-flight job (a host trip); returns the count.

        Dropped jobs never complete and never reach the latency
        recorder or their completion callbacks — exactly what a
        crash-stop does to the work it was serving.
        """
        self._advance()
        dropped = len(self._jobs)
        self._jobs.clear()
        self._reschedule()
        return dropped

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests currently being served (sharing the vcores)."""
        return len(self._jobs)

    @property
    def completed_requests(self) -> int:
        return self._completed

    @property
    def cumulative_busy_seconds(self) -> float:
        """Total vcore-busy time integrated up to the last event."""
        return self._busy_seconds

    def counter_snapshot(self) -> CounterSnapshot:
        """Aperf/Pperf/busy reading for the auto-scaler."""
        self._advance()
        return CounterSnapshot(
            time=self._sim.now,
            aperf=self._aperf,
            pperf=self._pperf,
            busy_seconds=self._busy_seconds,
        )


class LoadBalancer:
    """Round-robin request distribution over the active VM set.

    VMs are attached/detached by the auto-scaler as scale-out/in
    completes; requests always go to currently attached VMs.
    """

    def __init__(self) -> None:
        self._vms: list[ServerVM] = []
        #: The attached VMs' job heaps, for :attr:`in_flight`. A VM only
        #: ever mutates its heap in place, so only attach/detach rebuild it.
        self._heaps: tuple[list, ...] = ()
        self._next = 0
        self._dropped = 0

    @property
    def vms(self) -> tuple[ServerVM, ...]:
        return tuple(self._vms)

    @property
    def dropped_requests(self) -> int:
        return self._dropped

    def attach(self, vm: ServerVM) -> None:
        if vm in self._vms:
            raise ConfigurationError(f"VM {vm.name!r} is already attached")
        self._vms.append(vm)
        self._heaps = tuple(attached._jobs for attached in self._vms)

    def detach(self, vm: ServerVM) -> None:
        try:
            self._vms.remove(vm)
        except ValueError:
            raise ConfigurationError(f"VM {vm.name!r} is not attached") from None
        self._heaps = tuple(attached._jobs for attached in self._vms)
        if self._next >= len(self._vms):
            self._next = 0

    def route(
        self,
        arrival_time: float,
        demand_scale: float = 1.0,
        on_complete: Callable[[float, float], None] | None = None,
    ) -> ServerVM | None:
        """Send one request to the next VM in rotation; returns it."""
        vms = self._vms
        if not vms:
            self._dropped += 1
            return None
        count = len(vms)
        vm = vms[self._next % count]
        self._next = (self._next + 1) % count
        vm.submit(arrival_time, demand_scale, on_complete)
        return vm

    @property
    def in_flight(self) -> int:
        """Requests currently in service across every attached VM."""
        return sum(map(len, self._heaps))


__all__ = [
    "ServerVM",
    "LoadBalancer",
    "DEFAULT_SERVICE_MEAN_S",
    "DEFAULT_SERVICE_CV",
    "DEFAULT_SCALABLE_FRACTION",
]
