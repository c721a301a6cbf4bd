"""Opportunistic margin screening for quarantined or idle hosts.

Quarantine answers "stop hurting the fleet"; screening answers "what is
this part actually good for now?". A screen runs a deterministic
test-vector sweep on a drained host: step the ratio, run the vectors,
watch the MCA counters. We model the sweep as a **bisection on the
part's true error-rate curve** — each probe asks "does ratio *r*
produce more than ``fail_rate_per_hour`` of correctable errors under
the vector load?" and halves the bracket, so ``ceil(log2(span /
resolution))`` probes pin the effective stable margin to within
``resolution``.

Because the error ramp is exponential with e-folding width *w*, the
rate at the bisection's upper estimate can exceed the floor by at most
``fail_rate`` — i.e. the estimate overshoots the true margin by at most
``w * ln(1 + fail_rate / base_rate)``. The published envelope subtracts
``guard_band``, which must dominate that overshoot plus the resolution;
the default parameters keep a ~2× cushion.

Screens take wall-clock time (``duration_hours``) and compete for a
bounded number of screening rigs (``max_concurrent``), so the scheduler
queues hosts FIFO and :meth:`poll` releases finished reports as
simulated time passes — capacity loss from screening is visible, not
free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError
from .part import SiliconPart


@dataclass(frozen=True)
class ScreenReport:
    """Outcome of one completed screening sweep."""

    host_id: str
    started_hours: float
    completed_hours: float
    #: Bisection estimate of the part's effective stable margin.
    estimated_stable_margin: float
    #: Number of bisection probes the sweep ran.
    probes: int
    #: The envelope handed to the guard: estimate minus the guard band,
    #: floored at 1.0 (stock). A part whose envelope is 1.0 has no
    #: overclock headroom left and is a retirement candidate.
    envelope_ratio: float


class ScreeningScheduler:
    """FIFO scheduler for margin-screening sweeps on drained hosts."""

    def __init__(
        self,
        parts: Mapping[str, SiliconPart],
        duration_hours: float = 4.0,
        resolution: float = 0.005,
        guard_band: float = 0.04,
        fail_rate_per_hour: float = 0.02,
        max_concurrent: int = 1,
        lo_ratio: float = 1.0,
        hi_ratio: float = 1.5,
    ) -> None:
        if duration_hours <= 0:
            raise ConfigurationError("screen duration must be positive")
        if resolution <= 0:
            raise ConfigurationError("resolution must be positive")
        if guard_band < 0:
            raise ConfigurationError("guard band cannot be negative")
        if fail_rate_per_hour <= 0:
            raise ConfigurationError("fail rate must be positive")
        if max_concurrent < 1:
            raise ConfigurationError("need at least one screening slot")
        if not lo_ratio < hi_ratio:
            raise ConfigurationError("need lo_ratio < hi_ratio")
        self._parts = dict(parts)
        self.duration_hours = duration_hours
        self.resolution = resolution
        self.guard_band = guard_band
        self.fail_rate_per_hour = fail_rate_per_hour
        self.max_concurrent = max_concurrent
        self.lo_ratio = lo_ratio
        self.hi_ratio = hi_ratio
        self._queue: list[tuple[str, float]] = []
        self._running: dict[str, tuple[float, float]] = {}
        self.screens_completed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def enqueue(self, host_id: str, time_hours: float) -> None:
        """Queue a drained host for screening (idempotent)."""
        if host_id not in self._parts:
            raise ConfigurationError(f"unknown host {host_id!r}")
        if host_id in self._running or any(h == host_id for h, _ in self._queue):
            return
        self._queue.append((host_id, time_hours))

    def pending(self, host_id: str) -> bool:
        """True while the host is queued or mid-screen."""
        return host_id in self._running or any(h == host_id for h, _ in self._queue)

    def poll(self, time_hours: float) -> list[ScreenReport]:
        """Advance to ``time_hours``: finish due screens, start queued ones.

        Returns reports for screens that completed by ``time_hours``,
        sorted by (completion time, host) for determinism.
        """
        done: list[ScreenReport] = []
        for host_id in sorted(self._running):
            started, due = self._running[host_id]
            if due <= time_hours:
                del self._running[host_id]
                done.append(self._screen(host_id, started, due))
        while self._queue and len(self._running) < self.max_concurrent:
            host_id, _ = self._queue.pop(0)
            self._running[host_id] = (time_hours, time_hours + self.duration_hours)
        done.sort(key=lambda r: (r.completed_hours, r.host_id))
        self.screens_completed += len(done)
        return done

    # ------------------------------------------------------------------
    # The sweep itself
    # ------------------------------------------------------------------
    def _screen(self, host_id: str, started: float, completed: float) -> ScreenReport:
        part = self._parts[host_id]
        lo, hi = self.lo_ratio, self.hi_ratio
        probes = 0
        # The margins are evaluated at screen completion time — the
        # part keeps aging while on the rig.
        if self._fails(part, lo, completed):
            # No headroom at all: even stock-plus-nothing errors.
            estimate = lo
        else:
            while hi - lo > self.resolution:
                mid = 0.5 * (lo + hi)
                probes += 1
                if self._fails(part, mid, completed):
                    hi = mid
                else:
                    lo = mid
            estimate = lo
        envelope = max(1.0, estimate - self.guard_band)
        return ScreenReport(
            host_id=host_id,
            started_hours=started,
            completed_hours=completed,
            estimated_stable_margin=estimate,
            probes=probes,
            envelope_ratio=envelope,
        )

    def _fails(self, part: SiliconPart, ratio: float, time_hours: float) -> bool:
        rate, _, crashes, _ = part.rates(ratio, time_hours)
        if crashes:
            return True
        return rate - part.nominal.background_error_rate_per_hour > self.fail_rate_per_hour

    def max_overshoot(self, part: SiliconPart) -> float:
        """Worst-case excess of the estimate over the true margin.

        ``w * ln(1 + fail_rate / base_rate) + resolution`` — the sweep
        passes a probe while the ramp is still under ``fail_rate``, and
        bisection adds up to one resolution step. The guard band must
        exceed this for the published envelope to be conservative.
        """
        width = part.nominal.ramp_width
        ratio = self.fail_rate_per_hour / part.nominal.base_error_rate_per_hour
        return width * math.log1p(ratio) + self.resolution


__all__ = ["ScreenReport", "ScreeningScheduler"]
