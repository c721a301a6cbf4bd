"""Deterministic machine-check event stream for a fleet of parts.

The paper's guardrail input is the machine-check architecture: cache
correctable-error counters, MCE logs, crash reports. This module turns
each host's latent :class:`~repro.health.part.SiliconPart` physics into
a *sampled* event stream — the only thing a real fleet controller gets
to see. Counts are Poisson in the window's expected rate, crashes are
Bernoulli in the window crash probability, and every draw comes from a
per-host named stream under ``split_seed(seed, "mce-stream")`` so the
stream is a pure function of ``(seed, fleet, operating points)`` and
independent of host iteration order elsewhere in the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import ConfigurationError
from ..reliability.stability import DEFAULT_ERRORS_PER_CRASH
from ..sim.random import RandomStreams, split_seed
from .part import SiliconPart


@dataclass(frozen=True)
class MachineCheckEvent:
    """One observed machine-check event.

    ``kind`` is ``"ce"`` (correctable errors, ``count`` of them in the
    window), ``"crash"`` (ungraceful crash), or ``"sdc"`` (silent data
    corruption — *not* visible to detectors, only to the experiment's
    ground-truth accounting and the duplicate-execution audit).
    """

    time_hours: float
    host_id: str
    kind: str
    count: int = 1
    detail: str = ""


class MachineCheckStream:
    """Samples per-host machine-check events window by window.

    :meth:`sample_window` advances one host one observation window and
    returns the events observed in it; :meth:`sample_fleet_window`
    advances every host in sorted order. Cumulative correctable-error
    counters (what a real MCA exposes) are kept per host and can be
    read back via :meth:`cumulative_errors`.
    """

    def __init__(
        self,
        seed: int,
        parts: Mapping[str, SiliconPart],
        errors_per_crash: float = DEFAULT_ERRORS_PER_CRASH,
    ) -> None:
        if seed < 0:
            raise ConfigurationError("seed cannot be negative")
        if errors_per_crash <= 0:
            raise ConfigurationError("errors_per_crash must be positive")
        self._parts = dict(parts)
        self._sorted_hosts = tuple(sorted(self._parts))
        self._streams = RandomStreams(split_seed(seed, "mce-stream"))
        self._cumulative: dict[str, int] = {host: 0 for host in self._parts}
        self._injected_bursts: dict[str, int] = {}
        #: host -> its (ce, sdc, crash) generators, bound on first use.
        self._generators: dict[str, tuple] = {}
        self.errors_per_crash = errors_per_crash

    @property
    def parts(self) -> Mapping[str, SiliconPart]:
        return self._parts

    def cumulative_errors(self, host_id: str) -> int:
        """The host's cumulative correctable-error counter (MCA view)."""
        return self._cumulative[host_id]

    def inject_burst(self, host_id: str, count: int) -> None:
        """Queue an ``mce-burst`` fault: ``count`` spurious correctable
        errors added to the host's next observation window.

        Bursts model non-silicon causes (firmware quirks, a marginal
        DIMM, a cosmic-ray shower) — the detector cannot tell them from
        a real ramp, which is exactly why the ladder needs screening and
        bounded re-arm rather than firing straight to retirement.
        """
        if host_id not in self._parts:
            raise ConfigurationError(f"unknown host {host_id!r}")
        if count <= 0:
            raise ConfigurationError("burst count must be positive")
        self._injected_bursts[host_id] = self._injected_bursts.get(host_id, 0) + count

    def sample_window(
        self,
        host_id: str,
        time_hours: float,
        window_hours: float,
        overclock_ratio: float,
    ) -> list[MachineCheckEvent]:
        """Sample one host's events for ``[time, time + window)``.

        The part's rates are evaluated at the window start — windows are
        short relative to the drift timescale, so the rectangle rule is
        adequate and keeps every draw a pure function of the inputs.
        """
        if window_hours <= 0:
            raise ConfigurationError("window must be positive")
        part = self._parts[host_id]
        ce_rate, sdc_rate, crashes, crash_rate = part.rates(
            overclock_ratio, time_hours, self.errors_per_crash
        )
        generators = self._generators.get(host_id)
        if generators is None:
            generators = self._generators[host_id] = tuple(
                self._streams.get(f"{kind}:{host_id}") for kind in ("ce", "sdc", "crash")
            )
        ce_gen, sdc_gen, crash_gen = generators
        events: list[MachineCheckEvent] = []
        end = time_hours + window_hours

        ce_count = int(ce_gen.poisson(ce_rate * window_hours)) if ce_rate > 0 else 0
        burst = self._injected_bursts.pop(host_id, 0)
        ce_count += burst
        if ce_count > 0:
            self._cumulative[host_id] += ce_count
            detail = f"burst={burst}" if burst else ""
            events.append(
                MachineCheckEvent(end, host_id, "ce", count=ce_count, detail=detail)
            )

        sdc_count = int(sdc_gen.poisson(sdc_rate * window_hours)) if sdc_rate > 0 else 0
        if sdc_count > 0:
            events.append(MachineCheckEvent(end, host_id, "sdc", count=sdc_count))

        if crashes:
            events.append(
                MachineCheckEvent(end, host_id, "crash", detail="beyond crash margin")
            )
        elif crash_rate > 0:
            p_crash = -math.expm1(-crash_rate * window_hours)
            # ``random()`` is the double ``uniform(0.0, 1.0)`` returns, cheaper.
            if crash_gen.random() < p_crash:
                events.append(MachineCheckEvent(end, host_id, "crash"))

        return events

    def sample_fleet_window(
        self,
        time_hours: float,
        window_hours: float,
        operating_ratios: Mapping[str, float],
        hosts: Iterable[str] | None = None,
    ) -> list[MachineCheckEvent]:
        """Sample every (listed) host for one window, in sorted order.

        ``operating_ratios`` maps host → the ratio it actually ran at
        during the window (quarantined hosts run at 1.0 or are absent).
        """
        chosen = sorted(hosts) if hosts is not None else self._sorted_hosts
        events: list[MachineCheckEvent] = []
        for host_id in chosen:
            ratio = operating_ratios.get(host_id)
            if ratio is None:
                continue
            events.extend(self.sample_window(host_id, time_hours, window_hours, ratio))
        return events


__all__ = ["MachineCheckEvent", "MachineCheckStream"]
