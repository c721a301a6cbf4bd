"""Per-part silicon margins and the aging process that erodes them.

The paper characterizes *one* part per tank and reports a fleet-wide
stable envelope (+23% over all-core turbo). Real fleets are populations:
each part lands at a slightly different margin out of the fab (static
process spread), and margins *drift* downward over months of aggressive
operation (process-induced degradation — NBTI/HCI-style aging; cf. the
3.5D-package degradation work in PAPERS.md). A fleet controller that
assumes the characterized envelope forever will eventually operate its
weakest drifted parts beyond their true margin — first correctable
errors, then silent data corruption, then ungraceful crashes.

:class:`SiliconPart` models one host's true (latent) margins as an
offset-and-drift transform over the population
:class:`~repro.reliability.stability.StabilityModel`: evaluating the
part at ratio ``r`` and time ``t`` is exactly evaluating the population
model at the *shifted* ratio ``r - offset + drift(t)``, so every rate
keeps the population model's shape while the margins walk. Between the
(effective) stable margin and the crash margin lies the **SDC band**:
past ``sdc_onset`` of excess ratio, a fraction of the correctable-error
ramp goes undetected as silent corruption.

:func:`sample_fleet` draws a deterministic population from a master
seed via :func:`~repro.sim.random.split_seed` — per-host offsets, a
drift-prone minority, and per-host drift rates/onsets — so two runs of
the same seed see bit-identical silicon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..reliability.stability import DEFAULT_ERRORS_PER_CRASH, StabilityModel
from ..sim.random import RandomStreams, split_seed


@dataclass
class SiliconPart:
    """One host's true silicon margins, latent to every controller.

    ``margin_offset`` is the static process-spread term (positive =
    better-than-characterized part); ``drift_rate_per_khour`` is the
    stable-margin loss per 1000 hours of operation once
    ``drift_onset_hours`` has passed. ``injected_drift`` is extra margin
    loss applied by the ``silicon-margin-drift`` fault injector.
    """

    host_id: str
    nominal: StabilityModel = field(default_factory=StabilityModel)
    margin_offset: float = 0.0
    drift_rate_per_khour: float = 0.0
    drift_onset_hours: float = 0.0
    injected_drift: float = 0.0
    #: Excess ratio beyond the *effective* stable margin at which silent
    #: corruption begins (the detectable-CE ramp precedes the SDC band).
    sdc_onset: float = 0.02
    #: Silent corruptions per correctable error once inside the band.
    sdc_per_error: float = 0.05

    def __post_init__(self) -> None:
        if self.drift_rate_per_khour < 0:
            raise ConfigurationError("drift rate cannot be negative")
        if self.drift_onset_hours < 0:
            raise ConfigurationError("drift onset cannot be negative")
        if self.sdc_onset <= 0:
            raise ConfigurationError("sdc_onset must be positive")
        if self.sdc_per_error < 0:
            raise ConfigurationError("sdc_per_error cannot be negative")

    # ------------------------------------------------------------------
    # The margin walk
    # ------------------------------------------------------------------
    def drift_at(self, time_hours: float) -> float:
        """Total stable-margin loss (ratio units) at ``time_hours``."""
        if time_hours < 0:
            raise ConfigurationError("time cannot be negative")
        aged = max(0.0, time_hours - self.drift_onset_hours)
        return aged * self.drift_rate_per_khour / 1000.0 + self.injected_drift

    def inject_drift(self, magnitude: float) -> None:
        """Apply an instantaneous extra margin loss (fault injection)."""
        if magnitude <= 0:
            raise ConfigurationError("injected drift must be positive")
        self.injected_drift += magnitude

    def shifted_ratio(self, overclock_ratio: float, time_hours: float) -> float:
        """The population-model ratio equivalent to this part's state."""
        return overclock_ratio - self.margin_offset + self.drift_at(time_hours)

    def effective_stable_margin(self, time_hours: float) -> float:
        """The ratio at which *this* part starts erroring at ``time_hours``."""
        return self.nominal.stable_margin + self.margin_offset - self.drift_at(time_hours)

    def effective_crash_margin(self, time_hours: float) -> float:
        """The ratio at which *this* part crashes outright at ``time_hours``."""
        return self.nominal.crash_margin + self.margin_offset - self.drift_at(time_hours)

    # ------------------------------------------------------------------
    # Rates (the machine-check stream's physics)
    # ------------------------------------------------------------------
    def rates(
        self,
        overclock_ratio: float,
        time_hours: float,
        errors_per_crash: float = DEFAULT_ERRORS_PER_CRASH,
    ) -> tuple[float, float, bool, float]:
        """``(ce_rate, sdc_rate, crashes, crash_rate)`` for this part, now.

        The shifted ratio and the population model's error rate at it
        are evaluated once. Each single-rate method below returns one
        entry; the machine-check stream reads all four per window.

        * ``ce_rate``: expected correctable errors per hour.
        * ``sdc_rate``: expected *silent* corruptions per hour. Zero
          until the ratio exceeds the effective stable margin by
          ``sdc_onset``, then a ``sdc_per_error`` fraction of the
          correctable-error ramp.
        * ``crashes``: the part cannot operate at this ratio at all.
        * ``crash_rate``: expected ungraceful crashes per hour, the ramp
          over ``errors_per_crash`` as in
          :meth:`~repro.reliability.stability.StabilityModel.crash_rate_per_hour`,
          and infinite past the crash margin.
        """
        shifted = self.shifted_ratio(overclock_ratio, time_hours)
        nominal = self.nominal
        crashes = shifted >= nominal.crash_margin
        if shifted <= 0:
            return nominal.background_error_rate_per_hour, 0.0, crashes, 0.0
        if errors_per_crash <= 0:
            raise ConfigurationError("errors_per_crash must be positive")
        ce_rate = nominal.correctable_error_rate_per_hour(shifted)
        ramp = ce_rate - nominal.background_error_rate_per_hour
        if shifted <= nominal.stable_margin + self.sdc_onset:
            sdc_rate = 0.0
        else:
            sdc_rate = ramp * self.sdc_per_error
        crash_rate = math.inf if crashes else ramp / errors_per_crash
        return ce_rate, sdc_rate, crashes, crash_rate

    def correctable_error_rate_per_hour(
        self, overclock_ratio: float, time_hours: float
    ) -> float:
        """Expected correctable errors per hour for this part, now."""
        return self.rates(overclock_ratio, time_hours)[0]

    def crash_rate_per_hour(
        self,
        overclock_ratio: float,
        time_hours: float,
        errors_per_crash: float = DEFAULT_ERRORS_PER_CRASH,
    ) -> float:
        """Expected ungraceful crashes per hour for this part, now."""
        return self.rates(overclock_ratio, time_hours, errors_per_crash)[3]

    def crashes(self, overclock_ratio: float, time_hours: float) -> bool:
        """True when the part cannot operate at this ratio at all."""
        return self.rates(overclock_ratio, time_hours)[2]

    def sdc_rate_per_hour(self, overclock_ratio: float, time_hours: float) -> float:
        """Expected *silent* corruptions per hour for this part, now."""
        return self.rates(overclock_ratio, time_hours)[1]


@dataclass(frozen=True)
class FleetHeterogeneity:
    """How a sampled fleet's silicon spreads out and ages.

    ``offset_sigma`` is the static process spread (normal, clipped to
    ±3σ); a ``drift_prone_fraction`` minority of parts age at a rate
    uniform in ``[drift_rate_lo, drift_rate_hi]`` per 1000 h starting at
    an onset uniform in ``[onset_lo_hours, onset_hi_hours]``; the rest
    do not measurably drift.
    """

    offset_sigma: float = 0.008
    drift_prone_fraction: float = 0.25
    drift_rate_lo: float = 0.06
    drift_rate_hi: float = 0.14
    onset_lo_hours: float = 80.0
    onset_hi_hours: float = 400.0

    def __post_init__(self) -> None:
        if self.offset_sigma < 0:
            raise ConfigurationError("offset sigma cannot be negative")
        if not 0.0 <= self.drift_prone_fraction <= 1.0:
            raise ConfigurationError("drift-prone fraction must be in [0, 1]")
        if not 0 <= self.drift_rate_lo <= self.drift_rate_hi:
            raise ConfigurationError("need 0 <= drift_rate_lo <= drift_rate_hi")
        if not 0 <= self.onset_lo_hours <= self.onset_hi_hours:
            raise ConfigurationError("need 0 <= onset_lo_hours <= onset_hi_hours")


def sample_fleet(
    seed: int,
    host_ids: list[str] | tuple[str, ...],
    heterogeneity: FleetHeterogeneity | None = None,
    nominal: StabilityModel | None = None,
    sdc_onset: float = 0.02,
    sdc_per_error: float = 0.05,
) -> dict[str, SiliconPart]:
    """Deterministically sample one :class:`SiliconPart` per host.

    Each host draws from its own named stream derived from ``(seed,
    host_id)``, so adding hosts never perturbs the silicon of existing
    ones, and the sampled fleet is a pure function of the seed.
    """
    heterogeneity = heterogeneity if heterogeneity is not None else FleetHeterogeneity()
    nominal = nominal if nominal is not None else StabilityModel()
    streams = RandomStreams(split_seed(seed, "silicon-fleet"))
    parts: dict[str, SiliconPart] = {}
    for host_id in sorted(host_ids):
        sigma = heterogeneity.offset_sigma
        offset = 0.0
        generator = streams.get(f"part:{host_id}")
        if sigma > 0:
            offset = float(generator.normal(0.0, sigma))
            offset = max(-3.0 * sigma, min(3.0 * sigma, offset))
        drift_rate = 0.0
        onset = 0.0
        if float(generator.uniform(0.0, 1.0)) < heterogeneity.drift_prone_fraction:
            drift_rate = float(
                generator.uniform(heterogeneity.drift_rate_lo, heterogeneity.drift_rate_hi)
            )
            onset = float(
                generator.uniform(heterogeneity.onset_lo_hours, heterogeneity.onset_hi_hours)
            )
        parts[host_id] = SiliconPart(
            host_id=host_id,
            nominal=nominal,
            margin_offset=offset,
            drift_rate_per_khour=drift_rate,
            drift_onset_hours=onset,
            sdc_onset=sdc_onset,
            sdc_per_error=sdc_per_error,
        )
    return parts


__all__ = ["SiliconPart", "FleetHeterogeneity", "sample_fleet"]
