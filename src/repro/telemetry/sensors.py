"""Fault-tolerant sensing: virtual sensors, fault transforms, robust fusion.

The control plane (OverclockGuard, StabilityMonitor, auto-scaler) reads
junction temperature, power, and crash telemetry. A stuck or dropped
sensor must never silently hold a part above Tjmax, so this module
supplies the three layers a production controller needs between the
register and the decision:

* :class:`VirtualSensor` — samples a ground-truth callable, stamping
  every sample with a monotonic sequence number (the staleness signal);
* :class:`FaultySensor` — wraps a sensor and applies one deterministic
  fault transform (stuck-at, dropout, additive noise, lag, spike),
  driven by a seeded stream so two runs corrupt identically;
* :class:`SensorFusion` — median-of-N voting across redundant channels,
  per-channel stale-sample detection via the sequence numbers,
  physics-based plausibility rejection, and EWMA smoothing of the fused
  value.

The fusion layer never throws on bad telemetry — it *classifies* it
(:class:`ReadingStatus`) and leaves the fail-safe reaction to
:class:`~repro.reliability.safety.SafetySupervisor`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from statistics import median
from typing import Callable, Sequence

from ..errors import SensorError
from ..sim.random import RandomStreams, split_seed
from ..thermal.junction import JunctionModel


@dataclass(frozen=True)
class SensorSample:
    """One reading off one channel.

    ``seq`` is monotonic per sensor; a dropout re-emits the previous
    sample unchanged, so a non-advancing ``seq`` is the staleness signal
    the fusion layer keys on.
    """

    seq: int
    time_s: float
    value: float


class SensorFaultMode(Enum):
    """The five sensor-fault classes of the robustness model."""

    #: Output frozen at the last pre-fault value; seq keeps advancing.
    STUCK = "stuck"
    #: No new samples arrive; the last sample is re-emitted verbatim.
    DROPOUT = "dropout"
    #: Zero-mean Gaussian noise of the given sigma added to every sample.
    NOISE = "noise"
    #: Samples delayed by ``magnitude`` readings (transport/filter lag).
    LAG = "lag"
    #: Occasional large excursions of amplitude ``magnitude``.
    SPIKE = "spike"


@dataclass(frozen=True)
class SensorFault:
    """One active fault on one channel.

    ``magnitude`` is mode-specific: noise sigma, spike amplitude, or lag
    depth in samples; stuck-at and dropout ignore it.
    ``spike_probability`` only applies to :attr:`SensorFaultMode.SPIKE`.
    """

    mode: SensorFaultMode
    magnitude: float = 0.0
    spike_probability: float = 0.25

    def __post_init__(self) -> None:
        if self.mode is SensorFaultMode.NOISE and self.magnitude <= 0:
            raise SensorError("noise faults need a positive sigma")
        if self.mode is SensorFaultMode.SPIKE and self.magnitude <= 0:
            raise SensorError("spike faults need a positive amplitude")
        if self.mode is SensorFaultMode.LAG and self.magnitude < 1:
            raise SensorError("lag faults need a depth of at least one sample")
        if not 0.0 < self.spike_probability <= 1.0:
            raise SensorError("spike probability must be in (0, 1]")


class VirtualSensor:
    """Samples a ground-truth callable, stamping sequence numbers."""

    def __init__(self, name: str, source: Callable[[], float]) -> None:
        if not name:
            raise SensorError("a sensor needs a non-empty name")
        self.name = name
        self._source = source
        self._seq = 0

    def sample(self, time_s: float) -> SensorSample:
        self._seq += 1
        return SensorSample(seq=self._seq, time_s=time_s, value=float(self._source()))


class FaultySensor:
    """A sensor channel that can misbehave on demand, deterministically.

    At most one fault is active at a time (:meth:`inject` / :meth:`clear`
    — the shape :class:`~repro.faults.injectors.SensorFaultInjector`
    drives from a :class:`~repro.faults.plan.FaultPlan`). Noise and
    spike draws come from a stream seeded by ``(seed, channel name)``,
    so a campaign's corruption is bit-reproducible.
    """

    #: Lag buffer depth; bounds memory, caps the deepest injectable lag.
    MAX_LAG_SAMPLES = 64

    def __init__(self, sensor: VirtualSensor, seed: int = 0) -> None:
        self._sensor = sensor
        self._streams = RandomStreams(split_seed(seed, f"sensor:{sensor.name}"))
        self._fault: SensorFault | None = None
        self._held: SensorSample | None = None
        self._stuck_value: float | None = None
        self._history: deque[SensorSample] = deque(maxlen=self.MAX_LAG_SAMPLES)

    @property
    def name(self) -> str:
        return self._sensor.name

    @property
    def fault(self) -> SensorFault | None:
        return self._fault

    def inject(self, fault: SensorFault) -> None:
        """Activate ``fault``, replacing any active one."""
        if fault.mode is SensorFaultMode.LAG and fault.magnitude > self.MAX_LAG_SAMPLES:
            raise SensorError(
                f"lag depth {fault.magnitude:.0f} exceeds the "
                f"{self.MAX_LAG_SAMPLES}-sample buffer"
            )
        self._fault = fault
        # Stuck-at freezes at the last healthy value (or the next read).
        self._stuck_value = self._held.value if self._held is not None else None

    def clear(self) -> None:
        self._fault = None
        self._stuck_value = None

    def sample(self, time_s: float) -> SensorSample:
        fault = self._fault
        if fault is not None and fault.mode is SensorFaultMode.DROPOUT:
            # The measurement never arrives: re-emit the last sample
            # verbatim (stale seq). Before any sample exists, emit a
            # never-advancing seq-0 placeholder.
            if self._held is None:
                return SensorSample(seq=0, time_s=time_s, value=0.0)
            return self._held

        truth = self._sensor.sample(time_s)
        self._history.append(truth)
        if fault is None:
            self._held = truth
            return truth

        if fault.mode is SensorFaultMode.STUCK:
            frozen = self._stuck_value if self._stuck_value is not None else truth.value
            self._stuck_value = frozen
            emitted = SensorSample(seq=truth.seq, time_s=time_s, value=frozen)
        elif fault.mode is SensorFaultMode.NOISE:
            emitted = SensorSample(
                seq=truth.seq,
                time_s=time_s,
                value=truth.value + self._gaussian("noise", fault.magnitude),
            )
        elif fault.mode is SensorFaultMode.LAG:
            depth = int(fault.magnitude)
            index = max(0, len(self._history) - 1 - depth)
            lagged = self._history[index]
            emitted = SensorSample(seq=truth.seq, time_s=time_s, value=lagged.value)
        elif fault.mode is SensorFaultMode.SPIKE:
            value = truth.value
            if self._streams.uniform("spike-gate", 0.0, 1.0) < fault.spike_probability:
                sign = 1.0 if self._streams.uniform("spike-sign", 0.0, 1.0) < 0.5 else -1.0
                value += sign * fault.magnitude
            emitted = SensorSample(seq=truth.seq, time_s=time_s, value=value)
        else:  # pragma: no cover - exhaustive over SensorFaultMode
            raise SensorError(f"unhandled fault mode {fault.mode!r}")
        self._held = emitted
        return emitted

    def _gaussian(self, stream: str, sigma: float) -> float:
        # RandomStreams exposes lognormal/exponential/uniform; a plain
        # normal comes from the underlying generator batch.
        return float(self._streams.get(stream).normal(0.0, sigma))


@dataclass(frozen=True)
class PlausibilityBounds:
    """Closed interval a reading must fall in to be believed."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise SensorError(
                f"plausibility bounds are inverted: [{self.lower}, {self.upper}]"
            )

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def tj_plausibility_bounds(
    junction: JunctionModel, max_power_watts: float, margin_c: float = 5.0
) -> PlausibilityBounds:
    """The analytically reachable Tj envelope at one operating point.

    A junction cannot read below the coolant reference (heat flows from
    die to coolant) nor above the steady-state temperature at the
    largest power the current V/F point can draw; ``margin_c`` absorbs
    calibration slack and transient overshoot. Readings outside the
    envelope are physically impossible and rejected by the fusion layer.
    """
    if max_power_watts < 0:
        raise SensorError("max power must be non-negative")
    if margin_c < 0:
        raise SensorError("plausibility margin cannot be negative")
    return PlausibilityBounds(
        lower=junction.reference_temp_c - margin_c,
        upper=junction.junction_temp_c(max_power_watts) + margin_c,
    )


class ReadingStatus(Enum):
    """Health classification of one fused control-plane reading."""

    OK = "ok"
    #: Too few live channels survived staleness/plausibility filtering.
    NO_QUORUM = "no-quorum"


@dataclass(frozen=True)
class FusedReading:
    """Median-of-N vote over the healthy channels of one tick."""

    time_s: float
    #: EWMA-smoothed fused value; None when no channel survived.
    value: float | None
    #: Raw (unsmoothed) median of the healthy channels, or None.
    raw_value: float | None
    status: ReadingStatus
    healthy_channels: int
    total_channels: int
    #: ``(channel, reason)`` pairs rejected this tick.
    rejected: tuple[tuple[str, str], ...] = ()

    @property
    def healthy(self) -> bool:
        return self.status is ReadingStatus.OK


class SensorFusion:
    """Robust estimation over redundant channels of one quantity.

    Each :meth:`read` samples every channel, rejects stale samples
    (sequence number did not advance since the previous tick) and
    implausible ones (outside :class:`PlausibilityBounds`), takes the
    median of the survivors, and folds it into an EWMA. Fewer than
    ``min_quorum`` survivors yields a :attr:`ReadingStatus.NO_QUORUM`
    reading — the signal the safety supervisor de-rates on.
    """

    def __init__(
        self,
        sensors: Sequence[VirtualSensor | FaultySensor],
        bounds: PlausibilityBounds | None = None,
        ewma_alpha: float = 0.4,
        min_quorum: int | None = None,
    ) -> None:
        if not sensors:
            raise SensorError("fusion needs at least one sensor channel")
        names = [sensor.name for sensor in sensors]
        if len(set(names)) != len(names):
            raise SensorError(f"duplicate sensor channel names: {names}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise SensorError("EWMA alpha must be in (0, 1]")
        quorum = (len(sensors) // 2 + 1) if min_quorum is None else min_quorum
        if not 1 <= quorum <= len(sensors):
            raise SensorError(
                f"quorum {quorum} impossible with {len(sensors)} channel(s)"
            )
        self._sensors = list(sensors)
        self.bounds = bounds
        self.ewma_alpha = ewma_alpha
        self.min_quorum = quorum
        self._last_seq: dict[str, int] = {}
        self._ewma: float | None = None
        self.reads = 0
        self.rejected_samples = 0

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(sensor.name for sensor in self._sensors)

    def read(self, time_s: float) -> FusedReading:
        self.reads += 1
        healthy: list[float] = []
        rejected: list[tuple[str, str]] = []
        for sensor in self._sensors:
            sample = sensor.sample(time_s)
            previous = self._last_seq.get(sensor.name)
            self._last_seq[sensor.name] = sample.seq
            if previous is not None and sample.seq <= previous:
                rejected.append((sensor.name, "stale"))
                continue
            if self.bounds is not None and not self.bounds.contains(sample.value):
                rejected.append((sensor.name, "implausible"))
                continue
            healthy.append(sample.value)
        self.rejected_samples += len(rejected)
        if len(healthy) < self.min_quorum:
            return FusedReading(
                time_s=time_s,
                value=None,
                raw_value=None,
                status=ReadingStatus.NO_QUORUM,
                healthy_channels=len(healthy),
                total_channels=len(self._sensors),
                rejected=tuple(rejected),
            )
        voted = median(healthy)
        self._ewma = (
            voted
            if self._ewma is None
            else self.ewma_alpha * voted + (1.0 - self.ewma_alpha) * self._ewma
        )
        return FusedReading(
            time_s=time_s,
            value=self._ewma,
            raw_value=voted,
            status=ReadingStatus.OK,
            healthy_channels=len(healthy),
            total_channels=len(self._sensors),
            rejected=tuple(rejected),
        )


__all__ = [
    "SensorSample",
    "SensorFaultMode",
    "SensorFault",
    "VirtualSensor",
    "FaultySensor",
    "PlausibilityBounds",
    "tj_plausibility_bounds",
    "ReadingStatus",
    "FusedReading",
    "SensorFusion",
]
