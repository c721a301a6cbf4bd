"""Telemetry: simulated performance counters, metrics, and power meters.

This subpackage supplies the observability layer the paper's auto-scaler
depends on — per-core Aperf/Pperf counters, windowed utilization
averages, latency percentiles, and time-weighted power statistics.
"""

from .counters import (
    ControlPlaneCounters,
    CounterDelta,
    CounterSnapshot,
    EmergencyCounters,
)
from .export import (
    counters_payload,
    write_counters_json,
    write_json,
    write_records_csv,
    write_timeseries_csv,
)
from .histogram import LogHistogram
from .metrics import Sample, StateIntegrator, Stopwatch, TimeSeries
from .percentiles import LatencyRecorder, LatencyWindow, percentile
from .power_meter import PowerMeter
from .sensors import (
    FaultySensor,
    FusedReading,
    PlausibilityBounds,
    ReadingStatus,
    SensorFault,
    SensorFaultMode,
    SensorFusion,
    SensorSample,
    VirtualSensor,
    tj_plausibility_bounds,
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
    "LogHistogram",
    "write_records_csv",
    "write_timeseries_csv",
    "write_json",
    "counters_payload",
    "write_counters_json",
    "CounterDelta",
    "CounterSnapshot",
    "ControlPlaneCounters",
    "EmergencyCounters",
    "Sample",
    "StateIntegrator",
    "Stopwatch",
    "TimeSeries",
    "LatencyRecorder",
    "LatencyWindow",
    "percentile",
    "PowerMeter",
]
