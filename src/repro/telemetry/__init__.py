"""Telemetry: simulated performance counters, metrics, and power meters.

This subpackage supplies the observability layer the paper's auto-scaler
depends on — per-core Aperf/Pperf counters, windowed utilization
averages, latency percentiles, and time-weighted power statistics.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(
    __name__,
    {
        "counters": (
            "ControlPlaneCounters",
            "CounterDelta",
            "CounterSnapshot",
            "EmergencyCounters",
        ),
        "histogram": ("LogHistogram",),
        "metrics": ("Sample", "StateIntegrator", "TimeSeries"),
        "percentiles": ("LatencyRecorder", "LatencyWindow", "percentile"),
        "power_meter": ("PowerMeter",),
        "sensors": (
            "FaultySensor",
            "FusedReading",
            "PlausibilityBounds",
            "ReadingStatus",
            "SensorFault",
            "SensorFaultMode",
            "SensorFusion",
            "SensorSample",
            "VirtualSensor",
            "tj_plausibility_bounds",
        ),
    },
)
