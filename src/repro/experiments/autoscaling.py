"""Auto-scaling experiments: Figure 15, Figure 16, and Table XI.

Figure 15 — model validation: three server VMs, scale-up/down only, a
stepped QPS schedule (1000 → 2000 → 500 → 3000 → 1000, 5 minutes each).
The Eq. 1-driven controller must visibly pull utilization down whenever
it crosses the 40% scale-up threshold.

Figure 16 / Table XI — the full experiment: start one VM, ramp 500 →
4000 QPS in +500 steps every 5 minutes, compare Baseline / OC-E / OC-A
on normalized P95/average latency, max VM count, VM×hours, and power.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..autoscale.controller import AutoScaler, AutoScalerResult
from ..autoscale.policy import AutoscalePolicy, ScalerMode
from ..engine.core import SweepEngine, SweepTask
from ..sim.kernel import Simulator
from ..sim.processes import OpenLoopSource, PiecewiseSchedule
from ..telemetry.metrics import TimeSeries
from .tables import pct, render_table

#: The Figure 15 load schedule: QPS per 5-minute phase.
FIG15_QPS_LEVELS: tuple[float, ...] = (1000.0, 2000.0, 500.0, 3000.0, 1000.0)

#: The Figure 16 ramp: 500 QPS, +500 every 5 minutes, to 4000.
FIG16_INITIAL_QPS = 500.0
FIG16_STEP_QPS = 500.0
FIG16_STEP_PERIOD_S = 300.0
FIG16_LEVELS = 8

#: Physical VM ceiling: the paper runs every VM on the single 28-core
#: Xeon W-3175X in tank #1, which fits six 4-vcore server VMs alongside
#: the load balancer and clients. The late ramp therefore runs *capped*
#: — exactly the regime where frequency is the only lever left.
FIG16_MAX_VMS = 6

#: Interval at which the load generator re-reads its schedule.
SCHEDULE_POLL_S = 5.0

#: Mean burst size of the client arrival process. Real clients batch
#: requests (connection reuse, fan-out); burstiness leaves the mean
#: utilization — and therefore every threshold crossing — unchanged,
#: but deepens the transient queues that build while a 60 s scale-out
#: is in flight, which is precisely the pain overclocking relieves.
CLIENT_BURST_MEAN = 3.0


def _drive(
    simulator: Simulator,
    autoscaler: AutoScaler,
    schedule: PiecewiseSchedule,
    horizon_s: float,
    burst_mean: float = CLIENT_BURST_MEAN,
) -> AutoScalerResult:
    """Run one closed-loop experiment to completion."""
    source = OpenLoopSource(
        simulator,
        autoscaler.load_balancer.route,
        rate_per_second=schedule.value_at(0.0),
        burst_mean=burst_mean,
    )

    def follow_schedule() -> None:
        target = schedule.value_at(simulator.now)
        if target != source.rate:
            source.set_rate(target)

    simulator.every(SCHEDULE_POLL_S, follow_schedule, name="load-schedule")
    simulator.run(until=horizon_s)
    return autoscaler.finish()


# ----------------------------------------------------------------------
# Figure 15 — model validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig15Result:
    """Traces of the validation run."""

    utilization: TimeSeries
    frequency_ghz: TimeSeries
    qps_schedule: PiecewiseSchedule


def run_fig15(seed: int = 1, phase_seconds: float = 300.0) -> Fig15Result:
    """The Figure 15 validation experiment (scale-up/down only)."""
    simulator = Simulator(seed=seed)
    policy = AutoscalePolicy(mode=ScalerMode.OC_A, enable_scale_out=False)
    autoscaler = AutoScaler(simulator, policy, initial_vms=3, warmup_s=0.0)
    schedule = PiecewiseSchedule(
        [(index * phase_seconds, qps) for index, qps in enumerate(FIG15_QPS_LEVELS)]
    )
    horizon = phase_seconds * len(FIG15_QPS_LEVELS)
    result = _drive(simulator, autoscaler, schedule, horizon)
    return Fig15Result(
        utilization=result.utilization_trace,
        frequency_ghz=result.frequency_trace,
        qps_schedule=schedule,
    )


def phase_summary(result: Fig15Result, phase_seconds: float = 300.0) -> list[dict[str, float]]:
    """Per-phase mean utilization and frequency (for tests and tables).

    The first 60 s of each phase are skipped so the summary reflects the
    controller's settled response, not the transient it is reacting to.
    """
    summaries = []
    for index, qps in enumerate(FIG15_QPS_LEVELS):
        start = index * phase_seconds + 60.0
        end = (index + 1) * phase_seconds
        utils = [s.value for s in result.utilization if start <= s.time <= end]
        freqs = [s.value for s in result.frequency_ghz if start <= s.time <= end]
        summaries.append(
            {
                "qps": qps,
                "mean_utilization": sum(utils) / len(utils) if utils else 0.0,
                "mean_frequency_ghz": sum(freqs) / len(freqs) if freqs else 0.0,
            }
        )
    return summaries


def format_fig15() -> str:
    result = run_fig15()
    rows = [
        (
            f"{summary['qps']:.0f}",
            f"{summary['mean_utilization']:.1%}",
            f"{summary['mean_frequency_ghz']:.2f} GHz",
        )
        for summary in phase_summary(result)
    ]
    return render_table(
        ["QPS", "Mean utilization", "Mean frequency"],
        rows,
        title="Figure 15 — Eq. 1 model validation (scale-up/down only, 3 VMs)",
    )


# ----------------------------------------------------------------------
# Figure 16 + Table XI — the full auto-scaler comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table11Row:
    """One row of Table XI."""

    config: str
    norm_p95_latency: float
    norm_avg_latency: float
    max_vms: int
    vm_hours: float
    avg_power_watts: float


@dataclass(frozen=True)
class Fig16Result:
    """Everything Figure 16 and Table XI report."""

    runs: dict[str, AutoScalerResult]
    table11: tuple[Table11Row, ...]


def run_fig16_mode(
    mode: ScalerMode,
    seed: int = 1,
    warmup_s: float = 30.0,
    levels: int = FIG16_LEVELS,
    step_period_s: float = FIG16_STEP_PERIOD_S,
    max_vms: int = FIG16_MAX_VMS,
) -> AutoScalerResult:
    """One closed-loop auto-scaler run over the Figure 16 ramp.

    A pure function of its arguments: every mode deliberately receives
    the *same* seed so all three controllers face an identical arrival
    process (the paper's protocol — only the scaling policy differs).
    ``levels``/``step_period_s`` let tests shrink the ramp.
    """
    schedule = PiecewiseSchedule.stepped(
        initial=FIG16_INITIAL_QPS,
        step=FIG16_STEP_QPS,
        period=step_period_s,
        count=levels,
    )
    horizon = step_period_s * levels
    simulator = Simulator(seed=seed)
    autoscaler = AutoScaler(
        simulator,
        AutoscalePolicy(mode=mode, max_vms=max_vms),
        initial_vms=1,
        warmup_s=warmup_s,
    )
    return _drive(simulator, autoscaler, schedule, horizon)


def run_fig16(
    seed: int = 1, warmup_s: float = 30.0, engine: SweepEngine | None = None
) -> Fig16Result:
    """Run Baseline, OC-E, and OC-A over the Figure 16 ramp.

    The three modes are independent simulations; with a parallel engine
    each runs in its own process (one per :class:`ScalerMode`), cutting
    the wall time of the slowest experiment in the suite by ~3x.
    """
    engine = engine if engine is not None else SweepEngine()
    tasks = [
        SweepTask(
            fn=run_fig16_mode,
            params={"mode": mode, "seed": seed, "warmup_s": warmup_s},
            key=mode.value,
        )
        for mode in (ScalerMode.BASELINE, ScalerMode.OC_E, ScalerMode.OC_A)
    ]
    runs = engine.run(tasks)

    baseline = runs[ScalerMode.BASELINE.value]
    rows = []
    for mode in (ScalerMode.BASELINE, ScalerMode.OC_E, ScalerMode.OC_A):
        run = runs[mode.value]
        rows.append(
            Table11Row(
                config=mode.value,
                norm_p95_latency=run.latency.p95() / baseline.latency.p95(),
                norm_avg_latency=run.latency.mean() / baseline.latency.mean(),
                max_vms=run.max_vms,
                vm_hours=run.vm_hours(),
                avg_power_watts=run.power.average_watts(),
            )
        )
    return Fig16Result(runs=runs, table11=tuple(rows))


def format_table11(
    result: Fig16Result | None = None, engine: SweepEngine | None = None
) -> str:
    result = result if result is not None else run_fig16(engine=engine)
    baseline_power = result.table11[0].avg_power_watts
    rows = [
        (
            row.config,
            f"{row.norm_p95_latency:.2f}",
            f"{row.norm_avg_latency:.2f}",
            row.max_vms,
            f"{row.vm_hours:.2f}",
            pct(row.avg_power_watts / baseline_power - 1.0),
        )
        for row in result.table11
    ]
    return render_table(
        ["Config", "Norm P95 Lat", "Norm Avg Lat", "Max VMs", "VM x hours", "Power delta"],
        rows,
        title="Table XI — full auto-scaler experiment (Fig. 16 ramp)",
    )


__all__ = [
    "Fig15Result",
    "run_fig15",
    "phase_summary",
    "format_fig15",
    "Table11Row",
    "Fig16Result",
    "run_fig16",
    "run_fig16_mode",
    "format_table11",
    "FIG15_QPS_LEVELS",
    "FIG16_INITIAL_QPS",
    "FIG16_STEP_QPS",
    "FIG16_STEP_PERIOD_S",
    "FIG16_LEVELS",
]
