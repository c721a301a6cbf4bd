"""Failure recovery: BASELINE vs overclock-assisted (OC) recovery.

The paper's auto-scaler overclocks to hide the 60 s scale-out latency
behind a *load spike*. This experiment points the same mechanism at a
*failure*: a host failure crashes serving VMs mid-run, replacements pay
the full redeploy window, and the two configurations differ only in
what happens to the survivors meanwhile —

* **BASELINE recovery** — survivors keep the base clock and absorb the
  lost capacity as queueing (the latency tail grows);
* **OC recovery** — survivors overclock through the
  :class:`~repro.reliability.governor.OverclockGuard` (stability,
  lifetime, and power checks all still apply) until the replacements
  land, trading a bounded wear/power cost for the tail.

The fault itself is scheduled by a :class:`~repro.faults.plan.FaultPlan`
through a :class:`~repro.faults.injectors.FaultCampaign`, so the event
timeline is reproducible from the plan's seed alone; both runs face an
identical arrival process and an identical fault, making the p95 delta
attributable to the recovery policy and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..autoscale.controller import AutoScaler
from ..autoscale.policy import AutoscalePolicy, ScalerMode
from ..faults.injectors import FaultCampaign, HostFailureInjector
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.timeline import FaultEvent
from ..reliability.governor import OverclockGuard
from ..sim.kernel import Simulator
from ..sim.processes import OpenLoopSource
from .tables import render_table

#: Experiment defaults: a mid-size deployment at ~42% utilization —
#: high enough that losing a VM hurts, low enough that the survivors
#: are not already saturated.
DEFAULT_QPS = 1600.0
DEFAULT_INITIAL_VMS = 4
DEFAULT_FAILURE_AT_S = 120.0
DEFAULT_FAILED_VMS = 1
DEFAULT_HORIZON_S = 360.0
DEFAULT_WARMUP_S = 30.0


@dataclass(frozen=True)
class RecoveryRunResult:
    """One recovery run, reduced to what the comparison needs."""

    config: str
    p95_latency_s: float
    mean_latency_s: float
    vm_failures: int
    recovery_boosts: int
    peak_frequency_ghz: float
    timeline_signature: str
    timeline: tuple[FaultEvent, ...]


def run_recovery_mode(
    oc_recovery: bool,
    seed: int = 1,
    qps: float = DEFAULT_QPS,
    initial_vms: int = DEFAULT_INITIAL_VMS,
    failure_at_s: float = DEFAULT_FAILURE_AT_S,
    failed_vms: int = DEFAULT_FAILED_VMS,
    horizon_s: float = DEFAULT_HORIZON_S,
    warmup_s: float = DEFAULT_WARMUP_S,
) -> RecoveryRunResult:
    """One closed-loop run under an injected host failure.

    A pure function of its arguments. Both configurations receive the
    same ``seed``, so the arrival process, service demands, and fault
    timeline are identical — only the recovery policy differs.
    """
    simulator = Simulator(seed=seed)
    policy = AutoscalePolicy(mode=ScalerMode.BASELINE, enable_scale_out=False)
    autoscaler = AutoScaler(
        simulator,
        policy,
        initial_vms=initial_vms,
        warmup_s=warmup_s,
        recovery_guard=OverclockGuard() if oc_recovery else None,
    )
    source = OpenLoopSource(
        simulator, autoscaler.load_balancer.route, rate_per_second=qps
    )

    plan = FaultPlan(
        seed=seed,
        scenario="host-failure",
        specs=(
            FaultSpec(
                kind=FaultKind.HOST_FAILURE, target="host-0", at_s=failure_at_s
            ),
        ),
    )
    campaign = FaultCampaign(simulator, plan)
    campaign.register(
        HostFailureInjector(
            on_failure=lambda target: autoscaler.inject_vm_failures(failed_vms)
        )
    )
    campaign.arm()

    simulator.run(until=horizon_s)
    source.stop()
    result = autoscaler.finish()
    peak_frequency = max(
        (sample.value for sample in result.frequency_trace),
        default=policy.min_frequency_ghz,
    )
    return RecoveryRunResult(
        config="oc-recovery" if oc_recovery else "baseline-recovery",
        p95_latency_s=result.latency.p95(),
        mean_latency_s=result.latency.mean(),
        vm_failures=result.vm_failures,
        recovery_boosts=result.recovery_boosts,
        peak_frequency_ghz=peak_frequency,
        timeline_signature=campaign.timeline.signature(),
        timeline=campaign.timeline.events,
    )


@dataclass(frozen=True)
class RecoveryComparison:
    """BASELINE vs OC recovery under the same injected failure."""

    baseline: RecoveryRunResult
    oc: RecoveryRunResult

    @property
    def p95_improvement(self) -> float:
        """Fractional p95 reduction from OC recovery (positive = better)."""
        return 1.0 - self.oc.p95_latency_s / self.baseline.p95_latency_s


def run_failure_recovery(seed: int = 1, **overrides) -> RecoveryComparison:
    """Run both recovery configurations over the injected failure.

    ``overrides`` forwards experiment parameters (``qps``,
    ``horizon_s``, ...) to :func:`run_recovery_mode`, letting tests
    shrink the run.
    """
    return RecoveryComparison(
        baseline=run_recovery_mode(oc_recovery=False, seed=seed, **overrides),
        oc=run_recovery_mode(oc_recovery=True, seed=seed, **overrides),
    )


def format_failure_recovery(
    comparison: RecoveryComparison | None = None, seed: int = 1
) -> str:
    comparison = comparison if comparison is not None else run_failure_recovery(seed=seed)
    rows = [
        (
            run.config,
            f"{run.p95_latency_s * 1000.0:.1f} ms",
            f"{run.mean_latency_s * 1000.0:.1f} ms",
            str(run.vm_failures),
            str(run.recovery_boosts),
            f"{run.peak_frequency_ghz:.2f} GHz",
        )
        for run in (comparison.baseline, comparison.oc)
    ]
    table = render_table(
        ["Config", "P95 latency", "Avg latency", "VM failures", "OC boosts", "Peak freq"],
        rows,
        title=(
            "Failure recovery — injected host failure, 60 s redeploy "
            f"(OC recovery cuts p95 by {comparison.p95_improvement:.0%})"
        ),
    )
    timeline = "Fault timeline (seed-reproducible, signature "
    timeline += f"{comparison.baseline.timeline_signature[:12]}…):\n"
    timeline += "\n".join(event.describe() for event in comparison.baseline.timeline)
    return f"{table}\n\n{timeline}"


__all__ = [
    "RecoveryRunResult",
    "RecoveryComparison",
    "run_recovery_mode",
    "run_failure_recovery",
    "format_failure_recovery",
    "DEFAULT_QPS",
    "DEFAULT_INITIAL_VMS",
    "DEFAULT_FAILURE_AT_S",
    "DEFAULT_HORIZON_S",
]
