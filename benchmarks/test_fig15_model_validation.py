"""Benchmark: Figure 15 — Eq. 1 model validation (closed-loop DES)."""

from repro.experiments.autoscaling import format_fig15, phase_summary, run_fig15


def test_fig15_model_validation(benchmark, emit):
    result = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    emit("fig15_model_validation", format_fig15(result))
    phases = phase_summary(result)
    # Load peaks drive the frequency up; the lull brings it back down.
    assert phases[1]["mean_frequency_ghz"] > phases[0]["mean_frequency_ghz"]
    assert phases[2]["mean_frequency_ghz"] < phases[1]["mean_frequency_ghz"]
    assert phases[3]["mean_frequency_ghz"] > 3.9  # 3000 QPS: near max bin
    # At 3000 QPS even the max frequency leaves util over the scale-out
    # threshold (the paper: "would imply a scale-out invocation").
    assert phases[3]["mean_utilization"] > 0.50
    # The 2000-QPS peak runs overclocked: Eq. 1 pulled utilization
    # down from the ~0.70 it would sit at under the base clock.
    assert phases[1]["mean_utilization"] < 0.68
    assert phases[1]["mean_frequency_ghz"] > 3.9
