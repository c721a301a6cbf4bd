"""Benchmark: the conceptual Figures 5-8 use-cases, exercised end-to-end."""

from repro.experiments.usecases import (
    format_fig5,
    format_fig6,
    format_fig7,
    format_fig8,
    run_fig5,
    run_fig6,
    run_fig7,
)


def test_fig5_bands_and_packing(benchmark, emit):
    result = benchmark(run_fig5)
    emit("fig5_bands_packing", format_fig5())
    assert result["vms_overclocked"] == result["vms_plain"] + 1


def test_fig6_virtual_buffers(benchmark, emit):
    result = benchmark(run_fig6)
    emit("fig6_virtual_buffers", format_fig6())
    assert result["virtual_vms"] > result["static_vms"]
    assert result["failover_lost"] == 0


def test_fig7_capacity_crisis(benchmark, emit):
    plan = benchmark(run_fig7)
    emit("fig7_capacity_crisis", format_fig7())
    assert plan.fully_bridged


def test_fig8_maneuvers(benchmark, emit):
    from repro.experiments.usecases import run_fig8

    timelines = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    emit("fig8_maneuvers", format_fig8(timelines))
    assert set(timelines) == {"oc-e", "oc-a"}
