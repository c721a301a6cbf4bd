"""Tests for the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest bench -q``. Workloads run at
tiny sizes here; the benchmark's own sizes are in ``workloads.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
import tracer as tracing
import workloads as wl
from repro.autoscale.policy import ScalerMode
from repro.control.bus import CommandBus
from repro.engine import journal
from repro.engine.journal import RunJournal
from repro.experiments.autoscaling import run_fig16_mode
from repro.faults.timeline import FaultTimeline
from repro.service.checkpoint import ServiceSession
from repro.service.core import ServiceCore
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Episode sizes small enough for a test (ramp levels, ticks, experiments).
TINY = {"autoscale-ramp": 1, "service-storm": 40, "service-wal": 20, "ladder-campaign": 2}

#: Every class (and the journal module) the tracer patches.
PATCHED = {tracing._class(module, name) for module, name, _, _ in tracing.SPANS} | {
    Simulator,
    EventQueue,
    FaultTimeline,
    CommandBus,
    ServiceCore,
    ServiceSession,
    RunJournal,
}


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def shrink(monkeypatch, name: str) -> None:
    """Run ``name`` at its tiny size, with one set-up probe."""
    tiny = dataclasses.replace(wl.WORKLOADS[name], size=TINY[name])
    monkeypatch.setitem(wl.WORKLOADS, name, tiny)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def attributes() -> dict:
    state = {owner: dict(vars(owner)) for owner in PATCHED}
    state["journal.os"] = journal.os
    return state


class FakeClock:
    def __init__(self, *times: float) -> None:
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


def test_benchmark_json_matches_the_runner():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    assert {item["name"]: item["why"] for item in BENCHMARK["workloads"]} == {
        name: workload.why for name, workload in wl.WORKLOADS.items()
    }
    assert set(run.load_reference()) == set(wl.WORKLOADS)


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    tracer = tracing.Tracer(roots=("a",), clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    assert tracer.stats == {
        "b": [1, 1.0, 1.0],
        "a": [1, 3.0, 2.0],
        "c": [1, 1.0, 1.0],
        "root": [1, 10.0, 6.0],
    }
    # Only the trace rooted at "a" is kept raw; b shares its trace id.
    raw = {name: (span, parent, trace) for name, _, _, span, parent, trace in tracer.raw}
    assert set(raw) == {"a", "b"}
    assert raw["b"][1] == raw["a"][0]
    assert raw["a"][2] == raw["b"][2] == 1


def test_calibration_divides_out_the_host_speed(monkeypatch):
    monkeypatch.setattr(wl, "CALIBRATION_WINDOW", 1)
    watch = wl.Stopwatch(parts_per_step=2)
    # A host at half the reference speed, then at full speed: the probe
    # (the calibration loop) takes 20 us, then 10 us.
    watch.parts_s = [4e-3, 2e-3, 1e-3, 1e-3]
    watch.probes_s = [20e-6, 20e-6, 10e-6, 10e-6]
    steps, busy = watch.calibrated(wall_s=sum(watch.parts_s) + sum(watch.probes_s) + 0.03)
    # Parts scale by 10 us over the median of their probe and its
    # neighbours: 0.5, 0.5, 1, 1.
    assert steps == pytest.approx([3e-3, 2e-3])
    # The 30 ms outside the calls scales by the median probe (15 us).
    assert busy == pytest.approx(5e-3 + 0.03 * 10 / 15)


def test_wrappers_are_restored_after_a_traced_run(monkeypatch):
    shrink(monkeypatch, "service-wal")
    before = attributes()
    run.measure("service-wal", seed=3, seconds=0.01, trace=True)
    assert attributes() == before
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert attributes() != before
            raise RuntimeError("leave the block early")
    assert attributes() == before


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_each_workload_emits_the_declared_metrics(name, monkeypatch):
    shrink(monkeypatch, name)
    plain = run.measure(name, seed=2, seconds=0.01, trace=False)
    traced = run.measure(name, seed=2, seconds=0.01, trace=True)
    for detail, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        result = detail["result"]
        assert result["correct"], detail["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
        assert units == declared(kind)
    for metric in declared("end_to_end"):
        assert plain["result"]["metrics"][metric]["value"] > 0
    assert traced["result"]["metrics"]["trace.coverage_frac"]["value"] > 0.5


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_digest_equals_untraced(name, tmp_path):
    workload = wl.WORKLOADS[name]
    plain = workload.episode(4, TINY[name], tmp_path)
    with tracing.installed(tracing.Tracer()) as tracer:
        traced = workload.episode(4, TINY[name], tmp_path, tracer)
    assert tracer.stats
    assert traced.digest == plain.digest
    assert traced.failed == plain.failed == 0


def test_sliced_ramp_is_the_same_simulation(tmp_path):
    run_method = vars(Simulator)["run"]
    episode = wl.WORKLOADS["autoscale-ramp"].episode(5, 2, tmp_path)
    assert vars(Simulator)["run"] is run_method
    result = run_fig16_mode(ScalerMode.OC_A, 5, levels=2, step_period_s=wl.RAMP_STEP_PERIOD_S)
    assert episode.digest == wl.ramp_digest(result)
    assert len(episode.watch.parts_s) == len(wl.ramp_slices(2)) == 100 + 200


def test_corrupted_reference_fails_every_operation(monkeypatch, capsys):
    name = "service-storm"
    shrink(monkeypatch, name)
    reference = run.load_reference()
    reference[name] = {**reference[name], "digest": "0" * 64}
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    code = run.main(["--workload", name, "--seed", "2", "--seconds", "0.01", "--trace", "1"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "reference digest mismatch" in captured.err
