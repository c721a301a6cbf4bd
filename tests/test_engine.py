"""Unit tests for the sweep engine: tasks, cache, fallback, CLI."""

from __future__ import annotations

import pytest

import repro
from repro.engine import (
    ResultCache,
    SweepEngine,
    SweepTask,
    canonicalize,
    content_key,
)
from repro.engine.cache import _package_version
from repro.errors import EngineError
from repro.sim.random import split_seed


def _square(x):
    return x * x


def _echo_seed(seed):
    return seed


def _fail():
    raise ValueError("boom")


class TestSweepTask:
    def test_seed_injection_matches_split_seed(self):
        task = SweepTask(fn=_echo_seed, params={}, key="point-a", seed_param="seed")
        params = task.resolved_params(master_seed=42)
        assert params["seed"] == split_seed(42, "point-a")

    def test_seed_depends_on_key_not_order(self):
        a = SweepTask(fn=_echo_seed, params={}, key="a", seed_param="seed")
        b = SweepTask(fn=_echo_seed, params={}, key="b", seed_param="seed")
        assert a.resolved_params(1)["seed"] != b.resolved_params(1)["seed"]
        assert a.resolved_params(1)["seed"] == a.resolved_params(1)["seed"]

    def test_no_seed_param_leaves_params_untouched(self):
        task = SweepTask(fn=_square, params={"x": 3}, key="sq")
        assert task.resolved_params(99) == {"x": 3}


class TestEngineExecution:
    def test_serial_run(self):
        engine = SweepEngine()
        results = engine.run([SweepTask(_square, {"x": n}, key=str(n)) for n in range(5)])
        assert results == {str(n): n * n for n in range(5)}
        assert engine.last_report.serial_tasks == 5
        assert engine.last_report.parallel_tasks == 0

    def test_parallel_matches_serial(self):
        tasks = lambda: [SweepTask(_square, {"x": n}, key=str(n)) for n in range(6)]
        serial = SweepEngine(max_workers=1).run(tasks())
        parallel = SweepEngine(max_workers=3).run(tasks())
        assert serial == parallel

    def test_result_order_follows_task_order(self):
        engine = SweepEngine(max_workers=2)
        keys = ["z", "a", "m"]
        results = engine.run([SweepTask(_square, {"x": 1}, key=k) for k in keys])
        assert list(results) == keys

    def test_duplicate_keys_rejected(self):
        engine = SweepEngine()
        with pytest.raises(EngineError, match="duplicate"):
            engine.run(
                [SweepTask(_square, {"x": 1}, key="k"), SweepTask(_square, {"x": 2}, key="k")]
            )

    def test_non_picklable_task_falls_back_to_serial(self):
        engine = SweepEngine(max_workers=2)
        results = engine.run(
            [
                SweepTask(lambda x=4: x * x, {}, key="lambda"),
                SweepTask(_square, {"x": 3}, key="plain"),
            ]
        )
        assert results == {"lambda": 16, "plain": 9}
        assert engine.last_report.serial_tasks == 1
        assert engine.last_report.parallel_tasks == 1

    def test_worker_exception_propagates(self):
        engine = SweepEngine(max_workers=2)
        with pytest.raises(ValueError, match="boom"):
            engine.run([SweepTask(_fail, {}, key="bad")])

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(EngineError):
            SweepEngine(max_workers=0)


class TestResultCache:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        tasks = lambda: [SweepTask(_square, {"x": n}, key=str(n)) for n in range(4)]
        first = engine.run(tasks())
        assert engine.last_report.executed == 4
        second = engine.run(tasks())
        assert second == first
        assert engine.last_report.executed == 0
        assert engine.last_report.cache_hits == 4

    def test_no_cache_always_executes(self):
        engine = SweepEngine()
        engine.run([SweepTask(_square, {"x": 2}, key="k")])
        engine.run([SweepTask(_square, {"x": 2}, key="k")])
        assert engine.stats.executed == 2
        assert engine.stats.cache_hits == 0

    def test_key_covers_parameters(self):
        assert content_key(_square, {"x": 1}) != content_key(_square, {"x": 2})
        assert content_key(_square, {"x": 1}) == content_key(_square, {"x": 1})

    def test_key_covers_function(self):
        assert content_key(_square, {"x": 1}) != content_key(_echo_seed, {"x": 1})

    def test_key_covers_package_version(self, monkeypatch):
        before = content_key(_square, {"x": 1})
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert content_key(_square, {"x": 1}) != before
        assert _package_version() == "999.0.0"

    def test_cacheable_false_skips_cache(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        task = lambda: [SweepTask(_square, {"x": 5}, key="k", cacheable=False)]
        engine.run(task())
        engine.run(task())
        assert engine.stats.executed == 2
        assert len(engine.cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        engine.run([SweepTask(_square, {"x": 7}, key="k")])
        (entry,) = list(tmp_path.glob("*/*.pkl"))
        entry.write_bytes(b"not a pickle")
        results = SweepEngine(cache=ResultCache(tmp_path)).run(
            [SweepTask(_square, {"x": 7}, key="k")]
        )
        assert results["k"] == 49

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run([SweepTask(_square, {"x": n}, key=str(n)) for n in range(3)])
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


class TestCanonicalize:
    def test_dataclasses_and_enums(self):
        from repro.autoscale.policy import ScalerMode
        from repro.silicon.configs import B2

        first = canonicalize({"mode": ScalerMode.OC_A, "config": B2, "n": 3})
        second = canonicalize({"mode": ScalerMode.OC_A, "config": B2, "n": 3})
        assert first == second

    def test_float_precision_distinguishes_values(self):
        assert canonicalize(0.1) != canonicalize(0.1 + 1e-12)
        assert canonicalize(0.1) == canonicalize(0.1)

    def test_mapping_order_is_irrelevant(self):
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})

    def test_identity_repr_rejected(self):
        class Opaque:
            pass

        with pytest.raises(EngineError):
            canonicalize(Opaque())


class TestCLISweep:
    def test_sweep_listing(self, capsys):
        from repro.cli import main

        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "reliability" in out and "autoscaler" in out

    def test_sweep_unknown_name(self, capsys):
        from repro.cli import main

        assert main(["sweep", "nope"]) == 2

    def test_sweep_tco_runs(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["sweep", "tco", "--workers", "1", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "TCO sensitivity" in out
        assert "[engine]" in out
        # Second invocation replays from the cache.
        assert main(["sweep", "tco", "--workers", "1", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "13 cache hit(s)" in out

    def test_sweep_no_cache_flag(self, capsys):
        from repro.cli import main

        assert main(["sweep", "tco", "--no-cache"]) == 0
        assert "cache disabled" in capsys.readouterr().out
