"""Engine hardening: worker death, retries, timeouts, cache quarantine.

The headline invariant: a chaos task that hard-kills its pool worker
mid-sweep must not change the sweep's results — the engine re-spawns
the pool, re-submits the unfinished tasks, and because seeds derive
from task content the recovered output is bit-identical to a fault-free
serial run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time

import pytest

from repro.control.retry import RetryPolicy
from repro.engine import ResultCache, SweepEngine, SweepTask, make_faulty
from repro.engine.cache import QUARANTINE_DIR
from repro.errors import EngineError

SEEDS = [int(token) for token in os.environ.get("REPRO_CHAOS_SEEDS", "1 2").split()]

#: The engine's default attempts with a 10 ms base backoff, so a broken
#: pool costs the test little wall time.
FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay_s=0.01)


def _square(x, seed=0):
    return (x * x, seed)


def _boom(x):
    raise ValueError(f"boom {x}")


def _die_in_worker(x):
    """Kill the hosting pool worker on *every* parallel execution.

    In the main process (serial fallback) it computes normally — the
    guard is what makes the engine's last-resort serial path safe to
    exercise under pytest.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x * 3


def _sleep_forever(x):
    time.sleep(600)
    return x


def _tasks(n=6):
    return [
        SweepTask(_square, {"x": i}, key=f"x{i}", seed_param="seed") for i in range(n)
    ]


class TestChaosRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_killed_worker_yields_bit_identical_results(self, tmp_path, seed):
        reference = SweepEngine(max_workers=1).run(_tasks(), master_seed=seed)
        chaos = [
            make_faulty(task, tmp_path) if index in (1, 4) else task
            for index, task in enumerate(_tasks())
        ]
        engine = SweepEngine(max_workers=3, retry_policy=FAST_RETRIES)
        recovered = engine.run(chaos, master_seed=seed)
        assert recovered == reference
        assert engine.last_report.worker_failures >= 1
        assert engine.last_report.retries >= 1

    def test_make_faulty_is_safe_on_the_serial_path(self, tmp_path):
        # max_workers=1 never enters a pool: the wrapper must not kill
        # the test process, just compute.
        engine = SweepEngine(max_workers=1)
        faulty = [make_faulty(task, tmp_path) for task in _tasks(3)]
        assert engine.run(faulty, master_seed=5) == SweepEngine().run(
            _tasks(3), master_seed=5
        )

    def test_make_faulty_keeps_key_and_disables_caching(self, tmp_path):
        task = _tasks(1)[0]
        wrapped = make_faulty(task, tmp_path)
        assert wrapped.key == task.key
        assert wrapped.cacheable is False
        assert wrapped.seed_param == "seed"

    def test_serial_fallback_after_repeated_pool_failures(self):
        engine = SweepEngine(
            max_workers=2, retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0)
        )
        results = engine.run([SweepTask(_die_in_worker, {"x": 7}, key="d")])
        assert results == {"d": 21}
        assert engine.last_report.worker_failures == 2
        assert engine.last_report.serial_tasks == 1

    def test_surviving_tasks_are_harvested_not_rerun(self, tmp_path):
        # One killer among many squares: the squares that completed
        # before the pool broke must not be recomputed from scratch —
        # executed counts each task once either way, but results must be
        # complete and correct.
        chaos = [make_faulty(_tasks()[0], tmp_path)] + _tasks()[1:]
        engine = SweepEngine(max_workers=2, retry_policy=FAST_RETRIES)
        results = engine.run(chaos, master_seed=3)
        assert set(results) == {f"x{i}" for i in range(6)}

    def test_task_exception_still_propagates(self):
        engine = SweepEngine(max_workers=2)
        with pytest.raises(ValueError, match="boom"):
            engine.run([SweepTask(_boom, {"x": 1}, key="b")])


class TestTimeouts:
    def test_hung_task_raises_instead_of_blocking(self):
        engine = SweepEngine(max_workers=2, task_timeout_s=0.5)
        started = time.perf_counter()
        with pytest.raises(EngineError, match="timeout"):
            engine.run([SweepTask(_sleep_forever, {"x": 1}, key="h")])
        assert time.perf_counter() - started < 30.0

    def test_fast_tasks_unaffected_by_timeout(self):
        engine = SweepEngine(max_workers=2, task_timeout_s=30.0)
        assert engine.run(_tasks(3))["x2"][0] == 4

    def test_constructor_validation(self):
        with pytest.raises(EngineError):
            SweepEngine(task_timeout_s=0.0)


class TestCacheQuarantine:
    def _prime(self, root):
        cache = ResultCache(root)
        engine = SweepEngine(cache=cache)
        engine.run([SweepTask(_square, {"x": 7}, key="k")])
        (entry,) = list(root.glob("[0-9a-f][0-9a-f]/*.pkl"))
        return cache, entry

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path):
        _, entry = self._prime(tmp_path)
        entry.write_bytes(b"not a pickle")
        cache = ResultCache(tmp_path)
        hit, _ = cache.load(entry.stem)
        assert not hit
        assert cache.quarantined == 1
        assert not entry.exists()
        quarantined = tmp_path / QUARANTINE_DIR / entry.name
        assert quarantined.exists()
        assert quarantined.read_bytes() == b"not a pickle"

    def test_repeat_quarantine_keeps_every_specimen(self, tmp_path):
        """Regression: a key corrupting twice must not overwrite the
        first quarantined specimen — each lands at a uniquified path."""
        _, entry = self._prime(tmp_path)
        cache = ResultCache(tmp_path)
        entry.write_bytes(b"first corruption")
        cache.load(entry.stem)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(b"second corruption")
        cache.load(entry.stem)
        first = tmp_path / QUARANTINE_DIR / entry.name
        second = tmp_path / QUARANTINE_DIR / f"{entry.stem}.2.pkl"
        assert first.read_bytes() == b"first corruption"
        assert second.read_bytes() == b"second corruption"
        assert cache.quarantined == 2

    def test_quarantine_warns_once_per_key(self, tmp_path, caplog):
        _, entry = self._prime(tmp_path)
        cache = ResultCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            entry.write_bytes(b"garbage one")
            cache.load(entry.stem)
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_bytes(b"garbage two")
            cache.load(entry.stem)
        warnings = [r for r in caplog.records if "quarantined" in r.getMessage()]
        assert len(warnings) == 1
        assert cache.quarantined == 2

    def test_recompute_after_quarantine(self, tmp_path):
        _, entry = self._prime(tmp_path)
        entry.write_bytes(b"truncated")
        results = SweepEngine(cache=ResultCache(tmp_path)).run(
            [SweepTask(_square, {"x": 7}, key="k")]
        )
        assert results["k"] == (49, 0)

    def test_clear_and_len_ignore_quarantine(self, tmp_path):
        cache, entry = self._prime(tmp_path)
        entry.write_bytes(b"bad")
        cache.load(entry.stem)
        assert len(cache) == 0
        assert cache.clear() == 0
        assert (tmp_path / QUARANTINE_DIR / entry.name).exists()

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, value = cache.load("0" * 64)
        assert not hit and value is None
        assert cache.quarantined == 0
