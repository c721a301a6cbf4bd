"""The sweep-execution engine.

Every headline experiment in this reproduction — the Monte Carlo fleet
study, the TCO sensitivity sweeps, the oversubscription grids, the
three-mode auto-scaler comparison — is a set of *independent* simulator
runs. :class:`SweepEngine` is the one place that executes such sets:

* **Parallelism.** Tasks fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor`. ``max_workers=1``
  (the default) runs serially in-process; tasks whose function or
  parameters cannot be pickled silently fall back to the serial path.
* **Determinism.** A task that declares ``seed_param`` receives a seed
  derived from ``(master_seed, task.key)`` via
  :func:`repro.sim.random.split_seed`. The seed depends only on content,
  never on scheduling, so parallel results are bit-for-bit identical to
  serial ones.
* **Memoization.** With a :class:`~repro.engine.cache.ResultCache`
  attached, completed points are persisted under a content digest of
  ``(function, parameters, package version)`` and replayed on the next
  run instead of re-simulated.
* **Crash recovery.** A worker dying mid-sweep (OOM kill, segfault,
  injected chaos) breaks the whole :class:`ProcessPoolExecutor`; the
  engine harvests every completed future, re-spawns the pool, and
  re-submits only the unfinished tasks, backing off between rounds per
  its :class:`~repro.control.retry.RetryPolicy`. After the policy's
  ``max_attempts`` consecutive broken pools the stragglers run serially
  in-process. Because task seeds derive from content, not scheduling, a
  recovered run is bit-for-bit identical to an undisturbed one.
* **Timeouts.** ``task_timeout_s`` bounds each task's wall time; a hung
  worker is terminated and the run fails fast with an
  :class:`~repro.errors.EngineError` instead of blocking forever.

The engine deliberately knows nothing about what a task computes; ports
live next to the models they parallelize (``reliability.montecarlo``,
``tco.sensitivity``, ``experiments.oversubscription``,
``experiments.autoscaling``).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..control.retry import ENGINE_POOL_RETRIES, RetryPolicy
from ..errors import EngineError
from ..sim.random import split_seed
from .cache import ResultCache, content_key
from .journal import RunJournal

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


@dataclass(frozen=True)
class SweepTask:
    """One independent point of a sweep.

    ``fn`` must be a module-level callable (so it can cross a process
    boundary) and is invoked as ``fn(**params)``. ``key`` names the
    point within its sweep — it orders the result dict, labels progress,
    and (with ``seed_param``) feeds the deterministic seed split. Set
    ``cacheable=False`` for points that should never be memoized (e.g.
    wall-clock measurements).
    """

    fn: Callable[..., Any]
    params: Mapping[str, Any]
    key: str
    seed_param: str | None = None
    cacheable: bool = True

    def resolved_params(self, master_seed: int) -> dict[str, Any]:
        """Parameters with the engine-derived seed injected, if any."""
        params = dict(self.params)
        if self.seed_param is not None:
            params[self.seed_param] = split_seed(master_seed, self.key)
        return params


@dataclass
class RunReport:
    """What one :meth:`SweepEngine.run` call did, and how long it took."""

    tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    parallel_tasks: int = 0
    serial_tasks: int = 0
    wall_seconds: float = 0.0
    #: Process pools that broke under this run (worker death).
    worker_failures: int = 0
    #: Task submissions repeated because their pool broke.
    retries: int = 0
    #: Tasks that exceeded ``task_timeout_s``.
    timeouts: int = 0
    #: Points replayed from the campaign write-ahead journal.
    journal_hits: int = 0
    #: Points durably appended to the journal this run.
    journal_records: int = 0


@dataclass
class EngineStats:
    """Cumulative counters across every run of one engine."""

    runs: int = 0
    tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    parallel_tasks: int = 0
    serial_tasks: int = 0
    wall_seconds: float = 0.0
    worker_failures: int = 0
    retries: int = 0
    timeouts: int = 0
    journal_hits: int = 0
    journal_records: int = 0

    def absorb(self, report: RunReport) -> None:
        self.runs += 1
        self.tasks += report.tasks
        self.executed += report.executed
        self.cache_hits += report.cache_hits
        self.cache_misses += report.cache_misses
        self.parallel_tasks += report.parallel_tasks
        self.serial_tasks += report.serial_tasks
        self.wall_seconds += report.wall_seconds
        self.worker_failures += report.worker_failures
        self.retries += report.retries
        self.timeouts += report.timeouts
        self.journal_hits += report.journal_hits
        self.journal_records += report.journal_records


def _is_picklable(payload: Any) -> bool:
    try:
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


class SweepEngine:
    """Executes sets of independent sweep points.

    Parameters
    ----------
    max_workers:
        Process-pool width. ``1`` (default) runs serially in-process;
        ``None`` uses :func:`os.cpu_count`.
    cache:
        A :class:`ResultCache` to memoize completed points, or ``None``
        to recompute everything.
    task_timeout_s:
        Wall-clock bound per task. ``None`` (default) waits forever; a
        task that exceeds the bound gets its worker terminated and the
        run raises :class:`~repro.errors.EngineError` — a hung
        simulation is a bug to surface, not a condition to retry.
    retry_policy:
        A :class:`~repro.control.retry.RetryPolicy` governing pool
        re-spawns — the same shared policy type the command bus uses.
        After ``max_attempts`` consecutive broken pools the remaining
        tasks finish serially in-process; round ``n`` backs off by
        ``backoff_s(n)`` before re-spawning.
    journal:
        An open :class:`~repro.engine.journal.RunJournal`. Every
        completed (cacheable) point is durably appended as it finishes,
        and points already in the journal are replayed without
        executing — the crash/resume path of ``sweep --resume``.
    """

    def __init__(
        self,
        max_workers: int | None = 1,
        cache: ResultCache | None = None,
        task_timeout_s: float | None = None,
        retry_policy: RetryPolicy = ENGINE_POOL_RETRIES,
        journal: RunJournal | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise EngineError("max_workers must be at least 1")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise EngineError("task_timeout_s must be positive (or None)")
        self.max_workers = max_workers
        self.cache = cache
        self.task_timeout_s = task_timeout_s
        self.retry_policy = retry_policy
        self.journal = journal
        self.stats = EngineStats()
        self.last_report: RunReport | None = None
        #: task.key -> content digest of the current run (journal keying).
        self._active_keys: dict[str, str | None] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, tasks: Sequence[SweepTask] | Iterable[SweepTask], master_seed: int = 0
    ) -> dict[str, Any]:
        """Execute ``tasks``; return ``{task.key: result}`` in task order.

        Points already present in the cache are replayed without
        executing; the rest run in parallel when ``max_workers > 1`` and
        the task round-trips through pickle, serially otherwise. Worker
        exceptions propagate to the caller unchanged.
        """
        tasks = list(tasks)
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            duplicates = sorted({key for key in keys if keys.count(key) > 1})
            raise EngineError(f"duplicate task keys: {', '.join(duplicates)}")

        report = RunReport(tasks=len(tasks))
        started = time.perf_counter()
        results: dict[str, Any] = {}
        pending: list[tuple[SweepTask, dict[str, Any], str | None]] = []
        self._active_keys = {}

        for task in tasks:
            params = task.resolved_params(master_seed)
            key = None
            if (self.cache is not None or self.journal is not None) and task.cacheable:
                key = content_key(task.fn, params)
            self._active_keys[task.key] = key
            # The journal is the campaign's own completed work; it
            # outranks the shared cache on resume.
            if self.journal is not None and key is not None:
                if key in self.journal.replayed:
                    report.journal_hits += 1
                    results[task.key] = self.journal.replayed[key]
                    continue
            if self.cache is not None and key is not None:
                hit, value = self.cache.load(key)
                if hit:
                    report.cache_hits += 1
                    results[task.key] = value
                    # Journal cache hits too: the WAL must be able to
                    # resume the campaign even without the cache.
                    if self.journal is not None:
                        self.journal.record(key, task.key, value)
                        report.journal_records += 1
                    continue
                report.cache_misses += 1
            pending.append((task, params, key))

        if pending:
            self._execute(pending, results, report)

        if self.cache is not None:
            for task, params, key in pending:
                if key is not None:
                    self.cache.store(key, results[task.key])

        report.wall_seconds = time.perf_counter() - started
        self.stats.absorb(report)
        self.last_report = report
        return {task.key: results[task.key] for task in tasks}

    def _complete(
        self,
        task: SweepTask,
        value: Any,
        results: dict[str, Any],
        report: RunReport,
    ) -> None:
        """Land one executed task: record the result and journal it.

        Called the moment each result reaches the parent process, so a
        later crash loses at most the in-flight points — everything
        landed here is durably recoverable via ``--resume``.
        """
        results[task.key] = value
        if self.journal is not None:
            key = self._active_keys.get(task.key)
            if key is not None:
                self.journal.record(key, task.key, value)
                report.journal_records += 1

    def _execute(
        self,
        pending: list[tuple[SweepTask, dict[str, Any], str | None]],
        results: dict[str, Any],
        report: RunReport,
    ) -> None:
        parallel: list[tuple[SweepTask, dict[str, Any]]] = []
        serial: list[tuple[SweepTask, dict[str, Any]]] = []
        for task, params, _ in pending:
            if self.max_workers > 1 and _is_picklable((task.fn, params)):
                parallel.append((task, params))
            else:
                serial.append((task, params))

        if parallel:
            self._run_parallel(parallel, results, report)
        for task, params in serial:
            self._complete(task, task.fn(**params), results, report)
        report.serial_tasks += len(serial)
        report.executed = len(pending)

    # ------------------------------------------------------------------
    # Parallel execution with crash recovery
    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        items: list[tuple[SweepTask, dict[str, Any]]],
        results: dict[str, Any],
        report: RunReport,
    ) -> None:
        """Run ``items`` through process pools, recovering broken ones.

        Each round submits the still-unfinished tasks to a fresh pool.
        A broken pool (worker death) harvests whatever completed and
        retries the rest after the retry policy's backoff; real task
        exceptions propagate unchanged on any round.
        """
        remaining = list(items)
        failures = 0
        while remaining:
            remaining = self._parallel_round(remaining, results, report)
            if not remaining:
                report.parallel_tasks += len(items)
                return
            failures += 1
            report.worker_failures += 1
            if failures >= self.retry_policy.max_attempts:
                break
            report.retries += len(remaining)
            time.sleep(self.retry_policy.backoff_s(failures))
        # The pool keeps dying — finish the stragglers in-process, where
        # a crash would at least produce a real traceback.
        report.parallel_tasks += len(items) - len(remaining)
        report.serial_tasks += len(remaining)
        for task, params in remaining:
            self._complete(task, task.fn(**params), results, report)

    def _parallel_round(
        self,
        items: list[tuple[SweepTask, dict[str, Any]]],
        results: dict[str, Any],
        report: RunReport,
    ) -> list[tuple[SweepTask, dict[str, Any]]]:
        """One pool generation; returns the tasks still unfinished."""
        # Imported here: most runs are serial and never start a pool.
        import concurrent.futures

        width = min(self.max_workers, len(items))
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=width)
        broke = False
        try:
            futures = [
                (task, pool.submit(task.fn, **params))
                for task, params in items
            ]
            for task, future in futures:
                try:
                    value = future.result(timeout=self.task_timeout_s)
                except concurrent.futures.BrokenExecutor:
                    broke = True
                    break
                except concurrent.futures.TimeoutError:
                    report.timeouts += 1
                    self._terminate_workers(pool)
                    raise EngineError(
                        f"task {task.key!r} exceeded the {self.task_timeout_s}s "
                        "timeout; its worker was terminated"
                    ) from None
                self._complete(task, value, results, report)
            if not broke:
                return []
            # Harvest every future that finished before the pool broke;
            # genuine task exceptions still propagate.
            for task, future in futures:
                if task.key in results or not future.done():
                    continue
                error = future.exception()
                if error is None:
                    self._complete(task, future.result(), results, report)
                elif not isinstance(error, concurrent.futures.BrokenExecutor):
                    raise error
            return [
                (task, params)
                for task, params in items
                if task.key not in results
            ]
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill a pool's worker processes (a hung task never returns)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass


__all__ = [
    "SweepTask",
    "SweepEngine",
    "RunReport",
    "EngineStats",
]
