"""The fork helper: one arm in a child, the other here, same values.

:func:`repro.engine.fork.run_pair` forks only with two usable cores, a
single thread and no profiler or tracer; a child that fails has its arm
run here instead. Every case checks afterwards that no child process is
left, and each two-arm comparison must give the same result forked as
it does serially, with each arm's result surviving a pickle round trip
(else the forked path would quietly run that arm twice).
"""

from __future__ import annotations

import dataclasses
import errno
import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro.engine.fork import ChildFailed, run_in_child, run_pair
from repro.experiments.envelope_rollout import run_envelope_rollout
from repro.experiments.failure_recovery import run_failure_recovery
from repro.experiments.heatwave_ride_through import run_heatwave_ride_through
from repro.experiments.overload_storm import run_overload_storm
from repro.experiments.oversubscription_crisis import run_oversubscription_crisis
from repro.experiments.partition_recovery import run_partition_recovery
from repro.experiments.sdc_hunt import run_sdc_hunt

from .test_faults import SHRUNK

#: Each two-arm comparison, with the shrunk overrides its tests use.
COMPARISONS = {
    "recovery": (run_failure_recovery, SHRUNK),
    "partition": (run_partition_recovery, {}),
    "heatwave": (run_heatwave_ride_through, {}),
    "oversubscribe": (run_oversubscription_crisis, {}),
    "healthscan": (run_sdc_hunt, {}),
    "rollout": (run_envelope_rollout, {}),
    "overload": (run_overload_storm, {"storm_ticks": 80, "warm_ticks": 10}),
}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cores(monkeypatch, cores: set[int]) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Two usable cores, and the pid of every ``os.fork`` caller."""
    _cores(monkeypatch, {0, 1})
    calls: list[int] = []
    fork = os.fork

    def counted() -> int:
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _in_child(parent: int) -> bool:
    return os.getpid() != parent


class TestRunPair:
    def test_forks_once_and_returns_both_values(self, forks):
        assert run_pair(lambda: ("first", 1), lambda: ("second", 2)) == (
            ("first", 1),
            ("second", 2),
        )
        assert forks == [os.getpid()]

    def test_the_first_arm_runs_in_the_child(self, forks):
        parent = os.getpid()
        assert run_pair(lambda: _in_child(parent), lambda: _in_child(parent)) == (True, False)

    def test_one_usable_core_runs_both_here(self, forks, monkeypatch):
        _cores(monkeypatch, {0})
        parent = os.getpid()
        assert run_pair(lambda: _in_child(parent), lambda: 2) == (False, 2)
        assert forks == []

    def test_a_second_thread_runs_both_here(self, forks):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert run_pair(lambda: 1, lambda: 2) == (1, 2)
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert forks == []

    def test_a_profiler_sees_both_arms_here(self, forks):
        calls: list[str] = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        def first():
            return 1

        def second():
            return 2

        sys.setprofile(profile)
        try:
            values = run_pair(first, second)
        finally:
            sys.setprofile(None)
        assert values == (1, 2)
        assert forks == []
        assert {"first", "second"} <= set(calls)


class TestAFailedChild:
    def test_an_arm_that_raises_raises_here(self, forks):
        ran_here: list[int] = []

        def first():
            ran_here.append(os.getpid())
            raise KeyError("first arm")

        with pytest.raises(KeyError, match="first arm"):
            run_pair(first, lambda: 2)
        assert forks == [os.getpid()]
        # The child's append went to its own copy of the list.
        assert ran_here == [os.getpid()]

    def test_a_child_that_exits_non_zero_is_replaced_here(self, forks):
        parent = os.getpid()

        def first():
            if _in_child(parent):
                os._exit(3)
            return "here"

        assert run_pair(first, lambda: 2) == ("here", 2)
        assert forks == [parent]

    def test_an_unpicklable_result_is_computed_here(self, forks):
        parent = os.getpid()

        def first():
            where = "child" if _in_child(parent) else "here"
            return lambda: where

        value, second = run_pair(first, lambda: 2)
        assert (value(), second) == ("here", 2)
        assert forks == [parent]

    def test_a_result_that_does_not_unpickle_is_computed_here(self, forks):
        parent = os.getpid()

        def first():
            if not _in_child(parent):
                return "here"
            # A class only the child has: the parent cannot unpickle it.
            only_in_child = type("OnlyInChild", (), {"__module__": __name__})
            globals()["OnlyInChild"] = only_in_child
            return only_in_child()

        assert run_pair(first, lambda: 2) == ("here", 2)
        assert forks == [parent]
        assert "OnlyInChild" not in globals()

    def test_a_fork_that_fails_runs_both_here(self, forks, monkeypatch):
        def no_fork() -> int:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run_pair(lambda: 1, lambda: 2) == (1, 2)
        with pytest.raises(ChildFailed, match="could not fork"):
            run_in_child(int, "3")

    def test_when_the_second_arm_raises_the_child_is_killed_and_reaped(self, forks):
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError):
            run_pair(lambda: time.sleep(60.0), lambda: 1 / 0)
        assert forks == [os.getpid()]
        assert time.monotonic() - start < 30.0


class TestRunInChild:
    def test_returns_the_child_result(self):
        parent = os.getpid()
        assert run_in_child(_in_child, parent) is True

    def test_a_raising_function_is_a_failed_child(self):
        with pytest.raises(ChildFailed, match="exited with 1"):
            run_in_child(int, "not a number")

    def test_a_child_killed_by_a_signal_is_a_failed_child(self):
        with pytest.raises(ChildFailed, match="exited with -9"):
            run_in_child(lambda: os.kill(os.getpid(), signal.SIGKILL))

    def test_forks_with_one_usable_core(self, forks, monkeypatch):
        _cores(monkeypatch, {0})
        assert run_in_child(_in_child, os.getpid()) is True
        assert len(forks) == 1


@pytest.mark.parametrize("name", sorted(COMPARISONS))
def test_a_comparison_is_the_same_forked_and_serial(name, forks, monkeypatch):
    run, overrides = COMPARISONS[name]
    forked = run(seed=1, **overrides)
    assert forks == [os.getpid()]
    _cores(monkeypatch, {0})
    serial = run(seed=1, **overrides)
    assert len(forks) == 1
    assert forked == serial
    arms = [getattr(serial, spec.name) for spec in dataclasses.fields(serial)]
    arms = [arm for arm in arms if dataclasses.is_dataclass(arm)]
    assert len(arms) == 2
    for arm in arms:
        assert pickle.loads(pickle.dumps(arm, pickle.HIGHEST_PROTOCOL)) == arm
