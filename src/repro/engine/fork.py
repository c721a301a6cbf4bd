"""Run a function in a forked child, or two pure functions at once.

Two callers fork, for different reasons:

* The live service pickles its core in a child so that reading every
  ``__dict__`` never slows the parent's own core
  (:mod:`repro.service.checkpoint`). That child is for isolation, so
  :func:`run_in_child` always forks.
* Each naive-vs-robust comparison runs its two arms, pure functions of
  their arguments that share only the seed, at once: :func:`run_pair`
  starts the first arm in a child and runs the second here. It forks
  only where a fork can pay off and is safe, and otherwise runs both
  here, in order. Either way it returns the same values.

The child pickles its result into a pipe and always leaves through
:func:`os._exit`, so it never runs the parent's ``atexit`` handlers or
flushes buffers it inherited. The parent unpickles only what its own
child wrote. This module imports only the standard library and no
process pool: the service WAL and the benchmark load it.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import warnings
from typing import Any, Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")

#: Bytes asked of the pipe per read.
_READ_CHUNK = 1 << 16


class ChildFailed(Exception):
    """The child could not be forked, exited non-zero, died on a
    signal, or wrote bytes that do not unpickle."""


def _start(fn: Callable[..., Any], args: tuple) -> tuple[int, int]:
    """Fork a child that pickles ``fn(*args)`` into a pipe; returns the
    child's pid and the pipe's read end."""
    if not hasattr(os, "fork"):  # pragma: no cover - no fork on this platform
        raise ChildFailed("this platform cannot fork")
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a process with threads may
            # deadlock the child, and numpy's BLAS threads count. The
            # child only computes, pickles, writes and leaves through
            # os._exit.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError as error:
        os.close(read_fd)
        os.close(write_fd)
        raise ChildFailed(f"could not fork: {error}") from None
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            os.close(read_fd)
            data = memoryview(pickle.dumps(fn(*args), pickle.HIGHEST_PROTOCOL))
            while data:
                data = data[os.write(write_fd, data) :]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int) -> Any:
    """Read the child's pickle to EOF, reap the child, and return its
    result; raises :class:`ChildFailed` if it failed."""
    chunks = []
    try:
        while chunk := os.read(read_fd, _READ_CHUNK):
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildFailed(f"child {pid} exited with {code}")
    try:
        return pickle.loads(b"".join(chunks))
    except Exception as error:
        raise ChildFailed(f"child {pid} wrote no result that unpickles: {error!r}") from None


def run_in_child(fn: Callable[..., A], *args: Any) -> A:
    """``fn(*args)``, computed in a forked child and pickled back.

    Raises :class:`ChildFailed` if the child could not be forked,
    exited non-zero (``fn`` raised, or its result does not pickle),
    died on a signal, or wrote bytes that do not unpickle. Nothing is
    left running: the child is reaped before this returns or raises.
    """
    return _collect(*_start(fn, args))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity on this platform
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether :func:`run_pair` forks: it can, a second core can run the
    child, no other thread could hold an import lock the child needs,
    and no profiler or tracer would miss the child's arm."""
    return (
        hasattr(os, "fork")
        and _usable_cores() >= 2
        and threading.active_count() == 1
        and sys.getprofile() is None
        and sys.gettrace() is None
    )


def run_pair(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
    """``(first(), second())``, with ``first`` in a forked child while
    ``second`` runs here.

    Both must be pure: a function of their arguments that shares no
    state with the other. :func:`_may_fork` says when this forks;
    otherwise both run here, in order. If the child fails, ``first``
    runs here instead, so an arm that raises does so here with its
    full traceback. If ``second`` raises, or the wait is interrupted,
    the child is killed and reaped before the exception propagates.
    """
    if not _may_fork():
        return first(), second()
    try:
        pid, read_fd = _start(first, ())
    except ChildFailed:
        return first(), second()
    try:
        second_value = second()
    except BaseException:
        os.close(read_fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    try:
        first_value = _collect(pid, read_fd)
    except ChildFailed:
        first_value = first()
    return first_value, second_value
