"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures. The
formatted output is printed (visible with ``pytest -s``) and also saved
under ``benchmarks/results/`` so a plain ``pytest benchmarks/
--benchmark-only`` run leaves the reproduced tables on disk.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def bench_engine():
    """A sweep engine for benchmark drivers.

    Width is every usable core, capped at 4. Caching is off — benchmarks
    measure real execution. Engine results are bit-for-bit independent
    of worker count, so the reproduced tables are identical at any width.
    """
    from repro.engine import SweepEngine

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return SweepEngine(max_workers=min(4, cores))


@pytest.fixture
def emit():
    """Print a reproduced table and persist it to benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _emit
