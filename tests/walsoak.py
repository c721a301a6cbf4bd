"""WAL soak check: after a long ``serve`` run, a resume reads one interval.

``make wal-soak`` serves 20,000 unpaced ticks through ``python -m repro
serve`` and then runs this module on the run's cache directory. It
resumes the run in-process and fails unless WAL compaction left the
run's directory holding one WAL file and at most
:data:`~repro.service.checkpoint.SNAPSHOTS_KEPT` snapshot files, and the
resume parsed at most one snapshot interval of ``sig`` records plus the
ops, the kept ``snap`` records, the ``meta`` record and the header. It
also fails when the newest snapshot file is more than
:data:`SNAPSHOT_GROWTH_BOUND` times the size of a fresh core's snapshot
at the first interval, so the state a snapshot carries must stay flat
with uptime.

Invoked as ``python -m tests.walsoak <cache_dir> <run_id> <seed> <ticks>``
with ``PYTHONPATH`` covering both ``src/`` and the repository root.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.engine.journal import RunJournal
from repro.service.checkpoint import (
    SNAPSHOT_INTERVAL_TICKS,
    SNAPSHOTS_KEPT,
    ServiceSession,
    service_wal_path,
    write_snapshot,
)
from repro.service.core import ServiceCore

#: How many times a fresh core's first snapshot the newest may be.
SNAPSHOT_GROWTH_BOUND = 2


def reference_snapshot_bytes(seed: int) -> int:
    """The size of a fresh core's snapshot at the first interval."""
    core = ServiceCore(seed)
    core.run_ticks(SNAPSHOT_INTERVAL_TICKS)
    with tempfile.TemporaryDirectory() as directory:
        final = Path(directory) / "reference.snap"
        write_snapshot(core, final.with_suffix(".tmp"), final)
        return final.stat().st_size


def main(argv: list[str]) -> int:
    cache_dir, run_id, seed, ticks = argv[1], argv[2], int(argv[3]), int(argv[4])
    wal = service_wal_path(cache_dir, run_id)
    names = sorted(path.name for path in wal.parent.iterdir())
    snapshots = [name for name in names if name.endswith(".snap")]
    others = [name for name in names if name not in snapshots]
    journal = RunJournal(wal, run_id)
    try:
        ops = sum(key.startswith("op:") for key in journal.open())
    finally:
        journal.close()

    session = ServiceSession(cache_dir, run_id, seed)
    start = time.perf_counter()
    session.open()
    resume_s = time.perf_counter() - start
    session.close()

    bound = SNAPSHOT_INTERVAL_TICKS + ops + SNAPSHOTS_KEPT + 2
    newest_bytes = (wal.parent / snapshots[-1]).stat().st_size if snapshots else 0
    reference_bytes = reference_snapshot_bytes(seed)
    print(
        f"wal-soak: {ticks} ticks, WAL {wal.stat().st_size} B, "
        f"{len(snapshots)} snapshot(s), {ops} op(s); resume restored tick "
        f"{session.restored_tick}, read {session.records_read} records "
        f"(bound {bound}) in {resume_s:.2f} s; newest snapshot {newest_bytes} B, "
        f"a fresh core's at tick {SNAPSHOT_INTERVAL_TICKS} {reference_bytes} B"
    )
    problems = []
    if not snapshots:
        problems.append("no snapshot file was written")
    if newest_bytes > SNAPSHOT_GROWTH_BOUND * reference_bytes:
        problems.append(
            f"the newest snapshot is {newest_bytes} B, over {SNAPSHOT_GROWTH_BOUND} x "
            f"{reference_bytes} B"
        )
    if others != [wal.name]:
        problems.append(f"expected only {wal.name} beside the snapshots, found {others}")
    if len(snapshots) > SNAPSHOTS_KEPT:
        problems.append(f"{len(snapshots)} snapshot files, more than {SNAPSHOTS_KEPT}")
    if session.replayed_ticks != ticks:
        problems.append(f"resumed to tick {session.replayed_ticks}, not {ticks}")
    if session.records_read > bound:
        problems.append(f"the resume read {session.records_read} records, over {bound}")
    for problem in problems:
        print(f"wal-soak: FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
