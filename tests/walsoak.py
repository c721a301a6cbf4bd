"""WAL soak check: after a long ``serve`` run, a resume reads one interval.

``make wal-soak`` serves 20,000 unpaced ticks through ``python -m repro
serve`` and then runs this module on the run's cache directory. It
resumes the run in-process and fails unless WAL compaction left the
run's directory holding one WAL file and at most
:data:`~repro.service.checkpoint.SNAPSHOTS_KEPT` snapshot files, and the
resume parsed at most one snapshot interval of ``sig`` records plus the
ops, the kept ``snap`` records, the ``meta`` record and the header.

Invoked as ``python -m tests.walsoak <cache_dir> <run_id> <seed> <ticks>``
with ``PYTHONPATH`` covering both ``src/`` and the repository root.
"""

from __future__ import annotations

import sys
import time

from repro.engine.journal import RunJournal
from repro.service.checkpoint import (
    SNAPSHOT_INTERVAL_TICKS,
    SNAPSHOTS_KEPT,
    ServiceSession,
    service_wal_path,
)


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
    print(
        f"wal-soak: {ticks} ticks, WAL {wal.stat().st_size} B, "
        f"{len(snapshots)} snapshot(s), {ops} op(s); resume restored tick "
        f"{session.restored_tick}, read {session.records_read} records "
        f"(bound {bound}) in {resume_s:.2f} s"
    )
    problems = []
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
