"""Subprocess driver for the service SIGKILL chaos test.

Runs a journaled :class:`~repro.service.checkpoint.ServiceSession` with
deliberately slow wall-clock ticks so the parent test can SIGKILL this
process *mid-run* — after the operator op and a batch of per-tick
signature checkpoints have been fsync'd to the service WAL, but before
the run finishes. The parent then resumes the session in-process and
asserts the rebuilt core's chained tick signature is bit-identical to
an uninterrupted reference run.

Invoked as ``python -m tests.servicehelper <cache_dir> <run_id> <seed>
[snapshot_interval]`` with ``PYTHONPATH`` covering both ``src/`` and the
repository root. With a snapshot interval the session snapshots every
that many ticks, and each snapshot writer first leaves a torn temp file
and stalls for :data:`SNAPSHOT_STALL_S`, so the parent test can SIGKILL
the service during a snapshot write. A writer whose service is killed
exits at once, leaving the torn file behind.
"""

from __future__ import annotations

import os
import sys
import time

from repro.service import ServiceSession, checkpoint

#: Run shape shared with the parent test.
TICKS = 60
#: Tick boundary the operator op is applied at (must be well before the
#: parent's kill window so the op record is always durable when killed).
OP_AT_TICK = 6
#: The journaled operator action: a demand surge long enough to still be
#: shaping load at tick 60, so a mis-replayed op shows up in signatures.
OP = {"op": "demand-surge", "factor": 1.8, "duration_s": 30.0}
#: Wall sleep per tick in the child (the kill window); 0 in-process.
SLEEP_S = 0.05
#: How long each snapshot writer stalls after its torn first bytes.
SNAPSHOT_STALL_S = 0.4


def run_service(
    cache_dir: str,
    run_id: str,
    seed: int,
    ticks: int = TICKS,
    sleep_s: float = SLEEP_S,
) -> dict:
    """Open (or resume) the session and tick it to ``ticks``.

    The op is applied only when the core sits exactly at its recorded
    boundary; on resume the WAL has already replayed it, and the core
    is past that boundary, so it is never double-applied.
    """
    session = ServiceSession(cache_dir, run_id, seed=seed)
    core = session.open()
    try:
        while core.tick_index < ticks:
            if core.tick_index == OP_AT_TICK:
                session.apply_op(OP)
            session.tick()
            if sleep_s:
                time.sleep(sleep_s)
        return {
            "tick": core.tick_index,
            "signature": core.signature,
            "resumed": session.resumed,
            "replayed_ticks": session.replayed_ticks,
            "restored_tick": session.restored_tick,
        }
    finally:
        session.close()


def _stalling_writer(write_snapshot):
    """``write_snapshot``, run only after a torn start and a stall."""

    def write(core, temp, final):
        service = os.getppid()
        temp.write_bytes(b"\x80\x05torn")
        deadline = time.monotonic() + SNAPSHOT_STALL_S
        while time.monotonic() < deadline:
            if os.getppid() != service:  # the service was killed
                os._exit(1)
            time.sleep(0.005)
        return write_snapshot(core, temp, final)

    return write


def main(argv: list[str]) -> int:
    cache_dir, run_id, seed = argv[1], argv[2], int(argv[3])
    if len(argv) > 4:
        checkpoint.SNAPSHOT_INTERVAL_TICKS = int(argv[4])
        checkpoint.write_snapshot = _stalling_writer(checkpoint.write_snapshot)
    run_service(cache_dir, run_id, seed=seed)
    print("SERVICE-DONE", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
