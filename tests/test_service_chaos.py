"""Service WAL crash safety: SIGKILL the serve loop, resume bit-identically.

The headline chaos test SIGKILLs a journaled service subprocess
mid-run — after the operator op and a batch of per-tick signature
checkpoints are durably on disk — then resumes the session in-process
and checks the rebuilt core's chained tick signature matches an
uninterrupted reference run bit for bit. That is the crash-safety
contract of ``python -m repro serve``: a hard kill loses at most the
unacknowledged tail, never the acknowledged past.

Seeds come from ``REPRO_CHAOS_SEEDS`` (space-separated ints), mirroring
the other chaos suites.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import JournalError
from repro.service import ServiceSession, checkpoint, service_wal_path

from . import servicehelper

#: Watchdog for the subprocess chaos test (seconds); CI can widen it.
CHAOS_TIMEOUT_S = float(os.environ.get("CHAOS_TIMEOUT", "60"))

SEEDS = [int(token) for token in os.environ.get("REPRO_CHAOS_SEEDS", "1 2").split()]

#: Kill only after this many signature checkpoints are durable — well
#: past the op boundary, well short of the full run.
KILL_AFTER_SIGS = servicehelper.OP_AT_TICK + 10


def _spawn_service(
    tmp_path: Path, run_id: str, seed: int, *extra: str
) -> subprocess.Popen:
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), str(repo_root)])
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "tests.servicehelper",
            str(tmp_path),
            run_id,
            str(seed),
            *extra,
        ],
        env=env,
        cwd=repo_root,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.mark.chaos
class TestServiceSigkillResume:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigkilled_service_resumes_bit_identically(self, tmp_path, seed):
        """Kill the service mid-run; the resumed chain must match."""
        run_id = f"svc-chaos-{seed}"
        wal = service_wal_path(tmp_path, run_id)
        child = _spawn_service(tmp_path, run_id, seed)
        try:
            # Wait until the op record and a comfortable batch of tick
            # signatures are durably journaled, then kill -9 mid-run.
            deadline = time.monotonic() + CHAOS_TIMEOUT_S
            while time.monotonic() < deadline:
                if wal.exists():
                    # Payloads are pickled, but journal keys appear
                    # literally: one ``sig:`` record per checkpointed
                    # tick, one ``op:`` record per durable operator op.
                    data = wal.read_bytes()
                    if data.count(b"sig:0") >= KILL_AFTER_SIGS and b"op:0" in data:
                        break
                if child.poll() is not None:
                    pytest.fail("service run finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("service WAL never accumulated enough records")
            child.kill()  # SIGKILL: no cleanup, no atexit, no flush
            child.wait(timeout=CHAOS_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=CHAOS_TIMEOUT_S)

        # Resume in-process (fast ticks) and run to the full length.
        resumed = servicehelper.run_service(
            str(tmp_path), run_id, seed=seed, sleep_s=0.0
        )
        assert resumed["resumed"] is True
        assert resumed["replayed_ticks"] >= KILL_AFTER_SIGS
        assert resumed["tick"] == servicehelper.TICKS

        # An uninterrupted reference run in a separate WAL.
        reference = servicehelper.run_service(
            str(tmp_path), f"ref-{seed}", seed=seed, sleep_s=0.0
        )
        assert reference["resumed"] is False
        assert resumed["signature"] == reference["signature"]

        # Reopening the finished run replays every tick and lands on
        # the same chain head — the WAL tells the whole story.
        session = ServiceSession(str(tmp_path), run_id, seed=seed)
        core = session.open()
        try:
            assert session.resumed is True
            assert session.replayed_ticks == servicehelper.TICKS
            assert core.signature == reference["signature"]
        finally:
            session.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigkill_during_a_snapshot_write_resumes_bit_identically(
        self, tmp_path, seed, monkeypatch
    ):
        """Kill the service while it writes its second snapshot: the
        resume restores the first and ignores the torn temp file."""
        interval = 8
        run_id = f"svc-snap-{seed}"
        wal = service_wal_path(tmp_path, run_id)
        child = _spawn_service(tmp_path, run_id, seed, str(interval))
        try:
            deadline = time.monotonic() + CHAOS_TIMEOUT_S
            while time.monotonic() < deadline:
                if wal.exists() and b"snap:0" in wal.read_bytes():
                    if list(wal.parent.glob(f"{run_id}.*.snap.*.tmp")):
                        break
                if child.poll() is not None:
                    pytest.fail("service run finished before it could be killed")
                time.sleep(0.005)
            else:
                pytest.fail("service never started a second snapshot")
            child.kill()
            child.wait(timeout=CHAOS_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=CHAOS_TIMEOUT_S)
        (torn,) = wal.parent.glob(f"{run_id}.*.tmp")
        assert torn.name.startswith(f"{run_id}.{2 * interval:08d}.snap.")

        monkeypatch.setattr(checkpoint, "SNAPSHOT_INTERVAL_TICKS", interval)
        resumed = servicehelper.run_service(str(tmp_path), run_id, seed=seed, sleep_s=0.0)
        assert resumed["resumed"] is True
        assert resumed["restored_tick"] == interval
        assert resumed["tick"] == servicehelper.TICKS
        reference = servicehelper.run_service(
            str(tmp_path), f"ref-{seed}", seed=seed, sleep_s=0.0
        )
        assert resumed["signature"] == reference["signature"]
        # The resumed run's own snapshots pruned the torn file.
        assert not torn.exists()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigkill_between_a_compaction_fsync_and_its_rename_resumes_bit_identically(
        self, tmp_path, seed, monkeypatch
    ):
        """Kill the service while its first compacted WAL waits to be
        renamed: the resume reads the old WAL, which already holds the
        new snap record, ignores the temp file, and a later snapshot of
        the resumed run deletes it."""
        interval = 8
        run_id = f"svc-compact-{seed}"
        wal = service_wal_path(tmp_path, run_id)
        child = _spawn_service(tmp_path, run_id, seed, str(interval), "compaction")
        try:
            deadline = time.monotonic() + CHAOS_TIMEOUT_S
            while time.monotonic() < deadline:
                temps = list(wal.parent.glob(f"{run_id}.wal.*.tmp"))
                written = temps[0].read_bytes() if temps else b""
                # Written through its last record, the op: the compaction
                # is in (or past) its fsync and has not renamed the file.
                if b"op:00000001" in written and written.endswith(b"\n"):
                    break
                if child.poll() is not None:
                    pytest.fail("service run finished before it could be killed")
                time.sleep(0.005)
            else:
                pytest.fail("service never started a compaction")
            child.kill()
            child.wait(timeout=CHAOS_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=CHAOS_TIMEOUT_S)
        (temp,) = wal.parent.glob(f"{run_id}.wal.*.tmp")
        # The live WAL is still the old one: every tick's sig record,
        # then the new snapshot's.
        data = wal.read_bytes()
        assert data.count(b"sig:0") == interval
        assert b"snap:00000008" in data

        monkeypatch.setattr(checkpoint, "SNAPSHOT_INTERVAL_TICKS", interval)
        resumed = servicehelper.run_service(str(tmp_path), run_id, seed=seed, sleep_s=0.0)
        assert resumed["resumed"] is True
        assert (resumed["restored_tick"], resumed["replayed_ticks"]) == (interval, interval)
        assert resumed["tick"] == servicehelper.TICKS
        reference = servicehelper.run_service(
            str(tmp_path), f"ref-{seed}", seed=seed, sleep_s=0.0
        )
        assert resumed["signature"] == reference["signature"]
        # The resumed run's own snapshots pruned the temp file.
        assert not temp.exists()

    def test_resume_with_wrong_seed_is_refused(self, tmp_path):
        """A WAL written for one seed must not resume another service."""
        run_id = "svc-chaos-seedcheck"
        servicehelper.run_service(str(tmp_path), run_id, seed=3, ticks=5, sleep_s=0.0)
        session = ServiceSession(str(tmp_path), run_id, seed=4)
        with pytest.raises(JournalError):
            session.open()
