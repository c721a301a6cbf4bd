"""Write-ahead journal: chain validation, torn tails, SIGKILL resume.

The headline chaos test SIGKILLs a journaled campaign subprocess
mid-sweep, then resumes it in-process and checks the recovered results
are pickle-identical to an uninterrupted run — the crash-safety
contract of ``python -m repro sweep --resume``.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RunJournal, SweepEngine, SweepTask, journal_path
from repro.engine.journal import GENESIS, _chain_digest
from repro.errors import JournalError

from . import walhelper

#: Watchdog for the subprocess chaos test (seconds); CI can widen it.
CHAOS_TIMEOUT_S = float(os.environ.get("CHAOS_TIMEOUT", "60"))


def _fast(x, seed=0):
    return x * 10 + seed % 7


def _tasks(n=4):
    return [
        SweepTask(fn=_fast, params={"x": i}, key=f"t{i}", seed_param="seed")
        for i in range(n)
    ]


class TestJournalBasics:
    def test_fresh_journal_records_and_replays(self, tmp_path):
        path = journal_path(tmp_path, "run1")
        with RunJournal(path, "run1") as journal:
            journal.record("key-a", "t0", {"v": 1})
            journal.record("key-b", "t1", [1, 2, 3])
            assert len(journal) == 2
        with RunJournal(path, "run1") as journal:
            assert journal.replayed == {"key-a": {"v": 1}, "key-b": [1, 2, 3]}

    def test_requires_run_id(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal(tmp_path / "x.wal", "")

    def test_record_requires_open(self, tmp_path):
        journal = RunJournal(tmp_path / "x.wal", "r")
        with pytest.raises(JournalError):
            journal.record("k", "t", 1)

    def test_double_open_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "x.wal", "r")
        journal.open()
        try:
            with pytest.raises(JournalError):
                journal.open()
        finally:
            journal.close()

    def test_run_id_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.wal"
        with RunJournal(path, "alpha"):
            pass
        with pytest.raises(JournalError, match="belongs to run"):
            RunJournal(path, "beta").open()


@settings(max_examples=200, deadline=None)
@given(
    content_key=st.one_of(st.text(), st.integers()),
    task_key=st.text(),
    value=st.dictionaries(st.text(max_size=8), st.integers() | st.text(max_size=8), max_size=3),
)
def test_record_line_is_the_json_of_its_fields(tmp_path_factory, content_key, task_key, value):
    """Each line is the sorted-key JSON a reader parses, built directly."""
    path = tmp_path_factory.mktemp("wal") / "run.wal"
    with RunJournal(path, "run") as journal:
        journal.record(content_key, task_key, value)
    line = path.read_bytes().split(b"\n")[1]
    body = json.dumps(
        {
            "key": content_key,
            "task": task_key,
            "pickle": pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL).hex(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    record = json.loads(line)
    assert record["body"] == body
    assert line == json.dumps(record, sort_keys=True).encode()
    with RunJournal(path, "run") as replayed:
        assert replayed.replayed == {content_key: value}


class TestChainValidation:
    def _write_journal(self, tmp_path, records=2):
        path = tmp_path / "chain.wal"
        with RunJournal(path, "chained") as journal:
            for i in range(records):
                journal.record(f"key{i}", f"t{i}", i)
        return path

    def test_chain_digests_link(self, tmp_path):
        path = self._write_journal(tmp_path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        chain = GENESIS
        for record in lines:
            expected = _chain_digest(chain, record["type"], record["body"])
            assert record["sha256"] == expected
            chain = expected

    def test_tampered_body_detected(self, tmp_path):
        path = self._write_journal(tmp_path, records=3)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["body"] = record["body"].replace("key0", "key9")
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="chain validation"):
            RunJournal(path, "chained").open()

    def test_reordered_records_detected(self, tmp_path):
        path = self._write_journal(tmp_path, records=3)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="chain validation"):
            RunJournal(path, "chained").open()

    def test_torn_final_line_truncated_and_resumes(self, tmp_path):
        path = self._write_journal(tmp_path, records=2)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"type": "result", "body": "{\\"k')
        with RunJournal(path, "chained") as journal:
            assert set(journal.replayed) == {"key0", "key1"}
            journal.record("key2", "t2", 2)
        # The file is whole again: replay sees all three records.
        with RunJournal(path, "chained") as journal:
            assert set(journal.replayed) == {"key0", "key1", "key2"}

    def test_mid_file_garbage_rejected(self, tmp_path):
        path = self._write_journal(tmp_path, records=3)
        lines = path.read_text().splitlines()
        lines[1] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            RunJournal(path, "chained").open()

    def test_killed_during_creation_starts_fresh(self, tmp_path):
        path = tmp_path / "torn.wal"
        path.write_bytes(b'{"type": "hea')  # torn header, no valid records
        with RunJournal(path, "fresh") as journal:
            assert journal.replayed == {}
            journal.record("k", "t", 1)
        with RunJournal(path, "fresh") as journal:
            assert journal.replayed == {"k": 1}


class TestEngineIntegration:
    def test_journal_replays_across_engine_runs(self, tmp_path):
        path = journal_path(tmp_path, "camp")
        with RunJournal(path, "camp") as journal:
            engine = SweepEngine(max_workers=1, journal=journal)
            first = engine.run(_tasks(), master_seed=5)
            assert engine.last_report.journal_records == 4
        with RunJournal(path, "camp") as journal:
            engine = SweepEngine(max_workers=1, journal=journal)
            second = engine.run(_tasks(), master_seed=5)
            assert engine.last_report.journal_hits == 4
            assert engine.last_report.executed == 0
        assert first == second

    def test_journal_key_tracks_master_seed(self, tmp_path):
        path = journal_path(tmp_path, "camp")
        with RunJournal(path, "camp") as journal:
            engine = SweepEngine(max_workers=1, journal=journal)
            engine.run(_tasks(), master_seed=5)
        with RunJournal(path, "camp") as journal:
            engine = SweepEngine(max_workers=1, journal=journal)
            engine.run(_tasks(), master_seed=6)
            # Different master seed -> different content keys -> no replay.
            assert engine.last_report.journal_hits == 0
            assert engine.last_report.executed == 4


@pytest.mark.chaos
class TestSigkillResume:
    def test_sigkilled_campaign_resumes_bit_identically(self, tmp_path):
        """Kill the driver mid-campaign; resume must be bit-identical."""
        run_id = "chaos-run"
        wal = journal_path(tmp_path, run_id)
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), str(repo_root)]
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "tests.walhelper", str(tmp_path), run_id],
            env=env,
            cwd=repo_root,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until at least two points are durably journaled (but
            # not all of them), then kill -9 the driver mid-sweep.
            deadline = time.monotonic() + CHAOS_TIMEOUT_S
            while time.monotonic() < deadline:
                if wal.exists():
                    records = wal.read_bytes().count(b'"result"')
                    if records >= 2:
                        break
                if child.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("journal never accumulated enough records")
            child.kill()  # SIGKILL: no cleanup, no atexit, no flush
            child.wait(timeout=CHAOS_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=CHAOS_TIMEOUT_S)

        # The WAL survived a hard kill: chain must validate on replay.
        with RunJournal(wal, run_id) as journal:
            replayed = len(journal.replayed)
        assert 2 <= replayed < walhelper.POINTS

        # Resume the campaign in-process from the surviving WAL.
        resumed = walhelper.run_campaign(str(tmp_path), run_id)
        # An uninterrupted reference campaign in a separate journal.
        reference = walhelper.run_campaign(str(tmp_path), "reference")
        assert pickle.dumps(resumed) == pickle.dumps(reference)

    def test_resumed_run_skips_replayed_points(self, tmp_path):
        run_id = "skip-run"
        with RunJournal(journal_path(tmp_path, run_id), run_id) as journal:
            engine = SweepEngine(max_workers=1, journal=journal)
            engine.run(_tasks(6)[:3], master_seed=9)
        with RunJournal(journal_path(tmp_path, run_id), run_id) as journal:
            engine = SweepEngine(max_workers=1, journal=journal)
            engine.run(_tasks(6), master_seed=9)
            report = engine.last_report
            assert report.journal_hits == 3
            assert report.executed == 6 - 3


class TestSignalHandling:
    def test_sigkill_constant_exists(self):
        # Guard against platforms without SIGKILL (the chaos test would
        # need skipping there); this repo targets Linux CI.
        assert signal.SIGKILL is not None
