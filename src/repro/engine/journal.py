"""Crash-safe campaign journaling: a write-ahead log of sweep results.

Long campaigns die for mundane reasons — OOM kills, preemption, power
loss — and re-running hours of Monte Carlo to recover the last few
points is unacceptable. :class:`RunJournal` makes a campaign resumable
across a *hard* process kill:

* every completed sweep point is appended to
  ``<cache-root>/journal/<run>.wal`` as one JSON line carrying the
  point's content digest (the same
  :func:`~repro.engine.cache.content_key` the result cache uses) and
  its pickled result;
* each append is flushed and ``fsync``'d before the engine moves on, so
  a record is either durably on disk or never claimed;
* records are **sha256-chained**: each record's digest covers the
  previous record's digest plus its own payload, so replay detects
  truncation in the middle, reordering, and tampering. A torn *final*
  line (the crash happened mid-append) is expected damage and is
  dropped; anything else raises :class:`~repro.errors.JournalError`.

Because records are keyed by content digest — which already covers the
function, the fully resolved parameters (including engine-split seeds),
and the package version — replayed results are exactly the results the
interrupted run computed, and a resumed campaign is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any

from ..errors import JournalError

#: Chain seed for the first record of every journal.
GENESIS = "genesis"

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once.
_COMPACT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _package_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


def fsync_directory(directory: Path) -> None:
    """fsync ``directory``, so a file created or renamed in it survives
    a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _chain_digest(prev: str, kind: str, body: str) -> str:
    return hashlib.sha256(f"{prev}|{kind}|{body}".encode()).hexdigest()


class RunJournal:
    """Append-only, fsync'd, sha256-chained record of one campaign.

    Lifecycle: construct with the WAL path, :meth:`open` (replays any
    existing records into :attr:`replayed`), hand to a
    :class:`~repro.engine.core.SweepEngine`, :meth:`close` when done.
    One journal may span several ``engine.run()`` calls — records are
    keyed by content digest, which is globally unique per sweep point.
    """

    def __init__(self, path: str | Path, run_id: str) -> None:
        if not run_id:
            raise JournalError("a journal needs a non-empty run id")
        self.path = Path(path)
        self.run_id = run_id
        #: Results recovered from disk at :meth:`open`: {content_key: value}.
        self.replayed: dict[str, Any] = {}
        #: Records appended by this process (not counting replayed ones).
        self.appended = 0
        self._chain = GENESIS
        self._handle = None

    # ------------------------------------------------------------------
    # Open / replay
    # ------------------------------------------------------------------
    def open(self) -> dict[str, Any]:
        """Replay any existing WAL, then open for appending.

        Returns the replayed ``{content_key: result}`` map (empty for a
        fresh campaign). Validates the sha256 chain record by record; a
        torn final line is truncated away, any earlier damage raises
        :class:`~repro.errors.JournalError`.
        """
        if self._handle is not None:
            raise JournalError(f"journal {self.path} is already open")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._replay()
        else:
            self._create()
        self._handle = open(self.path, "ab")
        return self.replayed

    def _create(self) -> None:
        body = json.dumps(
            {"run": self.run_id, "version": _package_version()},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = _chain_digest(GENESIS, "header", body)
        record = {"type": "header", "body": body, "sha256": digest}
        with open(self.path, "wb") as handle:
            handle.write(json.dumps(record, sort_keys=True).encode() + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(self.path.parent)
        self._chain = digest

    def _replay(self) -> None:
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        # A crash mid-append leaves a torn final line; drop it (and any
        # trailing empty string from the final newline).
        valid_bytes = 0
        chain = GENESIS
        parsed_header = False
        for index, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record["type"]
                body = record["body"]
                claimed = record["sha256"]
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                if index >= len(lines) - 2:
                    break  # torn tail: expected crash damage
                raise JournalError(
                    f"journal {self.path} is corrupt at line {index + 1}: "
                    f"{type(error).__name__}"
                ) from error
            expected = _chain_digest(chain, kind, body)
            if claimed != expected:
                raise JournalError(
                    f"journal {self.path} fails sha256 chain validation at "
                    f"line {index + 1} (run {self.run_id!r}); refusing to resume "
                    "from a tampered or reordered WAL"
                )
            chain = claimed
            if kind == "header":
                self._check_header(body)
                parsed_header = True
            elif kind == "result":
                if not parsed_header:
                    raise JournalError(f"journal {self.path} has no header record")
                payload = json.loads(body)
                self.replayed[payload["key"]] = pickle.loads(
                    bytes.fromhex(payload["pickle"])
                )
            else:
                raise JournalError(
                    f"journal {self.path} has unknown record type {kind!r}"
                )
            valid_bytes += len(line) + 1
        if not parsed_header:
            if valid_bytes == 0:
                # Killed during creation before the header landed: the
                # file holds nothing durable, so start the chain fresh.
                self.path.unlink()
                self._create()
                return
            raise JournalError(f"journal {self.path} has no header record")
        if valid_bytes < len(raw):
            # Truncate the torn tail so the next append continues the
            # chain from the last valid record.
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._chain = chain

    def _check_header(self, body: str) -> None:
        header = json.loads(body)
        if header.get("run") != self.run_id:
            raise JournalError(
                f"journal {self.path} belongs to run {header.get('run')!r}, "
                f"not {self.run_id!r}"
            )
        version = header.get("version")
        if version != _package_version():
            raise JournalError(
                f"journal {self.path} was written by repro {version}; this is "
                f"{_package_version()} — results are not comparable across "
                "releases, start a fresh run"
            )

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def record(self, content_key: str, task_key: str, value: Any) -> None:
        """Durably append one completed sweep point."""
        if self._handle is None:
            raise JournalError(f"journal {self.path} is not open")
        # The text json.dumps gives these two dicts with sorted keys (the
        # body's without spaces), built directly: the live service writes
        # one record per tick, and hex digits need no escaping.
        body = (
            f'{{"key":{_COMPACT_JSON.encode(content_key)},'
            f'"pickle":"{pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL).hex()}",'
            f'"task":{_COMPACT_JSON.encode(task_key)}}}'
        )
        digest = _chain_digest(self._chain, "result", body)
        line = f'{{"body": {json.dumps(body)}, "sha256": "{digest}", "type": "result"}}\n'
        self._handle.write(line.encode())
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._chain = digest
        self.appended += 1

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.replayed) + self.appended


def journal_path(cache_dir: str | Path, run_id: str) -> Path:
    """Canonical WAL location for a named campaign."""
    return Path(cache_dir) / "journal" / f"{run_id}.wal"


__all__ = ["RunJournal", "journal_path", "fsync_directory", "GENESIS"]
