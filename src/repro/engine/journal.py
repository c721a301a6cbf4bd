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
  line (the crash happened mid-append: the line lacks its newline,
  whether or not it parses) is expected damage and is dropped; anything
  else raises :class:`~repro.errors.JournalError`.

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
from typing import Any, BinaryIO, Iterable

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


def _header_line(run_id: str) -> tuple[bytes, str]:
    """A journal's first line, and its chain digest."""
    body = json.dumps(
        {"run": run_id, "version": _package_version()},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = _chain_digest(GENESIS, "header", body)
    record = {"type": "header", "body": body, "sha256": digest}
    return json.dumps(record, sort_keys=True).encode() + b"\n", digest


def _result_line(chain: str, content_key: str, task_key: str, value: Any) -> tuple[bytes, str]:
    """The line that appends ``value`` after chain digest ``chain``, and
    its own digest."""
    # The text json.dumps gives these two dicts with sorted keys (the
    # body's without spaces), built directly: the live service writes
    # one record per tick, and hex digits need no escaping.
    body = (
        f'{{"key":{_COMPACT_JSON.encode(content_key)},'
        f'"pickle":"{pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL).hex()}",'
        f'"task":{_COMPACT_JSON.encode(task_key)}}}'
    )
    digest = _chain_digest(chain, "result", body)
    line = f'{{"body": {json.dumps(body)}, "sha256": "{digest}", "type": "result"}}\n'
    return line.encode(), digest


def write_journal(
    handle: BinaryIO, run_id: str, records: Iterable[tuple[str, str, Any]]
) -> str:
    """Write a whole journal of run ``run_id`` to ``handle``: the header,
    then each ``(content_key, task_key, value)`` record, chained as
    :meth:`RunJournal.record` chains them. Returns the chain head; the
    caller flushes and fsyncs."""
    line, chain = _header_line(run_id)
    handle.write(line)
    for content_key, task_key, value in records:
        line, chain = _result_line(chain, content_key, task_key, value)
        handle.write(line)
    return chain


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
        #: Records :meth:`open` read and validated, the header included.
        self.records_read = 0
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
        with open(self.path, "wb") as handle:
            chain = write_journal(handle, self.run_id, ())
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(self.path.parent)
        self._chain = chain

    def _replay(self) -> None:
        # Streamed a line at a time, so a long WAL is never held whole.
        valid_bytes = 0
        chain = GENESIS
        parsed_header = False
        with open(self.path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            lines = iter(handle)
            following = next(lines, None)
            index = 0
            while following is not None:
                line, following = following, next(lines, None)
                index += 1
                # A crash mid-append leaves a torn final line, the only
                # one without its newline. Its write never finished, so
                # its fsync never returned and no caller was told it is
                # durable: it is dropped even if it parses. A line that
                # fails to parse is dropped too if it is the last, or
                # the last complete one before that fragment.
                if not line.endswith(b"\n"):
                    break
                tail = following is None or not following.endswith(b"\n")
                line = line[:-1]
                if not line:
                    valid_bytes += 1
                    continue
                try:
                    record = json.loads(line)
                    kind = record["type"]
                    body = record["body"]
                    claimed = record["sha256"]
                except (json.JSONDecodeError, KeyError, TypeError) as error:
                    if tail:
                        break  # torn tail: expected crash damage
                    raise JournalError(
                        f"journal {self.path} is corrupt at line {index}: "
                        f"{type(error).__name__}"
                    ) from error
                expected = _chain_digest(chain, kind, body)
                if claimed != expected:
                    raise JournalError(
                        f"journal {self.path} fails sha256 chain validation at "
                        f"line {index} (run {self.run_id!r}); refusing to resume "
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
                self.records_read += 1
        if not parsed_header:
            if valid_bytes == 0:
                # Killed during creation before the header landed: the
                # file holds nothing durable, so start the chain fresh.
                self.path.unlink()
                self._create()
                return
            raise JournalError(f"journal {self.path} has no header record")
        if valid_bytes < size:
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
        line, digest = _result_line(self._chain, content_key, task_key, value)
        self._handle.write(line)
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


__all__ = ["RunJournal", "journal_path", "fsync_directory", "write_journal", "GENESIS"]
