"""Crash-safe service state: an event-sourced, fsync'd WAL plus snapshots.

A live control plane must survive a SIGKILL without forgetting what it
did. :class:`~repro.service.core.ServiceCore` is a deterministic
function of ``(seed, config, mode, ops-at-ticks)``, so the WAL journals
*causes*:

* one ``meta`` record pinning the seed, mode, and a config fingerprint;
* one ``op`` record per operator action, keyed to the tick boundary it
  was applied at (journaled after the core accepts it and before the
  client is acked, so an op is either durable or was never confirmed);
* periodic ``sig`` records carrying the core's chained tick signature.

Replaying those from tick 0 rebuilds the core exactly, but costs every
tick the service has ever run. So every :data:`SNAPSHOT_INTERVAL_TICKS`
ticks the session also pickles the whole core to a side file next to
the WAL and journals a small ``snap`` record naming it (tick, chain
signature, file name, sha256). Every callback in the core's event heap
is a bound method or a :func:`functools.partial`, and the simulator's
random streams and event queue pickle their exact positions, so a
restored core continues bit-identically.

Right after each ``snap`` record the session *compacts* the WAL: it
writes a fresh file holding only the ``meta`` record, the ``snap``
records of the snapshot files still kept, and every ``op`` record, and
renames it over the live WAL. Ops grow with operator actions, not with
ticks, so the WAL holds at most one interval of ``sig`` records and a
resume parses that much whatever the uptime. A crash before the rename
leaves the old WAL, which already holds the new ``snap`` record; one
after it leaves the compacted WAL; both resume the same way.

On restart :class:`ServiceSession` takes the newest snapshot whose file
matches its sha256, checks that the restored chain signature equals the
journaled one (a mismatch raises, like a replay divergence), re-applies
the ops journaled at or after its tick, and *replays* only the ticks
after it, comparing every journaled signature against the rebuilt
chain. A missing or damaged file falls back to the next older snapshot,
and then to a full replay from tick 0 driven by the carried ops — the
same loop, started from a fresh core, which is also the test oracle.
The WAL itself reuses :class:`~repro.engine.journal.RunJournal`,
inheriting its sha256 chaining, torn-tail truncation, and fsync
discipline.

Two details keep snapshots cheap for the live core:

* On CPython 3.11+, reading an instance's ``__dict__`` (which default
  pickling does) permanently slows attribute access on that instance,
  so the live core is pickled in a forked child, which writes the file
  and exits; the parent only waits.
* The pickle restores instance state through :func:`_assign_state`,
  which sets attributes one by one instead of filling ``__dict__``, so
  a restored core ticks as fast as one that was never pickled.

A core that cannot be pickled (the benchmark tracer's timing wrappers
sit in its heap) has its snapshot skipped and counted, never journaled;
its WAL still resumes by full replay.
"""

from __future__ import annotations

import copyreg
import hashlib
import json
import os
import pickle
import re
import struct
import sys
import warnings
from array import array
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping

from ..engine.journal import RunJournal, fsync_directory, write_journal
from ..errors import JournalError
from .core import ServiceConfig, ServiceCore, TickSample

#: Ticks between core snapshots: about 4.3 minutes at the live 250 ms
#: tick, so a resume replays at most this many ticks (under a second).
SNAPSHOT_INTERVAL_TICKS = 1024

#: Snapshot files kept next to the WAL; older ones are deleted.
SNAPSHOTS_KEPT = 2

#: What follows ``<run_id>.`` in the name of a snapshot file, of one
#: being written (``.<pid>.tmp`` appended), or of a compacted WAL being
#: written.
_SIDE_FILE_NAME = re.compile(r"\d{8}\.snap(\.\d+\.tmp)?|wal\.\d+\.tmp")

#: Bytes read at a time when hashing a snapshot file.
_HASH_CHUNK = 1 << 16

#: A snapshot file ends with the JSON layout of its out-of-band buffers,
#: then that layout's length in bytes.
_LAYOUT_LENGTH = struct.Struct("<Q")


def service_wal_path(cache_dir: str | Path, run_id: str) -> Path:
    """Canonical WAL location for a named service run."""
    return Path(cache_dir) / "service" / f"{run_id}.wal"


def _config_fingerprint(config: ServiceConfig) -> str:
    """Digest of the full configuration (nested dataclass reprs are
    deterministic, so equal configs always fingerprint equally)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()


def _op_record(op: dict) -> tuple[str, str, dict]:
    """An ``op`` record's journal keys, and the record itself."""
    return f"op:{op['seq']:08d}", f"op-{op['seq']}", op


def _snap_record(snap: dict) -> tuple[str, str, dict]:
    """A ``snap`` record's journal keys, and the record itself."""
    return f"snap:{snap['tick']:08d}", f"snap-{snap['tick']}", snap


def write_compacted_wal(
    temp: Path, run_id: str, records: Iterable[tuple[str, str, object]]
) -> None:
    """Write a fresh WAL of run ``run_id`` holding only ``records`` to
    ``temp`` and fsync it; the session then renames it over the live
    WAL."""
    try:
        with open(temp, "wb") as handle:
            write_journal(handle, run_id, records)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------
def _assign_state(obj: object, state: dict) -> None:
    """Restore an unpickled instance's attributes with ``setattr``.

    Plain unpickling fills the instance's ``__dict__``; on CPython 3.11+
    that leaves it slower to read than an instance whose attributes were
    assigned. ``object.__setattr__`` also sets frozen dataclass fields.
    The names are interned, as plain unpickling does and as the names in
    code are: an instance dict keyed by equal but distinct strings
    defeats the interpreter's attribute caches.
    """
    for name, value in state.items():
        object.__setattr__(obj, sys.intern(name), value)


def _float_array(buffer: array) -> array:
    """A float64 :class:`array.array` pickled out of band, which
    :func:`read_snapshot` has already read into an array of its own."""
    return buffer


class _SnapshotPickler(pickle.Pickler):
    """Pickles this package's plain instances to restore via
    :func:`_assign_state`, and float64 arrays' data out of band;
    everything else pickles as usual."""

    def reducer_override(self, obj: object):
        cls = type(obj)
        if cls is array and obj.typecode == "d":
            return _float_array, (pickle.PickleBuffer(obj),)
        if not cls.__module__.startswith("repro.") or hasattr(cls, "__setstate__"):
            return NotImplemented
        reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        if not (
            isinstance(reduced, tuple)
            and len(reduced) >= 3
            and reduced[0] is copyreg.__newobj__
            and type(reduced[2]) is dict
        ):
            return NotImplemented
        return (*reduced, *(None,) * (5 - len(reduced)), _assign_state)


class _HashingWriter:
    """A write-only stream that hashes what it passes on to ``handle``."""

    def __init__(self, handle: BinaryIO) -> None:
        self._handle = handle
        self.sha256 = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.sha256.update(data)
        return self._handle.write(data)


def write_snapshot(core: ServiceCore, temp: Path, final: Path) -> str:
    """Pickle ``core`` into ``temp``, fsync it, rename it to ``final``
    and fsync the directory; returns the file's sha256 (hex).

    The file holds the pickle stream, then the raw data of its
    out-of-band buffers (the latency samples and the random streams'
    batches), then their layout: :func:`read_snapshot` reads each buffer
    straight into the array it restores, without a transient copy.

    This reads every object's ``__dict__`` (see the module docstring),
    so :meth:`ServiceSession.tick` runs it in a forked child.
    """
    buffers: list[pickle.PickleBuffer] = []
    try:
        with open(temp, "wb") as handle:
            writer = _HashingWriter(handle)
            _SnapshotPickler(
                writer, protocol=pickle.HIGHEST_PROTOCOL, buffer_callback=buffers.append
            ).dump(core)
            layout: dict = {"stream": handle.tell(), "buffers": []}
            for buffer in buffers:
                with memoryview(buffer) as view, buffer.raw() as raw:
                    writer.write(raw)
                    layout["buffers"].append((view.format, raw.nbytes))
                buffer.release()
            tail = json.dumps(layout).encode()
            writer.write(tail + _LAYOUT_LENGTH.pack(len(tail)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    fsync_directory(final.parent)
    return writer.sha256.hexdigest()


def _write_snapshot_in_child(core: ServiceCore, temp: Path, final: Path) -> str | None:
    """:func:`write_snapshot` in a forked child; None if it failed."""
    if not hasattr(os, "fork"):  # pragma: no cover - no fork, no snapshots
        return None
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may
        # deadlock the child. This child only pickles, writes and leaves
        # through os._exit.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            os.close(read_fd)
            digest = write_snapshot(core, temp, final)
            os.write(write_fd, digest.encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        digest = b""
        while chunk := os.read(read_fd, 128):
            digest += chunk
    finally:
        os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        temp.unlink(missing_ok=True)
        return None
    return digest.decode()


def read_snapshot(path: Path) -> object:
    """Unpickle a file :func:`write_snapshot` wrote. Unpickling can run
    any code, so read only a file whose sha256 matches its ``snap``
    record."""
    with open(path, "rb") as handle:
        handle.seek(-_LAYOUT_LENGTH.size, os.SEEK_END)
        (length,) = _LAYOUT_LENGTH.unpack(handle.read(_LAYOUT_LENGTH.size))
        handle.seek(-_LAYOUT_LENGTH.size - length, os.SEEK_END)
        layout = json.loads(handle.read(length))
        handle.seek(layout["stream"])
        buffers = []
        for item_format, nbytes in layout["buffers"]:
            if item_format == "d":
                buffer = array("d", [0.0]) * (nbytes // 8)
            else:
                buffer = bytearray(nbytes)
            with memoryview(buffer) as view, view.cast("B") as raw:
                if handle.readinto(raw) != nbytes:
                    raise JournalError(f"snapshot {path} is truncated")
            buffers.append(buffer)
        handle.seek(0)
        return pickle.load(handle, buffers=buffers)


def _file_sha256(path: Path) -> str:
    sha256 = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            sha256.update(chunk)
    return sha256.hexdigest()


class ServiceSession:
    """A :class:`ServiceCore` bound to a write-ahead log.

    Construct, then :meth:`open`. If the WAL already holds records the
    session *resumes*: the core is restored from the newest valid
    snapshot (or built afresh) and replayed to the last journaled tick,
    signature-verified along the way. All further :meth:`tick` /
    :meth:`apply_op` calls journal as they go, and every
    :data:`SNAPSHOT_INTERVAL_TICKS` ticks :meth:`tick` writes a snapshot
    and compacts the WAL. :attr:`path` is always the live WAL.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        run_id: str,
        seed: int,
        config: ServiceConfig | None = None,
        mode: str = "robust",
        signature_interval: int = 1,
    ) -> None:
        if signature_interval < 1:
            raise JournalError("signature interval must be at least 1 tick")
        self.run_id = run_id
        self.seed = seed
        self.mode = mode
        self.config = config if config is not None else ServiceConfig()
        self.signature_interval = signature_interval
        self.path = service_wal_path(cache_dir, run_id)
        self._journal = RunJournal(self.path, run_id)
        self.core: ServiceCore | None = None
        self.resumed = False
        #: The tick the resume reached (0 for a fresh run).
        self.replayed_ticks = 0
        #: The snapshot tick the resume started from (0: a full replay).
        self.restored_tick = 0
        #: WAL records the resume parsed, the journal header included
        #: (0 for a fresh run).
        self.records_read = 0
        #: Snapshots this session journaled, and those it skipped
        #: because the core could not be pickled.
        self.snapshots_written = 0
        self.snapshots_skipped = 0
        #: What a compaction carries into the fresh WAL: the ``meta``
        #: record, the kept ``snap`` records (oldest first) and every
        #: ``op`` record (in sequence order).
        self._meta: dict = {}
        self._snapshots: list[dict] = []
        self._ops: list[dict] = []
        self._op_seq = 0

    # ------------------------------------------------------------------
    # Open / resume
    # ------------------------------------------------------------------
    def open(self) -> ServiceCore:
        """Open the WAL and build (or restore-and-replay) the core.

        A refused or diverged resume closes the WAL again before the
        error propagates, so the same WAL can be opened afresh.
        """
        replayed = self._journal.open()
        self.records_read = self._journal.records_read
        try:
            meta = replayed.get("meta")
            if meta is None:
                self.core = ServiceCore(seed=self.seed, config=self.config, mode=self.mode)
                self._meta = {
                    "seed": self.seed,
                    "mode": self.mode,
                    "config": _config_fingerprint(self.config),
                }
                self._journal.record("meta", "meta", self._meta)
            else:
                self.resumed = True
                self._verify_meta(meta)
                self._meta = meta
                self._replay(replayed)
                # The session keeps what it carries forward itself.
                replayed.clear()
        except BaseException:
            self._journal.close()
            raise
        return self.core

    def _verify_meta(self, meta: Mapping[str, object]) -> None:
        expected = {
            "seed": self.seed,
            "mode": self.mode,
            "config": _config_fingerprint(self.config),
        }
        for key, want in expected.items():
            if meta.get(key) != want:
                raise JournalError(
                    f"service WAL {self.path} was written for {key}={meta.get(key)!r}, "
                    f"but this session supplies {key}={want!r}; refusing to resume "
                    "into a different service"
                )

    def _replay(self, replayed: Mapping[str, object]) -> None:
        ops: list[dict] = sorted(
            (value for key, value in replayed.items() if key.startswith("op:")),
            key=lambda record: record["seq"],
        )
        snapshots: list[dict] = sorted(
            (value for key, value in replayed.items() if key.startswith("snap:")),
            key=lambda record: record["tick"],
        )
        # A snapshot's signature checks the replay like a ``sig`` record.
        signatures: dict[int, str] = {
            value["tick"]: value["signature"]
            for key, value in replayed.items()
            if key.startswith(("sig:", "snap:"))
        }
        self._ops = ops
        self._op_seq = max((record["seq"] for record in ops), default=0)
        self._snapshots = snapshots[-SNAPSHOTS_KEPT:]
        target = max(signatures, default=0)
        core = self._restore(snapshots)
        if core is None:
            core = ServiceCore(seed=self.seed, config=self.config, mode=self.mode)
        self.core = core
        self.restored_tick = core.tick_index
        # Ops journaled before the snapshot's tick are already in it.
        pending = [record for record in ops if record["tick"] >= core.tick_index]
        while core.tick_index < target:
            boundary = core.tick_index
            while pending and pending[0]["tick"] == boundary:
                core.apply_op(pending.pop(0)["op"])
            core.tick()
            expected = signatures.get(core.tick_index)
            if expected is not None and expected != core.signature:
                raise JournalError(
                    f"service WAL {self.path} replay diverged at tick "
                    f"{core.tick_index}: journaled signature {expected[:12]}… "
                    f"does not match the rebuilt core's {core.signature[:12]}…; "
                    "the WAL and this binary/config disagree"
                )
        # Ops journaled after the last signed tick: re-apply them at the
        # boundary they were accepted on (the upcoming tick).
        for record in pending:
            core.apply_op(record["op"])
        self.replayed_ticks = target

    def _restore(self, snapshots: list[dict]) -> ServiceCore | None:
        """The core of the newest snapshot whose file is intact, or None.

        A missing file, or one whose sha256 differs from its record,
        falls back to the next older snapshot. A restored core whose
        chain signature differs from its record raises.
        """
        for record in reversed(snapshots):
            path = self.path.with_name(record["file"])
            try:
                if _file_sha256(path) != record["sha256"]:
                    continue
                core = read_snapshot(path)
            except FileNotFoundError:
                continue
            if not isinstance(core, ServiceCore) or core.signature != record["signature"]:
                raise JournalError(
                    f"service WAL {self.path}: snapshot {path.name} restores a core "
                    f"whose signature is not the journaled {record['signature'][:12]}…; "
                    "the WAL and this binary/config disagree"
                )
            return core
        return None

    # ------------------------------------------------------------------
    # Journaled operations
    # ------------------------------------------------------------------
    def tick(self) -> TickSample:
        """Advance one tick, journal its signature checkpoint, and every
        :data:`SNAPSHOT_INTERVAL_TICKS` ticks write a snapshot."""
        if self.core is None:
            raise JournalError("session is not open")
        sample = self.core.tick()
        if sample.tick % self.signature_interval == 0:
            self._journal.record(
                f"sig:{sample.tick:08d}",
                f"tick-{sample.tick}",
                {"tick": sample.tick, "signature": sample.signature},
            )
        if sample.tick % SNAPSHOT_INTERVAL_TICKS == 0:
            self._snapshot(sample)
        return sample

    def _snapshot(self, sample: TickSample) -> None:
        """Write the core to a side file, journal a record naming it,
        then compact the WAL."""
        final = self.path.with_name(f"{self.run_id}.{sample.tick:08d}.snap")
        temp = final.with_name(f"{final.name}.{os.getpid()}.tmp")
        digest = _write_snapshot_in_child(self.core, temp, final)
        if digest is None:
            self.snapshots_skipped += 1
            return
        snap = {
            "tick": sample.tick,
            "signature": sample.signature,
            "file": final.name,
            "sha256": digest,
        }
        self._journal.record(*_snap_record(snap))
        self.snapshots_written += 1
        self._snapshots = [*self._snapshots, snap][-SNAPSHOTS_KEPT:]
        self._compact()
        self._prune_side_files()

    def _compact(self) -> None:
        """Replace the WAL with one holding only the ``meta`` record,
        the kept ``snap`` records and every ``op`` record, and journal on
        from there."""
        records = [
            ("meta", "meta", self._meta),
            *map(_snap_record, self._snapshots),
            *map(_op_record, self._ops),
        ]
        temp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        write_compacted_wal(temp, self.run_id, records)
        os.replace(temp, self.path)
        fsync_directory(self.path.parent)
        self._journal.close()
        self._journal = RunJournal(self.path, self.run_id)
        # Reopening checks the new file's chain; the session already
        # holds every record it carries.
        self._journal.open()
        self._journal.replayed.clear()

    def _prune_side_files(self) -> None:
        """Delete this run's snapshot files but the kept ones, with any
        temp file a killed snapshot writer or compaction left behind."""
        kept = {snap["file"] for snap in self._snapshots}
        prefix = f"{self.run_id}."
        for path in self.path.parent.iterdir():
            name = path.name
            if (
                name not in kept
                and name.startswith(prefix)
                and _SIDE_FILE_NAME.fullmatch(name[len(prefix):])
            ):
                path.unlink(missing_ok=True)

    def apply_op(self, op: Mapping[str, object]) -> str:
        """Apply an operator op, then make it durable.

        The core validates and applies first; the WAL record lands
        before the caller is acked. A crash between the two loses an
        unacknowledged op (the client must retry), never acknowledges a
        lost one.
        """
        if self.core is None:
            raise JournalError("session is not open")
        boundary = self.core.tick_index
        detail = self.core.apply_op(op)
        self._op_seq += 1
        record = {"seq": self._op_seq, "tick": boundary, "op": dict(op)}
        self._journal.record(*_op_record(record))
        self._ops.append(record)
        return detail

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the WAL. No snapshot is taken here, so a clean shutdown
        resumes exactly as a SIGKILL at the same tick would."""
        self._journal.close()

    def __enter__(self) -> "ServiceSession":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "SNAPSHOT_INTERVAL_TICKS",
    "ServiceSession",
    "read_snapshot",
    "service_wal_path",
    "write_compacted_wal",
    "write_snapshot",
]
