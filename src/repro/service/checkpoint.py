"""Crash-safe service state: an event-sourced, fsync'd WAL.

A live control plane must survive a SIGKILL without forgetting what it
did. Pickling the running object graph is a dead end — the simulator's
event queue is full of closures — so the service journals *causes*, not
state: because :class:`~repro.service.core.ServiceCore` is a
deterministic function of ``(seed, config, mode, ops-at-ticks)``, the
WAL only needs

* one ``meta`` record pinning the seed, mode, and a config fingerprint;
* one ``op`` record per operator action, keyed to the tick boundary it
  was applied at (journaled after the core accepts it and before the
  client is acked, so an op is either durable or was never confirmed);
* periodic ``sig`` records carrying the core's chained tick signature.

On restart :class:`ServiceSession` rebuilds a fresh core and *replays*:
ops are re-applied at their recorded boundaries, the core is ticked
forward, and every journaled signature is compared against the rebuilt
chain — a single mismatched bit fails the resume loudly rather than
continuing from silently divergent state. The WAL itself reuses
:class:`~repro.engine.journal.RunJournal`, inheriting its sha256
chaining, torn-tail truncation, and fsync discipline.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Mapping

from ..engine.journal import RunJournal
from ..errors import JournalError
from .core import ServiceConfig, ServiceCore, TickSample


def service_wal_path(cache_dir: str | Path, run_id: str) -> Path:
    """Canonical WAL location for a named service run."""
    return Path(cache_dir) / "service" / f"{run_id}.wal"


def _config_fingerprint(config: ServiceConfig) -> str:
    """Digest of the full configuration (nested dataclass reprs are
    deterministic, so equal configs always fingerprint equally)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()


class ServiceSession:
    """A :class:`ServiceCore` bound to a write-ahead log.

    Construct, then :meth:`open`. If the WAL already holds records the
    session *resumes*: the core is rebuilt and replayed to the last
    journaled tick, signature-verified along the way. All further
    :meth:`tick` / :meth:`apply_op` calls journal as they go.
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
        self.replayed_ticks = 0
        self._op_seq = 0

    # ------------------------------------------------------------------
    # Open / resume
    # ------------------------------------------------------------------
    def open(self) -> ServiceCore:
        """Open the WAL and build (or rebuild-and-replay) the core.

        A refused or diverged resume closes the WAL again before the
        error propagates, so the same WAL can be opened afresh.
        """
        replayed = self._journal.open()
        try:
            self.core = ServiceCore(seed=self.seed, config=self.config, mode=self.mode)
            meta = replayed.get("meta")
            if meta is None:
                self._journal.record(
                    "meta",
                    "meta",
                    {
                        "seed": self.seed,
                        "mode": self.mode,
                        "config": _config_fingerprint(self.config),
                    },
                )
            else:
                self.resumed = True
                self._verify_meta(meta)
                self._replay(replayed)
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
        assert self.core is not None
        ops: list[dict] = sorted(
            (value for key, value in replayed.items() if key.startswith("op:")),
            key=lambda record: record["seq"],
        )
        signatures: dict[int, dict] = {
            value["tick"]: value
            for key, value in replayed.items()
            if key.startswith("sig:")
        }
        self._op_seq = max((record["seq"] for record in ops), default=0)
        target = max(signatures, default=0)
        pending = list(ops)
        while self.core.tick_index < target:
            boundary = self.core.tick_index
            while pending and pending[0]["tick"] == boundary:
                self.core.apply_op(pending.pop(0)["op"])
            self.core.tick()
            expected = signatures.get(self.core.tick_index)
            if expected is not None and expected["signature"] != self.core.signature:
                raise JournalError(
                    f"service WAL {self.path} replay diverged at tick "
                    f"{self.core.tick_index}: journaled signature "
                    f"{expected['signature'][:12]}… does not match the rebuilt "
                    f"core's {self.core.signature[:12]}…; the WAL and this "
                    "binary/config disagree"
                )
        # Ops journaled after the last signed tick: re-apply them at the
        # boundary they were accepted on (the upcoming tick).
        for record in pending:
            self.core.apply_op(record["op"])
        self.replayed_ticks = target

    # ------------------------------------------------------------------
    # Journaled operations
    # ------------------------------------------------------------------
    def tick(self) -> TickSample:
        """Advance one tick and journal its signature checkpoint."""
        if self.core is None:
            raise JournalError("session is not open")
        sample = self.core.tick()
        if sample.tick % self.signature_interval == 0:
            self._journal.record(
                f"sig:{sample.tick:08d}",
                f"tick-{sample.tick}",
                {"tick": sample.tick, "signature": sample.signature},
            )
        return sample

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
        self._journal.record(
            f"op:{self._op_seq:08d}",
            f"op-{self._op_seq}",
            {"seq": self._op_seq, "tick": boundary, "op": dict(op)},
        )
        return detail

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "ServiceSession":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ServiceSession", "service_wal_path"]
