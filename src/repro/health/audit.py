"""Duplicate-execution audit: the only way to *see* silent corruption.

A silently-corrupting part, by definition, raises no machine check —
the MCA stream is blind to it. The paper's characterization found no
silent errors inside the envelope, but a fleet that lets margins drift
cannot assume that forever; the standard production defense is to
**re-execute a sampled fraction of real work on a second host and
compare result signatures**. A mismatch proves one of the two hosts
corrupted the computation; a third tie-break execution identifies the
liar, and the mismatch is charged to that host's health record (which
feeds the drift detector via
:meth:`~repro.health.coordinator.FleetHealthCoordinator.charge_sdc`).

Sampling is **order-independent deterministic**: whether a request is
audited depends only on ``(audit seed, request id)`` via
:func:`~repro.sim.random.split_seed`, never on arrival order or a
shared generator's state — so enabling auditing cannot reshuffle any
other random stream, and replays sample the identical subset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError
from ..sim.random import split_seed

_SEED_SPAN = float(2**64)


@dataclass
class HostHealthRecord:
    """Audit bookkeeping for one host."""

    host_id: str
    audits: int = 0
    mismatches: int = 0


def result_signature(request_id: str, host_id: str, corrupted: bool) -> str:
    """Signature of one execution's result.

    A clean execution's signature depends only on the request (any
    correct host computes the same bytes); a corrupted one is salted
    with the corrupting host so two independently-corrupting hosts can
    never accidentally agree.
    """
    if corrupted:
        blob = f"corrupt:{host_id}:{request_id}"
    else:
        blob = f"ok:{request_id}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class SdcAuditor:
    """Samples requests for duplicate execution and charges mismatches."""

    def __init__(
        self,
        seed: int,
        fraction: float,
        on_mismatch: Callable[[str], None] | None = None,
    ) -> None:
        if seed < 0:
            raise ConfigurationError("seed cannot be negative")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("audit fraction must be in [0, 1]")
        self._seed = seed
        self.fraction = fraction
        self._on_mismatch = on_mismatch
        self.records: dict[str, HostHealthRecord] = {}
        self.audits = 0
        self.mismatches = 0

    # ------------------------------------------------------------------
    # Deterministic draws
    # ------------------------------------------------------------------
    def _draw(self, key: str) -> float:
        return split_seed(self._seed, key) / _SEED_SPAN

    def should_audit(self, request_id: str) -> bool:
        """True when this request is in the audited sample."""
        if self.fraction <= 0.0:
            return False
        return self._draw(f"sample:{request_id}") < self.fraction

    def corrupts(self, host_id: str, request_id: str, probability: float) -> bool:
        """Deterministic per-(host, request) corruption draw.

        The *execution model* (service core or experiment) owns the
        probability — typically the part's SDC rate folded over the
        request's runtime; the auditor only guarantees the draw is a
        pure function of its inputs.
        """
        if probability <= 0.0:
            return False
        return self._draw(f"corrupt:{host_id}:{request_id}") < probability

    # ------------------------------------------------------------------
    # The audit itself
    # ------------------------------------------------------------------
    def audit(
        self,
        request_id: str,
        primary_host: str,
        secondary_host: str,
        primary_corrupted: bool,
        secondary_corrupted: bool,
    ) -> str | None:
        """Compare the two executions; return the charged host, if any.

        On mismatch the corrupted side is identified (modeling the
        third tie-break execution — the odd signature out loses) and
        charged; both hosts' records log the audit. When *both* sides
        corrupted, both are charged and the primary is returned.
        """
        if primary_host == secondary_host:
            raise ConfigurationError("duplicate execution requires a distinct host")
        self.audits += 1
        for host in (primary_host, secondary_host):
            self._record(host).audits += 1
        primary_sig = result_signature(request_id, primary_host, primary_corrupted)
        secondary_sig = result_signature(request_id, secondary_host, secondary_corrupted)
        if primary_sig == secondary_sig:
            return None
        self.mismatches += 1
        charged: str | None = None
        for host, corrupted in (
            (secondary_host, secondary_corrupted),
            (primary_host, primary_corrupted),
        ):
            if corrupted:
                self._record(host).mismatches += 1
                if self._on_mismatch is not None:
                    self._on_mismatch(host)
                charged = host
        return charged

    def _record(self, host_id: str) -> HostHealthRecord:
        record = self.records.get(host_id)
        if record is None:
            record = HostHealthRecord(host_id=host_id)
            self.records[host_id] = record
        return record


__all__ = ["HostHealthRecord", "SdcAuditor", "result_signature"]
