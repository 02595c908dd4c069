"""The replicated lease table and its record order.

One :class:`~repro.net.message.LeaseRecord` per lease id in a
:class:`~repro.core.table.RecordTable` (delta gossip, digest, full sync).

Record order: higher fencing ``token`` wins outright — tokens encode the
granting leader's tenure in their high bits (see
:mod:`repro.lease.manager`), so a later tenure's grant always supersedes an
earlier one.  Within one token, a higher ``seq`` wins (each renew or
release of a grant bumps ``seq``); at equal seq a release beats the grant
it refers to, and ``(expiry, granted_at, holder)`` break the remaining
ties, which keeps the order total over arbitrary records.

Replication is leader-anchored: only a tenure-active leader mints records,
so only it *owes them onward*.  The writer's own mutations, and whatever a
leader learns, merge with ``relay=True``; a follower merges what it is told
with ``relay=False``, so nothing is re-gossiped to peers that hear the same
leader.  The leader ships :meth:`~repro.core.table.RecordTable.delta_window`
to each follower on its frames, and a follower whose ledger still differs
from the leader's after a gap-free segment repairs with the full ledger.
A newly elected leader therefore already holds what the old one shipped,
and resumes granting *above* every token it has seen (:attr:`LeaseLedger.
max_token`).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Iterable, List, Optional, Tuple

from repro.core.table import RecordTable
from repro.net.message import LeaseRecord

__all__ = ["LeaseLedger", "lease_id"]


def lease_id(name: str) -> int:
    """The stable 64-bit id of a lease name (strings never hit the wire)."""
    return int.from_bytes(
        blake2b(name.encode("utf-8"), digest_size=8).digest(), "big"
    )


class LeaseLedger(RecordTable, record_type=LeaseRecord):
    """One node's replica of a group's lease table, keyed by lease id."""

    def __init__(self, group: int) -> None:
        super().__init__(group)
        #: Highest fencing token ever merged (a new leader's floor).
        self.max_token = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def merge_record(self, record: LeaseRecord, relay: bool = True) -> bool:
        """Merge one record; returns True if the ledger changed.

        ``relay=False`` merges a record this replica merely *learned*: it
        is stored but never owed onward through ``delta_since``.
        """
        lease = record.lease
        current = self._records.get(lease)
        if current is not None:
            # The record order, discriminating fields first: gossip
            # delivers each record to each replica many times, so the
            # common outcome is "already have it (or newer)" and must
            # decide in one or two scalar compares.
            if record.token != current.token:
                if record.token < current.token:
                    return False
            elif record.seq != current.seq:
                if record.seq < current.seq:
                    return False
            elif (record.released, record.expiry, record.granted_at, record.holder) <= (
                current.released,
                current.expiry,
                current.granted_at,
                current.holder,
            ):
                return False
        self._put(lease, record, current, relay)
        if record.token > self.max_token:
            self.max_token = record.token
        return True

    def merge_report(
        self, records: Iterable[LeaseRecord], relay: bool = True
    ) -> Tuple[int, ...]:
        """Merge many records; returns the ids of leases that changed.

        The watcher fan-out path: a leader merging gossiped records needs
        to know *which* leases moved so it can push events to their
        watchers, not just whether anything did.
        """
        changed: List[int] = []
        for record in records:
            if self.merge_record(record, relay):
                changed.append(record.lease)
        return tuple(changed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def holder(self, lease: int, now: float) -> Optional[LeaseRecord]:
        """The record currently holding ``lease``, or None.

        A lease is held iff its latest record is unreleased and unexpired
        at ``now`` (leader clock).
        """
        record = self._records.get(lease)
        if record is None or record.released or record.expiry <= now:
            return None
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaseLedger(group={self.group}, leases={len(self._records)}, "
            f"max_token={self.max_token})"
        )
