"""The replicated lease table: a last-writer-wins CRDT over lease records.

One :class:`~repro.net.message.LeaseRecord` per lease id, merged by a total
order exactly like the membership view merges
:class:`~repro.net.message.MemberInfo` records (:mod:`repro.core.group`):
merge is commutative, associative and idempotent, so replicas converge
regardless of message ordering, duplication or loss.

Record order: higher fencing ``token`` wins outright — tokens encode the
granting leader's tenure in their high bits (see
:mod:`repro.lease.manager`), so a later tenure's grant always supersedes an
earlier one.  Within one token, a higher ``seq`` wins (each renew or
release of a grant bumps ``seq``); at equal seq a release beats the grant
it refers to, and the remaining tie-breaks make the order total over
arbitrary records.

Replication is leader-anchored: only a tenure-active leader mints records,
so only it *owes them onward*.  A change merged with ``relay=True`` (the
writer's own mutations, and whatever a leader learns) bumps
:attr:`LeaseLedger.version`, stamps the record and enters the change log
behind :meth:`delta_since`; a follower merges what it is told with
``relay=False`` — table, digest and ``max_token`` move, the change log does
not, so nothing is re-gossiped to peers that hear the same leader.
The leader ships :meth:`delta_window` to each follower on its frames;
:meth:`digest64` (XOR of per-record 64-bit hashes, incrementally
maintained) is the anti-entropy check: a follower whose ledger still
differs from the leader's after a gap-free segment repairs with
:meth:`full`.  A newly elected leader therefore already holds what the old
one shipped, and resumes granting *above* every token it has seen.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from hashlib import blake2b
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.message import LeaseRecord

__all__ = [
    "LeaseLedger",
    "lease_id",
    "lease_record_digest64",
    "prefer_lease_record",
]


def lease_id(name: str) -> int:
    """The stable 64-bit id of a lease name (strings never hit the wire)."""
    return int.from_bytes(
        blake2b(name.encode("utf-8"), digest_size=8).digest(), "big"
    )


def prefer_lease_record(a: LeaseRecord, b: LeaseRecord) -> LeaseRecord:
    """The winner of two records for the same lease (a total order)."""
    if a.lease != b.lease:
        raise ValueError(
            f"cannot merge records of different leases ({a.lease}, {b.lease})"
        )

    def key(record: LeaseRecord):
        return (
            record.token,
            record.seq,
            record.released,  # a release supersedes the grant it refers to
            record.expiry,
            record.granted_at,
            record.holder,
        )

    return a if key(a) >= key(b) else b


_RECORD_PACK = struct.Struct("!QiQdd?I")


def lease_record_digest64(record: LeaseRecord) -> int:
    """A stable 64-bit hash of one record (process-independent).

    Packed-binary rendering, never Python ``hash`` (salted per process);
    XOR-combined into the ledger digest so the digest is order-independent
    and incrementally updatable — the same scheme as
    :func:`repro.core.group.record_digest64`.  Memoized on the (frozen)
    record, so the XOR-out of a superseded record hashes nothing.
    """
    digest = record._digest
    if digest is None:
        packed = _RECORD_PACK.pack(
            record.lease, record.holder, record.token, record.expiry,
            record.granted_at, record.released, record.seq,
        )
        digest = int.from_bytes(blake2b(packed, digest_size=8).digest(), "big")
        object.__setattr__(record, "_digest", digest)
    return digest


class LeaseLedger:
    """One node's replica of a group's lease table."""

    def __init__(self, group: int) -> None:
        self.group = group
        self._records: Dict[int, LeaseRecord] = {}
        #: Bumped on every *relayed* change (delta-gossip stamps).
        self.version = 0
        #: lease -> version of its change-log entry (0: learned, not owed).
        self._record_versions: Dict[int, int] = {}
        #: Change log (parallel version/record lists, version-ascending)
        #: behind :meth:`delta_since` — a bisect instead of a full-table
        #: scan-and-sort per gossip round.  Superseded entries linger
        #: until compaction and are skipped on read (an entry is live iff
        #: it still carries its lease's current version).
        self._log_versions: List[int] = []
        self._log_records: List[LeaseRecord] = []
        #: XOR of per-record 64-bit hashes; maintained incrementally.
        self._digest64 = 0
        #: Highest fencing token ever merged (a new leader's floor).
        self.max_token = 0
        self._full_cache: Optional[Tuple[LeaseRecord, ...]] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def merge_record(self, record: LeaseRecord, relay: bool = True) -> bool:
        """Merge one record; returns True if the ledger changed.

        ``relay=False`` merges a record this replica merely *learned*: it
        is stored but never owed onward through :meth:`delta_since`.
        """
        current = self._records.get(record.lease)
        if current is not None:
            # Inline the total order of :func:`prefer_lease_record` with the
            # discriminating fields first: gossip delivers each record to
            # each replica many times, so the overwhelmingly common outcome
            # is "already have it (or newer)" and must decide in one or two
            # scalar compares, without building key tuples.
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
            self._digest64 ^= lease_record_digest64(current)
        self._records[record.lease] = record
        if relay:
            self.version += 1
            self._record_versions[record.lease] = self.version
            self._log_versions.append(self.version)
            self._log_records.append(record)
            if len(self._log_versions) > max(64, 2 * len(self._records)):
                self._compact_log()
        else:
            self._record_versions[record.lease] = 0
        self._digest64 ^= lease_record_digest64(record)
        if record.token > self.max_token:
            self.max_token = record.token
        self._full_cache = None
        return True

    def _compact_log(self) -> None:
        """Drop superseded change-log entries (lossless: every relayed
        record keeps its exact change version and learned ones stay out,
        so any ``delta_since`` answer is unchanged)."""
        records = self._records
        live = sorted(
            (version, records[lease])
            for lease, version in self._record_versions.items()
            if version
        )
        self._log_versions = [version for version, _ in live]
        self._log_records = [record for _, record in live]

    def merge(self, records: Iterable[LeaseRecord], relay: bool = True) -> bool:
        """Merge many records; returns True if any changed the ledger."""
        changed = False
        for record in records:
            changed |= self.merge_record(record, relay)
        return changed

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
    def record(self, lease: int) -> Optional[LeaseRecord]:
        """The current record for ``lease``, or None if never granted."""
        return self._records.get(lease)

    def holder(self, lease: int, now: float) -> Optional[LeaseRecord]:
        """The record currently holding ``lease``, or None.

        A lease is held iff its latest record is unreleased and unexpired
        at ``now`` (leader clock).
        """
        record = self._records.get(lease)
        if record is None or record.released or record.expiry <= now:
            return None
        return record

    def active(self, now: float) -> List[LeaseRecord]:
        """All records held at ``now`` (unreleased, unexpired)."""
        return [
            r
            for r in self._records.values()
            if not r.released and r.expiry > now
        ]

    def full(self) -> Tuple[LeaseRecord, ...]:
        """All records, for full-ledger sync gossip (cached until changed)."""
        if self._full_cache is None:
            self._full_cache = tuple(self._records.values())
        return self._full_cache

    def digest64(self) -> int:
        """64-bit order-independent digest of the full record set."""
        return self._digest64

    def delta_since(self, version: int) -> Tuple[LeaseRecord, ...]:
        """Relayed records changed after ``version``, in change order.

        Empty in steady state (checked without allocation);
        ``delta_since(0)`` is everything this replica owes onward.
        """
        if version >= self.version:
            return ()
        start = bisect_right(self._log_versions, version)
        log_versions = self._log_versions
        log_records = self._log_records
        current = self._record_versions
        return tuple(
            record
            for i in range(start, len(log_versions))
            if current[(record := log_records[i]).lease] == log_versions[i]
        )

    def delta_window(
        self, version: int, limit: int
    ) -> Tuple[Tuple[LeaseRecord, ...], int]:
        """:meth:`delta_since` cut at ``limit`` records, and the version it
        brings a replica to: the last included record's when cut, else
        :attr:`version` (the shape of the view's ``delta_window``)."""
        records = self.delta_since(version)
        if len(records) <= limit:
            return records, self.version
        records = records[:limit]
        return records, self._record_versions[records[-1].lease]

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaseLedger(group={self.group}, leases={len(self._records)}, "
            f"max_token={self.max_token})"
        )
