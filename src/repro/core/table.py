"""A replicated last-writer-wins table: the membership view and the lease ledger.

The paper's Group Maintenance module keeps each group's membership as a
replicated map (§4); the lease tier replicates its ledger the same way.
Both are a :class:`RecordTable`: one record per key, merged by a total
order on records, so merge is commutative, associative and idempotent and
replicas converge regardless of message ordering, duplication or loss.  A
subclass states only its order, inline in ``merge_record``
(:class:`~repro.core.group.MembershipView`,
:class:`~repro.lease.ledger.LeaseLedger`); every winning record goes
through :meth:`RecordTable._put`.

**Delta gossip.**  A change merged with ``relay=True`` bumps
:attr:`RecordTable.version`, stamps its key and enters a version-ordered
change log, so a sender ships only :meth:`RecordTable.delta_window` past
the version it last sent a destination: a bisect into the log, O(changes).
A record merged with ``relay=False`` is learned but not owed onward (stamp
0): the table and its digest move, the log does not.

**Anti-entropy.**  :meth:`RecordTable.digest64` is the XOR of per-record
64-bit BLAKE2b hashes, kept incrementally.  A record hashes its fixed wire
layout (:func:`repro.runtime.codec.record_packer`; never Python's ``hash``,
which is salted per process — live nodes must agree), memoized on the
record.  A replica whose digest still differs from its source's after a
delta repairs with :meth:`RecordTable.full`.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runtime.codec import record_packer

__all__ = ["RecordTable"]


class RecordTable:
    """One node's replica of one group's table.

    A subclass names its record type (``class View(RecordTable,
    record_type=MemberInfo)``; the type needs a ``_digest`` memo slot) and
    defines ``merge_record(record, relay=True) -> bool``.
    """

    def __init_subclass__(cls, record_type: type, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._pack, cls._values = record_packer(record_type)

    def __init__(self, group: int) -> None:
        self.group = group
        self._records: Dict[Any, Any] = {}
        #: Bumped on every relayed change (delta-gossip stamps).
        self.version = 0
        #: key -> version of its change-log entry (0: learned, not owed).
        self._versions: Dict[Any, int] = {}
        #: Change log, parallel version/key lists, version-ascending.
        #: Superseded entries linger until compaction and are skipped on
        #: read (an entry is live iff its key still carries its version).
        self._log_versions: List[int] = []
        self._log_keys: List[Any] = []
        #: XOR of per-record 64-bit hashes; maintained incrementally.
        self._digest64 = 0
        self._full: Optional[Tuple[Any, ...]] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _put(self, key, record, current, relay: bool) -> None:
        """Store ``record`` under ``key``: it beat ``current`` (None if
        the key is new)."""
        digest = record._digest
        if digest is None:
            packed = self._pack(*self._values(record))
            digest = int.from_bytes(blake2b(packed, digest_size=8).digest(), "big")
            object.__setattr__(record, "_digest", digest)
        if current is not None:
            digest ^= current._digest  # memoized when it went in
        self._digest64 ^= digest
        records = self._records
        records[key] = record
        if relay:
            self.version = version = self.version + 1
            self._versions[key] = version
            self._log_versions.append(version)
            self._log_keys.append(key)
            if len(self._log_keys) > max(64, 2 * len(records)):
                self._compact_log()
        else:
            self._versions[key] = 0
        self._full = None

    def _compact_log(self) -> None:
        """Drop superseded change-log entries (lossless: every relayed key
        keeps its exact change version and learned ones stay out, so no
        :meth:`delta_window` answer changes)."""
        live = sorted([(version, key) for key, version in self._versions.items() if version])
        self._log_versions = [version for version, _ in live]
        self._log_keys = [key for _, key in live]

    def merge(self, records: Iterable, relay: bool = True) -> bool:
        """Merge many records; returns True if any changed the table."""
        changed = False
        for record in records:
            changed |= self.merge_record(record, relay)
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record(self, key):
        """The current record for ``key``, or None."""
        return self._records.get(key)

    def full(self) -> Tuple[Any, ...]:
        """All records, for a full sync (one cached tuple until a change,
        so every message carrying an unchanged table shares it)."""
        if self._full is None:
            self._full = tuple(self._records.values())
        return self._full

    def digest64(self) -> int:
        """64-bit order-independent digest of the full record set: two
        replicas hash equal iff they hold the same records (up to an
        astronomically unlikely XOR collision), whatever the merge order."""
        return self._digest64

    def delta_since(self, version: int) -> Tuple[Any, ...]:
        """Relayed records changed after ``version``, in change order;
        ``delta_since(0)`` is everything this replica owes onward."""
        return self.delta_window(version, len(self._log_keys))[0]

    def delta_window(self, version: int, limit: int) -> Tuple[Tuple[Any, ...], int]:
        """:meth:`delta_since` cut at ``limit`` records, and the version it
        brings a replica to: the last included record's when cut, else
        :attr:`version`.  Resuming from it streams the rest in change order
        across later rounds (a cold destination never gets the whole table
        in one message).  Empty in steady state, checked without
        allocation."""
        if version >= self.version:
            return (), self.version
        log_versions = self._log_versions
        keys = self._log_keys
        current = self._versions
        records = self._records
        window = []
        last = version
        for i in range(bisect_right(log_versions, version), len(keys)):
            key = keys[i]
            stamp = log_versions[i]
            if current[key] == stamp:
                if len(window) == limit:
                    return tuple(window), last
                window.append(records[key])
                last = stamp
        return tuple(window), self.version
