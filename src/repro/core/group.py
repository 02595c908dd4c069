"""Group maintenance: dynamic membership with last-writer-wins records.

For each group, the paper's Group Maintenance module "builds and maintains
the set of processes that are currently in g" (§4).  Groups are dynamic —
processes join and leave at any time, possibly concurrently with crashes —
so membership is maintained as a conflict-free replicated map: one
:class:`~repro.net.message.MemberInfo` record per process id, merged by a
total order on records.  Records travel on HELLO messages and piggybacked on
ALIVEs; merge is commutative, associative and idempotent, so views converge
regardless of message ordering, duplication or loss.

Record order: higher ``incarnation`` wins; within one incarnation a tombstone
(``present=False``, i.e. a voluntary leave) wins over the join it refers to.
Incarnations are globally monotonic per pid because they encode the node's
boot counter (which survives crashes) in the high bits and a per-boot join
counter in the low bits — see :meth:`make_incarnation`.

Since the multi-group scale-out, views support **delta gossip**: every
effective change bumps :attr:`MembershipView.version` and stamps the changed
record with it, so a sender can ship only :meth:`delta_window` past the
version it last sent to a destination instead of the full view.  Lost
deltas are repaired by anti-entropy: every delta-carrying message also carries
:meth:`digest64` — a 64-bit order-independent digest of the full record set
— and a receiver whose own digest differs after merging answers with a
sync (see :mod:`repro.core.membership`).  Because the merge is a join-semilattice, any interleaving
of deltas, syncs, duplicates and reorderings converges to the same view as
full-view merge (property-tested in ``tests/core/test_group_delta.py``).
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Dict, Iterable, Optional, Tuple

from repro.net.message import MemberInfo

__all__ = [
    "MembershipView",
    "make_incarnation",
    "prefer_record",
    "record_digest64",
]

#: Joins per node boot supported by the incarnation encoding.
_JOINS_PER_BOOT = 1_000_000


def make_incarnation(boot_count: int, join_seq: int) -> int:
    """Encode a globally monotonic incarnation for one (re)join.

    ``boot_count`` is the node's persistent reboot counter; ``join_seq`` the
    volatile per-boot join counter.  Reboots dominate, so a process that
    crashed and rejoined always carries a higher incarnation than any record
    from before the crash.
    """
    if join_seq >= _JOINS_PER_BOOT:
        raise ValueError(f"too many joins in one boot ({join_seq})")
    return boot_count * _JOINS_PER_BOOT + join_seq


def prefer_record(a: MemberInfo, b: MemberInfo) -> MemberInfo:
    """The winner of two records for the same pid (a total order).

    Higher incarnation wins; at equal incarnation the tombstone wins (a leave
    overrides the join it refers to).  In the protocol an incarnation
    identifies one join event, so the remaining fields coincide; the extra
    deterministic tie-breaks below make the order *total* over arbitrary
    records anyway, keeping the merge a join-semilattice even for corrupted
    or hand-built inputs.
    """
    if a.pid != b.pid:
        raise ValueError(f"cannot merge records of different pids ({a.pid}, {b.pid})")
    # Key: (incarnation, tombstone-wins, joined_at, candidate, node).
    # Compared inline — this runs once per gossiped record, and a nested
    # key() closure costs more than the comparison itself.
    if (a.incarnation, not a.present, a.joined_at, a.candidate, a.node) >= (
        b.incarnation,
        not b.present,
        b.joined_at,
        b.candidate,
        b.node,
    ):
        return a
    return b


_RECORD_PACK = struct.Struct("!iiq??d")


def record_digest64(record: MemberInfo) -> int:
    """A stable 64-bit hash of one record (process-independent).

    Built from a packed binary rendering (never Python ``hash``, which is
    salted per process — live nodes must agree on digests).  Individual
    record hashes are XOR-combined into the view digest, which makes the
    view digest order-independent and incrementally updatable.
    """
    packed = _RECORD_PACK.pack(
        record.pid,
        record.node,
        record.incarnation,
        record.candidate,
        record.present,
        record.joined_at,
    )
    return int.from_bytes(blake2b(packed, digest_size=8).digest(), "big")


class MembershipView:
    """One node's replica of a group's membership map."""

    def __init__(self, group: int) -> None:
        self.group = group
        self._records: Dict[int, MemberInfo] = {}
        #: Bumped on every effective change; cheap "did anything change" check.
        self.version = 0
        #: Version at which each pid's record last changed (delta stamps).
        self._record_versions: Dict[int, int] = {}
        #: XOR of per-record 64-bit hashes; maintained incrementally.
        self._digest64 = 0
        self._digest_cache: Optional[Tuple[MemberInfo, ...]] = None
        #: Memoized members()/candidates() tuples; the election recompute
        #: asks for the candidate set on every refresh, and in steady state
        #: the view does not change between refreshes.
        self._members_cache: Optional[Tuple[MemberInfo, ...]] = None
        self._candidates_cache: Optional[Tuple[MemberInfo, ...]] = None
        #: node -> pids recorded there, in record insertion order (an
        #: insertion-ordered dict used as a set).  Node-level trust events
        #: fan out to the pids hosted on one workstation; without the index
        #: every event scans the whole member list, which on wide cells
        #: turns a bootstrap's O(n) trust transitions into O(n²) work.
        self._node_pids: Dict[int, Dict[int, None]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def merge_record(self, record: MemberInfo) -> bool:
        """Merge one record; returns True if the view changed."""
        current = self._records.get(record.pid)
        if current is None:
            self._records[record.pid] = record
            self.version += 1
            self._record_versions[record.pid] = self.version
            self._digest64 ^= record_digest64(record)
            self._digest_cache = None
            self._members_cache = None
            self._candidates_cache = None
            self._node_pids.setdefault(record.node, {})[record.pid] = None
            return True
        winner = prefer_record(current, record)
        if winner is not current:
            self._records[record.pid] = winner
            self.version += 1
            self._record_versions[record.pid] = self.version
            self._digest64 ^= record_digest64(current) ^ record_digest64(winner)
            self._digest_cache = None
            self._members_cache = None
            self._candidates_cache = None
            if winner.node != current.node:  # defensive: pids don't migrate
                old = self._node_pids.get(current.node)
                if old is not None:
                    old.pop(record.pid, None)
                self._node_pids.setdefault(winner.node, {})[record.pid] = None
            return True
        return False

    def merge(self, records: Iterable[MemberInfo]) -> bool:
        """Merge many records; returns True if any changed the view."""
        changed = False
        for record in records:
            changed |= self.merge_record(record)
        return changed

    def apply_join(
        self,
        pid: int,
        node: int,
        incarnation: int,
        candidate: bool,
        now: float,
    ) -> MemberInfo:
        """Record a local join and return the new record."""
        record = MemberInfo(
            pid=pid,
            node=node,
            incarnation=incarnation,
            candidate=candidate,
            present=True,
            joined_at=now,
        )
        self.merge_record(record)
        return record

    def apply_leave(self, pid: int) -> Optional[MemberInfo]:
        """Record a local leave (tombstone); returns the tombstone or None."""
        current = self._records.get(pid)
        if current is None or not current.present:
            return None
        tombstone = MemberInfo(
            pid=current.pid,
            node=current.node,
            incarnation=current.incarnation,
            candidate=current.candidate,
            present=False,
            joined_at=current.joined_at,
        )
        self.merge_record(tombstone)
        return tombstone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record(self, pid: int) -> Optional[MemberInfo]:
        """The current record for ``pid`` (possibly a tombstone), or None."""
        return self._records.get(pid)

    def members(self) -> Tuple[MemberInfo, ...]:
        """Records of processes currently in the group (memoized tuple)."""
        cached = self._members_cache
        if cached is None:
            cached = self._members_cache = tuple(
                r for r in self._records.values() if r.present
            )
        return cached

    def candidates(self) -> Tuple[MemberInfo, ...]:
        """Records of present members that compete for leadership (memoized)."""
        cached = self._candidates_cache
        if cached is None:
            cached = self._candidates_cache = tuple(
                r for r in self._records.values() if r.present and r.candidate
            )
        return cached

    def records_map(self) -> Dict[int, MemberInfo]:
        """The live pid → record dict (hot-path read-only access).

        Exposed for fused per-round loops (the election's trust checker)
        that would otherwise pay a method call per :meth:`node_of` lookup;
        callers must treat it as read-only.
        """
        return self._records

    def pids_on_node(self, node: int) -> Tuple[int, ...]:
        """Pids recorded on ``node`` (present or tombstoned), in record
        insertion order — the same relative order a members() scan yields."""
        pids = self._node_pids.get(node)
        return tuple(pids) if pids else ()

    def is_present(self, pid: int) -> bool:
        record = self._records.get(pid)
        return record is not None and record.present

    def is_present_candidate(self, pid: int) -> bool:
        record = self._records.get(pid)
        return record is not None and record.present and record.candidate

    def node_of(self, pid: int) -> Optional[int]:
        """The node hosting ``pid``, if known."""
        record = self._records.get(pid)
        return record.node if record is not None else None

    def joined_at(self, pid: int) -> Optional[float]:
        record = self._records.get(pid)
        return record.joined_at if record is not None else None

    def digest(self) -> Tuple[MemberInfo, ...]:
        """All records (including tombstones) for full-view gossip.

        The tuple is cached until the view changes, so every message carrying
        an unchanged view shares one object.
        """
        if self._digest_cache is None:
            self._digest_cache = tuple(self._records.values())
        return self._digest_cache

    def digest64(self) -> int:
        """64-bit order-independent digest of the full record set.

        Two views hash equal iff they hold identical record sets (up to the
        astronomically unlikely XOR collision), regardless of merge order —
        the anti-entropy trigger: a receiver whose digest differs from the
        sender's after merging requests a full sync.
        """
        return self._digest64

    def delta_window(
        self, version: int, limit: int
    ) -> Tuple[Tuple[MemberInfo, ...], int]:
        """The records changed after ``version``, at most ``limit`` of them.

        Returns ``(records, high)`` where ``high`` is the version watermark
        the caller may advance its per-destination cursor to: the highest
        record version *included* when the window truncated, or the full
        view version when everything fit.  Resuming from ``high`` streams
        the remainder in change order across subsequent rounds — the
        bounded-gossip shape large SWIM deployments need, where a cold
        destination must not receive the entire view in one message.
        """
        if version >= self.version:
            return (), self.version
        versions = self._record_versions
        changed = [
            (versions[pid], record)
            for pid, record in self._records.items()
            if versions[pid] > version
        ]
        changed.sort(key=lambda item: item[0])
        if len(changed) > limit:
            changed = changed[:limit]
            high = changed[-1][0]
        else:
            high = self.version
        return tuple(record for _, record in changed), high

    def __len__(self) -> int:
        return len(self.members())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        present = sorted(r.pid for r in self._records.values() if r.present)
        return f"MembershipView(group={self.group}, members={present})"
