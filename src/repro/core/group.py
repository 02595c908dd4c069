"""Group maintenance: the membership view and its record order.

For each group, the paper's Group Maintenance module "builds and maintains
the set of processes that are currently in g" (§4).  Groups are dynamic —
processes join and leave at any time, possibly concurrently with crashes —
so a view is a replicated :class:`~repro.core.table.RecordTable` (delta
gossip, digest, full sync) with one :class:`~repro.net.message.MemberInfo`
record per process id.

Record order: higher ``incarnation`` wins; within one incarnation a tombstone
(``present=False``, i.e. a voluntary leave) wins over the join it refers to.
In the protocol an incarnation identifies one join, so the other fields
coincide; ``(joined_at, candidate, node)`` break the remaining ties, which
keeps the order total over arbitrary records.  Incarnations are globally
monotonic per pid because they encode the node's boot counter (which
survives crashes) in the high bits and a per-boot join counter in the low
bits — see :func:`make_incarnation`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.table import RecordTable
from repro.net.message import MemberInfo

__all__ = ["MembershipView", "make_incarnation"]

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


class MembershipView(RecordTable, record_type=MemberInfo):
    """One node's replica of a group's membership map, keyed by pid."""

    def __init__(self, group: int) -> None:
        super().__init__(group)
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
    def merge_record(self, record: MemberInfo, relay: bool = True) -> bool:
        """Merge one record; returns True if the view changed."""
        pid = record.pid
        current = self._records.get(pid)
        if current is not None:
            # The record order, discriminating fields first: gossip delivers
            # each record many times, so most merges change nothing and
            # must decide in one or two scalar compares.
            if record.incarnation != current.incarnation:
                if record.incarnation < current.incarnation:
                    return False
            elif record.present != current.present:
                if record.present:
                    return False  # the tombstone wins
            elif (record.joined_at, record.candidate, record.node) <= (
                current.joined_at,
                current.candidate,
                current.node,
            ):
                return False
        self._put(pid, record, current, relay)
        self._members_cache = self._candidates_cache = None
        if current is None or current.node != record.node:
            if current is not None:  # defensive: pids don't migrate
                self._node_pids[current.node].pop(pid, None)
            self._node_pids.setdefault(record.node, {})[pid] = None
        return True

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
    def members(self) -> Tuple[MemberInfo, ...]:
        """Records of processes currently in the group (memoized tuple)."""
        cached = self._members_cache
        if cached is None:
            cached = self._members_cache = tuple(
                [r for r in self._records.values() if r.present]
            )
        return cached

    def candidates(self) -> Tuple[MemberInfo, ...]:
        """Records of present members that compete for leadership (memoized)."""
        cached = self._candidates_cache
        if cached is None:
            cached = self._candidates_cache = tuple(
                [r for r in self._records.values() if r.present and r.candidate]
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

    def __len__(self) -> int:
        return len(self.members())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        present = sorted(r.pid for r in self._records.values() if r.present)
        return f"MembershipView(group={self.group}, members={present})"
