"""A fake GroupContext for unit-testing election algorithms in isolation."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.election.base import GroupContext
from repro.net.message import AliveCell, MemberInfo


def member(pid, node=None, candidate=True, present=True, joined=0.0, incarnation=1):
    return MemberInfo(
        pid=pid,
        node=node if node is not None else pid,
        incarnation=incarnation,
        candidate=candidate,
        present=present,
        joined_at=joined,
    )


def alive(pid, acc_time=0.0, phase=0, local_leader=None, local_leader_acc=None):
    """One group's heartbeat payload as the election algorithms see it."""
    return AliveCell(
        group=1,
        pid=pid,
        acc_time=acc_time,
        phase=phase,
        local_leader=local_leader,
        local_leader_acc=local_leader_acc,
    )


class FakeContext(GroupContext):
    """In-memory GroupContext: the test script plays the runtime."""

    def __init__(self, local_pid=0, candidate=True, join_time=0.0):
        self._pid = local_pid
        self._candidate = candidate
        self._join_time = join_time
        self._now = join_time
        self.members: Dict[int, MemberInfo] = {}
        self.trusted_pids: Set[int] = set()
        self.accusations: List[Tuple[int, int]] = []  # (accused, phase)
        self.monitored: List[int] = []
        self.views: List[Optional[int]] = []
        self.sending: Optional[bool] = None
        self.flushes = 0
        self.algorithm = None  # set by attach()
        self._version = 0

    # -- test-script controls -------------------------------------------
    def attach(self, algorithm):
        self.algorithm = algorithm
        return algorithm

    def add_member(self, record: MemberInfo):
        """Join, rejoin or tombstone: any replaced record is a new version."""
        self.members[record.pid] = record
        self._version += 1

    def remove_member(self, pid: int):
        del self.members[pid]
        self._version += 1

    def set_time(self, t: float):
        self._now = t

    def trust(self, *pids):
        self.trusted_pids.update(pids)

    def distrust(self, *pids):
        self.trusted_pids.difference_update(pids)

    # -- GroupContext interface ------------------------------------------
    @property
    def now(self):
        return self._now

    @property
    def local_pid(self):
        return self._pid

    @property
    def is_candidate(self):
        return self._candidate

    @property
    def join_time(self):
        return self._join_time

    def trusted(self, pid):
        return pid == self._pid or pid in self.trusted_pids

    def candidate_members(self):
        return [m for m in self.members.values() if m.present and m.candidate]

    def is_present_candidate(self, pid):
        record = self.members.get(pid)
        return record is not None and record.present and record.candidate

    def member_joined_at(self, pid):
        record = self.members.get(pid)
        return record.joined_at if record is not None else None

    @property
    def membership_version(self):
        return self._version

    def send_accuse(self, accused, accused_phase):
        self.accusations.append((accused, accused_phase))

    def ensure_monitor(self, pid):
        self.monitored.append(pid)
        self.trusted_pids.add(pid)  # grace-trust, as the runtime would

    def on_leader_view(self, leader):
        self.views.append(leader)

    def sync_sender(self):
        if self.algorithm is not None:
            self.sending = self.algorithm.wants_to_send()

    def request_flush(self):
        self.flushes += 1


class BareFakeContext(FakeContext):
    """A context that exposes no membership version, as the GroupContext
    contract allows: algorithms that memoize on it (Ω_lc) must fall back
    to recomputing on every readout."""

    @property
    def membership_version(self):
        raise NotImplementedError
