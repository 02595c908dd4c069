"""Unit tests for group-maintenance membership views."""

import pytest

from repro.core.group import MembershipView, make_incarnation
from repro.net.message import MemberInfo


def record(pid, incarnation=1, present=True, candidate=True, node=None, joined=0.0):
    return MemberInfo(
        pid=pid,
        node=node if node is not None else pid,
        incarnation=incarnation,
        candidate=candidate,
        present=present,
        joined_at=joined,
    )


class TestIncarnations:
    def test_reboots_dominate_joins(self):
        assert make_incarnation(1, 0) > make_incarnation(0, 999)

    def test_monotonic_within_boot(self):
        assert make_incarnation(2, 5) > make_incarnation(2, 4)

    def test_join_overflow_rejected(self):
        with pytest.raises(ValueError):
            make_incarnation(0, 10**6)


def winner(*records):
    """The record a view keeps after merging ``records`` in this order."""
    view = MembershipView(1)
    view.merge(records)
    return view.record(records[0].pid)


class TestPreferRecord:
    def test_higher_incarnation_wins(self):
        old, new = record(1, incarnation=1), record(1, incarnation=2)
        assert winner(old, new) is new
        assert winner(new, old) is new

    def test_tombstone_wins_within_incarnation(self):
        joined = record(1, incarnation=3, present=True)
        left = record(1, incarnation=3, present=False)
        assert winner(joined, left) is left
        assert winner(left, joined) is left

    def test_rejoin_overrides_tombstone(self):
        left = record(1, incarnation=3, present=False)
        rejoined = record(1, incarnation=4, present=True)
        assert winner(left, rejoined) is rejoined


class TestMembershipView:
    def test_join_and_queries(self):
        view = MembershipView(1)
        view.apply_join(pid=3, node=3, incarnation=1, candidate=True, now=5.0)
        assert view.is_present(3)
        assert view.is_present_candidate(3)
        assert view.node_of(3) == 3
        assert view.joined_at(3) == 5.0
        assert len(view) == 1

    def test_non_candidate_member(self):
        view = MembershipView(1)
        view.apply_join(pid=3, node=3, incarnation=1, candidate=False, now=0.0)
        assert view.is_present(3)
        assert not view.is_present_candidate(3)
        assert view.candidates() == ()
        assert len(view.members()) == 1

    def test_leave_tombstones(self):
        view = MembershipView(1)
        view.apply_join(pid=3, node=3, incarnation=1, candidate=True, now=0.0)
        tombstone = view.apply_leave(3)
        assert tombstone is not None and not tombstone.present
        assert not view.is_present(3)
        assert view.record(3) is not None  # tombstone retained for gossip

    def test_leave_unknown_returns_none(self):
        view = MembershipView(1)
        assert view.apply_leave(99) is None

    def test_merge_reports_change(self):
        view = MembershipView(1)
        assert view.merge([record(1)])
        assert not view.merge([record(1)])  # idempotent

    def test_merge_keeps_newest_incarnation(self):
        view = MembershipView(1)
        view.merge([record(1, incarnation=5)])
        view.merge([record(1, incarnation=3)])  # stale gossip
        assert view.record(1).incarnation == 5

    def test_version_bumps_only_on_change(self):
        view = MembershipView(1)
        view.merge([record(1)])
        v = view.version
        view.merge([record(1)])
        assert view.version == v
        view.merge([record(2)])
        assert view.version == v + 1

    def test_digest_cached_until_change(self):
        view = MembershipView(1)
        view.merge([record(1)])
        first = view.full()
        assert view.full() is first
        view.merge([record(2)])
        assert view.full() is not first

    def test_digest_roundtrip_reconstructs_view(self):
        a = MembershipView(1)
        a.apply_join(pid=1, node=1, incarnation=1, candidate=True, now=0.0)
        a.apply_join(pid=2, node=2, incarnation=1, candidate=False, now=1.0)
        a.apply_leave(2)
        b = MembershipView(1)
        b.merge(a.full())
        assert {r.pid: r for r in b.full()} == {r.pid: r for r in a.full()}

    def test_two_views_converge_regardless_of_order(self):
        updates = [
            record(1, incarnation=1),
            record(1, incarnation=2, present=False),
            record(2, incarnation=1),
            record(1, incarnation=3),
        ]
        forward = MembershipView(1)
        forward.merge(updates)
        backward = MembershipView(1)
        backward.merge(reversed(updates))
        assert {r.pid: r for r in forward.full()} == {
            r.pid: r for r in backward.full()
        }
