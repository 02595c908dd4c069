"""Delta gossip convergence: the property the anti-entropy design rests on.

The multi-group scale-out replaced full-view piggybacking with
version-stamped deltas plus a 64-bit digest trigger for full syncs.  That
is only sound because the membership merge is a join-semilattice: *any*
interleaving of deltas and full-view syncs — under loss, duplication and
reordering — must converge a replica to exactly the view a full-view merge
would have produced, the moment it has seen every record at least once.
Hypothesis explores the interleavings; the deterministic tests pin the
delta/digest bookkeeping itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group import MembershipView
from repro.net.message import MemberInfo
from tests.core.test_table import reference_digest


def member(pid, node=0, incarnation=1, candidate=True, present=True, joined=0.0):
    return MemberInfo(
        pid=pid,
        node=node,
        incarnation=incarnation,
        candidate=candidate,
        present=present,
        joined_at=joined,
    )


#: Small domains force collisions: many records per pid, competing
#: incarnations, join/leave races — the interesting merge cases.
records = st.builds(
    member,
    pid=st.integers(min_value=0, max_value=4),
    node=st.integers(min_value=0, max_value=3),
    incarnation=st.integers(min_value=0, max_value=5),
    candidate=st.booleans(),
    present=st.booleans(),
    joined=st.sampled_from((0.0, 1.5, 7.25)),
)


class TestDeltaBookkeeping:
    def test_delta_window_from_zero_is_the_full_view(self):
        view = MembershipView(1)
        view.merge([member(1), member(2), member(3)])
        records, high = view.delta_window(0, len(view.full()))
        assert set(records) == set(view.full())
        assert high == view.version

    def test_delta_window_from_current_version_is_empty(self):
        view = MembershipView(1)
        view.merge([member(1), member(2)])
        assert view.delta_window(view.version, 8) == ((), view.version)

    def test_delta_carries_only_changes(self):
        view = MembershipView(1)
        view.merge([member(1), member(2)])
        mark = view.version
        view.merge_record(member(3))
        view.merge_record(member(1, incarnation=9))
        delta, _ = view.delta_window(mark, 8)
        assert {record.pid for record in delta} == {1, 3}

    def test_noop_merge_does_not_grow_the_delta(self):
        view = MembershipView(1)
        view.merge([member(1)])
        mark = view.version
        view.merge_record(member(1))  # identical: loses to the incumbent
        assert view.delta_window(mark, 8)[0] == ()

    def test_digest64_is_order_independent(self):
        a = MembershipView(1)
        b = MembershipView(1)
        recs = [member(1), member(2, incarnation=3), member(3, present=False)]
        a.merge(recs)
        b.merge(reversed(recs))
        assert a.digest64() == b.digest64()

    def test_digest64_differs_for_different_views(self):
        a = MembershipView(1)
        b = MembershipView(1)
        a.merge([member(1)])
        b.merge([member(1, incarnation=2)])
        assert a.digest64() != b.digest64()

    def test_record_digest_is_process_stable(self):
        """The hand-packed layout's hash, so live nodes on different
        machines agree."""
        view = MembershipView(1)
        view.merge_record(member(1))
        assert view.digest64() == reference_digest(member(1))
        assert reference_digest(member(1)) != reference_digest(member(2))


class TestConvergenceProperty:
    @given(
        source_records=st.lists(records, min_size=1, max_size=20),
        interleaving=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_delta_interleaving_converges_to_full_merge(
        self, source_records, interleaving
    ):
        """Deltas + syncs under loss/dup/reorder ≡ one full-view merge."""
        source = MembershipView(1)
        replica = MembershipView(1)
        sent_version = 0
        packets = []  # in-flight deltas (tuples of records)

        for record in source_records:
            source.merge_record(record)
            action = interleaving.draw(
                st.sampled_from(("delta", "drop", "defer", "nothing")),
                label="action",
            )
            if action == "delta":
                packets.append(source.delta_window(sent_version, len(source_records))[0])
                sent_version = source.version
            elif action == "drop":
                sent_version = source.version  # delta sent but lost
            elif action == "defer":
                packets.append(source.delta_window(sent_version, len(source_records))[0])
                # ...but do NOT advance sent_version: next delta overlaps
                # (duplication of records in flight).
            # deliver some queued packets, possibly out of order / twice
            while packets and interleaving.draw(
                st.booleans(), label="deliver"
            ):
                index = interleaving.draw(
                    st.integers(min_value=0, max_value=len(packets) - 1),
                    label="which",
                )
                replica.merge(packets[index])
                if interleaving.draw(st.booleans(), label="consume"):
                    packets.pop(index)

        # Anti-entropy: on digest mismatch the sender pushes its full view
        # (exactly what GroupRuntime._push_sync ships).
        if replica.digest64() != source.digest64():
            replica.merge(source.full())

        reference = MembershipView(1)
        reference.merge(source_records)
        assert {r.pid: r for r in replica.full()} == {
            r.pid: r for r in reference.full()
        }
        assert replica.digest64() == reference.digest64()

    @given(source_records=st.lists(records, min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_digest_equality_detects_convergence(self, source_records):
        """digest64 agreement ⇔ identical record sets (the sync trigger)."""
        source = MembershipView(1)
        source.merge(source_records)
        replica = MembershipView(1)
        replica.merge(source.full())
        assert replica.digest64() == source.digest64()
        assert {r.pid: r for r in replica.full()} == {
            r.pid: r for r in source.full()
        }
