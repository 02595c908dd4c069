"""Property-based tests: membership merge is a CRDT (join-semilattice).

Group maintenance relies on views converging regardless of gossip order,
duplication or loss — i.e. the merge must be commutative, associative and
idempotent, and record preference must be a total order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group import MembershipView
from repro.net.message import MemberInfo

pids = st.integers(min_value=0, max_value=5)
records = st.builds(
    MemberInfo,
    pid=pids,
    node=st.integers(min_value=0, max_value=5),
    incarnation=st.integers(min_value=0, max_value=4),
    candidate=st.booleans(),
    present=st.booleans(),
    joined_at=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
record_lists = st.lists(records, max_size=12)


def snapshot(view):
    return {r.pid: r for r in view.full()}


def merged(*record_groups):
    view = MembershipView(1)
    for group in record_groups:
        view.merge(group)
    return snapshot(view)


class TestMergeLattice:
    @given(record_lists)
    @settings(max_examples=200)
    def test_idempotent(self, batch):
        once = merged(batch)
        twice = merged(batch, batch)
        assert once == twice

    @given(record_lists, record_lists)
    @settings(max_examples=200)
    def test_commutative(self, a, b):
        assert merged(a, b) == merged(b, a)

    @given(record_lists, record_lists, record_lists)
    @settings(max_examples=200)
    def test_associative(self, a, b, c):
        left = merged(a + b, c)
        right = merged(a, b + c)
        assert left == right

    @given(record_lists)
    @settings(max_examples=200)
    def test_order_independent(self, batch):
        forward = merged(batch)
        backward = merged(list(reversed(batch)))
        assert forward == backward

    @given(record_lists, record_lists)
    @settings(max_examples=100)
    def test_merge_never_loses_incarnation_progress(self, a, b):
        """After merging b into a view containing a, every pid's incarnation
        is at least what either input knew."""
        view = MembershipView(1)
        view.merge(a)
        view.merge(b)
        best = {}
        for record in a + b:
            if record.pid not in best or record.incarnation > best[record.pid]:
                best[record.pid] = record.incarnation
        for pid, incarnation in best.items():
            assert view.record(pid).incarnation >= incarnation


def winner(*records):
    """The record a view keeps after merging ``records`` in this order."""
    view = MembershipView(1)
    view.merge(records)
    return view.record(records[0].pid)


class TestPreferRecordOrder:
    @given(records, records)
    @settings(max_examples=200)
    def test_antisymmetric_choice(self, a, b):
        if a.pid != b.pid:
            return
        assert winner(a, b) == winner(b, a)

    @given(records, records, records)
    @settings(max_examples=200)
    def test_transitive_choice(self, a, b, c):
        if not (a.pid == b.pid == c.pid):
            return
        assert winner(winner(a, b), c) == winner(a, winner(b, c))
