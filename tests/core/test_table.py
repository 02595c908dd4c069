"""Both replicated tables against one reference model.

The membership view and the lease ledger are one :class:`RecordTable`
with two record orders.  Here each order is also written the slow, obvious
way (``prefer_record`` / ``prefer_lease_record``: compare key tuples), and
a random merge sequence — duplicates, reorders, tombstones, superseded
tokens, learned-only ledger records — is replayed into a table and into a
plain-dict model of the old scan-and-sort tables.  Every answer must agree:
the merge verdict, the record set, the digest (a BLAKE2b of each record's
fixed wire layout, XORed) and ``delta_window`` for every cursor and
several limits, before and after compacting the change log.
"""

import struct
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group import MembershipView
from repro.lease.ledger import LeaseLedger
from repro.net.message import LeaseRecord, MemberInfo


def prefer_record(a: MemberInfo, b: MemberInfo) -> MemberInfo:
    """The view's order: higher incarnation, then the tombstone, then
    (joined_at, candidate, node); ``a`` on a tie."""
    assert a.pid == b.pid

    def key(r):
        return (r.incarnation, not r.present, r.joined_at, r.candidate, r.node)

    return a if key(a) >= key(b) else b


def prefer_lease_record(a: LeaseRecord, b: LeaseRecord) -> LeaseRecord:
    """The ledger's order: higher token, then seq, then the release, then
    (expiry, granted_at, holder); ``a`` on a tie."""
    assert a.lease == b.lease

    def key(r):
        return (r.token, r.seq, r.released, r.expiry, r.granted_at, r.holder)

    return a if key(a) >= key(b) else b


def reference_digest(record) -> int:
    """64-bit BLAKE2b of the record's wire layout, written out by hand."""
    if isinstance(record, MemberInfo):
        packed = struct.pack(
            "!iiq??d", record.pid, record.node, record.incarnation,
            record.candidate, record.present, record.joined_at,
        )
    else:
        packed = struct.pack(
            "!QiQdd?I", record.lease, record.holder, record.token, record.expiry,
            record.granted_at, record.released, record.seq,
        )
    return int.from_bytes(blake2b(packed, digest_size=8).digest(), "big")


members = st.builds(
    MemberInfo,
    pid=st.integers(min_value=0, max_value=4),
    node=st.integers(min_value=0, max_value=3),
    incarnation=st.integers(min_value=0, max_value=5),
    candidate=st.booleans(),
    present=st.booleans(),
    joined_at=st.sampled_from((0.0, 1.5, 7.25)),
)
leases = st.builds(
    LeaseRecord,
    lease=st.integers(min_value=1, max_value=4),
    holder=st.integers(min_value=0, max_value=2),
    token=st.integers(min_value=1, max_value=5),
    expiry=st.sampled_from((3.0, 10.0)),
    granted_at=st.sampled_from((0.0, 2.0)),
    released=st.booleans(),
    seq=st.integers(min_value=0, max_value=3),
)

#: name -> (table class, record strategy, key, reference order, may learn).
TABLES = {
    "view": (MembershipView, members, lambda r: r.pid, prefer_record, False),
    "ledger": (LeaseLedger, leases, lambda r: r.lease, prefer_lease_record, True),
}


class Model:
    """The scan-and-sort table: a dict of (record, stamp) per key."""

    def __init__(self, key, prefer):
        self.key, self.prefer = key, prefer
        self.rows = {}
        self.version = 0

    def merge(self, record, relay: bool) -> bool:
        current = self.rows.get(self.key(record))
        if current is not None and self.prefer(current[0], record) is current[0]:
            return False
        if relay:
            self.version += 1
        self.rows[self.key(record)] = (record, self.version if relay else 0)
        return True

    def window(self, version: int, limit: int):
        changed = sorted(
            (stamp, record) for record, stamp in self.rows.values() if stamp > version
        )
        if len(changed) > limit:
            changed = changed[:limit]
            return tuple(record for _, record in changed), changed[-1][0]
        return tuple(record for _, record in changed), self.version


def answers(table, version: int):
    cursors = range(0, version + 2)
    return {
        (cursor, limit): table.delta_window(cursor, limit)
        for cursor in cursors
        for limit in (1, 2, 3, 1_000)
    }


@pytest.mark.parametrize("name", sorted(TABLES))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_table_answers_what_the_scan_and_sort_model_does(name, data):
    cls, strategy, key, prefer, may_learn = TABLES[name]
    table, model = cls(1), Model(key, prefer)
    merged = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=24), label="steps")):
        if merged and data.draw(st.booleans(), label="duplicate"):
            record = data.draw(st.sampled_from(merged), label="again")
        else:
            record = data.draw(strategy, label="record")
        relay = not (may_learn and data.draw(st.booleans(), label="learned"))
        merged.append(record)
        assert table.merge_record(record, relay) == model.merge(record, relay)

        assert table.version == model.version
        assert dict(zip(map(key, table.full()), table.full())) == {
            k: record for k, (record, _) in model.rows.items()
        }
        expected = 0
        for held in table.full():
            expected ^= reference_digest(held)
        assert table.digest64() == expected
        before = answers(table, table.version)
        for (cursor, limit), answer in before.items():
            assert answer == model.window(cursor, limit), (cursor, limit)
        assert table.delta_since(0) == model.window(0, len(merged))[0]
        if data.draw(st.booleans(), label="compact"):
            table._compact_log()
            assert answers(table, table.version) == before

