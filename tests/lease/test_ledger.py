"""LeaseLedger CRDT: merge order, digests, delta gossip."""

from __future__ import annotations

import random

from repro.lease.ledger import LeaseLedger, lease_id
from repro.net.message import LeaseRecord
from tests.core.test_table import reference_digest


def record(lease=1, holder=1000, token=1, expiry=10.0, granted_at=5.0,
           released=False, seq=0):
    return LeaseRecord(
        lease=lease,
        holder=holder,
        token=token,
        expiry=expiry,
        granted_at=granted_at,
        released=released,
        seq=seq,
    )


class TestLeaseId:
    def test_stable_and_64_bit(self):
        a = lease_id("lock-0")
        assert a == lease_id("lock-0")
        assert 0 <= a < 2**64

    def test_distinct_names_distinct_ids(self):
        assert lease_id("lock-0") != lease_id("lock-1")


def winner(*records):
    """The record a ledger keeps after merging ``records`` in this order."""
    ledger = LeaseLedger(group=1)
    ledger.merge(records)
    return ledger.record(records[0].lease)


class TestPreferLeaseRecord:
    def test_higher_token_wins_outright(self):
        older = record(token=5, seq=99, expiry=100.0)
        newer = record(token=6, seq=0, expiry=1.0)
        assert winner(older, newer) is newer
        assert winner(newer, older) is newer

    def test_same_token_higher_seq_wins(self):
        grant = record(token=5, seq=0)
        renew = record(token=5, seq=1, expiry=20.0)
        assert winner(grant, renew) is renew

    def test_release_beats_the_grant_it_refers_to(self):
        grant = record(token=5, seq=1, released=False)
        release = record(token=5, seq=1, released=True, expiry=7.0)
        assert winner(grant, release) is release


class TestMerge:
    def test_merge_is_idempotent(self):
        ledger = LeaseLedger(group=1)
        assert ledger.merge_record(record()) is True
        version = ledger.version
        assert ledger.merge_record(record()) is False
        assert ledger.version == version

    def test_losing_record_does_not_change_ledger(self):
        ledger = LeaseLedger(group=1)
        ledger.merge_record(record(token=9))
        assert ledger.merge_record(record(token=3)) is False
        assert ledger.record(1).token == 9

    def test_replicas_converge_regardless_of_order(self):
        records = [
            record(lease=lease, token=token, seq=seq,
                   released=bool(seq % 2), expiry=float(token))
            for lease in (1, 2, 3)
            for token in (10, 20)
            for seq in (0, 1, 2)
        ]
        rng = random.Random(42)
        replicas = [LeaseLedger(group=1) for _ in range(4)]
        for replica in replicas:
            shuffled = records[:]
            rng.shuffle(shuffled)
            replica.merge(shuffled)
        baseline = replicas[0]
        for replica in replicas[1:]:
            assert replica.digest64() == baseline.digest64()
            assert set(replica.full()) == set(baseline.full())
            assert replica.max_token == baseline.max_token

    def test_max_token_is_a_floor_over_everything_merged(self):
        ledger = LeaseLedger(group=1)
        ledger.merge_record(record(lease=1, token=50))
        ledger.merge_record(record(lease=2, token=7))
        assert ledger.max_token == 50


class TestDigest:
    def test_incremental_digest_matches_recompute(self):
        ledger = LeaseLedger(group=1)
        ledger.merge_record(record(lease=1, token=5))
        ledger.merge_record(record(lease=2, token=6))
        ledger.merge_record(record(lease=1, token=8))  # supersede lease 1
        expected = 0
        for rec in ledger.full():
            expected ^= reference_digest(rec)
        assert ledger.digest64() == expected

    def test_empty_ledger_digest_is_zero(self):
        assert LeaseLedger(group=1).digest64() == 0


class TestDeltaSince:
    def test_full_ledger_from_version_zero(self):
        ledger = LeaseLedger(group=1)
        ledger.merge_record(record(lease=1))
        ledger.merge_record(record(lease=2))
        assert {r.lease for r in ledger.delta_since(0)} == {1, 2}

    def test_empty_in_steady_state(self):
        ledger = LeaseLedger(group=1)
        ledger.merge_record(record(lease=1))
        assert ledger.delta_since(ledger.version) == ()

    def test_only_changes_after_the_watermark_ship(self):
        ledger = LeaseLedger(group=1)
        ledger.merge_record(record(lease=1, token=5))
        watermark = ledger.version
        ledger.merge_record(record(lease=2, token=6))
        ledger.merge_record(record(lease=1, token=9))
        delta = ledger.delta_since(watermark)
        assert {r.lease for r in delta} == {1, 2}
        assert ledger.delta_since(0) == delta  # every record was re-stamped


class TestHolder:
    def test_holder_requires_unreleased_and_unexpired(self):
        ledger = LeaseLedger(group=1)
        ledger.merge_record(record(lease=1, expiry=10.0))
        assert ledger.holder(1, now=5.0).holder == 1000
        assert ledger.holder(1, now=10.0) is None  # expired
        ledger.merge_record(record(lease=1, seq=1, released=True, expiry=6.0))
        assert ledger.holder(1, now=5.0) is None  # released
