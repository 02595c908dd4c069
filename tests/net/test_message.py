"""Unit tests for message types and the wire-size model."""

import pytest

from repro.net.message import (
    SHARED_USAGE_KEY,
    WIRE_OVERHEAD_BYTES,
    AccEntry,
    AccuseMessage,
    AliveCell,
    BatchFrame,
    HelloMessage,
    LeaseEventMessage,
    LeaseRecord,
    LeaseReplyMessage,
    LeaseRequestMessage,
    MemberInfo,
    Message,
    RateRequestMessage,
)


def member(pid, node=0, incarnation=1, candidate=True, present=True, joined=0.0):
    return MemberInfo(
        pid=pid,
        node=node,
        incarnation=incarnation,
        candidate=candidate,
        present=present,
        joined_at=joined,
    )


def cell(group=1, pid=0, delta=()):
    return AliveCell(group=group, pid=pid, delta=tuple(delta))


class TestWireSizes:
    def test_base_message_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Message(sender_node=0, dest_node=1).payload_bytes()

    def test_empty_frame_base_size(self):
        msg = BatchFrame(sender_node=0, dest_node=1)
        assert msg.payload_bytes() == BatchFrame._BASE_BYTES
        assert msg.wire_bytes() == WIRE_OVERHEAD_BYTES + BatchFrame._BASE_BYTES

    def test_frame_grows_per_cell_not_per_member(self):
        """Steady-state cells carry no membership: frame size is the header
        plus one fixed-size cell per group, however large the groups are."""
        one = BatchFrame(sender_node=0, dest_node=1, cells=(cell(group=1),))
        many = BatchFrame(
            sender_node=0, dest_node=1, cells=tuple(cell(group=g) for g in range(1, 9))
        )
        assert many.wire_bytes() - one.wire_bytes() == 7 * AliveCell._BASE_BYTES

    def test_cell_grows_with_delta(self):
        empty = cell()
        with_delta = cell(delta=(member(1), member(2)))
        assert with_delta.payload_bytes() == empty.payload_bytes() + 2 * 16

    def test_steady_state_frame_beats_per_group_alives(self):
        """The scale-out's point: 64 groups in one frame cost far less than
        64 standalone packets (each of which would repay the 46-byte packet
        overhead and carry full membership)."""
        frame = BatchFrame(
            sender_node=0,
            dest_node=1,
            cells=tuple(cell(group=g) for g in range(64)),
        )
        per_group_layout = 64 * (
            WIRE_OVERHEAD_BYTES + AliveCell._BASE_BYTES + 12 * 16
        )
        assert frame.wire_bytes() < per_group_layout / 2

    def test_hello_size_components(self):
        base = HelloMessage(sender_node=0, dest_node=1).payload_bytes()
        with_members = HelloMessage(
            sender_node=0, dest_node=1, members=(member(1), member(2))
        ).payload_bytes()
        assert with_members == base + 2 * 16

    def test_hello_reply_extras_counted(self):
        plain = HelloMessage(sender_node=0, dest_node=1)
        reply = HelloMessage(
            sender_node=0,
            dest_node=1,
            kind="reply",
            leader_hint=AccEntry(3, 1.5, 0),
            acc_table=(AccEntry(3, 1.5, 0), AccEntry(4, 2.5, 1)),
            trusted=(3, 4, 5),
        )
        assert (
            reply.payload_bytes()
            == plain.payload_bytes() + 16 + 2 * 16 + 3 * 4
        )

    def test_accuse_fixed_size(self):
        msg = AccuseMessage(
            sender_node=0, dest_node=1, group=1, accuser=2, accused=3, accused_phase=4
        )
        assert msg.payload_bytes() == 24

    def test_rate_request_fixed_size(self):
        msg = RateRequestMessage(sender_node=0, dest_node=1, interval=0.25)
        assert msg.payload_bytes() == 12

    def test_hello_grows_per_lease_record(self):
        base = HelloMessage(sender_node=0, dest_node=1)
        lease = LeaseRecord(lease=7, holder=1000, token=1, expiry=10.0,
                            granted_at=5.0, released=False, seq=0)
        with_leases = HelloMessage(
            sender_node=0, dest_node=1, leases=(lease, lease), lease_digest=9
        )
        assert with_leases.payload_bytes() == base.payload_bytes() + 2 * 41

    def test_lease_request_fixed_size(self):
        msg = LeaseRequestMessage(
            sender_node=12, dest_node=0, group=1, op="acquire",
            lease=7, client=1000, ttl=3.0, nonce=1,
        )
        assert msg.payload_bytes() == 41

    def test_lease_reply_fixed_size(self):
        msg = LeaseReplyMessage(
            sender_node=0, dest_node=12, group=1, status="granted",
            lease=7, client=1000, token=42, holder=1000, expiry=10.0,
        )
        assert msg.payload_bytes() == 53

    def test_lease_event_fixed_size(self):
        msg = LeaseEventMessage(
            sender_node=0, dest_node=12, group=1, lease=7, client=1001,
            holder=1000, token=42, expiry=10.0, seq=3,
        )
        assert msg.payload_bytes() == 41


class TestGroupShares:
    def test_group_scoped_message_charges_its_group(self):
        msg = HelloMessage(sender_node=0, dest_node=1, group=7)
        assert msg.group_shares() == {7: msg.wire_bytes()}

    def test_rate_request_is_shared_fd_traffic(self):
        msg = RateRequestMessage(sender_node=0, dest_node=1)
        assert msg.group_shares() == {SHARED_USAGE_KEY: msg.wire_bytes()}

    def test_frame_shares_sum_to_wire_bytes(self):
        frame = BatchFrame(
            sender_node=0,
            dest_node=1,
            cells=(cell(group=1), cell(group=2, delta=(member(5),)), cell(group=3)),
        )
        shares = frame.group_shares()
        assert sum(shares.values()) == frame.wire_bytes()
        assert set(shares) <= {1, 2, 3, SHARED_USAGE_KEY}
        # The delta-carrying cell pays for its own extra bytes.
        assert shares[2] > shares[1] == shares[3]

    def test_cellless_frame_is_shared(self):
        frame = BatchFrame(sender_node=0, dest_node=1)
        assert frame.group_shares() == {SHARED_USAGE_KEY: frame.wire_bytes()}

    def test_wire_shares_memoized(self):
        frame = BatchFrame(sender_node=0, dest_node=1, cells=(cell(),))
        assert frame.wire_shares() is frame.wire_shares()


class TestMemberInfo:
    def test_frozen(self):
        record = member(1)
        with pytest.raises(AttributeError):
            record.pid = 2

    def test_equality_by_value(self):
        assert member(1) == member(1)
        assert member(1) != member(2)


class TestCopyInvalidatesMemos:
    """``copy.copy`` on a slots dataclass copies *every* slot — including
    the ``_wire``/``_shares`` memo fields.  ``Message.__copy__`` must reset
    them, or a clone mutated in place reports the original's wire size."""

    def test_copy_resets_wire_memo(self):
        import copy

        frame = BatchFrame(sender_node=0, dest_node=1, cells=(cell(),))
        original_bytes = frame.wire_bytes()  # primes the memo
        clone = copy.copy(frame)
        assert clone._wire is None
        assert clone._shares is None
        # The stale-memo bug: grow the clone's payload, then ask for its
        # size.  Before __copy__ this returned original_bytes.
        clone.cells = (cell(group=1), cell(group=2, delta=(member(7),)))
        assert clone.wire_bytes() > original_bytes
        assert frame.wire_bytes() == original_bytes

    def test_copy_resets_shares_memo(self):
        import copy

        frame = BatchFrame(sender_node=0, dest_node=1, cells=(cell(group=1),))
        frame.wire_shares()
        clone = copy.copy(frame)
        clone.cells = (cell(group=9),)
        assert 9 in clone.wire_shares()
        assert 9 not in frame.wire_shares()

    def test_copy_preserves_payload_fields(self):
        import copy

        frame = BatchFrame(
            sender_node=3, dest_node=4, seq=17, send_time=1.5,
            cells=(cell(group=2, delta=(member(5),)),),
        )
        clone = copy.copy(frame)
        assert clone == frame
        assert type(clone) is BatchFrame

    def test_replace_also_resets_memos(self):
        """dataclasses.replace re-runs __init__, so init=False memo fields
        come back at their defaults — the other copying idiom stays safe."""
        import dataclasses

        frame = BatchFrame(sender_node=0, dest_node=1, cells=(cell(),))
        frame.wire_bytes()
        clone = dataclasses.replace(frame, cells=())
        assert clone._wire is None
        assert clone.wire_bytes() < frame.wire_bytes()
