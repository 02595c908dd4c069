"""Wire codec: round-trips for every message type, strict rejection."""

import struct
from dataclasses import fields

import pytest

from repro.net import message as message_module
from repro.net.message import (
    AccEntry,
    AccuseMessage,
    AliveCell,
    BatchFrame,
    HelloMessage,
    LeaseEventMessage,
    LeaseRecord,
    LeaseReplyMessage,
    LeaseRequestMessage,
    LedgerSegment,
    MemberInfo,
    Message,
    RateRequestMessage,
    SwimAckMessage,
    SwimPingMessage,
    SwimPingReqMessage,
    SwimUpdate,
)
from repro.runtime.codec import (
    MAX_FRAME_BYTES,
    CodecError,
    decode_message,
    encode_message,
    encode_message_into,
)
from repro.lease.server import LEDGER_SEGMENT_CAP
from repro.runtime import codec

MEMBERS = (
    MemberInfo(pid=1, node=4, incarnation=2_000_007, candidate=True,
               present=True, joined_at=12.625),
    MemberInfo(pid=9, node=0, incarnation=0, candidate=False,
               present=False, joined_at=0.0),
    MemberInfo(pid=2**31 - 1, node=-1, incarnation=2**62, candidate=True,
               present=True, joined_at=1.75e9),
)

ACC_TABLE = (
    AccEntry(pid=1, acc_time=0.0, phase=0),
    AccEntry(pid=7, acc_time=1.75e9, phase=2**31 - 1),
)

SWIM_UPDATES = (
    SwimUpdate(node=0, incarnation=0, state="alive"),
    SwimUpdate(node=2**31 - 1, incarnation=2**31 - 1, state="suspect"),
    SwimUpdate(node=7, incarnation=3, state="confirm"),
)

LEASES = (
    LeaseRecord(lease=2**64 - 1, holder=1000, token=(501 << 28) | (3 << 8) | 2,
                expiry=108.5, granted_at=100.5, released=False, seq=0),
    LeaseRecord(lease=0, holder=-1, token=0, expiry=0.0, granted_at=0.0,
                released=True, seq=2**32 - 1),
)

#: One representative per Message subclass, exercising every field shape:
#: optionals present and absent, empty and non-empty collections, extreme
#: integer values, every HELLO kind.
ROUND_TRIP_CASES = [
    BatchFrame(sender_node=0, dest_node=1),
    BatchFrame(sender_node=0, dest_node=1, seq=4, ack=3),  # codec v8: the echo
    BatchFrame(
        sender_node=3, dest_node=11, seq=2**40, send_time=1.75e9, interval=0.25,
        cells=(
            AliveCell(
                group=1, pid=5, acc_time=123.5, phase=7, local_leader=2,
                local_leader_acc=99.125, delta=MEMBERS,
                view_version=2**31, view_digest=2**63 + 17,
            ),
            AliveCell(group=2, pid=5),
        ),
    ),
    BatchFrame(  # leader present, acc absent: None must survive (Ω_lc
        sender_node=1, dest_node=2,
        cells=(AliveCell(group=1, pid=0, local_leader=4, local_leader_acc=None),),
    ),  # distinguishes a missing acc from acc 0.0
    HelloMessage(sender_node=0, dest_node=1),
    HelloMessage(sender_node=2, dest_node=3, group=9, kind="join", members=MEMBERS,
                 view_version=12, view_digest=2**64 - 1),
    HelloMessage(
        sender_node=4, dest_node=5, group=1, kind="reply", members=MEMBERS,
        leader_hint=AccEntry(pid=3, acc_time=55.5, phase=1),
        acc_table=ACC_TABLE, trusted=(0, 5, 2**31 - 1),
    ),
    HelloMessage(sender_node=6, dest_node=7, kind="gossip", trusted=(1,)),
    HelloMessage(sender_node=8, dest_node=9, group=2, kind="sync", members=MEMBERS,
                 view_version=3, view_digest=0xDEADBEEF),
    HelloMessage(  # codec v3: lease delta + ledger digest ride the HELLO
        sender_node=3, dest_node=6, group=1, kind="sync", leases=LEASES,
        lease_digest=2**64 - 1),
    HelloMessage(  # codec v7: a leader's sync states the version it brings
        sender_node=3, dest_node=6, group=1, kind="sync", leases=LEASES,
        lease_digest=7, lease_version=0),
    HelloMessage(sender_node=6, dest_node=3, group=1, lease_version=2**32 - 1),  # a NACK
    BatchFrame(  # codec v7: the ledger rides a leader's cells
        sender_node=0, dest_node=4,
        cells=(
            AliveCell(group=1, pid=0, leases=LedgerSegment(3, 9, 2**64 - 1, LEASES)),
            AliveCell(group=2, pid=0, delta=MEMBERS, leases=LedgerSegment(0, 0, 0)),
        ),
    ),
    AccuseMessage(sender_node=1, dest_node=2, group=3, accuser=4,
                  accused=5, accused_phase=6),
    RateRequestMessage(sender_node=9, dest_node=8, interval=0.0625),
    LeaseRequestMessage(sender_node=12, dest_node=0, group=1, op="acquire",
                        lease=2**64 - 1, client=1000, token=0, ttl=3.0,
                        nonce=2**32 - 1),
    LeaseRequestMessage(sender_node=12, dest_node=0, group=1, op="release",
                        lease=7, client=-1, token=(5 << 28) | 260, ttl=0.0),
    LeaseRequestMessage(sender_node=12, dest_node=0, group=1, op="transfer",
                        lease=7, client=1000, token=(5 << 28) | 260, ttl=2.0,
                        successor=1001, nonce=17),
    LeaseRequestMessage(sender_node=12, dest_node=0, group=1, op="watch",
                        lease=7, client=1001, nonce=18),
    LeaseRequestMessage(sender_node=12, dest_node=0, group=1, op="unwatch",
                        lease=7, client=1001),
    LeaseRequestMessage(sender_node=12, dest_node=0, group=1, op="renew",
                        lease=7, client=1000, token=(5 << 28) | 260, ttl=3.0,
                        nonce=19),
    LeaseReplyMessage(sender_node=0, dest_node=12, group=1, status="granted",
                      lease=7, client=1000, token=(5 << 28) | 260, holder=1000,
                      expiry=108.5, leader_node=0, nonce=9),
    LeaseReplyMessage(sender_node=0, dest_node=12, group=1, status="redirect",
                      lease=7, client=1000, holder=-1, retry_after=0.5,
                      leader_node=-1),
    LeaseReplyMessage(sender_node=0, dest_node=12, group=1, status="info",
                      lease=7, client=1001, token=(5 << 28) | 260, holder=1000,
                      expiry=108.5, leader_node=0, nonce=21),
    LeaseEventMessage(sender_node=0, dest_node=12, group=1, lease=2**64 - 1,
                      client=1001, holder=1000, token=(5 << 28) | 260,
                      expiry=108.5, released=False, seq=3),
    LeaseEventMessage(sender_node=0, dest_node=12, group=1, lease=0,
                      client=-1, holder=-1, token=0, expiry=0.0,
                      released=True, seq=2**32 - 1),
    BatchFrame(  # codec v6: SWIM rumours piggyback on heartbeat frames
        sender_node=2, dest_node=9, seq=17, send_time=33.25, interval=0.5,
        swim_updates=SWIM_UPDATES),
    SwimPingMessage(sender_node=0, dest_node=1),
    SwimPingMessage(sender_node=3, dest_node=7, nonce=2**32 - 1, origin=5,
                    send_time=1.75e9, updates=SWIM_UPDATES),
    SwimPingReqMessage(sender_node=4, dest_node=6, target=9, nonce=12,
                       origin=4, send_time=44.5, updates=SWIM_UPDATES),
    SwimPingReqMessage(sender_node=0, dest_node=1),
    SwimAckMessage(sender_node=9, dest_node=4, nonce=12, incarnation=2**31 - 1,
                   echo_send_time=44.5, updates=SWIM_UPDATES),
    SwimAckMessage(sender_node=0, dest_node=1),
]


#: Golden codec-v9 frames, one per wire tag (2-11) plus both shapes of every
#: optional: HELLO with and without ``leader_hint`` and ``lease_version``,
#: cells with and without ``local_leader``/``local_leader_acc`` and a ledger
#: segment, frames with and without an echo, non-empty members / accusation
#: table / trusted list / lease records / SWIM piggyback.  The v6 frames
#: were recorded from the list-building ``encode_message`` of the last
#: commit that carried two encoders; their v7 bytes are those with the
#: version byte moved and a zero presence byte inserted after each cell and
#: before each HELLO's piggyback block, and the three v7 shapes were packed
#: by hand from the layout in the codec's docstring; v8 moved the version
#: byte again, and the echo's shape was packed by hand; v9 moved it once more
#: and took the reply's 4-byte handoff field out.  So these bytes,
#: not a twin implementation, are what pins the layout.
GOLDEN_FRAMES = [
    (
        "hello-bare",
        HelloMessage(sender_node=0, dest_node=1),
        "0000003003a90902000000000000000100000000000000000000000000000000"
        "0000000000000000000000000000000000000000",
    ),
    (
        "hello-full",
        HelloMessage(
            sender_node=4, dest_node=5, group=1, kind="reply", members=MEMBERS,
            view_version=12, view_digest=2**64 - 1,
            leader_hint=AccEntry(pid=3, acc_time=55.5, phase=1),
            acc_table=ACC_TABLE, trusted=(0, 5, 2**31 - 1), leases=LEASES,
            lease_digest=0xDEADBEEF, swim_updates=SWIM_UPDATES,
        ),
        "0000012703a9090200000004000000050000000102000300020003010000000c"
        "ffffffffffffffff00000003404bc00000000000000000010000000100000004"
        "00000000001e8487010140294000000000000000000900000000000000000000"
        "0000000000000000000000007fffffffffffffff4000000000000000010141da"
        "13b860000000000000010000000000000000000000000000000741da13b86000"
        "00007fffffff00000000000000057fffffff000200000000deadbeefffffffff"
        "ffffffff000003e80000001f50000302405b2000000000004059200000000000"
        "00000000000000000000000000ffffffff000000000000000000000000000000"
        "00000000000000000001ffffffff00030000000000000000007fffffff7fffff"
        "ff01000000070000000302",
    ),
    (
        "hello-nack",
        HelloMessage(
            sender_node=5, dest_node=0, group=1, view_version=4, view_digest=77,
            lease_digest=0xDEADBEEF, lease_version=2**32 - 1,
        ),
        "0000003403a90902000000050000000000000001000000000000000000000004"
        "000000000000004d000000000000deadbeef01ffffffff00",
    ),
    (
        "hello-sync-stated",
        HelloMessage(
            sender_node=0, dest_node=5, group=1, kind="sync", leases=LEASES,
            lease_digest=2**64 - 1, lease_version=12,
        ),
        "0000008603a90902000000000000000500000001030000000000000000000000"
        "00000000000000000002ffffffffffffffffffffffffffffffff000003e80000"
        "001f50000302405b200000000000405920000000000000000000000000000000"
        "000000ffffffff00000000000000000000000000000000000000000000000001"
        "ffffffff010000000c00",
    ),
    (
        "accuse",
        AccuseMessage(
            sender_node=1, dest_node=2, group=3, accuser=4, accused=5,
            accused_phase=6,
        ),
        "0000001c03a90903000000010000000200000003000000040000000500000006",
    ),
    (
        "rate-request",
        RateRequestMessage(sender_node=9, dest_node=8, interval=0.0625),
        "0000001403a9090400000009000000083fb0000000000000",
    ),
    (
        "batch-cells",
        BatchFrame(
            sender_node=3, dest_node=11, seq=2**40, send_time=1.75e9, interval=0.25,
            cells=(
                AliveCell(
                    group=1, pid=5, acc_time=123.5, phase=7, local_leader=2,
                    local_leader_acc=99.125, delta=MEMBERS,
                    view_version=2**31, view_digest=2**63 + 17,
                ),
                AliveCell(group=2, pid=5),
                AliveCell(group=3, pid=0, local_leader=4, local_leader_acc=None),
            ),
            swim_updates=SWIM_UPDATES,
        ),
        "0000012303a90905000000030000000b000001000000000041da13b860000000"
        "3fd000000000000000030000000100000005405ee00000000000000000070101"
        "000000024058c800000000008000000080000000000000110003000000010000"
        "000400000000001e848701014029400000000000000000090000000000000000"
        "00000000000000000000000000007fffffffffffffff40000000000000000101"
        "41da13b860000000000000000200000005000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000030000"
        "0000000000000000000000000000010000000004000000000000000000000000"
        "0000000000000000000000030000000000000000007fffffff7fffffff010000"
        "00070000000302",
    ),
    (
        "batch-ledger",
        BatchFrame(
            sender_node=0, dest_node=4, seq=9, send_time=12.5, interval=0.2,
            cells=(
                AliveCell(group=1, pid=0, leases=LedgerSegment(5, 7, 2**64 - 1, LEASES)),
                AliveCell(group=2, pid=0, leases=LedgerSegment(7, 7, 0xDEADBEEF)),
            ),
        ),
        "000000ff03a90905000000000000000400000000000000094029000000000000"
        "3fc999999999999a000200000001000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000010000000500"
        "000007ffffffffffffffff0002ffffffffffffffff000003e80000001f500003"
        "02405b200000000000405920000000000000000000000000000000000000ffff"
        "ffff00000000000000000000000000000000000000000000000001ffffffff00"
        "0000020000000000000000000000000000000000000000000000000000000000"
        "00000000000000000000000000000001000000070000000700000000deadbeef"
        "000000",
    ),
    (
        "batch-ack",
        BatchFrame(sender_node=2, dest_node=7, seq=5, send_time=3.5, interval=0.25, ack=2**40 + 3),
        "0000002f03a909050000000200000007000000000000000540"
        "0c0000000000003fd00000000000008000000001000000000300",
    ),
    (
        "lease-request",
        LeaseRequestMessage(
            sender_node=12, dest_node=0, group=1, op="transfer", lease=7,
            client=1000, token=(5 << 28) | 260, ttl=2.0, successor=1001, nonce=17,
        ),
        "0000003503a909060000000c0000000000000001040000000000000007000003"
        "e800000000500001044000000000000000000003e900000011",
    ),
    (
        "lease-reply",
        LeaseReplyMessage(
            sender_node=0, dest_node=12, group=1, status="granted", lease=7,
            client=1000, token=(5 << 28) | 260, holder=1000, expiry=108.5,
            retry_after=0.5, leader_node=0, nonce=21,
        ),
        "0000004103a90907000000000000000c00000001000000000000000007000003"
        "e80000000050000104000003e8405b2000000000003fe0000000000000000000"
        "0000000015",
    ),
    (
        "lease-event",
        LeaseEventMessage(
            sender_node=0, dest_node=12, group=1, lease=2**64 - 1, client=1001,
            holder=1000, token=(5 << 28) | 260, expiry=108.5, released=False, seq=3,
        ),
        "0000003503a90908000000000000000c00000001ffffffffffffffff000003e9"
        "000003e80000000050000104405b2000000000000000000003",
    ),
    (
        "swim-ping",
        SwimPingMessage(
            sender_node=3, dest_node=7, nonce=2**32 - 1, origin=5,
            send_time=1.75e9, updates=SWIM_UPDATES,
        ),
        "0000003803a909090000000300000007ffffffff0000000541da13b860000000"
        "030000000000000000007fffffff7fffffff01000000070000000302",
    ),
    (
        "swim-ping-req",
        SwimPingReqMessage(
            sender_node=4, dest_node=6, target=9, nonce=12, origin=4,
            send_time=44.5, updates=SWIM_UPDATES,
        ),
        "0000003c03a9090a0000000400000006000000090000000c0000000440464000"
        "00000000030000000000000000007fffffff7fffffff01000000070000000302",
    ),
    (
        "swim-ack",
        SwimAckMessage(
            sender_node=9, dest_node=4, nonce=12, incarnation=2**31 - 1,
            echo_send_time=44.5, updates=SWIM_UPDATES,
        ),
        "0000003803a9090b00000009000000040000000c7fffffff4046400000000000"
        "030000000000000000007fffffff7fffffff01000000070000000302",
    ),
]


def _case_id(message: Message) -> str:
    return type(message).__name__


class TestRoundTrip:
    @pytest.mark.parametrize("message", ROUND_TRIP_CASES, ids=_case_id)
    def test_decode_inverts_encode(self, message):
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert type(decoded) is type(message)

    @pytest.mark.parametrize("message", ROUND_TRIP_CASES, ids=_case_id)
    def test_collections_decode_as_tuples(self, message):
        decoded = decode_message(encode_message(message))
        if isinstance(decoded, BatchFrame):
            assert isinstance(decoded.cells, tuple)
            for cell in decoded.cells:
                assert isinstance(cell, AliveCell)
                assert isinstance(cell.delta, tuple)
                if cell.leases is not None:
                    assert isinstance(cell.leases.records, tuple)
                for member in cell.delta:
                    assert isinstance(member, MemberInfo)
        if isinstance(decoded, HelloMessage):
            assert isinstance(decoded.members, tuple)
            for member in decoded.members:
                assert isinstance(member, MemberInfo)
        if isinstance(decoded, HelloMessage):
            assert isinstance(decoded.acc_table, tuple)
            assert isinstance(decoded.trusted, tuple)
            assert isinstance(decoded.leases, tuple)
            for lease in decoded.leases:
                assert isinstance(lease, LeaseRecord)

    def test_every_message_subclass_is_covered(self):
        covered = {type(m) for m in ROUND_TRIP_CASES}
        assert covered == {
            BatchFrame,
            HelloMessage,
            AccuseMessage,
            RateRequestMessage,
            LeaseRequestMessage,
            LeaseReplyMessage,
            LeaseEventMessage,
            SwimPingMessage,
            SwimPingReqMessage,
            SwimAckMessage,
        }

    def test_frames_are_deterministic(self):
        for message in ROUND_TRIP_CASES:
            assert encode_message(message) == encode_message(message)


def _init_fields(cls) -> tuple:
    return tuple(spec.name for spec in fields(cls) if spec.init)


class TestLayoutTable:
    """The codec's table states every field of its dataclasses, in declaration
    order (decoders construct positionally): a field added to a message
    without a wire slot fails here instead of decoding as its default."""

    def test_a_message_row_is_its_fields_after_the_routing_pair(self):
        for layout in codec._MESSAGES.values():
            names = _init_fields(layout.cls)
            assert names[:2] == ("sender_node", "dest_node")
            assert layout.fields == names[2:], layout.cls.__name__

    def test_a_record_row_is_all_its_fields(self):
        assert {layout.cls for layout in codec._RECORDS} == {
            MemberInfo, AccEntry, LeaseRecord, SwimUpdate,
        }
        for layout in codec._RECORDS:
            assert layout.fields == _init_fields(layout.cls), layout.cls.__name__

    def test_a_format_packs_one_value_per_field(self):
        for layout in (*codec._RECORDS, *codec._MESSAGES.values()):
            values = struct.unpack(layout.fmt, bytes(struct.calcsize(layout.fmt)))
            assert len(values) == len(layout.fields), layout.cls.__name__

    def test_every_message_type_has_exactly_one_encoding(self):
        message_types = {
            cls for cls in map(vars(message_module).get, message_module.__all__)
            if isinstance(cls, type) and issubclass(cls, Message) and cls is not Message
        }
        rows = [layout.cls for layout in codec._MESSAGES.values()]
        assert len(rows) == len(set(rows))
        # The two bodies with optional blocks are written out by hand.
        assert set(rows) | {BatchFrame, HelloMessage} == message_types
        assert not {BatchFrame, HelloMessage} & set(rows)
        assert set(codec._ENCODERS) == message_types


class TestGoldenFrames:
    """Byte-for-byte wire compatibility with the recorded v9 layout."""

    @pytest.mark.parametrize(
        "message, frame",
        [(m, bytes.fromhex(h)) for _, m, h in GOLDEN_FRAMES],
        ids=[name for name, _, _ in GOLDEN_FRAMES],
    )
    def test_encoders_and_decoder_agree_with_the_fixture(self, message, frame):
        assert encode_message(message) == frame
        # The transport's scratch is reused forever: stale bytes everywhere.
        scratch = bytearray(b"\xa5" * (len(frame) + 64))
        end = encode_message_into(message, scratch)
        assert bytes(scratch[:end]) == frame
        assert scratch[end:] == b"\xa5" * 64
        assert decode_message(frame) == message

    def test_every_tag_has_a_fixture(self):
        tags = sorted({bytes.fromhex(h)[7] for _, _, h in GOLDEN_FRAMES})
        assert tags == list(range(2, 12))
        assert all(bytes.fromhex(h)[6] == 9 for _, _, h in GOLDEN_FRAMES)


class TestRejection:
    @pytest.mark.parametrize("message", ROUND_TRIP_CASES, ids=_case_id)
    def test_truncation_anywhere_is_rejected(self, message):
        frame = encode_message(message)
        # Every proper prefix must fail loudly, never mis-parse.
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_message(frame[:cut])

    @pytest.mark.parametrize("message", ROUND_TRIP_CASES, ids=_case_id)
    def test_trailing_garbage_is_rejected(self, message):
        frame = encode_message(message)
        with pytest.raises(CodecError):
            decode_message(frame + b"\x00")

    @pytest.mark.parametrize(
        "garbage",
        [b"", b"\x00", b"hello world, this is not a frame", bytes(64), b"\xff" * 32],
        ids=["empty", "one-byte", "ascii", "zeros", "ones"],
    )
    def test_garbage_is_rejected(self, garbage):
        with pytest.raises(CodecError):
            decode_message(garbage)

    def test_bad_magic_is_rejected(self):
        frame = bytearray(encode_message(ROUND_TRIP_CASES[0]))
        frame[4] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            decode_message(bytes(frame))

    def test_future_version_is_rejected(self):
        frame = bytearray(encode_message(ROUND_TRIP_CASES[0]))
        frame[6] = 99
        with pytest.raises(CodecError, match="version"):
            decode_message(bytes(frame))

    def test_unknown_type_tag_is_rejected(self):
        frame = bytearray(encode_message(ROUND_TRIP_CASES[0]))
        frame[7] = 250
        with pytest.raises(CodecError, match="type tag"):
            decode_message(bytes(frame))

    def test_lying_length_prefix_is_rejected(self):
        frame = bytearray(encode_message(ROUND_TRIP_CASES[0]))
        struct.pack_into("!I", frame, 0, len(frame) + 10)
        with pytest.raises(CodecError, match="length prefix"):
            decode_message(bytes(frame))

    def test_absurd_length_prefix_is_rejected_before_parsing(self):
        frame = bytearray(encode_message(ROUND_TRIP_CASES[0]))
        struct.pack_into("!I", frame, 0, MAX_FRAME_BYTES + 1)
        with pytest.raises(CodecError, match="large"):
            decode_message(bytes(frame))

    def test_cell_count_beyond_body_is_rejected(self):
        # Declare 500 cells but carry none: the count field lies.
        message = BatchFrame(sender_node=0, dest_node=1)
        frame = bytearray(encode_message(message))
        struct.pack_into("!H", frame, len(frame) - 2, 500)
        with pytest.raises(CodecError, match="truncated"):
            decode_message(bytes(frame))

    def test_out_of_range_view_digest_is_rejected_on_encode(self):
        message = HelloMessage(sender_node=0, dest_node=1, view_digest=2**64)
        with pytest.raises(CodecError, match="digest"):
            encode_message(message)

    def test_unknown_hello_kind_is_rejected_on_encode(self):
        message = HelloMessage(sender_node=0, dest_node=1, kind="mystery")
        with pytest.raises(CodecError, match="kind"):
            encode_message(message)

    def test_unknown_lease_op_is_rejected_on_encode(self):
        message = LeaseRequestMessage(sender_node=0, dest_node=1, op="steal")
        with pytest.raises(CodecError, match="op"):
            encode_message(message)

    def test_unknown_lease_status_is_rejected_on_encode(self):
        message = LeaseReplyMessage(sender_node=0, dest_node=1, status="maybe")
        with pytest.raises(CodecError, match="status"):
            encode_message(message)

    @pytest.mark.parametrize(
        "message",
        [
            BatchFrame(sender_node=0, dest_node=1, cells=(AliveCell(group=1, pid=0),) * 0x8000),
            SwimPingMessage(sender_node=0, dest_node=1, updates=SWIM_UPDATES[:1] * 256),
            SwimAckMessage(sender_node=0, dest_node=1, nonce=-1),
            LeaseEventMessage(sender_node=0, dest_node=1, lease=2**64),
            LeaseRequestMessage(sender_node=0, dest_node=1, token=-1),
            HelloMessage(sender_node=0, dest_node=1,
                         leases=(LeaseRecord(1, 1, 1, 0.0, 0.0, False, 2**32),)),
            HelloMessage(sender_node=0, dest_node=1,
                         swim_updates=(SwimUpdate(node=1, incarnation=0, state="zombie"),)),
            BatchFrame(sender_node=0, dest_node=1, swim_updates=(
                SwimUpdate(node=1, incarnation=-1, state="alive"),)),
        ],
        ids=["cells", "swim-count", "nonce", "lease-id", "token", "record-seq",
             "swim-state", "swim-incarnation"],
    )
    def test_out_of_range_counts_and_fields_are_refused_on_encode(self, message):
        with pytest.raises(CodecError):
            encode_message(message)

    def test_unregistered_message_type_is_rejected_on_encode(self):
        class SecretMessage(Message):
            pass

        with pytest.raises(CodecError, match="no wire encoding"):
            encode_message(SecretMessage(sender_node=0, dest_node=1))


class TestSizeModel:
    def test_real_frames_stay_within_the_modelled_ballpark(self):
        """The analytic payload_bytes model should track real encodings.

        The model is what the simulator charges bandwidth for; the codec is
        what actually hits the wire.  They need not match exactly (the model
        predates the codec), but a gross divergence would invalidate the
        paper's Figure 6 bandwidth comparisons.
        """
        for message in ROUND_TRIP_CASES:
            real = len(encode_message(message))
            modelled = message.payload_bytes() + 8  # frame header
            assert real <= 2 * modelled + 32
            assert modelled <= 2 * real + 32


def _overhead(message) -> int:
    """Codec bytes the size model does not charge (frame header aside)."""
    return len(encode_message(message)) - message.payload_bytes()


def _record(lease: int) -> LeaseRecord:
    return LeaseRecord(lease=lease, holder=1, token=lease, expiry=1.0, granted_at=0.0,
                       released=False, seq=0)


class TestLedgerFieldsModelExactly:
    """The wire fields the ledger's frame carrier added are modelled at exactly
    the bytes the codec writes, and cost nothing when absent."""

    @pytest.mark.parametrize("n_records", [0, 1, LEDGER_SEGMENT_CAP])
    def test_a_segment_costs_what_it_encodes(self, n_records):
        segment = LedgerSegment(3, 9, 2**64 - 1, tuple(_record(i) for i in range(n_records)))
        for delta in ((), MEMBERS):
            bare = AliveCell(group=1, pid=5, local_leader=2, delta=delta)
            carrying = AliveCell(group=1, pid=5, local_leader=2, delta=delta, leases=segment)
            frames = [BatchFrame(sender_node=0, dest_node=1, cells=(cell,)) for cell in (bare, carrying)]
            assert _overhead(frames[1]) == _overhead(frames[0])
            assert carrying.payload_bytes() - bare.payload_bytes() == 18 + 41 * n_records

    def test_a_stated_version_costs_what_it_encodes(self):
        for kind, leases in (("gossip", ()), ("sync", LEASES), ("reply", LEASES)):
            bare = HelloMessage(sender_node=0, dest_node=1, kind=kind, leases=leases)
            stated = HelloMessage(sender_node=0, dest_node=1, kind=kind, leases=leases,
                                  lease_version=12)
            assert _overhead(stated) == _overhead(bare)
            assert stated.payload_bytes() - bare.payload_bytes() == 4

    def test_the_echo_costs_what_it_encodes(self):
        for cells in ((), (AliveCell(group=1, pid=5),)):
            bare = BatchFrame(sender_node=0, dest_node=1, seq=9, cells=cells)
            echoing = BatchFrame(sender_node=0, dest_node=1, seq=9, cells=cells, ack=8)
            assert _overhead(echoing) == _overhead(bare)
            assert echoing.payload_bytes() - bare.payload_bytes() == 8

    def test_absent_fields_leave_the_model_as_it_was(self):
        # The model's figures for lease-free traffic are pinned by every
        # lease-free wire_bytes pin: unchanged by the new fields' absence.
        assert AliveCell(group=1, pid=5).payload_bytes() == 46
        assert HelloMessage(sender_node=0, dest_node=1).payload_bytes() == 34

    def test_a_full_segment_fits_a_datagram_in_all_sixteen_groups(self):
        full = LedgerSegment(0, 64, 1, tuple(_record(i) for i in range(LEDGER_SEGMENT_CAP)))
        cells = tuple(
            AliveCell(group=g, pid=0, local_leader=1, local_leader_acc=2.0, leases=full)
            for g in range(16)
        )
        assert len(encode_message(BatchFrame(sender_node=0, dest_node=1, cells=cells))) <= 65_507
