"""Hypothesis fuzzing of the wire codec.

Two properties an open UDP port lives or dies by:

* **decode never crashes** — arbitrary bytes (including mutated valid
  frames, the adversarial middle ground) either parse into a Message or
  raise CodecError; no other exception may escape, because the transport
  only catches CodecError before the datagram reaches the daemon;
* **encode → decode is the identity** for every well-formed message the
  service can produce.

The deterministic, example-based counterparts of these tests live in
tests/runtime/test_codec.py; Hypothesis explores the input space those
examples cannot enumerate.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import (
    AccEntry,
    AccuseMessage,
    AliveCell,
    BatchFrame,
    HelloMessage,
    LeaseRecord,
    LeaseReplyMessage,
    LeaseRequestMessage,
    LedgerSegment,
    MemberInfo,
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

I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Finite doubles round-trip exactly through IEEE-754 (NaN breaks equality).
F64 = st.floats(allow_nan=False, allow_infinity=False, width=64)

members = st.builds(
    MemberInfo,
    pid=I32,
    node=I32,
    incarnation=I64,
    candidate=st.booleans(),
    present=st.booleans(),
    joined_at=F64,
)

acc_entries = st.builds(AccEntry, pid=I32, acc_time=F64, phase=I32)

U32 = st.integers(min_value=0, max_value=2**32 - 1)
U64 = st.integers(min_value=0, max_value=2**64 - 1)

lease_records = st.builds(
    LeaseRecord,
    lease=U64,
    holder=I32,
    token=U64,
    expiry=F64,
    granted_at=F64,
    released=st.booleans(),
    seq=U32,
)

segments = st.builds(
    LedgerSegment,
    base=U32,
    top=U32,
    digest=U64,
    records=st.lists(lease_records, max_size=4).map(tuple),
)

cells = st.builds(
    AliveCell,
    group=I32,
    pid=I32,
    acc_time=F64,
    phase=I32,
    local_leader=st.none() | I32,
    local_leader_acc=st.none() | F64,
    delta=st.lists(members, max_size=8).map(tuple),
    view_version=U32,
    view_digest=U64,
    leases=st.none() | segments,
)

swim_updates = st.builds(
    SwimUpdate,
    node=I32,
    incarnation=U32,
    state=st.sampled_from(("alive", "suspect", "confirm")),
)

batch_frames = st.builds(
    BatchFrame,
    sender_node=I32,
    dest_node=I32,
    seq=I64,
    send_time=F64,
    interval=F64,
    cells=st.lists(cells, max_size=6).map(tuple),
    swim_updates=st.lists(swim_updates, max_size=8).map(tuple),
)

hello_messages = st.builds(
    HelloMessage,
    sender_node=I32,
    dest_node=I32,
    group=I32,
    kind=st.sampled_from(("gossip", "join", "reply", "sync")),
    members=st.lists(members, max_size=8).map(tuple),
    view_version=U32,
    view_digest=U64,
    leader_hint=st.none() | acc_entries,
    acc_table=st.lists(acc_entries, max_size=8).map(tuple),
    trusted=st.lists(I32, max_size=8).map(tuple),
    leases=st.lists(lease_records, max_size=8).map(tuple),
    lease_digest=U64,
    lease_version=st.none() | U32,
)

accuse_messages = st.builds(
    AccuseMessage,
    sender_node=I32,
    dest_node=I32,
    group=I32,
    accuser=I32,
    accused=I32,
    accused_phase=I32,
)

rate_messages = st.builds(
    RateRequestMessage,
    sender_node=I32,
    dest_node=I32,
    interval=F64,
)

lease_requests = st.builds(
    LeaseRequestMessage,
    sender_node=I32,
    dest_node=I32,
    group=I32,
    op=st.sampled_from(("acquire", "renew", "release", "query")),
    lease=U64,
    client=I32,
    token=U64,
    ttl=F64,
    nonce=U32,
)

lease_replies = st.builds(
    LeaseReplyMessage,
    sender_node=I32,
    dest_node=I32,
    group=I32,
    status=st.sampled_from(("granted", "denied", "redirect", "throttled", "info")),
    lease=U64,
    client=I32,
    token=U64,
    holder=I32,
    expiry=F64,
    retry_after=F64,
    leader_node=I32,
    nonce=U32,
)

swim_pings = st.builds(
    SwimPingMessage,
    sender_node=I32,
    dest_node=I32,
    nonce=U32,
    origin=I32,
    send_time=F64,
    updates=st.lists(swim_updates, max_size=8).map(tuple),
    ack=st.none() | I64,
)

swim_ping_reqs = st.builds(
    SwimPingReqMessage,
    sender_node=I32,
    dest_node=I32,
    target=I32,
    nonce=U32,
    origin=I32,
    send_time=F64,
    updates=st.lists(swim_updates, max_size=8).map(tuple),
)

swim_acks = st.builds(
    SwimAckMessage,
    sender_node=I32,
    dest_node=I32,
    nonce=U32,
    incarnation=U32,
    echo_send_time=F64,
    updates=st.lists(swim_updates, max_size=8).map(tuple),
    ack=st.none() | I64,
)

any_message = st.one_of(
    batch_frames, hello_messages, accuse_messages, rate_messages,
    lease_requests, lease_replies, swim_pings, swim_ping_reqs, swim_acks,
)


class TestDecodeNeverCrashes:
    @given(data=st.binary(max_size=512))
    @settings(max_examples=300)
    def test_random_bytes(self, data):
        try:
            decode_message(data)
        except CodecError:
            pass  # the only permitted failure mode

    @given(message=any_message, data=st.data())
    @settings(max_examples=150)
    def test_mutated_valid_frames(self, message, data):
        """Bit-flipped real frames are the adversarial middle ground:
        they pass the magic check far more often than random bytes."""
        frame = bytearray(encode_message(message))
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[index] ^= 1 << bit
        try:
            decode_message(bytes(frame))
        except CodecError:
            pass

    @given(message=any_message, cut=st.integers(min_value=0, max_value=64))
    @settings(max_examples=150)
    def test_truncated_valid_frames(self, message, cut):
        frame = encode_message(message)
        truncated = frame[: max(0, len(frame) - cut)]
        if truncated == frame:
            return
        try:
            decode_message(truncated)
        except CodecError:
            pass


class TestRoundTrip:
    @given(message=any_message)
    @settings(max_examples=300)
    def test_encode_decode_identity(self, message):
        assert decode_message(encode_message(message)) == message

    @given(message=any_message)
    @settings(max_examples=50)
    def test_frames_are_self_delimiting(self, message):
        frame = encode_message(message)
        (length,) = struct.unpack_from("!I", frame, 0)
        assert length + 4 == len(frame)


#: Deliberately shared across every example and every test below — the
#: live send path reuses one scratch buffer for the process lifetime, so
#: stale bytes from *previous* frames are always present past the end of
#: the current one.  Any aliasing or under-write bug shows up as
#: cross-example contamination.  It starts dirty for the same reason.
_SCRATCH = bytearray(b"\xa5" * MAX_FRAME_BYTES)


class TestZeroCopy:
    """A long-lived, dirty scratch must be invisible in what the codec does.

    ``encode_message_into`` writes into a caller-owned scratch buffer and
    ``decode_message`` accepts a memoryview of it without an intermediate
    ``bytes()`` copy — exactly what the UDP transport does per datagram.
    Three contracts:

    * the frame packed over stale bytes is byte-for-byte the one packed
      into the fresh zeroed buffer ``encode_message`` uses — every byte of
      a frame is written, none inherited (the layout itself is pinned by
      the golden frames in ``test_codec.py``);
    * decoding from the shared buffer and then clobbering it must not
      change the decoded message (no field may alias the buffer);
    * truncated / bit-flipped frames viewed from the shared buffer fail
      only with ``CodecError``, same as from ``bytes``.
    """

    @given(message=any_message)
    @settings(max_examples=200)
    def test_encode_into_matches_encode(self, message):
        end = encode_message_into(message, _SCRATCH)
        assert bytes(_SCRATCH[:end]) == encode_message(message)

    @given(message=any_message)
    @settings(max_examples=200)
    def test_decode_from_scratch_then_clobber(self, message):
        """Decoded messages hold only scalars/tuples — mutating the scratch
        after decode (as the next datagram's encode will) must not reach
        back into an already-decoded message."""
        end = encode_message_into(message, _SCRATCH)
        decoded = decode_message(memoryview(_SCRATCH)[:end])
        for index in range(end):
            _SCRATCH[index] ^= 0xFF
        try:
            assert decoded == message
        finally:
            for index in range(end):
                _SCRATCH[index] ^= 0xFF

    @given(message=any_message, data=st.data())
    @settings(max_examples=150)
    def test_bit_flipped_scratch_never_escapes_codec_error(self, message, data):
        end = encode_message_into(message, _SCRATCH)
        index = data.draw(st.integers(min_value=0, max_value=end - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        _SCRATCH[index] ^= 1 << bit
        try:
            decode_message(memoryview(_SCRATCH)[:end])
        except CodecError:
            pass
        finally:
            _SCRATCH[index] ^= 1 << bit

    @given(message=any_message, cut=st.integers(min_value=0, max_value=64))
    @settings(max_examples=150)
    def test_truncated_scratch_never_escapes_codec_error(self, message, cut):
        """A truncated datagram read into a reused buffer hands the decoder
        a prefix view whose underlying buffer still holds the rest of the
        frame (and older frames beyond it) — rejection must not peek past
        the view."""
        end = encode_message_into(message, _SCRATCH)
        keep = max(0, end - cut)
        if keep == end:
            return
        try:
            decode_message(memoryview(_SCRATCH)[:keep])
        except CodecError:
            pass

    @given(message=any_message)
    @settings(max_examples=100)
    def test_decode_tolerates_offset_views(self, message):
        """A caller may receive into any region of a larger buffer;
        decoding must work from there, not just offset zero."""
        offset = 7
        frame = encode_message(message)
        _SCRATCH[offset : offset + len(frame)] = frame
        view = memoryview(_SCRATCH)[offset : offset + len(frame)]
        assert decode_message(view) == message
