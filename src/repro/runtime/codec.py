"""Length-prefixed binary wire codec for the service message hierarchy.

The simulator never serializes: messages travel as Python objects and only
their *size* (:meth:`~repro.net.message.Message.payload_bytes`) is modelled.
The realtime engine sends real UDP datagrams, so this module defines the
actual bytes: one **frame** per message,

    ┌─────────────┬───────┬─────────┬──────┬────────────────┐
    │ length u32  │ magic │ version │ type │ body ...       │
    │ (rest of    │ u16   │ u8      │ u8   │ (type-specific)│
    │  the frame) │       │         │      │                │
    └─────────────┴───────┴─────────┴──────┴────────────────┘

All integers are big-endian (network byte order); times are IEEE-754
doubles.  The length prefix makes frames self-delimiting, so the same codec
works over stream transports (TCP) as well as datagrams, and lets the
decoder reject truncated input explicitly instead of mis-parsing it.

Codec version 2 (the multi-group scale-out): the per-group ALIVE message
(type tag 1, retired — tags are never reused) was replaced by the
:class:`~repro.net.message.BatchFrame` envelope (tag 5) carrying one
node-pair FD header plus per-group cells with membership *deltas* and a
64-bit view digest; HELLOs gained the ``"sync"`` kind and the view
version/digest pair; RATE-REQUESTs became node-level.

Codec version 3 (the lease tier): HELLOs additionally carry the sender's
lease-ledger digest and a lease-record delta (full ledger on sync/reply),
and two new message types serve lease clients — LEASE-REQUEST (tag 6) and
LEASE-REPLY (tag 7), whose ``op``/``status`` enumerations travel as single
bytes like the HELLO kind.

Codec version 4 (push watches and transfer): LEASE-REQUEST grew a
``successor`` field (the transfer target) and four appended ``op`` values
(``transfer``/``watch``/``unwatch``/``handoff`` — the enumeration is
append-only, so earlier byte values are unchanged); LEASE-REPLY grew a
``handoff`` field (pending-requester hint on renew replies); and a new
LEASE-EVENT message (tag 8) pushes ledger changes to registered watchers.

Codec version 5 (the zero-copy datapath): the wire *layout* is byte-for-byte
that of version 4 — only the version byte moved.  What changed is the
codec's API surface: :func:`encode_message_into` packs a frame directly
into a caller-owned reusable buffer, and :func:`decode_message` accepts
any buffer object (``bytes``, ``bytearray``, ``memoryview``) and parses it
in place with ``unpack_from`` — decoded messages hold only ints/floats/
bools/strings/tuples, never a view of the input, so a receive scratch
buffer can be reused for the next datagram immediately.  There is one
encoder per message type: :func:`encode_message` is ``bytes()`` of one
:func:`encode_message_into`.

Codec version 6 (the SWIM membership plane): three new node-level message
types carry the randomized probe protocol — SWIM-PING (tag 9), SWIM-PING-REQ
(tag 10) and SWIM-ACK (tag 11) — and BatchFrame and HELLO bodies grew an
appended *piggyback block* (one-byte count + fixed-size SWIM membership
updates) through which alive/suspect/confirm rumours ride the delta-gossip
traffic that flows anyway.  The block sits after each body's existing
fields, so v5 layouts are a strict prefix of v6.

Codec version 7 (the lease ledger rides the leader's frames): a cell ends
with a presence byte and, when set, a :class:`~repro.net.message.
LedgerSegment` (base and top versions, digest, record count, records); a
HELLO's lease block ends with a presence byte and, when set, the u32
``lease_version``.  Absent, each costs only its presence byte.

Codec version 8 (changes are acknowledged): a BatchFrame may carry an i64
echo (:attr:`~repro.net.message.BatchFrame.ack`) after its fixed header,
flagged by the top bit of the cell count: a frame without one is its v7 layout.

Strings never appear on the wire: enumerated fields
(:attr:`HelloMessage.kind`, the SWIM update state) travel as one byte.
Optional fields carry a one-byte presence flag.  Decoding is strict — unknown magic, version, type
tags, enum values, out-of-range counts, truncated bodies and trailing bytes
all raise :class:`CodecError` — because a UDP socket is an open port: a
stray or malicious datagram must never crash the daemon (the transport
catches :class:`CodecError` and drops the frame) nor smuggle malformed
state into the election.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Tuple, Type

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

__all__ = [
    "CodecError",
    "encode_message",
    "encode_message_into",
    "decode_message",
    "MAX_FRAME_BYTES",
]

_MAGIC = 0x03A9  # Ω, fittingly
_VERSION = 8

#: Upper bound on a frame we are willing to decode (or encode).  Generous —
#: a 64-cell batch with 4096-member deltas would not fit a datagram anyway —
#: while still rejecting nonsense length prefixes before any allocation.
MAX_FRAME_BYTES = 1 << 20

#: First-guess buffer of :func:`encode_message`: protocol frames are a few
#: hundred bytes, and zero-filling a full-size buffer per call would cost
#: more than the encode itself.
_TYPICAL_FRAME_BYTES = 4096

_HEADER = struct.Struct("!IHBB")  # length, magic, version, type tag

# Per-type tags (never reuse or renumber once released; tag 1 was the
# retired per-group ALIVE of codec version 1).
_TAG_HELLO = 2
_TAG_ACCUSE = 3
_TAG_RATE_REQUEST = 4
_TAG_BATCH = 5
_TAG_LEASE_REQUEST = 6
_TAG_LEASE_REPLY = 7
_TAG_LEASE_EVENT = 8
_TAG_SWIM_PING = 9
_TAG_SWIM_PING_REQ = 10
_TAG_SWIM_ACK = 11

_HELLO_KINDS = ("gossip", "join", "reply", "sync")
# Append-only (byte values are wire API, codec v6).
_SWIM_STATES = ("alive", "suspect", "confirm")
# Append-only (byte values are wire API; codec v4 appended the last four).
_LEASE_OPS = (
    "acquire",
    "renew",
    "release",
    "query",
    "transfer",
    "watch",
    "unwatch",
    "handoff",
)
_LEASE_STATUSES = ("granted", "denied", "redirect", "throttled", "info")

_ROUTING = struct.Struct("!ii")  # sender_node, dest_node
_MEMBER = struct.Struct("!iiq??d")  # pid, node, incarnation, cand, present, joined_at
_ACC_ENTRY = struct.Struct("!idi")  # pid, acc_time, phase
# Independent presence flags: a leader forward may carry no accusation time
# (Ω_lc treats leader-without-acc differently from acc 0.0), so None must
# survive the round trip rather than collapse to 0.0.
_OPT_PID_ACC = struct.Struct("!??id")  # has_leader, has_acc, leader, acc
_U16 = struct.Struct("!H")
_I32 = struct.Struct("!i")
_U32 = struct.Struct("!I")
_FLAG = struct.Struct("!?")  # presence of an optional field (codec v7)
_SEGMENT = struct.Struct("!IIQH")  # base, top, ledger digest, n_records (v7)
_BATCH_FIXED = struct.Struct("!qddH")  # seq, send_time, interval, n_cells
_I64 = struct.Struct("!q")  # the frame's echoed seq (v8)
_HAS_ACK = 0x8000  # top bit of n_cells: the echo follows the fixed header
_CELL_FIXED = struct.Struct("!iidi")  # group, pid, acc_time, phase
_CELL_VIEW = struct.Struct("!IQH")  # view_version, view_digest, n_delta
_HELLO_FIXED = struct.Struct("!iBHHH?IQ")  # group, kind, n_members, n_acc,
#                                            n_trusted, has_leader_hint,
#                                            view_version, view_digest
_HELLO_LEASES = struct.Struct("!HQ")  # n_leases, lease_digest (codec v3)
_LEASE_RECORD = struct.Struct("!QiQdd?I")  # lease, holder, token, expiry,
#                                            granted_at, released, seq
_LEASE_REQUEST_BODY = struct.Struct("!iBQiQdiI")  # group, op, lease, client,
#                                                   token, ttl, successor,
#                                                   nonce (codec v4)
_LEASE_REPLY_BODY = struct.Struct("!iBQiQiddiiI")  # group, status, lease,
#                                  client, token, holder, expiry,
#                                  retry_after, leader_node, handoff,
#                                  nonce (codec v4)
_LEASE_EVENT_BODY = struct.Struct("!iQiiQd?I")  # group, lease, client,
#                                  holder, token, expiry, released, seq
_ACCUSE_BODY = struct.Struct("!iiii")  # group, accuser, accused, accused_phase
_RATE_BODY = struct.Struct("!d")  # interval
_SWIM_COUNT = struct.Struct("!B")  # piggyback block: n_updates (codec v6)
_SWIM_UPDATE = struct.Struct("!iIB")  # node, incarnation, state
_SWIM_PING_BODY = struct.Struct("!IidB")  # nonce, origin, send_time, n_updates
_SWIM_PING_REQ_BODY = struct.Struct("!iIidB")  # target, nonce, origin,
#                                                send_time, n_updates
_SWIM_ACK_BODY = struct.Struct("!IIdB")  # nonce, incarnation, echo_send_time,
#                                          n_updates
_U8_MAX = 0xFF
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


class CodecError(ValueError):
    """Raised for any frame this codec refuses to encode or decode."""


class _Reader:
    """A bounds-checked cursor over one frame's body (any buffer object)."""

    __slots__ = ("data", "pos")

    def __init__(self, data, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def unpack(self, fmt: struct.Struct) -> tuple:
        end = self.pos + fmt.size
        if end > len(self.data):
            raise CodecError(
                f"truncated frame: need {end} bytes, have {len(self.data)}"
            )
        values = fmt.unpack_from(self.data, self.pos)
        self.pos = end
        return values

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CodecError(
                f"trailing garbage: {len(self.data) - self.pos} bytes after body"
            )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _check_count(label: str, n: int) -> int:
    if n > _U16_MAX:
        raise CodecError(f"too many {label} to encode ({n} > {_U16_MAX})")
    return n


def _check_view(version: int, digest: int) -> Tuple[int, int]:
    if not 0 <= version <= _U32_MAX:
        raise CodecError(f"view version {version} out of u32 range")
    if not 0 <= digest <= _U64_MAX:
        raise CodecError(f"view digest {digest} out of u64 range")
    return version, digest


def _check_u32(label: str, value: int) -> int:
    if not 0 <= value <= _U32_MAX:
        raise CodecError(f"{label} {value} out of u32 range")
    return value


def _check_u64(label: str, value: int) -> int:
    if not 0 <= value <= _U64_MAX:
        raise CodecError(f"{label} {value} out of u64 range")
    return value


def _check_swim_count(n: int) -> int:
    if n > _U8_MAX:
        raise CodecError(f"too many swim updates to encode ({n} > {_U8_MAX})")
    return n


def _swim_state_tag(state: str) -> int:
    try:
        return _SWIM_STATES.index(state)
    except ValueError:
        raise CodecError(f"unknown swim state {state!r}") from None


def _members_into(members: Tuple[MemberInfo, ...], buf, pos: int) -> int:
    pack = _MEMBER.pack_into
    size = _MEMBER.size
    for m in members:
        pack(buf, pos, m.pid, m.node, m.incarnation, m.candidate, m.present, m.joined_at)
        pos += size
    return pos


def _cell_into(cell: AliveCell, buf, pos: int) -> int:
    has_leader = cell.local_leader is not None
    has_acc = cell.local_leader_acc is not None
    version, digest = _check_view(cell.view_version, cell.view_digest)
    _CELL_FIXED.pack_into(buf, pos, cell.group, cell.pid, cell.acc_time, cell.phase)
    pos += _CELL_FIXED.size
    _OPT_PID_ACC.pack_into(
        buf,
        pos,
        has_leader,
        has_acc,
        cell.local_leader if has_leader else 0,
        cell.local_leader_acc if has_acc else 0.0,
    )
    pos += _OPT_PID_ACC.size
    _CELL_VIEW.pack_into(
        buf, pos, version, digest, _check_count("delta records", len(cell.delta))
    )
    pos = _members_into(cell.delta, buf, pos + _CELL_VIEW.size)
    segment = cell.leases
    _FLAG.pack_into(buf, pos, segment is not None)
    if segment is None:
        return pos + _FLAG.size
    _SEGMENT.pack_into(
        buf,
        pos + _FLAG.size,
        _check_u32("ledger base", segment.base),
        _check_u32("ledger top", segment.top),
        _check_u64("lease digest", segment.digest),
        _check_count("lease records", len(segment.records)),
    )
    return _lease_records_into(segment.records, buf, pos + _FLAG.size + _SEGMENT.size)


def _swim_records_into(updates: Tuple[SwimUpdate, ...], buf, pos: int) -> int:
    """The fixed-size update records alone; every caller writes the count."""
    pack = _SWIM_UPDATE.pack_into
    size = _SWIM_UPDATE.size
    for u in updates:
        pack(
            buf,
            pos,
            u.node,
            _check_u32("swim incarnation", u.incarnation),
            _swim_state_tag(u.state),
        )
        pos += size
    return pos


def _swim_updates_into(updates: Tuple[SwimUpdate, ...], buf, pos: int) -> int:
    """The piggyback block of BatchFrame/HELLO bodies: count byte + records."""
    _SWIM_COUNT.pack_into(buf, pos, _check_swim_count(len(updates)))
    return _swim_records_into(updates, buf, pos + _SWIM_COUNT.size)


def _batch_into(message: BatchFrame, buf, pos: int) -> int:
    n_cells, ack = _check_count("cells", len(message.cells)), message.ack
    if n_cells & _HAS_ACK:
        raise CodecError(f"too many cells to encode ({n_cells})")
    count = n_cells if ack is None else n_cells | _HAS_ACK
    _BATCH_FIXED.pack_into(buf, pos, message.seq, message.send_time, message.interval, count)
    pos += _BATCH_FIXED.size
    if ack is not None:
        _I64.pack_into(buf, pos, ack)
        pos += _I64.size
    for cell in message.cells:
        pos = _cell_into(cell, buf, pos)
    return _swim_updates_into(message.swim_updates, buf, pos)


def _acc_entries_into(entries, buf, pos: int) -> int:
    pack = _ACC_ENTRY.pack_into
    size = _ACC_ENTRY.size
    for entry in entries:
        pack(buf, pos, entry.pid, entry.acc_time, entry.phase)
        pos += size
    return pos


def _lease_records_into(records: Tuple[LeaseRecord, ...], buf, pos: int) -> int:
    pack = _LEASE_RECORD.pack_into
    size = _LEASE_RECORD.size
    for r in records:
        pack(
            buf,
            pos,
            _check_u64("lease id", r.lease),
            r.holder,
            _check_u64("lease token", r.token),
            r.expiry,
            r.granted_at,
            r.released,
            _check_u32("lease seq", r.seq),
        )
        pos += size
    return pos


def _hello_into(message: HelloMessage, buf, pos: int) -> int:
    try:
        kind = _HELLO_KINDS.index(message.kind)
    except ValueError:
        raise CodecError(f"unknown HELLO kind {message.kind!r}") from None
    hint = message.leader_hint
    version, digest = _check_view(message.view_version, message.view_digest)
    _HELLO_FIXED.pack_into(
        buf,
        pos,
        message.group,
        kind,
        _check_count("members", len(message.members)),
        _check_count("acc entries", len(message.acc_table)),
        _check_count("trusted pids", len(message.trusted)),
        hint is not None,
        version,
        digest,
    )
    pos += _HELLO_FIXED.size
    if hint is not None:
        _ACC_ENTRY.pack_into(buf, pos, hint.pid, hint.acc_time, hint.phase)
        pos += _ACC_ENTRY.size
    pos = _members_into(message.members, buf, pos)
    pos = _acc_entries_into(message.acc_table, buf, pos)
    pack_i32 = _I32.pack_into
    for pid in message.trusted:
        pack_i32(buf, pos, pid)
        pos += 4
    _HELLO_LEASES.pack_into(
        buf,
        pos,
        _check_count("lease records", len(message.leases)),
        _check_u64("lease digest", message.lease_digest),
    )
    pos = _lease_records_into(message.leases, buf, pos + _HELLO_LEASES.size)
    version = message.lease_version
    _FLAG.pack_into(buf, pos, version is not None)
    pos += _FLAG.size
    if version is not None:
        _U32.pack_into(buf, pos, _check_u32("lease version", version))
        pos += _U32.size
    return _swim_updates_into(message.swim_updates, buf, pos)


def _lease_request_into(message: LeaseRequestMessage, buf, pos: int) -> int:
    try:
        op = _LEASE_OPS.index(message.op)
    except ValueError:
        raise CodecError(f"unknown lease op {message.op!r}") from None
    _LEASE_REQUEST_BODY.pack_into(
        buf,
        pos,
        message.group,
        op,
        _check_u64("lease id", message.lease),
        message.client,
        _check_u64("lease token", message.token),
        message.ttl,
        message.successor,
        _check_u32("lease nonce", message.nonce),
    )
    return pos + _LEASE_REQUEST_BODY.size


def _lease_reply_into(message: LeaseReplyMessage, buf, pos: int) -> int:
    try:
        status = _LEASE_STATUSES.index(message.status)
    except ValueError:
        raise CodecError(f"unknown lease status {message.status!r}") from None
    _LEASE_REPLY_BODY.pack_into(
        buf,
        pos,
        message.group,
        status,
        _check_u64("lease id", message.lease),
        message.client,
        _check_u64("lease token", message.token),
        message.holder,
        message.expiry,
        message.retry_after,
        message.leader_node,
        message.handoff,
        _check_u32("lease nonce", message.nonce),
    )
    return pos + _LEASE_REPLY_BODY.size


def _lease_event_into(message: LeaseEventMessage, buf, pos: int) -> int:
    _LEASE_EVENT_BODY.pack_into(
        buf,
        pos,
        message.group,
        _check_u64("lease id", message.lease),
        message.client,
        message.holder,
        _check_u64("lease token", message.token),
        message.expiry,
        message.released,
        _check_u32("lease seq", message.seq),
    )
    return pos + _LEASE_EVENT_BODY.size


def _accuse_into(message: AccuseMessage, buf, pos: int) -> int:
    _ACCUSE_BODY.pack_into(
        buf, pos, message.group, message.accuser, message.accused, message.accused_phase
    )
    return pos + _ACCUSE_BODY.size


def _rate_request_into(message: RateRequestMessage, buf, pos: int) -> int:
    _RATE_BODY.pack_into(buf, pos, message.interval)
    return pos + _RATE_BODY.size


def _swim_ping_into(message: SwimPingMessage, buf, pos: int) -> int:
    _SWIM_PING_BODY.pack_into(
        buf,
        pos,
        _check_u32("swim nonce", message.nonce),
        message.origin,
        message.send_time,
        _check_swim_count(len(message.updates)),
    )
    # The probe bodies end with the count byte their update records follow.
    return _swim_records_into(message.updates, buf, pos + _SWIM_PING_BODY.size)


def _swim_ping_req_into(message: SwimPingReqMessage, buf, pos: int) -> int:
    _SWIM_PING_REQ_BODY.pack_into(
        buf,
        pos,
        message.target,
        _check_u32("swim nonce", message.nonce),
        message.origin,
        message.send_time,
        _check_swim_count(len(message.updates)),
    )
    return _swim_records_into(message.updates, buf, pos + _SWIM_PING_REQ_BODY.size)


def _swim_ack_into(message: SwimAckMessage, buf, pos: int) -> int:
    _SWIM_ACK_BODY.pack_into(
        buf,
        pos,
        _check_u32("swim nonce", message.nonce),
        _check_u32("swim incarnation", message.incarnation),
        message.echo_send_time,
        _check_swim_count(len(message.updates)),
    )
    return _swim_records_into(message.updates, buf, pos + _SWIM_ACK_BODY.size)


_ENCODERS_INTO: Dict[Type[Message], Tuple[int, Callable]] = {
    BatchFrame: (_TAG_BATCH, _batch_into),
    HelloMessage: (_TAG_HELLO, _hello_into),
    AccuseMessage: (_TAG_ACCUSE, _accuse_into),
    RateRequestMessage: (_TAG_RATE_REQUEST, _rate_request_into),
    LeaseRequestMessage: (_TAG_LEASE_REQUEST, _lease_request_into),
    LeaseReplyMessage: (_TAG_LEASE_REPLY, _lease_reply_into),
    LeaseEventMessage: (_TAG_LEASE_EVENT, _lease_event_into),
    SwimPingMessage: (_TAG_SWIM_PING, _swim_ping_into),
    SwimPingReqMessage: (_TAG_SWIM_PING_REQ, _swim_ping_req_into),
    SwimAckMessage: (_TAG_SWIM_ACK, _swim_ack_into),
}


def encode_message_into(message: Message, buf: bytearray) -> int:
    """Pack one frame into a caller-owned buffer; returns the frame length.

    The frame is ``buf[:returned_length]``; nothing is allocated — every
    field is ``pack_into``-ed straight into ``buf``, which the caller reuses
    across datagrams.  ``buf`` need only hold the frame (the transport
    passes one 64 KiB datagram's worth); a message that would overrun it,
    or :data:`MAX_FRAME_BYTES`, is refused with :class:`CodecError`, and
    bytes past the frame are never touched.
    """
    entry = _ENCODERS_INTO.get(type(message))
    if entry is None:
        raise CodecError(f"no wire encoding for {type(message).__name__}")
    tag, encoder = entry
    try:
        _ROUTING.pack_into(buf, _HEADER.size, message.sender_node, message.dest_node)
        end = encoder(message, buf, _HEADER.size + _ROUTING.size)
    except struct.error as exc:
        # Either a frame larger than ``buf`` or an out-of-range field
        # value; both are refusals.
        raise CodecError(f"frame too large or field out of range: {exc}") from None
    if end > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large ({end} bytes)")
    _HEADER.pack_into(buf, 0, end - 4, _MAGIC, _VERSION, tag)
    return end


def encode_message(message: Message) -> bytes:
    """Serialize ``message`` into one self-delimiting binary frame.

    ``bytes()`` of one :func:`encode_message_into` — a convenience for
    tests, tools and stream transports; the datagram path encodes straight
    into its own scratch and never comes through here.
    """
    buf = bytearray(_TYPICAL_FRAME_BYTES)
    try:
        end = encode_message_into(message, buf)
    except CodecError:
        # Bigger than the first guess — or a genuine refusal, which the
        # full-size retry raises again.
        buf = bytearray(MAX_FRAME_BYTES)
        end = encode_message_into(message, buf)
    return bytes(buf[:end])


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _decode_members(reader: _Reader, count: int) -> Tuple[MemberInfo, ...]:
    return tuple(
        MemberInfo(
            pid=pid,
            node=node,
            incarnation=incarnation,
            candidate=candidate,
            present=present,
            joined_at=joined_at,
        )
        for pid, node, incarnation, candidate, present, joined_at in (
            reader.unpack(_MEMBER) for _ in range(count)
        )
    )


def _decode_cell(reader: _Reader) -> AliveCell:
    group, pid, acc_time, phase = reader.unpack(_CELL_FIXED)
    has_leader, has_acc, leader, leader_acc = reader.unpack(_OPT_PID_ACC)
    view_version, view_digest, n_delta = reader.unpack(_CELL_VIEW)
    delta = _decode_members(reader, n_delta)
    segment = None
    if reader.unpack(_FLAG)[0]:
        base, top, digest, n_records = reader.unpack(_SEGMENT)
        segment = LedgerSegment(base, top, digest, _decode_lease_records(reader, n_records))
    return AliveCell(
        group=group,
        pid=pid,
        acc_time=acc_time,
        phase=phase,
        local_leader=leader if has_leader else None,
        local_leader_acc=leader_acc if has_acc else None,
        delta=delta,
        view_version=view_version,
        view_digest=view_digest,
        leases=segment,
    )


def _decode_swim_update(reader: _Reader) -> SwimUpdate:
    node, incarnation, state = reader.unpack(_SWIM_UPDATE)
    if state >= len(_SWIM_STATES):
        raise CodecError(f"unknown swim state tag {state}")
    return SwimUpdate(node=node, incarnation=incarnation, state=_SWIM_STATES[state])


def _decode_swim_block(reader: _Reader) -> Tuple[SwimUpdate, ...]:
    (count,) = reader.unpack(_SWIM_COUNT)
    return tuple(_decode_swim_update(reader) for _ in range(count))


def _decode_batch(reader: _Reader, sender: int, dest: int) -> BatchFrame:
    seq, send_time, interval, n_cells = reader.unpack(_BATCH_FIXED)
    ack = reader.unpack(_I64)[0] if n_cells & _HAS_ACK else None
    cells = tuple(_decode_cell(reader) for _ in range(n_cells & ~_HAS_ACK))
    swim_updates = _decode_swim_block(reader)
    return BatchFrame(
        sender_node=sender,
        dest_node=dest,
        seq=seq,
        send_time=send_time,
        interval=interval,
        cells=cells,
        swim_updates=swim_updates,
        ack=ack,
    )


def _decode_hello(reader: _Reader, sender: int, dest: int) -> HelloMessage:
    (
        group,
        kind,
        n_members,
        n_acc,
        n_trusted,
        has_hint,
        view_version,
        view_digest,
    ) = reader.unpack(_HELLO_FIXED)
    if kind >= len(_HELLO_KINDS):
        raise CodecError(f"unknown HELLO kind tag {kind}")
    hint: Optional[AccEntry] = None
    if has_hint:
        hint = AccEntry(*reader.unpack(_ACC_ENTRY))
    members = _decode_members(reader, n_members)
    acc_table = tuple(AccEntry(*reader.unpack(_ACC_ENTRY)) for _ in range(n_acc))
    trusted = tuple(reader.unpack(_I32)[0] for _ in range(n_trusted))
    n_leases, lease_digest = reader.unpack(_HELLO_LEASES)
    leases = _decode_lease_records(reader, n_leases)
    lease_version = reader.unpack(_U32)[0] if reader.unpack(_FLAG)[0] else None
    swim_updates = _decode_swim_block(reader)
    return HelloMessage(
        sender_node=sender,
        dest_node=dest,
        group=group,
        kind=_HELLO_KINDS[kind],
        members=members,
        view_version=view_version,
        view_digest=view_digest,
        leader_hint=hint,
        acc_table=acc_table,
        trusted=trusted,
        leases=leases,
        lease_digest=lease_digest,
        lease_version=lease_version,
        swim_updates=swim_updates,
    )


def _decode_lease_records(reader: _Reader, count: int) -> Tuple[LeaseRecord, ...]:
    return tuple(
        LeaseRecord(
            lease=lease,
            holder=holder,
            token=token,
            expiry=expiry,
            granted_at=granted_at,
            released=released,
            seq=seq,
        )
        for lease, holder, token, expiry, granted_at, released, seq in (
            reader.unpack(_LEASE_RECORD) for _ in range(count)
        )
    )


def _decode_lease_request(
    reader: _Reader, sender: int, dest: int
) -> LeaseRequestMessage:
    group, op, lease, client, token, ttl, successor, nonce = reader.unpack(
        _LEASE_REQUEST_BODY
    )
    if op >= len(_LEASE_OPS):
        raise CodecError(f"unknown lease op tag {op}")
    return LeaseRequestMessage(
        sender_node=sender,
        dest_node=dest,
        group=group,
        op=_LEASE_OPS[op],
        lease=lease,
        client=client,
        token=token,
        ttl=ttl,
        successor=successor,
        nonce=nonce,
    )


def _decode_lease_reply(reader: _Reader, sender: int, dest: int) -> LeaseReplyMessage:
    (
        group,
        status,
        lease,
        client,
        token,
        holder,
        expiry,
        retry_after,
        leader_node,
        handoff,
        nonce,
    ) = reader.unpack(_LEASE_REPLY_BODY)
    if status >= len(_LEASE_STATUSES):
        raise CodecError(f"unknown lease status tag {status}")
    return LeaseReplyMessage(
        sender_node=sender,
        dest_node=dest,
        group=group,
        status=_LEASE_STATUSES[status],
        lease=lease,
        client=client,
        token=token,
        holder=holder,
        expiry=expiry,
        retry_after=retry_after,
        leader_node=leader_node,
        handoff=handoff,
        nonce=nonce,
    )


def _decode_lease_event(reader: _Reader, sender: int, dest: int) -> LeaseEventMessage:
    (
        group,
        lease,
        client,
        holder,
        token,
        expiry,
        released,
        seq,
    ) = reader.unpack(_LEASE_EVENT_BODY)
    return LeaseEventMessage(
        sender_node=sender,
        dest_node=dest,
        group=group,
        lease=lease,
        client=client,
        holder=holder,
        token=token,
        expiry=expiry,
        released=released,
        seq=seq,
    )


def _decode_accuse(reader: _Reader, sender: int, dest: int) -> AccuseMessage:
    group, accuser, accused, accused_phase = reader.unpack(_ACCUSE_BODY)
    return AccuseMessage(
        sender_node=sender,
        dest_node=dest,
        group=group,
        accuser=accuser,
        accused=accused,
        accused_phase=accused_phase,
    )


def _decode_rate_request(reader: _Reader, sender: int, dest: int) -> RateRequestMessage:
    (interval,) = reader.unpack(_RATE_BODY)
    return RateRequestMessage(
        sender_node=sender,
        dest_node=dest,
        interval=interval,
    )


def _decode_swim_ping(reader: _Reader, sender: int, dest: int) -> SwimPingMessage:
    nonce, origin, send_time, n_updates = reader.unpack(_SWIM_PING_BODY)
    updates = tuple(_decode_swim_update(reader) for _ in range(n_updates))
    return SwimPingMessage(
        sender_node=sender,
        dest_node=dest,
        nonce=nonce,
        origin=origin,
        send_time=send_time,
        updates=updates,
    )


def _decode_swim_ping_req(
    reader: _Reader, sender: int, dest: int
) -> SwimPingReqMessage:
    target, nonce, origin, send_time, n_updates = reader.unpack(
        _SWIM_PING_REQ_BODY
    )
    updates = tuple(_decode_swim_update(reader) for _ in range(n_updates))
    return SwimPingReqMessage(
        sender_node=sender,
        dest_node=dest,
        target=target,
        nonce=nonce,
        origin=origin,
        send_time=send_time,
        updates=updates,
    )


def _decode_swim_ack(reader: _Reader, sender: int, dest: int) -> SwimAckMessage:
    nonce, incarnation, echo_send_time, n_updates = reader.unpack(_SWIM_ACK_BODY)
    updates = tuple(_decode_swim_update(reader) for _ in range(n_updates))
    return SwimAckMessage(
        sender_node=sender,
        dest_node=dest,
        nonce=nonce,
        incarnation=incarnation,
        echo_send_time=echo_send_time,
        updates=updates,
    )


_DECODERS: Dict[int, Callable[[_Reader, int, int], Message]] = {
    _TAG_BATCH: _decode_batch,
    _TAG_HELLO: _decode_hello,
    _TAG_ACCUSE: _decode_accuse,
    _TAG_RATE_REQUEST: _decode_rate_request,
    _TAG_LEASE_REQUEST: _decode_lease_request,
    _TAG_LEASE_REPLY: _decode_lease_reply,
    _TAG_LEASE_EVENT: _decode_lease_event,
    _TAG_SWIM_PING: _decode_swim_ping,
    _TAG_SWIM_PING_REQ: _decode_swim_ping_req,
    _TAG_SWIM_ACK: _decode_swim_ack,
}


def decode_message(data) -> Message:
    """Parse exactly one frame; raises :class:`CodecError` on anything else.

    ``data`` may be any buffer object (``bytes``, ``bytearray``,
    ``memoryview``) — parsing is pure ``unpack_from`` cursor movement with
    no intermediate slices, and the returned message holds only scalars and
    fresh tuples, never a view of ``data``, so a receive scratch can be
    handed in directly and reused for the next datagram.
    """
    if len(data) < _HEADER.size:
        raise CodecError(f"short frame: {len(data)} bytes, header needs {_HEADER.size}")
    length, magic, version, tag = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise CodecError(f"bad magic 0x{magic:04x}")
    if version != _VERSION:
        raise CodecError(f"unsupported codec version {version}")
    if length + 4 > MAX_FRAME_BYTES:
        raise CodecError(f"declared frame too large ({length + 4} bytes)")
    if length + 4 != len(data):
        raise CodecError(
            f"length prefix says {length + 4} bytes, datagram has {len(data)}"
        )
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown message type tag {tag}")
    reader = _Reader(data, _HEADER.size)
    sender, dest = reader.unpack(_ROUTING)
    message = decoder(reader, sender, dest)
    reader.done()
    return message
