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

Every body opens with the routing pair (``sender_node``, ``dest_node``: two
i32).  The rest is stated once, in this module:

* :data:`_RECORDS` and :data:`_MESSAGES` — one row per record type and per
  message type but two: a struct format whose values are the dataclass's
  fields, in declaration order.  An enumerated field travels as its index
  in the row's value list, one byte; a trailing record list (a probe's
  ``updates``) as its count, the format's last value, then the records.
  One encoder and one decoder per row are built from it at import.
* the BatchFrame (with its cells) and HELLO bodies, written out by hand in
  ``_batch_into`` / ``_batch_from`` and ``_hello_into`` / ``_hello_from``:
  presence flags, the echo's flag bit and optional blocks make them more
  than a row.

Three rules govern every layout change (each also moves the version
byte), so no byte ever changes its meaning:

* a type tag is never reused (tag 1 was the retired per-group ALIVE);
* an enumeration is append-only: a value's byte never changes;
* an optional block costs only its presence byte (or the echo's flag bit)
  when absent.

Strings never appear on the wire.  Decoding is strict — unknown magic,
version, type tags, enum values, out-of-range counts, truncated bodies and
trailing bytes all raise :class:`CodecError` — because a UDP socket is an
open port: a stray or malicious datagram must never crash the daemon (the
transport catches :class:`CodecError` and drops the frame) nor smuggle
malformed state into the election.  Decoded messages hold only scalars and
fresh tuples, never a view of the input, so a receive scratch buffer can be
reused for the next datagram at once.
"""

from __future__ import annotations

import struct
from itertools import repeat, starmap
from operator import attrgetter
from typing import NamedTuple, Optional, Tuple

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
_VERSION = 9

#: Upper bound on a frame we are willing to decode (or encode).  Generous —
#: a 64-cell batch with 4096-member deltas would not fit a datagram anyway —
#: while still rejecting nonsense length prefixes before any allocation.
MAX_FRAME_BYTES = 1 << 20

#: First-guess buffer of :func:`encode_message`: protocol frames are a few
#: hundred bytes, and zero-filling a full-size buffer per call would cost
#: more than the encode itself.
_TYPICAL_FRAME_BYTES = 4096

_HEADER = struct.Struct("!IHBB")  # length, magic, version, type tag
_ROUTING = struct.Struct("!ii")  # sender_node, dest_node
_HEAD_SIZE = _HEADER.size + _ROUTING.size

_HELLO_KINDS = ("gossip", "join", "reply", "sync")
_SWIM_STATES = ("alive", "suspect", "confirm")
_LEASE_OPS = ("acquire", "renew", "release", "query", "transfer", "watch", "unwatch")
_LEASE_STATUSES = ("granted", "denied", "redirect", "throttled", "info")


class CodecError(ValueError):
    """Raised for any frame this codec refuses to encode or decode."""


class _Layout(NamedTuple):
    """One fixed wire layout: ``fmt`` packs ``fields`` in this order."""

    cls: type
    fmt: str
    fields: Tuple[str, ...]
    #: (field, its values): the field travels as the value's index.
    enum: Optional[Tuple[str, Tuple[str, ...]]] = None
    #: The record type of the last field, a tuple; ``fmt``'s last value is
    #: its count and the records follow the body.
    records: Optional[type] = None


_RECORDS = (
    _Layout(MemberInfo, "!iiq??d",
            ("pid", "node", "incarnation", "candidate", "present", "joined_at")),
    _Layout(AccEntry, "!idi", ("pid", "acc_time", "phase")),
    _Layout(LeaseRecord, "!QiQdd?I",
            ("lease", "holder", "token", "expiry", "granted_at", "released", "seq")),
    _Layout(SwimUpdate, "!iIB", ("node", "incarnation", "state"),
            enum=("state", _SWIM_STATES)),
)

#: Keyed by type tag.
_MESSAGES = {
    3: _Layout(AccuseMessage, "!iiii", ("group", "accuser", "accused", "accused_phase")),
    4: _Layout(RateRequestMessage, "!d", ("interval",)),
    6: _Layout(LeaseRequestMessage, "!iBQiQdiI",
               ("group", "op", "lease", "client", "token", "ttl", "successor", "nonce"),
               enum=("op", _LEASE_OPS)),
    7: _Layout(LeaseReplyMessage, "!iBQiQiddiI",
               ("group", "status", "lease", "client", "token", "holder", "expiry",
                "retry_after", "leader_node", "nonce"),
               enum=("status", _LEASE_STATUSES)),
    8: _Layout(LeaseEventMessage, "!iQiiQd?I",
               ("group", "lease", "client", "holder", "token", "expiry", "released", "seq")),
    9: _Layout(SwimPingMessage, "!IidB", ("nonce", "origin", "send_time", "updates"),
               records=SwimUpdate),
    10: _Layout(SwimPingReqMessage, "!iIidB",
                ("target", "nonce", "origin", "send_time", "updates"), records=SwimUpdate),
    11: _Layout(SwimAckMessage, "!IIdB", ("nonce", "incarnation", "echo_send_time", "updates"),
                records=SwimUpdate),
}


# ----------------------------------------------------------------------
# Encoders and decoders built from the table
# ----------------------------------------------------------------------
def _name(names: Tuple[str, ...], code: int, label: str) -> str:
    if code >= len(names):
        raise CodecError(f"unknown {label} tag {code}")
    return names[code]


def _accessors(layout: _Layout):
    """``get(obj)``: the row's values to pack, the enumerated field as its
    code; ``named(values)``: unpacked values with the code as its value
    again (None when the row has no enumerated field)."""
    get = attrgetter(*layout.fields)
    if len(layout.fields) == 1:
        get = lambda obj, one=get: (one(obj),)  # noqa: E731
    if layout.enum is None:
        return get, None
    label, names = layout.enum
    at = layout.fields.index(label)
    codes = {value: code for code, value in enumerate(names)}

    def coded(obj) -> list:
        values = list(get(obj))
        code = codes.get(values[at])
        if code is None:
            raise CodecError(f"unknown {label} {values[at]!r}")
        values[at] = code
        return values

    def named(values: tuple) -> list:
        values = list(values)
        values[at] = _name(names, values[at], label)
        return values

    return coded, named


def _list_codec(layout: _Layout):
    """``into(records, buf, pos) -> end`` and ``from_(data, pos, count) ->
    (records, end)`` for a run of one record type."""
    body = struct.Struct(layout.fmt)
    pack, unpack, size = body.pack_into, body.unpack_from, body.size
    (get, named), cls = _accessors(layout), layout.cls

    def into(records, buf, pos: int) -> int:
        for record in records:
            pack(buf, pos, *get(record))
            pos += size
        return pos

    def from_(data, pos: int, count: int):
        end = pos + count * size
        rows = map(unpack, repeat(data, count), range(pos, end, size))
        return tuple(starmap(cls, rows if named is None else map(named, rows))), end

    return into, from_


_LISTS = {layout.cls: _list_codec(layout) for layout in _RECORDS}
_members_into, _members_from = _LISTS[MemberInfo]
_acc_into, _acc_from = _LISTS[AccEntry]
_leases_into, _leases_from = _LISTS[LeaseRecord]
_swim_into, _swim_from = _LISTS[SwimUpdate]


def _message_codec(layout: _Layout):
    """``into(message, buf, pos) -> end`` and ``from_(data, pos, sender,
    dest) -> (message, end)`` for one message row's body."""
    body = struct.Struct(layout.fmt)
    pack, unpack, size = body.pack_into, body.unpack_from, body.size
    (get, named), cls = _accessors(layout), layout.cls
    many_into, many_from = _LISTS.get(layout.records, (None, None))

    def into(message: Message, buf, pos: int) -> int:
        values = get(message)
        if many_into is None:
            pack(buf, pos, *values)
            return pos + size
        pack(buf, pos, *values[:-1], len(values[-1]))
        return many_into(values[-1], buf, pos + size)

    def from_(data, pos: int, sender: int, dest: int):
        values = unpack(data, pos)
        if named is not None:
            values = named(values)
        if many_from is None:
            return cls(sender, dest, *values), pos + size
        records, end = many_from(data, pos + size, values[-1])
        return cls(sender, dest, *values[:-1], records), end

    return into, from_


# ----------------------------------------------------------------------
# The two bodies with optional blocks
# ----------------------------------------------------------------------
_FLAG = struct.Struct("!?")  # presence of an optional block
_U8 = struct.Struct("!B")  # the SWIM piggyback block's record count
_BATCH_HEAD = struct.Struct("!qddH")  # seq, send_time, interval, n_cells
_BATCH_ACKED = struct.Struct("!qddHq")  # ... n_cells | _HAS_ACK, ack
_HAS_ACK = 0x8000
# Independent presence flags: a leader forward may carry no accusation time
# (Ω_lc treats leader-without-acc differently from acc 0.0), so None must
# survive the round trip rather than collapse to 0.0.
_CELL_HEAD = struct.Struct("!iidi??idIQH")  # group, pid, acc_time, phase,
#   has_leader, has_acc, leader, leader_acc, view_version, view_digest, n_delta
_SEGMENT = struct.Struct("!?IIQH")  # has_segment, base, top, digest, n_records
_HELLO_HEAD = struct.Struct("!iBHHH?IQ")  # group, kind, n_members, n_acc,
#   n_trusted, has_leader_hint, view_version, view_digest
_HELLO_LEASES = struct.Struct("!HQ")  # n_leases, lease_digest
_LEASE_VERSION = struct.Struct("!?I")  # has_lease_version, lease_version
_HELLO_CODES = {kind: code for code, kind in enumerate(_HELLO_KINDS)}


def _check_view(version: int, digest: int) -> None:
    # The struct would refuse these too, but a refusal should name them.
    if not 0 <= version < 1 << 32:
        raise CodecError(f"view version {version} out of u32 range")
    if not 0 <= digest < 1 << 64:
        raise CodecError(f"view digest {digest} out of u64 range")


def _swim_block_into(updates, buf, pos: int) -> int:
    _U8.pack_into(buf, pos, len(updates))
    return _swim_into(updates, buf, pos + 1)


def _swim_block_from(data, pos: int):
    return _swim_from(data, pos + 1, _U8.unpack_from(data, pos)[0])


def _cell_into(cell: AliveCell, buf, pos: int) -> int:
    leader, acc, delta = cell.local_leader, cell.local_leader_acc, cell.delta
    _check_view(cell.view_version, cell.view_digest)
    _CELL_HEAD.pack_into(
        buf, pos, cell.group, cell.pid, cell.acc_time, cell.phase,
        leader is not None, acc is not None,
        0 if leader is None else leader, 0.0 if acc is None else acc,
        cell.view_version, cell.view_digest, len(delta),
    )
    pos = _members_into(delta, buf, pos + _CELL_HEAD.size)
    segment = cell.leases
    if segment is None:
        _FLAG.pack_into(buf, pos, False)
        return pos + _FLAG.size
    records = segment.records
    _SEGMENT.pack_into(buf, pos, True, segment.base, segment.top, segment.digest, len(records))
    return _leases_into(records, buf, pos + _SEGMENT.size)


def _cell_from(data, pos: int):
    (group, pid, acc_time, phase, has_leader, has_acc, leader, acc, version,
     digest, n_delta) = _CELL_HEAD.unpack_from(data, pos)
    delta, pos = _members_from(data, pos + _CELL_HEAD.size, n_delta)
    segment = None
    if _FLAG.unpack_from(data, pos)[0]:
        _, base, top, ledger_digest, n_records = _SEGMENT.unpack_from(data, pos)
        records, pos = _leases_from(data, pos + _SEGMENT.size, n_records)
        segment = LedgerSegment(base, top, ledger_digest, records)
    else:
        pos += _FLAG.size
    cell = AliveCell(
        group, pid, acc_time, phase, leader if has_leader else None,
        acc if has_acc else None, delta, version, digest, segment,
    )
    return cell, pos


def _batch_into(message: BatchFrame, buf, pos: int) -> int:
    cells, ack = message.cells, message.ack
    if len(cells) >= _HAS_ACK:
        raise CodecError(f"too many cells to encode ({len(cells)})")
    if ack is None:
        _BATCH_HEAD.pack_into(
            buf, pos, message.seq, message.send_time, message.interval, len(cells)
        )
        pos += _BATCH_HEAD.size
    else:
        _BATCH_ACKED.pack_into(
            buf, pos, message.seq, message.send_time, message.interval,
            len(cells) | _HAS_ACK, ack,
        )
        pos += _BATCH_ACKED.size
    for cell in cells:
        pos = _cell_into(cell, buf, pos)
    return _swim_block_into(message.swim_updates, buf, pos)


def _batch_from(data, pos: int, sender: int, dest: int):
    seq, send_time, interval, count = _BATCH_HEAD.unpack_from(data, pos)
    ack = None
    if count & _HAS_ACK:
        ack = _BATCH_ACKED.unpack_from(data, pos)[4]
        pos += _BATCH_ACKED.size
        count ^= _HAS_ACK
    else:
        pos += _BATCH_HEAD.size
    cells = []
    for _ in range(count):
        cell, pos = _cell_from(data, pos)
        cells.append(cell)
    swim, pos = _swim_block_from(data, pos)
    return BatchFrame(sender, dest, seq, send_time, interval, tuple(cells), swim, ack), pos


def _hello_into(message: HelloMessage, buf, pos: int) -> int:
    kind = _HELLO_CODES.get(message.kind)
    if kind is None:
        raise CodecError(f"unknown HELLO kind {message.kind!r}")
    hint, trusted, leases = message.leader_hint, message.trusted, message.leases
    _check_view(message.view_version, message.view_digest)
    _HELLO_HEAD.pack_into(
        buf, pos, message.group, kind, len(message.members), len(message.acc_table),
        len(trusted), hint is not None, message.view_version, message.view_digest,
    )
    pos += _HELLO_HEAD.size
    if hint is not None:
        pos = _acc_into((hint,), buf, pos)
    pos = _members_into(message.members, buf, pos)
    pos = _acc_into(message.acc_table, buf, pos)
    struct.pack_into(f"!{len(trusted)}i", buf, pos, *trusted)
    pos += 4 * len(trusted)
    _HELLO_LEASES.pack_into(buf, pos, len(leases), message.lease_digest)
    pos = _leases_into(leases, buf, pos + _HELLO_LEASES.size)
    version = message.lease_version
    if version is None:
        _FLAG.pack_into(buf, pos, False)
        pos += _FLAG.size
    else:
        _LEASE_VERSION.pack_into(buf, pos, True, version)
        pos += _LEASE_VERSION.size
    return _swim_block_into(message.swim_updates, buf, pos)


def _hello_from(data, pos: int, sender: int, dest: int):
    (group, kind, n_members, n_acc, n_trusted, has_hint, view_version,
     view_digest) = _HELLO_HEAD.unpack_from(data, pos)
    kind = _name(_HELLO_KINDS, kind, "HELLO kind")
    pos += _HELLO_HEAD.size
    hint = None
    if has_hint:
        (hint,), pos = _acc_from(data, pos, 1)
    members, pos = _members_from(data, pos, n_members)
    acc_table, pos = _acc_from(data, pos, n_acc)
    trusted = struct.unpack_from(f"!{n_trusted}i", data, pos)
    n_leases, lease_digest = _HELLO_LEASES.unpack_from(data, pos + 4 * n_trusted)
    leases, pos = _leases_from(data, pos + 4 * n_trusted + _HELLO_LEASES.size, n_leases)
    lease_version = None
    if _FLAG.unpack_from(data, pos)[0]:
        lease_version = _LEASE_VERSION.unpack_from(data, pos)[1]
        pos += _LEASE_VERSION.size
    else:
        pos += _FLAG.size
    swim, pos = _swim_block_from(data, pos)
    hello = HelloMessage(
        sender, dest, group, kind, members, view_version, view_digest, hint,
        acc_table, trusted, leases, lease_digest, lease_version, swim,
    )
    return hello, pos


_CODECS = {tag: (layout.cls, *_message_codec(layout)) for tag, layout in _MESSAGES.items()}
_CODECS[2] = (HelloMessage, _hello_into, _hello_from)
_CODECS[5] = (BatchFrame, _batch_into, _batch_from)
_ENCODERS = {cls: (tag, into) for tag, (cls, into, _) in _CODECS.items()}
_DECODERS = {tag: from_ for tag, (_, _, from_) in _CODECS.items()}


# ----------------------------------------------------------------------
# The public calls
# ----------------------------------------------------------------------
def encode_message_into(message: Message, buf: bytearray) -> int:
    """Pack one frame into a caller-owned buffer; returns the frame length.

    The frame is ``buf[:returned_length]``; nothing is allocated — every
    field is ``pack_into``-ed straight into ``buf``, which the caller reuses
    across datagrams.  ``buf`` need only hold the frame (the transport
    passes one 64 KiB datagram's worth); a message that would overrun it,
    or :data:`MAX_FRAME_BYTES`, is refused with :class:`CodecError`, and
    bytes past the frame are never touched.
    """
    entry = _ENCODERS.get(type(message))
    if entry is None:
        raise CodecError(f"no wire encoding for {type(message).__name__}")
    tag, into = entry
    try:
        _ROUTING.pack_into(buf, _HEADER.size, message.sender_node, message.dest_node)
        end = into(message, buf, _HEAD_SIZE)
    except struct.error as exc:
        # A frame larger than ``buf``, or a field out of its format's range.
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


def decode_message(data) -> Message:
    """Parse exactly one frame; raises :class:`CodecError` on anything else.

    ``data`` may be any buffer object (``bytes``, ``bytearray``,
    ``memoryview``) — parsing is pure ``unpack_from`` cursor movement with
    no intermediate slices, so a receive scratch can be handed in directly.
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
    try:
        sender, dest = _ROUTING.unpack_from(data, _HEADER.size)
        message, end = decoder(data, _HEAD_SIZE, sender, dest)
    except struct.error as exc:
        raise CodecError(f"truncated frame: {exc}") from None
    if end != len(data):
        raise CodecError(f"trailing garbage: {len(data) - end} bytes after body")
    return message
