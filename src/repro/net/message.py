"""Service message types and the wire-size model.

The paper's daemon exchanges three kinds of messages (its Figure 2): ALIVE
(failure detection + election state), HELLO (group maintenance), and the
accusations used by the Ω_lc/Ω_l algorithms.  We add a small RATE-REQUEST
control message with which a monitoring node asks a monitored node for a
heartbeat rate: the Chen et al. configurator runs at the *receiver*, but
the *sender* must apply the resulting period η, so some feedback channel is
implied by the architecture and we make it explicit.

Since the multi-group scale-out, heartbeats are **multiplexed per node
pair**: one :class:`BatchFrame` per destination node carries the node-level
failure-detection header (sequence number, send time, period) plus one
:class:`AliveCell` per hosted group that is currently emitting.  The shared
FD plane (one monitor per node pair, see :mod:`repro.fd.plane`) consumes the
header; each group's election consumes its cell.  Membership is no longer
piggybacked in full: gossip HELLOs carry **version-stamped deltas**, cells
and HELLOs a 64-bit order-independent digest of the sender's full view, and
a view exchange (HELLO kind ``"sync"``) happens only on a lasting digest
mismatch (anti-entropy).

Bandwidth in the paper is measured on the wire, so each message declares its
payload size and :data:`WIRE_OVERHEAD_BYTES` (Ethernet 18 + IPv4 20 + UDP 8)
is added per packet.  With batching and deltas, steady-state heartbeat bytes
grow O(node pairs) + O(groups) per frame instead of
O(groups × node pairs × members) — the scaling the many-groups benchmark
cell pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.metrics.usage import SHARED_USAGE_KEY

__all__ = [
    "WIRE_OVERHEAD_BYTES",
    "SHARED_USAGE_KEY",
    "MemberInfo",
    "AccEntry",
    "LeaseRecord",
    "LedgerSegment",
    "SwimUpdate",
    "swim_update_wins",
    "Message",
    "AliveCell",
    "BatchFrame",
    "HelloMessage",
    "AccuseMessage",
    "RateRequestMessage",
    "LeaseRequestMessage",
    "LeaseReplyMessage",
    "LeaseEventMessage",
    "SwimPingMessage",
    "SwimPingReqMessage",
    "SwimAckMessage",
]

#: Per-packet overhead: Ethernet header+FCS (18) + IPv4 (20) + UDP (8).
WIRE_OVERHEAD_BYTES = 46

#: Serialized size of one membership entry (delta or full-view record):
#: pid (4) + node (4) + incarnation (4) + flags (1) + padding/seq (3).
_MEMBER_ENTRY_BYTES = 16

#: Serialized size of one accusation-table entry: pid (4) + acc time (8) +
#: phase (4).
_ACC_ENTRY_BYTES = 16

#: Serialized size of one lease-ledger record: lease id (8) + holder (4) +
#: token (8) + expiry (8) + granted_at (8) + released (1) + seq (4).
_LEASE_ENTRY_BYTES = 41

#: Serialized size of one piggybacked SWIM membership update: node (4) +
#: incarnation (4) + state (1) + padding (3).
_SWIM_UPDATE_BYTES = 12


@dataclass(frozen=True, slots=True)
class MemberInfo:
    """A compact membership record gossiped on HELLO messages and cells.

    ``incarnation`` increases each time the member's workstation reboots or
    the process re-joins, so records merge with last-writer-wins semantics
    (see :mod:`repro.core.group`).  ``present`` is False for a tombstone —
    the member left the group voluntarily.
    """

    pid: int
    node: int
    incarnation: int
    candidate: bool
    present: bool
    joined_at: float
    #: Memoized record digest (:class:`~repro.core.table.RecordTable`); None
    #: until first computed (every replica merging this object shares it).
    _digest: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class AccEntry:
    """One (pid, accusation time, phase) triple, used to seed joiners."""

    pid: int
    acc_time: float
    phase: int


@dataclass(frozen=True, slots=True)
class LeaseRecord:
    """One lease-ledger entry, gossiped exactly like membership records.

    ``lease`` is the 64-bit hash of the lease name (strings never travel
    on the wire), ``holder`` the client id the lease was last granted to,
    ``token`` the fencing token of that grant.  Records merge by a total
    order — higher ``token`` wins; within one token a higher ``seq``
    (renew/release bumps) wins, and a release beats the grant it refers
    to — so replicas converge regardless of message ordering, duplication
    or loss (see :class:`repro.lease.ledger.LeaseLedger`).
    """

    lease: int
    holder: int
    token: int
    expiry: float
    granted_at: float
    released: bool
    seq: int
    #: Memoized record digest, as :class:`MemberInfo`'s.
    _digest: Optional[int] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class LedgerSegment:
    """The lease ledger riding a tenure-active leader's cell to one follower.

    ``records`` are the leader's own changes with versions in (``base``,
    ``top``]: ``base`` is what it had shipped that follower, ``top`` where
    these records bring it (see :meth:`repro.core.table.RecordTable.
    delta_window`), ``digest`` the leader's whole-ledger digest.  With no
    records it is the ledger's anti-entropy heartbeat (``base == top``).
    """

    base: int
    top: int
    digest: int
    records: Tuple[LeaseRecord, ...] = ()

    #: base (4) + top (4) + digest (8) + record count (2).
    _BASE_BYTES = 18

    def payload_bytes(self) -> int:
        return self._BASE_BYTES + _LEASE_ENTRY_BYTES * len(self.records)


@dataclass(frozen=True, slots=True)
class SwimUpdate:
    """One SWIM membership update, piggybacked on whatever travels anyway.

    ``state`` is ``"alive"``, ``"suspect"`` or ``"confirm"``.  Updates about
    the same node merge by incarnation-first precedence: a higher
    ``incarnation`` always wins; within one incarnation ``confirm`` beats
    ``suspect`` beats ``alive`` (the SWIM paper's override rules), which is
    what lets a suspected-but-alive node refute a suspicion by bumping its
    own incarnation number.
    """

    node: int
    incarnation: int
    state: str


#: ``state`` precedence within one incarnation (higher wins).
_SWIM_STATE_RANK = {"alive": 0, "suspect": 1, "confirm": 2}


def swim_update_wins(new: SwimUpdate, old: SwimUpdate) -> bool:
    """True if ``new`` overrides ``old`` under SWIM's precedence rules."""
    if new.incarnation != old.incarnation:
        return new.incarnation > old.incarnation
    return _SWIM_STATE_RANK[new.state] > _SWIM_STATE_RANK[old.state]


@dataclass(slots=True)
class Message:
    """Base class for all inter-node service messages.

    Messages are slotted (no per-instance ``__dict__`` — the simulator
    allocates hundreds of thousands per run) and cache their wire size:
    the send path consults :meth:`wire_bytes` three times per delivered
    message (sender meter, link byte counter, receiver meter), so the size
    is computed once and memoized.  Size-relevant fields must therefore not
    be mutated after a message has been offered to a transport — in the
    protocol they never are (cells and tables are stamped *before* sending).
    """

    sender_node: int
    dest_node: int
    #: Memoized wire_bytes() result; None until first computed.
    _wire: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def payload_bytes(self) -> int:
        """Serialized payload size in bytes (excluding packet overhead)."""
        raise NotImplementedError

    def wire_bytes(self) -> int:
        """Total on-wire size of the packet carrying this message."""
        wire = self._wire
        if wire is None:
            wire = self._wire = WIRE_OVERHEAD_BYTES + self.payload_bytes()
        return wire

    def wire_shares(self) -> Dict[int, int]:
        """Per-group attribution of this packet's wire bytes.

        Returns ``{group_or_SHARED_USAGE_KEY: bytes}`` summing exactly to
        :meth:`wire_bytes`.  Group-scoped messages charge their group in
        full; multiplexed frames split the shared envelope across the
        groups riding in them (the FD plane's cost amortized); purely
        node-level control traffic lands on :data:`SHARED_USAGE_KEY`.
        """
        group = getattr(self, "group", None)
        if group is None:
            return {SHARED_USAGE_KEY: self.wire_bytes()}
        return {group: self.wire_bytes()}

    def __copy__(self) -> "Message":
        """Shallow copy with the size memo reset.

        ``dataclasses.replace`` re-runs ``__init__`` and therefore starts
        the clone unmemoized, but a plain ``copy.copy`` duplicates every
        slot — including ``_wire``.  A caller copies precisely
        to mutate (rewrite cells, redirect routing), and a carried-over
        memo would then feed a stale size to the codec and both usage
        meters.  The clone always starts unmemoized instead.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        for spec in fields(cls):
            setattr(clone, spec.name, getattr(self, spec.name))
        clone._wire = None
        return clone


@dataclass(slots=True)
class AliveCell:
    """One group's election payload inside a :class:`BatchFrame`.

    Election fields carried for the sender's group:

    * ``acc_time``/``phase`` — the sender's accusation time and phase;
    * ``local_leader``/``local_leader_acc`` — the sender's *local* leader and
      that leader's accusation time (Ω_lc's forwarding stage; Ω_id/Ω_l leave
      them None);
    * ``delta`` — the sender's own membership record on first contact
      (it introduces itself), else empty;
    * ``view_version``/``view_digest`` — the sender's full-view version and
      64-bit order-independent digest; a receiver whose merged view hashes
      differently for a hello period triggers a HELLO sync (anti-entropy);
    * ``leases`` — only on a tenure-active leader's cells, while its lease
      ledger is non-empty: the :class:`LedgerSegment` this destination is
      owed (the lease tier's replication carrier; absent, it costs nothing).

    Cells are not messages: they have no routing and no packet overhead of
    their own.  The node-level FD fields (seq, send_time, interval) live on
    the enclosing frame, once per node pair.
    """

    group: int
    pid: int
    acc_time: float = 0.0
    phase: int = 0
    local_leader: Optional[int] = None
    local_leader_acc: Optional[float] = None
    delta: Tuple[MemberInfo, ...] = ()
    view_version: int = 0
    view_digest: int = 0
    leases: Optional[LedgerSegment] = None

    #: group (4) + pid (4) + acc_time (8) + phase (4) + local leader
    #: flag+pid+acc (13) + view_version (4) + view_digest (8) + delta
    #: count (1).
    _BASE_BYTES = 46

    def payload_bytes(self) -> int:
        size = self._BASE_BYTES + _MEMBER_ENTRY_BYTES * len(self.delta)
        return size if self.leases is None else size + self.leases.payload_bytes()


@dataclass(slots=True)
class BatchFrame(Message):
    """The node-pair heartbeat envelope: one FD header, many group cells.

    FD fields (consumed by the shared node-level plane): per-node-pair
    sequence number ``seq``, the sender's timestamp ``send_time`` (NFD-S
    freshness points are computed from the *sender's* schedule) and the
    sender's current period ``interval`` toward this destination.  The
    sequence pauses — never skips — while the sender has no cells for this
    destination, so voluntary silence is not scored as message loss.

    ``ack`` echoes the newest ``seq`` of the destination's stream to the
    sender whose cells were ingested since the last echo, acknowledging them
    (see :mod:`repro.core.cells`); None costs no bytes.
    """

    seq: int = 0
    send_time: float = 0.0
    interval: float = 0.25
    cells: Tuple[AliveCell, ...] = ()
    #: SWIM piggyback block (swim plane only; always empty under the
    #: all-pairs plane, where it costs zero wire bytes).
    swim_updates: Tuple[SwimUpdate, ...] = ()
    ack: Optional[int] = None

    #: seq (4) + send_time (8) + interval (8) + cell count (2); the echo (8).
    _BASE_BYTES = 22
    _ACK_BYTES = 8
    #: wire_bytes() of a frame with no cells, rumours or echo.
    HEADER_WIRE_BYTES = WIRE_OVERHEAD_BYTES + _BASE_BYTES

    def payload_bytes(self) -> int:
        size = self._BASE_BYTES
        if self.ack is not None:
            size += self._ACK_BYTES
        if self.swim_updates:
            # Count byte + entries; absent entirely when empty so the
            # default plane's wire model is byte-identical to codec v5.
            size += 1 + _SWIM_UPDATE_BYTES * len(self.swim_updates)
        cells = self.cells
        if not cells:
            # Steady-state frames are mostly cell-less (pure FD-plane
            # traffic); skip the generator for the common case.
            return size
        return size + sum(cell.payload_bytes() for cell in cells)

    def wire_shares(self) -> Dict[int, int]:
        """Cells charge their group; the shared envelope is split evenly.

        The frame header + packet overhead is the amortized cost of the
        shared FD plane: it is divided across the riding groups (integer
        split, remainder to the shared bucket so shares always sum to
        ``wire_bytes``).  A cell-less frame is pure FD-plane traffic.
        """
        cells = self.cells
        total = self.wire_bytes()
        if not cells:
            return {SHARED_USAGE_KEY: total}
        shares: Dict[int, int] = {}
        cell_bytes = 0
        for cell in cells:
            size = cell.payload_bytes()
            cell_bytes += size
            shares[cell.group] = shares.get(cell.group, 0) + size
        envelope = total - cell_bytes
        per_group = envelope // len(shares)
        for group in shares:
            shares[group] += per_group
        remainder = envelope - per_group * len(shares)
        if remainder:
            shares[SHARED_USAGE_KEY] = remainder
        return shares


@dataclass(slots=True)
class HelloMessage(Message):
    """Group-maintenance gossip: the sender's view of a group's membership.

    ``kind`` distinguishes periodic anti-entropy (``"gossip"``, carrying a
    membership *delta* since the last send to this destination), the
    announcement a joiner sends its bootstrap peers, at most 16 id-ring
    successors (``"join"``, full view), the unicast answer members send back
    (``"reply"``, full view) and the digest-mismatch repair (``"sync"``, a
    window of the view).  Every kind carries the sender's view
    ``view_version`` and ``view_digest`` so the receiver can detect
    divergence after merging.

    Replies additionally seed the joiner's election state: ``leader_hint``
    carries the responder's current leader, ``acc_table`` the accusation
    times it knows, and ``trusted`` the set of processes the responder's
    failure detector currently trusts.  A (re)joining process grants an
    optimistic detection-budget of trust only to processes in ``trusted`` —
    never to arbitrary membership records, or it would forward long-dead
    processes as leaders — and thereby adopts the established leader within
    one round trip instead of electing itself (the paper's service keeps
    recovering processes from disrupting the group, §1).

    The lease ledger's regular carrier is the leader's cells (see
    :class:`LedgerSegment`); HELLOs carry only its repairs.  ``leases`` is the
    sender's full ledger on a ledger ``"sync"`` or on the tenure-active
    leader's ``"reply"`` (every other reply carries none), ``lease_digest``
    the 64-bit digest of its full ledger, which a ledger sync's receiver
    checks.  ``lease_version`` is absent but on two shapes: a leader's reply
    or sync with records names the ledger version they bring the receiver to,
    and a follower's ``"gossip"`` HELLO naming the version it has applied
    from its leader is a NACK — a segment overran it.
    """

    group: int = 0
    kind: str = "gossip"
    members: Tuple[MemberInfo, ...] = ()
    view_version: int = 0
    view_digest: int = 0
    leader_hint: Optional[AccEntry] = None
    acc_table: Tuple[AccEntry, ...] = ()
    trusted: Tuple[int, ...] = ()
    leases: Tuple[LeaseRecord, ...] = ()
    lease_digest: int = 0
    lease_version: Optional[int] = None
    #: SWIM piggyback block (swim plane only; zero cost when empty).
    swim_updates: Tuple[SwimUpdate, ...] = ()

    #: group (4) + kind (1) + member count (2) + acc count (2) + hint flag
    #: (1) + trusted count (2) + view_version (4) + view_digest (8) +
    #: lease count (2) + lease_digest (8).
    _BASE_BYTES = 34

    def payload_bytes(self) -> int:
        size = self._BASE_BYTES + _MEMBER_ENTRY_BYTES * len(self.members)
        size += _ACC_ENTRY_BYTES * len(self.acc_table)
        size += 4 * len(self.trusted)
        if self.leader_hint is not None:
            size += _ACC_ENTRY_BYTES
        size += _LEASE_ENTRY_BYTES * len(self.leases)
        if self.lease_version is not None:
            size += 4
        if self.swim_updates:
            size += 1 + _SWIM_UPDATE_BYTES * len(self.swim_updates)
        return size


@dataclass(slots=True)
class AccuseMessage(Message):
    """An accusation: the sender suspects ``accused`` in ``group``.

    ``accused_phase`` is the phase in which the accuser last saw the accused
    competing; the accused ignores accusations for stale phases.  This is the
    mechanism with which Ω_l protects voluntarily-withdrawn processes from
    spurious accusation-time bumps (paper §6.4: "the algorithm includes a
    mechanism to ensure that such false suspicions do not increase p's
    accusation time").
    """

    group: int = 0
    accuser: int = 0
    accused: int = 0
    accused_phase: int = 0

    #: group (4) + accuser (4) + accused (4) + phase (4) + echo (8).
    _PAYLOAD_BYTES = 24

    def payload_bytes(self) -> int:
        return self._PAYLOAD_BYTES


@dataclass(slots=True)
class RateRequestMessage(Message):
    """Feedback from the FD plane: "send me frames every ``interval`` s".

    Node-level since the shared FD plane: the receiver-side configurator
    runs once per node pair, so the renegotiated rate applies to the whole
    heartbeat stream between two nodes, not to one group's slice of it.
    Sent only when the configurator output changes materially, so its
    bandwidth contribution is negligible.
    """

    interval: float = 0.25

    #: interval (8) + padding (4).
    _PAYLOAD_BYTES = 12

    def payload_bytes(self) -> int:
        return self._PAYLOAD_BYTES


@dataclass(slots=True)
class LeaseRequestMessage(Message):
    """A client's lease operation, addressed to the group's leader node.

    ``op`` is one of ``"acquire"``, ``"renew"``, ``"release"``, ``"query"``,
    ``"transfer"``, ``"watch"`` or ``"unwatch"``; ``lease``
    the 64-bit name hash (:func:`repro.lease.ledger.lease_id`); ``client``
    the requesting client's id (client ids share no namespace with process
    ids — live clients use synthetic node ids).  ``token`` carries the
    client's current fencing token on renew/release/transfer (0 otherwise),
    ``ttl`` the requested validity in seconds, ``successor`` the client id
    a transfer hands the lease to (-1 for every other op), and ``nonce``
    matches the reply to the request across retries.
    """

    group: int = 0
    op: str = "acquire"
    lease: int = 0
    client: int = 0
    token: int = 0
    ttl: float = 0.0
    successor: int = -1
    nonce: int = 0

    #: group (4) + op (1) + lease (8) + client (4) + token (8) + ttl (8) +
    #: successor (4) + nonce (4).
    _PAYLOAD_BYTES = 41

    def payload_bytes(self) -> int:
        return self._PAYLOAD_BYTES


@dataclass(slots=True)
class LeaseReplyMessage(Message):
    """The leader's answer to a :class:`LeaseRequestMessage`.

    ``status`` is ``"granted"``, ``"denied"``, ``"redirect"``,
    ``"throttled"`` or ``"info"`` (the answer to a query).  On a grant,
    ``token`` is the fencing token and ``expiry`` the leader-clock time at
    which the lease lapses.  On a deny or throttle, ``retry_after`` hints
    when retrying might succeed.  On a redirect, ``leader_node`` names the
    node the sender believes hosts the leader (-1 when it knows none).
    ``holder`` reports the current holder for queries and denials.
    """

    group: int = 0
    status: str = "denied"
    lease: int = 0
    client: int = 0
    token: int = 0
    holder: int = -1
    expiry: float = 0.0
    retry_after: float = 0.0
    leader_node: int = -1
    nonce: int = 0

    #: group (4) + status (1) + lease (8) + client (4) + token (8) +
    #: holder (4) + expiry (8) + retry_after (8) + leader_node (4) +
    #: nonce (4).
    _PAYLOAD_BYTES = 53

    def payload_bytes(self) -> int:
        return self._PAYLOAD_BYTES


@dataclass(slots=True)
class LeaseEventMessage(Message):
    """A push notification the leader sends to a registered watcher.

    Emitted whenever the watched lease's ledger record changes (grant,
    renew, release, transfer — whether through a client request handled
    locally or a record merged from gossip).  ``client`` addresses the
    watching client; the remaining fields mirror the lease's current
    :class:`LeaseRecord` so the watcher needs no follow-up query.  Events
    are fire-and-forget: watchers dedupe on (holder, token) and fall back
    to polling the leader if events stop arriving before expiry.
    """

    group: int = 0
    lease: int = 0
    client: int = 0
    holder: int = -1
    token: int = 0
    expiry: float = 0.0
    released: bool = False
    seq: int = 0

    #: group (4) + lease (8) + client (4) + holder (4) + token (8) +
    #: expiry (8) + released (1) + seq (4).
    _PAYLOAD_BYTES = 41

    def payload_bytes(self) -> int:
        return self._PAYLOAD_BYTES


class _Probing:
    """A probe message's size: its updates, and its cell echo (8) if any."""

    __slots__ = ()

    def payload_bytes(self) -> int:
        size = self._BASE_BYTES + _SWIM_UPDATE_BYTES * len(self.updates)
        return size if getattr(self, "ack", None) is None else size + BatchFrame._ACK_BYTES


@dataclass(slots=True)
class SwimPingMessage(_Probing, Message):
    """A SWIM direct probe (also sent by a relay on behalf of ``origin``).

    ``origin`` is the node whose probe round this ping serves: for a direct
    probe it equals the sender; for a relayed probe (the ping-req escalation
    path) it names the original prober, and the target acks *directly* to
    ``origin`` so one relay hop suffices in each direction.  ``nonce``
    matches acks to outstanding probes across loss and reordering;
    ``send_time`` is echoed back for RTT estimation; ``ack`` is a cell echo
    (see :class:`BatchFrame`).  Node-level traffic — no group routing; its
    :meth:`wire_shares` go to :data:`SHARED_USAGE_KEY`, like a bare frame's.
    """

    nonce: int = 0
    origin: int = 0
    send_time: float = 0.0
    updates: Tuple[SwimUpdate, ...] = ()
    ack: Optional[int] = None

    #: nonce (4) + origin (4) + send_time (8) + update count (1).
    _BASE_BYTES = 17


@dataclass(slots=True)
class SwimPingReqMessage(_Probing, Message):
    """The indirect-probe request: "ping ``target`` for me" (SWIM §4.1).

    Sent to ``j`` relays when a direct probe's ack window lapses; each relay
    answers by sending a :class:`SwimPingMessage` to ``target`` with
    ``origin`` set to the requester, so a live target refutes the pending
    suspicion through any one surviving relay path.
    """

    target: int = 0
    nonce: int = 0
    origin: int = 0
    send_time: float = 0.0
    updates: Tuple[SwimUpdate, ...] = ()

    #: target (4) + nonce (4) + origin (4) + send_time (8) + count (1).
    _BASE_BYTES = 21


@dataclass(slots=True)
class SwimAckMessage(_Probing, Message):
    """The probe answer, sent straight to the probe's ``origin``.

    ``incarnation`` is the responder's current incarnation number — fresh
    first-hand evidence that overrides any in-flight suspicion of the
    responder; ``echo_send_time`` returns the probe's timestamp for the
    origin's RTT estimator.  ``ack`` is a cell echo, as on a ping.
    """

    nonce: int = 0
    incarnation: int = 0
    echo_send_time: float = 0.0
    updates: Tuple[SwimUpdate, ...] = ()
    ack: Optional[int] = None

    #: nonce (4) + incarnation (4) + echo_send_time (8) + count (1).
    _BASE_BYTES = 17
