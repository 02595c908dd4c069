"""The lease server of one group: the daemon-side half of the lease tier.

One :class:`LeaseServer` per hosted (group, local process) pair owns the
replicated ledger, the leader-side manager and everything that connects
them to the wire: the majority guard, request / reply / event routing, the
leader's watcher registry, and ledger replication.

Replication is hub and spoke and rides the frames the leader sends every
follower each η anyway: while its tenure is active and its ledger
non-empty, its cell to follower ``d`` carries a
:class:`~repro.net.message.LedgerSegment` — the records since ``d``'s
shipped cursor, the version they bring ``d`` to and the ledger digest (no
records on a refresh).  The follower keeps the version it has applied
contiguously from each leader's node; a segment starting past it is a gap,
answered by one small NACK HELLO per gap per hello period, which rewinds
the cursor so the next frame re-sends exactly what was missed.  The join
reply and the ledger sync state the version their records bring the
receiver to as well.  Both sides drop a peer's cursor and applied version
when it leaves the view, joins, or sends frames numbered afresh (its daemon
restarted).  What a cursor cannot see — records learned under another
leader, a healed partition, a leader whose ledger is empty — shows as
unequal digests after an in-order, gap-free segment, or as a segment-less
cell from the leader, and the full-ledger sync repairs it.

The server is fully passive (no timers, no RNG draws) until lease traffic
arrives, so groups without clients behave bit-identically to a lease-free
service.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.lease.ledger import LeaseLedger
from repro.lease.manager import LeaseManager
from repro.net.message import (
    HelloMessage,
    LeaseEventMessage,
    LeaseRecord,
    LeaseReplyMessage,
    LeaseRequestMessage,
    LedgerSegment,
)

__all__ = ["LEDGER_SEGMENT_CAP", "LeaseServer"]

#: Records per segment: 16 groups' cells of 64 records each still fit one
#: UDP datagram (65 507 B).  A backlog streams over consecutive frames.
LEDGER_SEGMENT_CAP = 64

_NEVER = float("-inf")
#: (version applied from a leader's node, time of the last NACK to it).
_NOTHING_APPLIED = (0, _NEVER)


class LeaseServer:
    """Everything the daemon keeps for one group's lease tier."""

    __slots__ = (
        "_gossip", "group", "pid", "node_id", "scheduler", "transport", "view",
        "hello_period", "plane",  # the gossip engine and what is read off it
        "universe", "ledger", "manager", "shipped", "_applied", "_head", "counts",
        "_leader", "_clients", "_event_sinks", "_watchers", "_shut_down",
    )

    def __init__(self, gossip, detection_time: float, trace) -> None:
        self._gossip = gossip
        self.group = group = gossip.group
        self.pid = pid = gossip.pid
        self.node_id = node_id = gossip.node_id
        self.scheduler = gossip.scheduler
        self.transport = gossip.transport
        self.view = gossip.view
        self.hello_period = gossip.hello_period
        self.plane = gossip.plane
        #: The deployment's *static* node universe — the configured
        #: bootstrap set, never the view (see :meth:`_quorum`).
        self.universe = gossip.bootstrap
        self.ledger = LeaseLedger(group)
        #: Grants only while the local pid leads.
        self.manager = LeaseManager(
            self.ledger,
            node_id,
            detection_time=detection_time,
            quorum=self._quorum,
            trace=trace,
            pid=pid,
        )
        #: Leader side: the ledger version shipped to each follower node.
        self.shipped: Dict[int, int] = {}
        #: Follower side, per leader node: see :data:`_NOTHING_APPLIED`.
        self._applied: Dict[int, Tuple[int, float]] = {}
        #: The cached :meth:`head` segment.
        self._head: Optional[LedgerSegment] = None
        #: Instrumentation only: records shipped on segments, NACKs sent,
        #: records a NACK put back in flight, full-ledger syncs sent.
        self.counts = {"shipped": 0, "nacks": 0, "resent": 0, "syncs": 0}
        #: The group's current leader view, as last told.
        self._leader: Optional[int] = None
        #: Local clients awaiting replies, keyed by client id.
        self._clients: Dict[int, Callable[[LeaseReplyMessage], None]] = {}
        #: Local clients receiving push events, keyed by client id.
        self._event_sinks: Dict[int, Callable[[LeaseEventMessage], None]] = {}
        #: Leader-side watch registry: lease id -> {client id -> node}.
        #: Leader-anchored (cleared on tenure end; clients resubscribe at
        #: the new leader) and refreshed by every ``watch`` op, so entries
        #: for dead watchers last at most one tenure.
        self._watchers: Dict[int, Dict[int, int]] = {}
        self._shut_down = False

    def on_leader_view(self, leader: Optional[int]) -> None:
        """The group's leader view changed: start or end the local tenure."""
        self._leader = leader
        manager = self.manager
        if leader == self.pid:
            if not manager.tenure_active:
                manager.on_tenure_start(self.scheduler.now)
        elif manager.tenure_active:
            manager.on_tenure_end()
            # Watch subscriptions are anchored to this tenure; watchers
            # resubscribe at the new leader (their deadman timers fire and
            # re-send ``watch``, which redirects like any op).
            self._watchers.clear()

    def stop(self) -> None:
        self._shut_down = True
        self.manager.on_tenure_end()
        self._clients.clear()
        self._event_sinks.clear()
        self._watchers.clear()

    def _leader_node(self) -> Optional[int]:
        """The node hosting the current leader view, if known (never a
        hello's sender when that leader is the local process)."""
        leader = self._leader
        return None if leader is None else self.view.node_of(leader)

    def _quorum(self) -> bool:
        """True iff this leader can prove majority standing over the
        deployment's *static* node universe, on two independent axes:

        1. it has *continuously* plane-trusted a strict majority of the
           configured nodes (itself included) for at least the takeover
           grace, and
        2. its membership view's present members *span* a strict majority
           of those nodes.

        Together they form the grant-side half of the no-double-grant
        argument.  Both denominators are deliberately ``universe`` —
        the configured deployment — and **not** the view, because the
        view is itself gossip: a daemon rebooting inside a partition (or
        under heavy loss) rebuilds a view containing only itself or its
        own side, and "majority of the members I can see" then holds
        simultaneously on *both* sides of a split.  Two strict majorities
        of the fixed universe, by contrast, always intersect:

        * Axis 1 stops a leader stranded in a minority partition within
          one detection time (the plane's heartbeats stop).  Demanding
          trust *age* — not just instantaneous trust — additionally
          covers the re-merge window: a partitioned ex-leader whose
          tenure never ended regains instantaneous trust the moment the
          link heals, before gossip can demote it or sync its ledger.
          Grace seconds of continuous trust give demotion, outstanding
          foreign validities (bounded by ``detection + max_ttl < grace``)
          and ledger convergence all time to land first.
        * Axis 2 stops a leader whose *group layer* split even though the
          node plane is healthy — the fuzzer's canonical case is a daemon
          rebooting under an asymmetric group-traffic fault: its rejoin
          sync is lost, it elects itself over a singleton view, and the
          plane (untouched by the group fault) happily trusts everyone.
          A singleton view spans one node; it can never out-vote the
          surviving majority view, which spans them all.
        """
        own = self.node_id
        peers = self.universe
        now = self.scheduler.now
        hold = self.manager.grace
        universe = len(peers) if own in peers else len(peers) + 1
        trusted_for = self.plane.trusted_for
        trusted = sum(
            1 for node in peers if node == own or trusted_for(node, now) >= hold
        )
        if own not in peers:
            trusted += 1
        if 2 * trusted <= universe:
            return False
        covered = {record.node for record in self.view.members()}
        covered.add(own)
        spanned = sum(1 for node in peers if node in covered)
        if own not in peers:
            spanned += 1
        return 2 * spanned > universe

    # ------------------------------------------------------------------
    # Requests, replies, events
    # ------------------------------------------------------------------
    def submit(
        self,
        message: LeaseRequestMessage,
        reply_to: Callable[[LeaseReplyMessage], None],
        event_to: Optional[Callable[[LeaseEventMessage], None]] = None,
    ) -> None:
        """Client-library entry point: route a local client's request.

        Registers (or refreshes) the reply route for ``message.client``
        (and, when given, the push-event sink), then either handles the
        request locally (this node hosts the leader — or must answer with
        a redirect) or sends it over the transport, where it is as
        droppable as any other datagram.
        """
        if self._shut_down:
            return
        self._clients[message.client] = reply_to
        if event_to is not None:
            self._event_sinks[message.client] = event_to
        if message.dest_node == self.node_id:
            self.handle_request(message)
        else:
            self.transport.send(message)

    def handle_request(self, message: LeaseRequestMessage) -> None:
        if message.op == "unwatch":
            # Fire-and-forget unsubscribe: no reply, so a stopped watcher
            # never spins up a retry loop just to say goodbye.  A lost
            # unwatch only costs spurious events until the tenure ends.
            watchers = self._watchers.get(message.lease)
            if watchers is not None:
                watchers.pop(message.client, None)
                if not watchers:
                    del self._watchers[message.lease]
            return
        decision = None
        if self._leader == self.pid:
            decision = self.manager.handle(
                message.op,
                message.lease,
                message.client,
                message.token,
                message.ttl,
                self.scheduler.now,
                successor=message.successor,
            )
            if decision is not None and decision.status == "info" and message.op == "watch":
                self._watchers.setdefault(message.lease, {})[message.client] = message.sender_node
        my_node = self.node_id
        if decision is None:
            # Not the leader (or tenure not yet active): redirect with our
            # best hint of where the leader lives.
            leader_node = self._leader_node()
            reply = LeaseReplyMessage(
                sender_node=my_node,
                dest_node=message.sender_node,
                group=self.group,
                status="redirect",
                lease=message.lease,
                client=message.client,
                leader_node=-1 if leader_node is None else leader_node,
                nonce=message.nonce,
            )
        else:
            reply = LeaseReplyMessage(
                sender_node=my_node,
                dest_node=message.sender_node,
                group=self.group,
                status=decision.status,
                lease=message.lease,
                client=message.client,
                token=decision.token,
                holder=decision.holder,
                expiry=decision.expiry,
                retry_after=decision.retry_after,
                leader_node=my_node,
                nonce=message.nonce,
            )
        if reply.dest_node == my_node:
            self.handle_reply(reply)
        else:
            self.transport.send(reply)
        if decision is not None and decision.changed:
            # After the requester's reply, so its own state machine settles
            # before watcher callbacks observe the change.
            self._notify_watchers(message.lease)

    def handle_reply(self, message: LeaseReplyMessage) -> None:
        reply_to = self._clients.get(message.client)
        if reply_to is not None:
            reply_to(message)

    def handle_event(self, message: LeaseEventMessage) -> None:
        sink = self._event_sinks.get(message.client)
        if sink is not None:
            sink(message)

    def _notify_watchers(self, lease: int) -> None:
        """Push the lease's current record to every registered watcher.

        Fire-and-forget, one event per watcher per ledger change; clients
        dedupe on (holder, token) and keep a deadman poll as the fallback,
        so a lost event costs latency, never correctness.  The guard makes
        the watcher-free hot path (the ``lease_load`` cell) a dict miss.
        """
        watchers = self._watchers.get(lease)
        if not watchers:
            return
        record = self.ledger.record(lease)
        if record is None:
            return
        my_node = self.node_id
        for client, node in watchers.items():
            event = LeaseEventMessage(
                sender_node=my_node,
                dest_node=node,
                group=self.group,
                lease=lease,
                client=client,
                holder=record.holder,
                token=record.token,
                expiry=record.expiry,
                released=record.released,
                seq=record.seq,
            )
            if node == my_node:
                self.handle_event(event)
            else:
                self.transport.send(event)

    # ------------------------------------------------------------------
    # Replication: the leader's side (its cells carry the segments)
    # ------------------------------------------------------------------
    def head(self) -> Optional[LedgerSegment]:
        """The segment of a follower owed nothing, which every cell of a
        tenure-active leader carries at least (None while not leading or
        while the ledger is empty: no carrier, no bytes).  Rebuilt when the
        ledger moves or a cursor rewinds, so its identity stamps the cells'
        quiet window."""
        ledger = self.ledger
        if not (self.manager.tenure_active and len(ledger)):
            return None
        head = self._head
        if head is None or head.top != ledger.version or head.digest != ledger.digest64():
            head = self._head = LedgerSegment(ledger.version, ledger.version, ledger.digest64())
        return head

    def segment(self, node: int) -> LedgerSegment:
        """What ``node`` is owed since its cursor, at most
        :data:`LEDGER_SEGMENT_CAP` records; the cursor advances only to the
        version those records bring it to."""
        base = self.shipped.get(node, 0)
        records, top = self.ledger.delta_window(base, LEDGER_SEGMENT_CAP)
        self.shipped[node] = top
        self.counts["shipped"] += len(records)
        return LedgerSegment(base, top, self.ledger.digest64(), records)

    def _rewind(self, node: int, applied: int) -> None:
        """A NACK: ``node`` applied only up to ``applied``; its next frame
        re-sends ``delta_since(applied)``.  (Not flushed: an extra round's
        frames overtake the regular ones on the link, and every follower
        that sees a later segment first reads a gap.)"""
        shipped = self.shipped.get(node, 0)
        if applied >= shipped:
            return
        ledger = self.ledger
        self.counts["resent"] += len(ledger.delta_since(applied)) - len(ledger.delta_since(shipped))
        self.shipped[node] = applied
        self._head = None

    def ledger_for(self, node: int, sync: bool) -> Tuple[Tuple[LeaseRecord, ...], Optional[int]]:
        """The ledger half of a repair sync to ``node`` (the whole ledger)
        or of a join reply to its fresh daemon (nothing applied from it yet;
        the whole ledger from the tenure-active leader only, none from the
        other members) — and, from that leader, the version the records
        bring ``node`` to (its cursor moves there)."""
        leading = self.manager.tenure_active
        if sync:
            self.counts["syncs"] += 1
        else:
            self.forget(node)
        records = self.ledger.full() if sync or leading else ()
        if not (records and leading):
            return records, None
        self.shipped[node] = version = self.ledger.version
        return records, version

    def forget(self, node: int) -> None:
        """``node`` left the view or its daemon restarted: its cursor and
        applied version go."""
        self.shipped.pop(node, None)
        self._applied.pop(node, None)

    # ------------------------------------------------------------------
    # Replication: the receiving side
    # ------------------------------------------------------------------
    def merge_gossip(self, records: Tuple[LeaseRecord, ...]) -> None:
        """Merge the lease records a segment or HELLO carried."""
        # Hub and spoke: only a tenure-active leader owes what it
        # learns onward; a follower's peers hear the same leader.
        relay = self.manager.tenure_active
        if self._watchers:
            # Watched leases changed by *gossiped* records (e.g. a
            # competing tenure's grants converging) push events too,
            # not just changes this leader decided itself.
            for lease in self.ledger.merge_report(records, relay):
                self._notify_watchers(lease)
        else:
            self.ledger.merge(records, relay)

    def ingest(self, sender: int, segment: Optional[LedgerSegment], in_order: bool) -> None:
        """A cell from ``sender`` carried ``segment`` (or none).

        Its records always merge (an overtaken frame's too: merge is
        order-free).  From an in-order frame, a segment starting past the
        version applied from ``sender`` is a gap: the applied version stays
        and one NACK per gap per hello period names it.  Otherwise the
        applied version moves to ``top`` — and a complete segment from the
        current leader that leaves the digests unequal shows divergence no
        cursor can see (records learned under another leader, a healed
        partition): the full-ledger sync repairs it.  So does a cell from
        the current leader with no segment while this ledger is not empty:
        that leader's is (or its tenure has not started yet).
        """
        if segment is None:
            if in_order and len(self.ledger) and sender == self._leader_node():
                self._gossip.push_sync(sender, view=False, leases=True)
            return
        if segment.records:
            self.merge_gossip(segment.records)
        if not in_order:
            return
        applied, nacked = self._applied.get(sender, _NOTHING_APPLIED)
        if segment.base > applied:
            now = self.scheduler.now
            if now - nacked >= self.hello_period:
                self._applied[sender] = (applied, now)
                self.counts["nacks"] += 1
                fields = self._gossip.hello_fields()
                self.transport.send(HelloMessage(dest_node=sender, lease_version=applied, **fields))
            return
        if segment.top < applied:
            return  # a reply or sync already brought us past it
        self._applied[sender] = (segment.top, _NEVER)
        if (
            len(segment.records) < LEDGER_SEGMENT_CAP  # a full one may be cut short
            and segment.digest != self.ledger.digest64()
            and sender == self._leader_node()
        ):
            self._gossip.push_sync(sender, view=False, leases=True)

    def on_hello(self, message: HelloMessage) -> bool:
        """The ledger half of a HELLO; True when a ledger sync must answer.

        A NACK rewinds its sender's cursor; a reply's or sync's records
        merge and their stated version counts as applied from the sender.
        A ledger ``sync`` that leaves its receiver unequal is answered at
        once (an empty one carries neither half), so a pair converges in
        two pushes.
        """
        sender, version = message.sender_node, message.lease_version
        if message.leases:
            self.merge_gossip(message.leases)
        if version is not None:
            if message.kind == "gossip":
                self._rewind(sender, version)
            else:
                applied = self._applied.get(sender, _NOTHING_APPLIED)[0]
                self._applied[sender] = (max(applied, version), _NEVER)
        return (
            message.kind == "sync"
            and bool(message.leases or not message.members)
            and message.lease_digest != self.ledger.digest64()
        )
