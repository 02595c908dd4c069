"""The lease server of one group: the daemon-side half of the lease tier.

One :class:`LeaseServer` per hosted (group, local process) pair owns the
replicated ledger, the leader-side manager and everything that connects
them to the wire: the majority guard, request / reply / event routing, the
leader's watcher registry, ledger replication (coalesced delta flush,
once-per-T_D digest probe) and the follower's divergence clock.

The ledger *rides the group's gossip* (:mod:`repro.core.membership`): the
server is handed that engine for the peer order and the HELLO fields, and
the engine reads the ledger and the shipped-version cursors kept here.
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
)

__all__ = ["LeaseServer"]


class LeaseServer:
    """Everything the daemon keeps for one group's lease tier."""

    __slots__ = (
        "_gossip", "group", "pid", "node_id", "scheduler", "transport", "view",
        "hello_period", "plane",  # the gossip engine and what is read off it
        "universe", "ledger", "manager", "sent_version", "_leader", "_clients",
        "_event_sinks", "_watchers", "_flush_pending", "_probe_pending",
        "_diverged_since", "_shut_down",
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
        #: Highest ledger version already shipped to each peer node.
        self.sent_version: Dict[int, int] = {}
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
        self._flush_pending = False
        self._probe_pending = False
        #: When the current leader's lease digest first disagreed with
        #: ours, with no agreement from it since (None: none pending).
        self._diverged_since: Optional[float] = None
        self._shut_down = False

    def on_leader_view(self, leader: Optional[int]) -> None:
        """The group's leader view changed: start or end the local tenure."""
        self._leader = leader
        self._diverged_since = None
        manager = self.manager
        if leader == self.pid:
            if not manager.tenure_active:
                manager.on_tenure_start(self.scheduler.now)
                self._ensure_probe()
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
            if (
                decision is not None
                and decision.status == "info"
                and message.op in ("watch", "handoff")
            ):
                # Subscribe the watcher (a handoff requester implicitly
                # watches: the transfer reaches it as a push event).
                self._watchers.setdefault(message.lease, {})[
                    message.client
                ] = message.sender_node
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
                handoff=decision.handoff,
                nonce=message.nonce,
            )
            if decision.changed:
                self._schedule_flush()
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
    # Replication: what the gossip engine asks on every HELLO
    # ------------------------------------------------------------------
    def merge_gossip(self, records: Tuple[LeaseRecord, ...]) -> None:
        """Merge the lease records a HELLO carried."""
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

    def sync_due(self, message: HelloMessage) -> bool:
        """Does ``message``'s lease digest call for a full-ledger sync?

        A follower's digest trails its leader's by the flush in flight, so
        a mismatch is *lag* until it has outlived a hello period with no
        agreeing digest from the leader in between; only then is it
        *divergence* (a lost flush, a record the new leader never got).
        Only followers keep that clock, against their current leader: its
        digests arrive densely (every flush, the once-per-T_D probe), a
        follower's reach anyone too rarely to tell lag from loss, and any
        inequality between the two shows on the follower's side anyway.
        A ledger ``sync`` that leaves its receiver unequal is answered at
        once — the sender already waited — so a pair converges in two
        pushes.
        """
        if message.lease_digest == self.ledger.digest64():
            if (
                self._diverged_since is not None
                and message.sender_node == self._leader_node()
            ):
                self._diverged_since = None
            return False
        if message.kind == "sync" and (message.leases or not message.members):
            return True  # a ledger sync (an empty one carries neither half)
        if message.sender_node != self._leader_node():
            return False
        now = self.scheduler.now
        since = self._diverged_since
        if since is None:
            self._diverged_since = since = now
        return now - since >= self.hello_period

    def full_for(self, node: int) -> Tuple[LeaseRecord, ...]:
        """The whole ledger, for a join reply to ``node`` (stamped shipped)."""
        self.sent_version[node] = self.ledger.version
        return self.ledger.full()

    def sync_for(self, node: int) -> Tuple[LeaseRecord, ...]:
        """The whole ledger, for a repair sync to ``node``: the divergence
        it answers is settled, so the clock restarts."""
        self._diverged_since = None
        return self.full_for(node)

    # ------------------------------------------------------------------
    # Replication: the leader's own pushes
    # ------------------------------------------------------------------
    def _schedule_flush(self) -> None:
        """Coalesce ledger deltas into one push ~20 ms after a mutation.

        Replication is asynchronous by design (safety rests on fencing
        tokens, not on synchronous replication); the short delay batches a
        burst of grants into one HELLO per peer.
        """
        if self._flush_pending or self._shut_down:
            return
        self._flush_pending = True
        self.scheduler.schedule(0.02, self._flush_deltas)
        self._ensure_probe()

    def _flush_deltas(self) -> None:
        self._flush_pending = False
        if self._shut_down:
            return
        ledger = self.ledger
        version = ledger.version
        sent = self.sent_version
        fields = self._gossip.hello_fields()
        hellos = []
        for node in self._gossip.peer_nodes():
            delta = ledger.delta_since(sent.get(node, 0))
            if not delta:
                continue
            sent[node] = version
            hellos.append(HelloMessage(dest_node=node, leases=delta, **fields))
        if hellos:
            self.transport.send_batch(hellos)

    def _ensure_probe(self) -> None:
        """Arm the leader's periodic lease anti-entropy probe.

        Frames anti-entropy the *membership* digest, but a ledger can
        diverge while both replicas are static — e.g. a healed partition
        where each side granted during the split and neither has granted
        since.  Nothing then triggers convergence until someone mutates,
        which is exactly when it is too late: the stale side's first
        post-heal grant is minted against the unmerged ledger.  So while a
        tenure is active and the ledger is non-empty, the leader probes
        every peer with a digest-only HELLO once per detection time; a
        follower still diverged a hello period later syncs its ledger in,
        and the leader's answer and delta flush converge everyone else.
        The probe never arms while the lease plane is unused (empty
        ledger), keeping lease-free runs event-for-event identical.
        """
        if (
            self._probe_pending
            or self._shut_down
            or not self.manager.tenure_active
            or len(self.ledger) == 0
        ):
            return
        self._probe_pending = True
        self.scheduler.schedule(self.manager.detection_time, self._probe)

    def _probe(self) -> None:
        self._probe_pending = False
        if (
            self._shut_down
            or not self.manager.tenure_active
            or len(self.ledger) == 0
        ):
            return
        fields = self._gossip.hello_fields()
        for node in self._gossip.peer_nodes():
            self.transport.send(HelloMessage(dest_node=node, **fields))
        self._ensure_probe()
