"""Group maintenance (paper §4, Figure 2): the view and everything that
gossips it.

One :class:`Membership` per hosted (group, local process) pair runs the
HELLO protocol around the group's :class:`~repro.core.group.MembershipView`
— join and reply, the periodic round, digest-triggered syncs, the per-peer
shipped-version cursors — and aligns what depends on who the members are
(FD-plane interest, frame destinations, per-peer state).

**One rule on both FD planes.**  No single event touches more than O(k)
peers or ships more than a bounded payload: a join contacts at most
:data:`_JOIN_FANOUT` id-ring successors (every bootstrap peer in a group
that small), rounds have a fan-out budget, deltas and syncs stream in
fixed-size windows, cells carry no deltas but the sender's own record on
first contact, and reactions to a view change coalesce.  A change costs
O(n log n) HELLOs: a node's introduction is gossiped by nobody, other news
goes to ⌈log₂ n⌉ id-ring fingers, and a digest mismatch syncs once it lasts
a hello period.
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional, Set, Tuple

from repro.core.group import MembershipView
from repro.fd.plane import CELL_REFRESH
from repro.net.message import HelloMessage
from repro.runtime.timers import PeriodicTimer

__all__ = ["Membership"]

#: Dissemination limits (see the module docstring).
_JOIN_FANOUT = 16
_GOSSIP_FANOUT = 16
_DELTA_CAP = 64
_SYNC_CAP = 128
#: Membership-reaction coalescing window, seconds.  During an epidemic
#: bootstrap every gossip message mutates the view; re-aligning FD interests
#: and recomputing the O(candidates) election *per message* multiplies the
#: O(n²) convergence traffic by another O(n) — the storm that melts a
#: 1000-node bring-up.  Reactions are idempotent view re-alignments, so they
#: coalesce to one run per window; 50 ms is far inside every
#: detection/suspicion budget the plane hands out.
_REACTION_COALESCE = 0.05


class Membership:
    """The gossip engine of one group's view; see the module docstring."""

    __slots__ = (
        # handed in
        "ctx", "view", "group", "pid", "node_id", "qos", "scheduler", "transport", "plane",
        "algorithm", "bootstrap", "hello_period", "meter", "forget_peer",
        # owned
        "sent_version", "_next_sync", "_peer_nodes_cache", "_peer_nodes_version",
        "_interested_nodes", "_hello_timer", "_shut_down", "hellos_sent",
        "_sync_cursor", "_gossip_cursor", "_sync_budget", "_reaction_pending", "_mismatch",
        # the two riders and what the rounds read of them (see carry)
        "_cells", "_cell_state", "_leases", "_ledger", "_cover_horizon",
    )

    def __init__(self, ctx, bootstrap, hello_period, first_round, meter, forget_peer) -> None:
        #: The group runtime: election context, plane listener, and where
        #: the identity and engine handles below are read off.
        self.ctx = ctx
        self.view: MembershipView = ctx.view
        self.group = ctx.group
        self.pid = ctx.pid
        self.node_id = ctx.plane.node_id
        self.qos = ctx.qos
        self.scheduler = ctx.scheduler
        self.transport = ctx.transport
        self.plane = ctx.plane
        self.algorithm = ctx.algorithm
        #: The workstations configured to run the service (join targets).
        self.bootstrap = bootstrap
        self.hello_period = hello_period
        self.meter = meter
        #: Drops a peer's daemon-level state once no group watches it.
        self.forget_peer = forget_peer
        #: Highest own-view version already shipped (as a delta or
        #: introduced) to each peer node; the gossip rounds own it.
        self.sent_version: Dict[int, int] = {}
        #: Anti-entropy rate limit: earliest time a full sync may be pushed
        #: to each peer node again.
        self._next_sync: Dict[int, float] = {}
        #: :meth:`peer_nodes` memo and the view version it was built at.
        self._peer_nodes_cache: Tuple[int, ...] = ()
        self._peer_nodes_version = -1
        #: Nodes this group subscribed to on the shared FD plane.
        self._interested_nodes: Set[int] = set()
        self._hello_timer = PeriodicTimer(
            ctx.scheduler,
            period_fn=lambda: hello_period,
            callback=self.send_hellos,
            initial_delay=first_round,
        )
        self._shut_down = False
        #: Instrumentation only: round HELLOs sent with nothing owed / with a
        #: view delta, and digest-repair syncs pushed (the join and reply
        #: handshake, bounded by the join fan-out, is not counted).
        self.hellos_sent = {"empty": 0, "delta": 0, "sync": 0}
        #: Sync rotation: per-destination version cursor through the record
        #: set, so bounded sync windows cover everything over successive
        #: pushes.
        self._sync_cursor: Dict[int, int] = {}
        #: Gossip rotation cursor (bounded hello fan-out).
        self._gossip_cursor = 0
        #: Anti-entropy budget: outgoing digest-repair syncs per hello
        #: period (window start, syncs spent).  The per-destination limit
        #: alone still allows O(peers) syncs per second while the whole
        #: cluster is diverged — a mass bootstrap would answer every
        #: received message with a sync.  Regular gossip converges the rest.
        self._sync_budget = (0.0, 0)
        #: True while a deferred election-recompute/dependent-alignment
        #: callback is pending (see ``_REACTION_COALESCE``).
        self._reaction_pending = False
        #: Peer node -> time of the first carrier whose view digest differed.
        self._mismatch: Dict[int, float] = {}

    def carry(self, cells, leases) -> None:
        """Hand over the two riders built on top of this object: the cell
        emitter (its per-destination send times tell the rounds which peers
        a fresh cell covered) and the lease server.  The ledger rides the
        leader's cells, not the rounds; HELLOs carry its digest and its
        repairs (the NACK, the join reply, the full-ledger sync)."""
        self._cells = cells
        self._cell_state = cells.cell_state
        #: A peer is *covered* while its last cell is younger than this (one
        #: hello period rides out the round on which the refresh falls due).
        self._cover_horizon = CELL_REFRESH + self.hello_period
        self._leases = leases
        self._ledger = leases.ledger

    def start(self) -> None:
        self.announce_join()
        self._hello_timer.start()
        self.align()

    def stop(self) -> None:
        self._shut_down = True
        self._hello_timer.stop()

    def release(self) -> None:
        """Drop every FD-plane subscription of this group."""
        plane = self.plane
        for node in self._interested_nodes:
            if plane.unregister_interest(self.group, node):
                self.forget_peer(node)
        self._interested_nodes.clear()

    def watch_node(self, node: int) -> None:
        """Subscribe to ``node`` ahead of its membership record (hints)."""
        if node not in self._interested_nodes:
            self.plane.register_interest(self.group, node, self.qos, self.ctx)
            self._interested_nodes.add(node)

    def align(self) -> None:
        """Align FD-plane interest and frame destinations with the members."""
        if self._shut_down:
            return
        my_node = self.node_id
        view = self.view
        current = {record.node for record in view.members() if record.node != my_node}
        self._cells.retarget(tuple(sorted(current)))
        plane = self.plane
        for node in current - self._interested_nodes:
            plane.register_interest(self.group, node, self.qos, self.ctx)
        for node in self._interested_nodes - current:
            if plane.unregister_interest(self.group, node):
                # No group watches this peer anymore: its requested rate
                # must stop pinning the shared heartbeat interval.
                self.forget_peer(node)
            self._cells.forget(node)
            self._forget_node(node)
        self._interested_nodes = current
        streams = self._cells.stream_monitors
        if streams is None:
            # all_candidates: node monitors exist for every candidate's
            # workstation, born *suspected* — the record proves nothing
            # about the process being up; trust comes from frames or an
            # explicit trust seed (grant_grace).
            for record in view.candidates():
                if record.node != my_node:
                    plane.ensure_monitor(record.node)
        else:
            # Drop stream monitors of processes that left the group.
            for pid in list(streams):
                if not view.is_present(pid):
                    streams.pop(pid).stop()

    def _forget_node(self, node: int) -> None:
        self._next_sync.pop(node, None)
        # Forget what we shipped: if the node id returns with a fresh
        # daemon, gossip starts it from the beginning.
        self.sent_version.pop(node, None)
        self._sync_cursor.pop(node, None)
        self._mismatch.pop(node, None)

    def view_changed(self) -> None:
        """A HELLO or a cell moved the view: coalesce the reactions.

        The election recompute and the dependent re-alignment are pure
        functions of the *current* view, so when gossip lands a burst of
        mutations only the last state matters.  One callback per
        ``_REACTION_COALESCE`` window serves the whole burst.
        """
        if self._reaction_pending or self._shut_down:
            return
        self._reaction_pending = True
        self.scheduler.schedule(_REACTION_COALESCE, self._react)

    def _react(self) -> None:
        self._reaction_pending = False
        if self._shut_down:
            return
        self.algorithm.on_membership_changed()
        self.align()

    def peer_nodes(self) -> Tuple[int, ...]:
        """Remote nodes hosting present members, each once, in member
        order — the gossip rounds' visit order.  Rebuilt only when the
        view version moves, not every hello period."""
        view = self.view
        if self._peer_nodes_version != view.version:
            my_node = self.node_id
            self._peer_nodes_cache = tuple(
                dict.fromkeys(r.node for r in view.members() if r.node != my_node)
            )
            self._peer_nodes_version = view.version
        return self._peer_nodes_cache

    def hello_fields(self, kind: str = "gossip") -> dict:
        """What every HELLO of one round shares (all but the destination
        and the per-peer deltas)."""
        view = self.view
        fields = {
            "sender_node": self.node_id,
            "group": self.group,
            "kind": kind,
            "view_version": view.version,
            "view_digest": view.digest64(),
            "lease_digest": self._ledger.digest64(),
        }
        # Piggyback the plane's bounded rumour batch on whatever HELLO
        # round is going out (one batch per round: every message of the
        # round carries it, the dissemination budget burns once).
        updates = self.plane.piggyback("hello")
        if updates:
            fields["swim_updates"] = updates
        return fields

    def handle_hello(self, message: HelloMessage) -> None:
        if message.swim_updates:
            self.plane.apply_updates(message.swim_updates)
        sender = message.sender_node if message.kind == "join" else None  # a join introduces it
        if message.members and self.merge_from(sender, message.members):
            self.view_changed()
        leases = self._leases.on_hello(message)
        if message.kind == "join":
            self._send_hello_reply(message.sender_node)
        elif message.kind == "reply":
            # Seed trust from the live responder's own trust report: these
            # processes get one detection budget to speak for themselves.
            for pid in message.trusted:
                if pid != self.pid and self.view.is_present(pid):
                    self.ctx.ensure_monitor(pid)
            self.algorithm.on_hello_seed(message)
        # Anti-entropy: a view digest still diverging after the merge
        # triggers a sync (a join is already answered with a full-view
        # reply); a ledger sync left unequal is answered too.
        if message.kind != "join":
            view = message.view_digest != self.view.digest64()
            if view or leases:
                self.push_sync(message.sender_node, view, leases)
            if not view:
                self.digests_agree(message.sender_node)

    def merge_from(self, node: Optional[int], records) -> bool:
        """Merge ``records`` from ``node``'s join HELLO or cell (None: another HELLO).

        A node introduces itself to every peer (join HELLO, first-contact
        cell): peers that held our view before its record hold it after."""
        view, sent = self.view, self.sent_version
        changed = False
        for record in records:
            before = view.version
            if view.merge_record(record):
                changed = True
                if record.node == node:
                    sent.update([(peer, view.version) for peer, at in sent.items() if at == before])
        return changed

    def digests_agree(self, node: int) -> None:
        """A HELLO (its members merged) or a cell from ``node`` carried our
        own view digest.  Digest equality is view equality (anti-entropy's
        own premise): the peer holds every record we do, so the delta our
        merge of *its* news just made us owe it is not owed."""
        self._mismatch.pop(node, None)
        self.sent_version[node] = self.view.version

    def push_sync(
        self, dest_node: int, view: bool = True, leases: bool = False
    ) -> None:
        """Push the diverged half (a view window, the full ledger or both)
        to a peer — rate-limited, budgeted anti-entropy.

        A digest differs while news is in flight: a view sync goes only once
        a carrier a hello period after the first still differs.  The view
        streams in fixed windows, one per push, rotating a per-destination
        cursor through version space (wrapping back to 0 so records the
        peer lost long ago are re-covered): convergence takes O(V / window)
        pushes instead of one unbounded message.  The shipped-version
        cursor is left alone: the window is keyed to the sync rotation, not
        to what the rounds owe.
        """
        now = self.scheduler.now
        if view:
            view = now - self._mismatch.setdefault(dest_node, now) >= self.hello_period
        if not (view or leases) or self._shut_down:
            return
        if now < self._next_sync.get(dest_node, 0.0):
            return
        window, spent = self._sync_budget
        if now - window >= self.hello_period:
            window, spent = now, 0
        if spent >= _GOSSIP_FANOUT:
            return  # budget exhausted; the gossip rounds converge the rest
        self._sync_budget = (window, spent + 1)
        members = ()
        if view:
            cursor = self._sync_cursor.get(dest_node, 0)
            if cursor >= self.view.version:
                cursor = 0
            members, self._sync_cursor[dest_node] = self.view.delta_window(cursor, _SYNC_CAP)
        self._next_sync[dest_node] = now + self.hello_period
        self.hellos_sent["sync"] += 1
        records, version = self._leases.ledger_for(dest_node, sync=True) if leases else ((), None)
        self.transport.send(
            HelloMessage(
                dest_node=dest_node,
                members=members,
                leases=records,
                lease_version=version,
                **self.hello_fields("sync"),
            )
        )

    def announce_join(self) -> None:
        """Announce the join to the bootstrap peer set (paper: the
        workstations configured to run the service) — in a large one to
        this node's id-ring successors only, whose replies seed the view;
        its first-contact cells then introduce it to everyone else.  The
        cap is what keeps a mass bootstrap O(k·n) messages, not O(n²)."""
        my_node = self.node_id
        view = self.view
        members = view.full()
        fields = self.hello_fields("join")
        peers = [n for n in self.bootstrap if n != my_node]
        if len(peers) > _JOIN_FANOUT:
            peers.sort()
            start = bisect.bisect_left(peers, my_node)
            peers = [peers[(start + i) % len(peers)] for i in range(_JOIN_FANOUT)]
        hellos = []
        for node_id in peers:
            self.sent_version[node_id] = view.version
            hellos.append(HelloMessage(dest_node=node_id, members=members, **fields))
        if hellos:
            self.transport.send_batch(hellos)

    def _send_hello_reply(self, dest_node: int) -> None:
        trusted = self.ctx.trusted
        trusted_pids = tuple(
            [self.pid]
            + [
                record.pid
                for record in self.view.members()
                if record.pid != self.pid and trusted(record.pid)
            ]
        )
        self.sent_version[dest_node] = self.view.version
        records, version = self._leases.ledger_for(dest_node, sync=False)
        self.transport.send(
            HelloMessage(
                dest_node=dest_node,
                members=self.view.full(),
                leader_hint=self.algorithm.leader_hint(),
                acc_table=self.algorithm.acc_entries(),
                trusted=trusted_pids,
                leases=records,
                lease_version=version,
                **self.hello_fields("reply"),
            )
        )

    def send_hellos(self) -> None:
        """Periodic gossip: bounded fan-out, windowed deltas, news pushed
        ⌈log₂(peers + 1)⌉ times.

        At most :data:`_GOSSIP_FANOUT` peers get a HELLO per period, chosen
        by rotating a cursor over the peer list so everyone is eventually
        visited, and each carries at most :data:`_DELTA_CAP` membership
        records — the shipped-version cursor advances only to the window's
        watermark, streaming the rest across rounds.  Peers that owe nothing
        and that a cell still *covers* (its last cell is younger than
        ``_cover_horizon``, see :meth:`carry`) are skipped for free: an
        empty-delta HELLO carries nothing but the view digest the cell
        delivered.  A covered peer that held an earlier version is sent the
        news only if it is one of the ⌈log₂(peers + 1)⌉ :meth:`_fingers`,
        else stamped current: every receiver pushes in turn, so a change
        costs O(n log n) HELLOs, not O(n²).
        """
        if self._shut_down:
            return
        self.meter.on_timer()
        now = self.scheduler.now
        view = self.view
        version = view.version
        horizon = self._cover_horizon
        cell_state = self._cell_state
        sent = self.sent_version
        nodes = self.peer_nodes()
        count = len(nodes)
        if not count:
            return
        fields = None
        budget = _GOSSIP_FANOUT
        start = self._gossip_cursor % count
        fingers = None
        hellos = []
        for i in range(count):
            node = nodes[(start + i) % count]
            last = sent.get(node, 0)
            state = cell_state.get(node)
            if state is not None and now - state[1] < horizon:
                if last >= version:
                    continue
                if last and node not in (fingers := fingers or self._fingers(nodes)):
                    sent[node] = version  # the fingers and the digests carry it
                    continue
            if budget <= 0:
                # Out of fan-out; resume here next period.
                self._gossip_cursor = (start + i) % count
                break
            budget -= 1
            delta, high = view.delta_window(last, _DELTA_CAP)
            sent[node] = high
            if fields is None:
                fields = self.hello_fields()
            hellos.append(HelloMessage(dest_node=node, members=delta, **fields))
        else:
            self._gossip_cursor = start
        if hellos:
            self.transport.send_batch(hellos)
            deltas = sum(1 for hello in hellos if hello.members)
            self.hellos_sent["delta"] += deltas
            self.hellos_sent["empty"] += len(hellos) - deltas

    def _fingers(self, nodes: Tuple[int, ...]) -> Set[int]:
        """The peers 1, 2, 4, … places on in the id ring of the members'
        nodes: pushing news to them reaches every node in ⌈log₂ n⌉ hops."""
        ring = sorted(nodes + (self.node_id,))
        me, size = ring.index(self.node_id), len(ring)
        return {ring[(me + (1 << k)) % size] for k in range((size - 1).bit_length())}
