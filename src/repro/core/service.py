"""The per-workstation leader election daemon (paper §4, Figure 2).

One :class:`LeaderElectionService` instance runs on each node.  It hosts, per
group the local application joined, a :class:`GroupRuntime` that wires
together the four core modules of the paper's architecture:

* **Group Maintenance** — a :class:`~repro.core.group.MembershipView`
  maintained by HELLO gossip and membership *deltas* piggybacked on ALIVE
  cells, with digest-triggered full-view anti-entropy (a receiver whose
  64-bit view digest differs from the sender's after merging pushes a full
  ``"sync"`` HELLO);
* **Failure Detector** — the node-level plane shared by every group: one
  :class:`~repro.fd.monitor.NfdsMonitor` per *peer node* (see
  :mod:`repro.fd.plane`), periodically re-configured against the strictest
  QoS of the interested groups (rate changes are pushed to the peer with
  node-level RATE-REQUEST messages).  Trust transitions fan out to every
  hosted group, translated from nodes to the pids living there;
* **Leader Election Algorithm** — a pluggable
  :class:`~repro.core.election.base.ElectionAlgorithm`;
* the ALIVE **scheduler** — one :class:`~repro.fd.scheduler.AliveBatcher`
  per daemon that multiplexes every emitting group's cell into one
  :class:`~repro.net.message.BatchFrame` per destination node, so heartbeat
  wire traffic grows O(node pairs) instead of O(groups × node pairs).

Like the paper's daemon, the service's state is volatile: a workstation crash
destroys it, and recovery starts a fresh instance (see
:class:`~repro.core.api.ServiceHost`).

One deliberate restriction, checked at join time: at most one local process
per (node, group) pair.  Multiple processes per node and multiple groups per
process are fully supported; two processes of the *same* group on the *same*
node would need per-process FD streams for no behavioural gain in any of the
paper's scenarios.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.election.base import GroupContext
from repro.core.election.registry import create_algorithm
from repro.core.group import MembershipView, make_incarnation
from repro.fd.configurator import ConfiguratorCache, bootstrap_params
from repro.fd.plane import NodeFdPlane, StreamMonitor
from repro.fd.qos import FDQoS
from repro.fd.scheduler import AliveBatcher
from repro.fd.swim import SwimFdPlane
from repro.lease.ledger import LeaseLedger
from repro.lease.manager import LeaseManager
from repro.metrics.trace import TraceRecorder
from repro.net.message import (
    AccuseMessage,
    AliveCell,
    BatchFrame,
    HelloMessage,
    LeaseEventMessage,
    LeaseReplyMessage,
    LeaseRequestMessage,
    Message,
    RateRequestMessage,
    SwimAckMessage,
    SwimPingMessage,
    SwimPingReqMessage,
)
from repro.net.node import Node
from repro.runtime.base import Scheduler, Transport
from repro.runtime.timers import PeriodicTimer
from repro.sim.rng import RngRegistry

__all__ = ["ServiceConfig", "LeaderElectionService", "GroupRuntime"]

LeaderCallback = Callable[[int, Optional[int]], None]

#: Sentinel emit stamp that never compares equal to a real one: algorithms
#: returning ``None`` from :meth:`ElectionAlgorithm.emit_stamp` disable the
#: quiet-window emission fast path.
_NEVER_EMITTED = object()


def _load_nfds_monitor():
    # Already loaded via repro.fd.plane's top-level imports; the loader
    # exists for registry symmetry with the genuinely lazy nfde variant.
    from repro.fd.monitor import NfdsMonitor

    return NfdsMonitor


def _load_nfde_monitor():
    from repro.fd.nfde import NfdeMonitor  # imported only when selected

    return NfdeMonitor


#: fd_variant name → monitor-class loader.  The single source of truth for
#: which variants exist: ServiceConfig validation and the FD plane's monitor
#: construction both consult this mapping, so they cannot drift apart.
FD_MONITOR_LOADERS = {
    "nfds": _load_nfds_monitor,
    "nfde": _load_nfde_monitor,
}

#: Node-level FD plane selection (see :mod:`repro.fd.swim`).
FD_PLANES = ("all_pairs", "swim")

#: SWIM-mode gossip bounds.  The all-pairs plane may flood (its cost model
#: is O(n²) anyway); the SWIM plane exists precisely so no single event
#: touches more than O(k) peers or ships more than a bounded payload —
#: bootstrap joins contact a few id-ring successors, anti-entropy syncs and
#: membership deltas stream in fixed-size windows across rounds, and the
#: epidemic plane carries the rest.
_SWIM_JOIN_FANOUT = 16
_SWIM_GOSSIP_FANOUT = 16
_SWIM_DELTA_CAP = 64
_SWIM_SYNC_CAP = 128
#: SWIM-mode membership-reaction coalescing window, seconds.  During an
#: epidemic bootstrap every gossip message mutates the view; re-aligning
#: FD interests and recomputing the O(candidates) election *per message*
#: multiplies the O(n²) convergence traffic by another O(n) — the storm
#: that melts a 1000-node bring-up.  Reactions are idempotent view
#: re-alignments, so they coalesce to one run per window; 50 ms is far
#: inside every detection/suspicion budget the plane hands out.
_SWIM_MEMBERSHIP_COALESCE = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the daemon; defaults match the paper's experiments."""

    #: Election algorithm name (see :mod:`repro.core.election.registry`).
    algorithm: str = "omega_lc"
    #: Default FD QoS for joins that do not specify one (paper §6.1 values).
    default_qos: FDQoS = field(default_factory=FDQoS)
    #: Period of group-maintenance gossip.
    hello_period: float = 1.0
    #: How often the FD plane re-runs the configurator over its node pairs.
    reconfig_interval: float = 5.0
    #: Relative η change that triggers a RATE-REQUEST to the peer node.
    rate_change_threshold: float = 0.15
    #: Link quality estimator windows (messages).
    loss_window: int = 512
    delay_window: int = 64
    estimator_ready_threshold: int = 8
    #: Steady-state cell refresh period.  Heartbeat *frames* flow at the
    #: FD-negotiated η per node pair, but an ``all_candidates`` group's
    #: election payload rides along only when it changed — plus one
    #: periodic refresh per this many seconds, which repairs lost change
    #: cells and doubles as membership anti-entropy.  This is what keeps
    #: heartbeat bytes O(node pairs) instead of O(groups × node pairs).
    cell_refresh: float = 1.0
    #: Failure-detector variant: "nfds" (Chen et al.'s synchronized-clock
    #: algorithm, what the paper's service runs) or "nfde" (the
    #: expected-arrival variant for unsynchronized clocks).
    fd_variant: str = "nfds"
    #: Node-level FD plane: "all_pairs" (the paper's — every node pair
    #: monitored, O(n²) wire/timers) or "swim" (randomized k-peer probing
    #: with epidemic dissemination, O(k·n) wire — see :mod:`repro.fd.swim`).
    fd_plane: str = "all_pairs"
    #: SWIM: peers probed per protocol period (k).
    swim_probe_fanout: int = 2
    #: SWIM: indirect ping-req relays tried before declaring suspicion (j).
    swim_indirect_relays: int = 3

    def __post_init__(self) -> None:
        """Validate eagerly: a bad config must fail at construction, not
        deep inside the first join (or, worse, the first monitor creation
        minutes into a run)."""
        if self.fd_variant not in FD_MONITOR_LOADERS:
            raise ValueError(
                f"unknown fd_variant {self.fd_variant!r} "
                f"(expected one of {', '.join(FD_MONITOR_LOADERS)})"
            )
        if self.fd_plane not in FD_PLANES:
            raise ValueError(
                f"unknown fd_plane {self.fd_plane!r} "
                f"(expected one of {', '.join(FD_PLANES)})"
            )
        if self.swim_probe_fanout < 1:
            raise ValueError(
                f"swim_probe_fanout must be >= 1 (got {self.swim_probe_fanout})"
            )
        if self.swim_indirect_relays < 0:
            raise ValueError(
                f"swim_indirect_relays must be >= 0 "
                f"(got {self.swim_indirect_relays})"
            )
        if self.hello_period <= 0:
            raise ValueError(f"hello_period must be positive (got {self.hello_period})")
        if self.reconfig_interval <= 0:
            raise ValueError(
                f"reconfig_interval must be positive (got {self.reconfig_interval})"
            )
        if self.cell_refresh <= 0:
            raise ValueError(
                f"cell_refresh must be positive (got {self.cell_refresh})"
            )


class GroupRuntime(GroupContext):
    """Everything the daemon keeps for one (group, local process) pair."""

    def __init__(
        self,
        service: "LeaderElectionService",
        group: int,
        pid: int,
        candidate: bool,
        qos: FDQoS,
        algorithm_name: str,
        on_leader_change: Optional[LeaderCallback],
    ) -> None:
        self.service = service
        self.scheduler = service.scheduler
        self.transport = service.transport
        self.group = group
        self.pid = pid
        self.candidate = candidate
        self.qos = qos
        self._on_leader_change = on_leader_change
        self.view = MembershipView(group)
        self._join_time = self.scheduler.now
        self._leader_view: Optional[int] = None
        #: Highest own-view version already shipped (as delta or full view)
        #: to each peer node — shared by ALIVE cells and gossip HELLOs.
        self._sent_version: Dict[int, int] = {}
        #: Anti-entropy rate limit: earliest time a full sync may be pushed
        #: to each peer node again.
        self._next_sync: Dict[int, float] = {}
        #: SWIM-mode sync rotation: per-destination version cursor through
        #: the record set, so bounded sync windows cover everything over
        #: successive pushes (unused by the all-pairs plane's full syncs).
        self._sync_cursor: Dict[int, int] = {}
        #: SWIM-mode gossip rotation cursor (bounded hello fan-out).
        self._gossip_cursor = 0
        #: SWIM-mode membership-reaction coalescing (see
        #: ``_SWIM_MEMBERSHIP_COALESCE``): True while a deferred
        #: election-recompute/dependent-sync callback is pending.
        self._membership_sync_pending = False
        #: SWIM-mode anti-entropy budget: outgoing digest-repair syncs per
        #: hello period (window start, syncs spent).  The per-destination
        #: limit alone still allows O(peers) syncs per second while the
        #: whole cluster is diverged — a mass bootstrap would answer every
        #: received message with a sync.  Regular gossip converges the rest.
        self._sync_budget = (0.0, 0)
        #: Per-destination (election payload, send time) of the last cell,
        #: for change-triggered emission with periodic refresh.
        self._cell_state: Dict[int, Tuple[tuple, float]] = {}
        #: Steady-state emission fast path: while neither the membership
        #: version nor the algorithm's emit stamp has moved since the last
        #: full round, the payload is provably unchanged — rounds reuse the
        #: cached template below, skip entirely while no per-destination
        #: refresh is due, and otherwise touch only the dests whose refresh
        #: expired.  Any stamp move falls back to the full (slow) round.
        self._emit_quiet_until = float("-inf")
        self._emit_stamp_version = -1
        self._emit_stamp_alg: object = _NEVER_EMITTED
        self._emit_template: Optional[AliveCell] = None
        self._emit_payload: tuple = ()
        #: The gossip-tick analogue: while the (view, ledger) version pair
        #: is unchanged since the last full round, every peer provably owes
        #: no delta — rounds iterate the cached peer-node order and send
        #: (empty-delta) gossip only to peers not covered by a fresh cell.
        self._hello_quiet_until = float("-inf")
        self._hello_stamp: Tuple[int, int] = (-1, -1)
        #: :meth:`_peer_nodes` memo and the view version it was built at.
        self._peer_nodes_cache: Tuple[int, ...] = ()
        self._peer_nodes_version = -1
        #: Remote nodes hosting present members (frame destinations).
        self._dest_nodes: Tuple[int, ...] = ()
        #: Nodes this group subscribed to on the shared FD plane.
        self._interested_nodes: Set[int] = set()
        self._shut_down = False

        #: The lease tier: the replicated ledger rides the group's gossip,
        #: the manager grants only while the local pid leads.  Both are
        #: fully passive (no timers, no RNG draws) until lease traffic
        #: arrives, so groups without clients behave bit-identically to
        #: the pre-lease service.
        self.lease_ledger = LeaseLedger(group)
        self.lease_manager = LeaseManager(
            self.lease_ledger,
            service.node.node_id,
            detection_time=qos.detection_time,
            quorum=self._lease_quorum,
            trace=service.trace,
            pid=pid,
        )
        #: Highest ledger version already shipped to each peer node.
        self._lease_sent_version: Dict[int, int] = {}
        #: Local clients awaiting replies, keyed by client id.
        self._lease_clients: Dict[int, Callable[[LeaseReplyMessage], None]] = {}
        #: Local clients receiving push events, keyed by client id.
        self._lease_event_sinks: Dict[int, Callable[[LeaseEventMessage], None]] = {}
        #: Leader-side watch registry: lease id -> {client id -> node}.
        #: Leader-anchored (cleared on tenure end; clients resubscribe at
        #: the new leader) and refreshed by every ``watch`` op, so entries
        #: for dead watchers last at most one tenure.
        self._lease_watchers: Dict[int, Dict[int, int]] = {}
        self._lease_flush_pending = False
        self._lease_probe_pending = False
        #: When the current leader's lease digest first disagreed with
        #: ours, with no agreement from it since (None: none pending).
        self._lease_diverged_since: Optional[float] = None

        self.algorithm = create_algorithm(algorithm_name, self)
        #: Per-sender cell-stream monitors; only ``senders_only`` election
        #: algorithms (Ω_l) need them — node-level liveness cannot see a
        #: *voluntarily* silent competitor.  None under ``all_candidates``.
        self._stream_monitors: Optional[Dict[int, StreamMonitor]] = (
            {} if self.algorithm.monitor_policy == "senders_only" else None
        )
        rng = service.rng.stream(f"service.{service.node.node_id}.group.{group}")
        self._rng = rng
        config = service.config
        service.batcher.add_group(group, self, eta=bootstrap_params(qos).eta)
        self._hello_timer = PeriodicTimer(
            self.scheduler,
            period_fn=lambda: config.hello_period,
            callback=self._send_hellos,
            initial_delay=float(rng.uniform(0.0, config.hello_period)),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join the group: announce, start gossip/FD/election."""
        service = self.service
        incarnation = make_incarnation(service.node.incarnation, service.next_join_seq())
        self.view.apply_join(
            pid=self.pid,
            node=service.node.node_id,
            incarnation=incarnation,
            candidate=self.candidate,
            now=self.scheduler.now,
        )
        service.trace.record_join(
            self.scheduler.now, self.group, self.pid, service.node.node_id
        )
        self.algorithm.start()
        self._announce_join()
        self._hello_timer.start()
        self._sync_membership_dependents()

    def leave(self) -> None:
        """Voluntarily leave the group: tombstone, tell everyone, stop."""
        self.view.apply_leave(self.pid)
        # A last gossip round spreads the tombstone so the group re-elects
        # immediately instead of waiting for a failure detection.
        self._send_hellos()
        self.service.trace.record_leave(self.scheduler.now, self.group, self.pid)
        self.shutdown()

    def shutdown(self) -> None:
        """Stop all activity (crash path: no goodbye messages)."""
        if self._shut_down:
            return
        self._shut_down = True
        self.lease_manager.on_tenure_end()
        self._lease_clients.clear()
        self._lease_event_sinks.clear()
        self._lease_watchers.clear()
        self.algorithm.stop()
        self._hello_timer.stop()
        self.service.batcher.remove_group(self.group)
        plane = self.service.plane
        for node in self._interested_nodes:
            if plane.unregister_interest(self.group, node):
                self.service.forget_peer(node)
        self._interested_nodes.clear()
        if self._stream_monitors is not None:
            for monitor in self._stream_monitors.values():
                monitor.stop()
            self._stream_monitors.clear()

    # ------------------------------------------------------------------
    # GroupContext interface (what the election algorithm sees)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.scheduler.now

    @property
    def local_pid(self) -> int:
        return self.pid

    @property
    def is_candidate(self) -> bool:
        return self.candidate

    @property
    def join_time(self) -> float:
        return self._join_time

    def trusted(self, pid: int) -> bool:
        if pid == self.pid:
            return True
        node = self.view.node_of(pid)
        if node is None or not self.service.plane.trusted(node):
            return False
        monitors = self._stream_monitors
        if monitors is None:
            return True  # all_candidates: node liveness is process liveness
        monitor = monitors.get(pid)
        return monitor is not None and monitor.trusted

    def trust_checker(self):
        """A fused ``pid -> trusted`` closure for one leader recompute.

        Bit-identical to :meth:`trusted` per pid, with the per-call
        attribute chain (view → record → plane → monitor) hoisted into
        locals: the election recomputes over every candidate on each
        refresh, and on a 100-node cell this chain dominates the profile.
        Valid only for the current synchronous readout — the snapshot
        references (record map, monitor maps) are live dicts, so the
        closure must not be cached across events.
        """
        local_pid = self.pid
        get_record = self.view.records_map().get
        plane = self.service.plane
        my_node = plane.node_id
        get_node_monitor = plane.monitors.get
        stream_monitors = self._stream_monitors
        get_stream_monitor = None if stream_monitors is None else stream_monitors.get

        def check(pid: int) -> bool:
            if pid == local_pid:
                return True
            record = get_record(pid)
            if record is None:
                return False
            node = record.node
            if node != my_node:
                monitor = get_node_monitor(node)
                if monitor is None or not monitor.trusted:
                    return False
            if get_stream_monitor is None:
                return True  # all_candidates: node liveness is process liveness
            monitor = get_stream_monitor(pid)
            return monitor is not None and monitor.trusted

        return check

    def candidate_members(self):
        return self.view.candidates()

    def is_present_candidate(self, pid: int) -> bool:
        return self.view.is_present_candidate(pid)

    def member_joined_at(self, pid: int) -> Optional[float]:
        return self.view.joined_at(pid)

    @property
    def membership_version(self) -> int:
        return self.view.version

    def send_accuse(self, accused: int, accused_phase: int) -> None:
        node = self.view.node_of(accused)
        if node is None or node == self.service.node.node_id:
            return
        self.transport.send(
            AccuseMessage(
                sender_node=self.service.node.node_id,
                dest_node=node,
                group=self.group,
                accuser=self.pid,
                accused=accused,
                accused_phase=accused_phase,
            )
        )

    def ensure_monitor(self, pid: int) -> None:
        """Optimistically trust ``pid`` for one detection budget (hints).

        Grants grace on the shared node monitor of ``pid``'s workstation
        and, under ``senders_only``, on its cell-stream monitor.  Monitors
        with first-hand evidence ignore the grace.
        """
        if pid == self.pid:
            return
        node = self.view.node_of(pid)
        if node is None:
            return  # unknown host: the hint cannot be validated yet
        service = self.service
        if node != service.node.node_id:
            if node not in self._interested_nodes:
                service.plane.register_interest(self.group, node, self.qos, self)
                self._interested_nodes.add(node)
            service.plane.grant_grace(node)
        monitors = self._stream_monitors
        if monitors is not None:
            monitor = monitors.get(pid)
            if monitor is None:
                monitor = self._create_stream_monitor(pid)
            elif monitor.cells_received > 0 or monitor.suspicions > 0 or monitor.trusted:
                return  # first-hand evidence: the grace would be a no-op
            monitor.grant_grace(self.scheduler.now + self.qos.detection_time)

    def on_leader_view(self, leader: Optional[int]) -> None:
        if leader == self._leader_view:
            return
        self._leader_view = leader
        self._lease_diverged_since = None
        self.service.trace.record_view(self.scheduler.now, self.group, self.pid, leader)
        manager = self.lease_manager
        if leader == self.pid:
            if not manager.tenure_active:
                manager.on_tenure_start(self.scheduler.now)
                self._ensure_lease_probe()
        elif manager.tenure_active:
            manager.on_tenure_end()
            # Watch subscriptions are anchored to this tenure; watchers
            # resubscribe at the new leader (their deadman timers fire and
            # re-send ``watch``, which redirects like any op).
            self._lease_watchers.clear()
        if self._on_leader_change is not None:
            self._on_leader_change(self.group, leader)

    def sync_sender(self) -> None:
        if self._shut_down:
            return
        self.service.batcher.set_active(self.group, self.algorithm.wants_to_send())

    def request_flush(self) -> None:
        # Out-of-schedule frame round on accusation bumps and local-leader
        # changes: without it every demotion splits the group for up to a
        # heartbeat period.
        if not self._shut_down:
            self.service.batcher.flush()

    def _send_all(self, messages: List) -> None:
        """One per-round fan-out through the transport's batched datapath
        (plain per-message sends on transports without one — test fakes)."""
        if not messages:
            return
        send_batch = getattr(self.transport, "send_batch", None)
        if send_batch is not None:
            send_batch(messages)
        else:
            send = self.transport.send
            for message in messages:
                send(message)

    # ------------------------------------------------------------------
    # Node-level trust bus (PlaneListener)
    # ------------------------------------------------------------------
    def on_node_trust(self, node: int) -> None:
        """The shared plane started trusting ``node``: fan out per pid."""
        if self._shut_down:
            return
        view = self.view
        for pid in view.pids_on_node(node):
            if pid != self.pid and view.is_present(pid):
                self.algorithm.on_trust(pid)

    def on_node_suspect(self, node: int) -> None:
        """The shared plane suspects ``node``: every pid there is suspect."""
        if self._shut_down:
            return
        view = self.view
        for pid in view.pids_on_node(node):
            if pid != self.pid and view.is_present(pid):
                self.algorithm.on_suspect(pid)

    # ------------------------------------------------------------------
    # Leader query (the API's "query" notification mode)
    # ------------------------------------------------------------------
    @property
    def leader(self) -> Optional[int]:
        """The service's current leader view for this group."""
        return self._leader_view

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_cell(self, sender: int, frame: BatchFrame, cell: AliveCell) -> None:
        """Ingest one group cell of a received frame.

        Payload before trust: the election must ingest the carried state
        (in particular a rebooted sender's *fresh* accusation time) before
        any trust transition triggers a leader recomputation — otherwise
        every re-trust briefly elects the sender on stale state.  The
        node-level monitor is fed *after* every cell of the frame (see
        ``LeaderElectionService._handle_frame``); the per-stream monitors
        below follow the same order within the cell.
        """
        changed = self.view.merge(cell.delta) if cell.delta else False
        self.algorithm.on_alive(cell)
        monitors = self._stream_monitors
        if monitors is not None:
            monitor = monitors.get(cell.pid)
            if monitor is None:
                monitor = self._create_stream_monitor(cell.pid)
            monitor.on_cell(
                frame.send_time + frame.interval + self.service.plane.delta_for(sender)
            )
        if changed:
            if self.service._swim:
                self._defer_membership_sync()
            else:
                self.algorithm.on_membership_changed()
                self._sync_membership_dependents()
        if cell.view_digest != self.view.digest64():
            self._push_sync(sender)

    def handle_hello(self, message: HelloMessage) -> None:
        service = self.service
        if service._swim and message.swim_updates:
            service.plane.apply_updates(message.swim_updates)
        changed = self.view.merge(message.members) if message.members else False
        if changed:
            if service._swim:
                self._defer_membership_sync()
            else:
                self._sync_membership_dependents()
        if message.leases:
            # Hub and spoke: only a tenure-active leader owes what it
            # learns onward; a follower's peers hear the same leader.
            relay = self.lease_manager.tenure_active
            if self._lease_watchers:
                # Watched leases changed by *gossiped* records (e.g. a
                # competing tenure's grants converging) push events too,
                # not just changes this leader decided itself.
                for lease in self.lease_ledger.merge_report(message.leases, relay):
                    self._notify_lease_watchers(lease)
            else:
                self.lease_ledger.merge(message.leases, relay)
        if message.kind == "join":
            self._send_hello_reply(message.sender_node)
        elif message.kind == "reply":
            # Seed trust from the live responder's own trust report: these
            # processes get one detection budget to speak for themselves.
            for pid in message.trusted:
                if pid != self.pid and self.view.is_present(pid):
                    self.ensure_monitor(pid)
            self.algorithm.on_hello_seed(message)
        if changed and not service._swim:
            # SWIM already queued the coalesced reaction above.
            self.algorithm.on_membership_changed()
        # Anti-entropy: a view digest still diverging after the merge
        # triggers a full-view sync (a join is already answered with a
        # full-view reply); the ledger has its own, debounced trigger.
        if message.kind != "join":
            view = message.view_digest != self.view.digest64()
            leases = self._lease_sync_due(message)
            if view or leases:
                self._push_sync(message.sender_node, view, leases)

    def _lease_sync_due(self, message: HelloMessage) -> bool:
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
        if message.lease_digest == self.lease_ledger.digest64():
            if (
                self._lease_diverged_since is not None
                and message.sender_node == self._leader_node()
            ):
                self._lease_diverged_since = None
            return False
        if message.kind == "sync" and (message.leases or not message.members):
            return True  # a ledger sync (an empty one carries neither half)
        if message.sender_node != self._leader_node():
            return False
        now = self.scheduler.now
        since = self._lease_diverged_since
        if since is None:
            self._lease_diverged_since = since = now
        return now - since >= self.service.config.hello_period

    def _leader_node(self) -> Optional[int]:
        """The node hosting the current leader view, if known (never a
        hello's sender when that leader is the local process)."""
        leader = self._leader_view
        return None if leader is None else self.view.node_of(leader)

    def handle_accuse(self, message: AccuseMessage) -> None:
        if message.accused == self.pid:
            applied = self.algorithm.on_accusation(message.accused_phase)
            if applied:
                self.service.trace.record_accusation(
                    self.scheduler.now, self.group, self.pid
                )

    # ------------------------------------------------------------------
    # Lease tier (leader-anchored; see repro.lease)
    # ------------------------------------------------------------------
    def _lease_quorum(self) -> bool:
        """True iff this leader can prove majority standing over the
        deployment's *static* node universe, on two independent axes:

        1. it has *continuously* plane-trusted a strict majority of the
           configured nodes (itself included) for at least the takeover
           grace, and
        2. its membership view's present members *span* a strict majority
           of those nodes.

        Together they form the grant-side half of the no-double-grant
        argument.  Both denominators are deliberately ``peer_nodes`` —
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
        service = self.service
        own = service.node.node_id
        peers = service.peer_nodes
        now = self.scheduler.now
        hold = self.lease_manager.grace
        universe = len(peers) if own in peers else len(peers) + 1
        trusted = sum(
            1
            for node in peers
            if node == own or service.plane.trusted_for(node, now) >= hold
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

    def submit_lease_request(
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
        self._lease_clients[message.client] = reply_to
        if event_to is not None:
            self._lease_event_sinks[message.client] = event_to
        if message.dest_node == self.service.node.node_id:
            self.handle_lease_request(message)
        else:
            self.transport.send(message)

    def handle_lease_request(self, message: LeaseRequestMessage) -> None:
        if message.op == "unwatch":
            # Fire-and-forget unsubscribe: no reply, so a stopped watcher
            # never spins up a retry loop just to say goodbye.  A lost
            # unwatch only costs spurious events until the tenure ends.
            watchers = self._lease_watchers.get(message.lease)
            if watchers is not None:
                watchers.pop(message.client, None)
                if not watchers:
                    del self._lease_watchers[message.lease]
            return
        decision = None
        if self._leader_view == self.pid:
            decision = self.lease_manager.handle(
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
                self._lease_watchers.setdefault(message.lease, {})[
                    message.client
                ] = message.sender_node
        my_node = self.service.node.node_id
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
                self._schedule_lease_flush()
        if reply.dest_node == my_node:
            self.handle_lease_reply(reply)
        else:
            self.transport.send(reply)
        if decision is not None and decision.changed:
            # After the requester's reply, so its own state machine settles
            # before watcher callbacks observe the change.
            self._notify_lease_watchers(message.lease)

    def handle_lease_reply(self, message: LeaseReplyMessage) -> None:
        reply_to = self._lease_clients.get(message.client)
        if reply_to is not None:
            reply_to(message)

    def handle_lease_event(self, message: LeaseEventMessage) -> None:
        sink = self._lease_event_sinks.get(message.client)
        if sink is not None:
            sink(message)

    def _notify_lease_watchers(self, lease: int) -> None:
        """Push the lease's current record to every registered watcher.

        Fire-and-forget, one event per watcher per ledger change; clients
        dedupe on (holder, token) and keep a deadman poll as the fallback,
        so a lost event costs latency, never correctness.  The guard makes
        the watcher-free hot path (the ``lease_load`` cell) a dict miss.
        """
        watchers = self._lease_watchers.get(lease)
        if not watchers:
            return
        record = self.lease_ledger.record(lease)
        if record is None:
            return
        my_node = self.service.node.node_id
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
                self.handle_lease_event(event)
            else:
                self.transport.send(event)

    def _schedule_lease_flush(self) -> None:
        """Coalesce ledger deltas into one push ~20 ms after a mutation.

        Replication is asynchronous by design (safety rests on fencing
        tokens, not on synchronous replication); the short delay batches a
        burst of grants into one HELLO per peer.
        """
        if self._lease_flush_pending or self._shut_down:
            return
        self._lease_flush_pending = True
        self.scheduler.schedule(0.02, self._flush_lease_deltas)
        self._ensure_lease_probe()

    def _flush_lease_deltas(self) -> None:
        self._lease_flush_pending = False
        if self._shut_down:
            return
        ledger = self.lease_ledger
        version = ledger.version
        sent = self._lease_sent_version
        my_node = self.service.node.node_id
        fields = self._hello_fields()
        sent_to = set()
        hellos = []
        for record in self.view.members():
            node = record.node
            if node == my_node or node in sent_to:
                continue
            sent_to.add(node)
            delta = ledger.delta_since(sent.get(node, 0))
            if not delta:
                continue
            sent[node] = version
            hellos.append(
                HelloMessage(
                    sender_node=my_node,
                    dest_node=node,
                    group=self.group,
                    kind="gossip",
                    leases=delta,
                    **fields,
                )
            )
        self._send_all(hellos)

    def _ensure_lease_probe(self) -> None:
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
            self._lease_probe_pending
            or self._shut_down
            or not self.lease_manager.tenure_active
            or len(self.lease_ledger) == 0
        ):
            return
        self._lease_probe_pending = True
        self.scheduler.schedule(self.lease_manager.detection_time, self._lease_probe)

    def _lease_probe(self) -> None:
        self._lease_probe_pending = False
        if (
            self._shut_down
            or not self.lease_manager.tenure_active
            or len(self.lease_ledger) == 0
        ):
            return
        my_node = self.service.node.node_id
        fields = self._hello_fields()
        sent_to = set()
        for record in self.view.members():
            node = record.node
            if node == my_node or node in sent_to:
                continue
            sent_to.add(node)
            self.transport.send(
                HelloMessage(
                    sender_node=my_node,
                    dest_node=node,
                    group=self.group,
                    kind="gossip",
                    **fields,
                )
            )
        self._ensure_lease_probe()

    # ------------------------------------------------------------------
    # Cell emission (CellSource for the AliveBatcher)
    # ------------------------------------------------------------------
    def dest_nodes(self) -> Tuple[int, ...]:
        """Frame destinations for this group (CellSource protocol)."""
        return self._dest_nodes

    def emit_cells(self):
        """Yield ``(dest_node, cell)`` for one emission round.

        The node-level FD header flows on every frame; a cell only needs to
        ride along when it carries *news*.  Under ``all_candidates`` (node
        liveness is process liveness) a destination's cell is therefore
        suppressed while the election payload is unchanged, no membership
        delta is owed, and a refresh went out within ``cell_refresh``
        seconds — the refresh repairs lost change cells and carries the
        anti-entropy digest.  ``senders_only`` groups (Ω_l) emit every
        round: their receivers' stream monitors feed on the cells
        themselves.

        One template cell is built per round; destinations owing no
        membership delta share it, so a steady-state round allocates at
        most one cell per group regardless of fan-out.

        SWIM mode sends the shared template to *every* destination —
        membership deltas ride the bounded hello gossip instead of cells,
        so cell emission stays O(changed payloads), never O(view) per
        destination (the carried digest still lets a diverged receiver
        trigger an anti-entropy sync).
        """
        dests = self._dest_nodes
        if not dests:
            return
        view = self.view
        version = view.version
        suppressible = self._stream_monitors is None
        now = self.scheduler.now
        if (
            suppressible
            and version == self._emit_stamp_version
            and self.algorithm.emit_stamp() == self._emit_stamp_alg
        ):
            # Stamps unchanged since the last full round: the payload is
            # provably identical, every destination is version-current and
            # owes no membership delta.  Skip the round outright while no
            # per-destination refresh is due; otherwise refresh only the
            # expired destinations, reusing the cached template cell (its
            # fields equal what a rebuild would produce).
            if now < self._emit_quiet_until:
                return
            refresh = self.service.cell_refresh
            template = self._emit_template
            cell_state = self._cell_state
            entry = None
            oldest = now
            for dest in dests:
                state = cell_state.get(dest)
                # A missing entry is a destination added by a *deferred*
                # membership sync (SWIM coalescing) after the full round
                # that stamped this version ran: send it the template now.
                if state is not None:
                    stamped = state[1]
                    if now - stamped < refresh:
                        if stamped < oldest:
                            oldest = stamped
                        continue
                if entry is None:
                    # One (payload, stamp) entry per round, shared by every
                    # destination refreshed at this instant.
                    entry = (self._emit_payload, now)
                cell_state[dest] = entry
                yield dest, template
            self._emit_quiet_until = oldest + refresh
            return
        digest = view.digest64()
        template = AliveCell(
            group=self.group,
            pid=self.pid,
            view_version=version,
            view_digest=digest,
        )
        self.algorithm.fill_alive(template)
        payload = (
            template.acc_time,
            template.phase,
            template.local_leader,
            template.local_leader_acc,
        )
        stamp = self.algorithm.emit_stamp()
        refresh = self.service.cell_refresh
        sent = self._sent_version
        cell_state = self._cell_state
        #: SWIM mode: cells never carry membership deltas.  Membership
        #: flows exclusively through the bounded hello gossip (which owns
        #: the shipped-version cursor), so a mass bootstrap costs the
        #: epidemic O(k·n) instead of every node streaming its whole view
        #: to every destination — the delta branch below is an O(view)
        #: scan per owing destination, which at 1000 nodes is exactly the
        #: O(n²)-per-round storm the SWIM plane exists to avoid.
        swim = self.service._swim
        #: One shared (payload, stamp) entry for everything sent this round.
        entry = (payload, now)
        #: Oldest still-fresh per-destination send time this round relied
        #: on — the first refresh to expire bounds the quiet window.
        oldest = now
        for dest in dests:
            if swim or sent.get(dest, 0) >= version:
                if suppressible:
                    state = cell_state.get(dest)
                    if (
                        state is not None
                        and state[0] == payload
                        and now - state[1] < refresh
                    ):
                        if state[1] < oldest:
                            oldest = state[1]
                        continue
                cell_state[dest] = entry
                yield dest, template
                continue
            delta = view.delta_since(sent.get(dest, 0))
            sent[dest] = version
            cell_state[dest] = entry
            cell = AliveCell(
                group=self.group,
                pid=self.pid,
                acc_time=template.acc_time,
                phase=template.phase,
                local_leader=template.local_leader,
                local_leader_acc=template.local_leader_acc,
                delta=delta,
                view_version=version,
                view_digest=digest,
            )
            yield dest, cell
        if suppressible and stamp is not None:
            # Every destination now holds the current payload and version;
            # the guards above re-run this full round the moment the
            # membership version or the payload stamp moves.
            self._emit_stamp_version = version
            self._emit_stamp_alg = stamp
            self._emit_template = template
            self._emit_payload = payload
            self._emit_quiet_until = oldest + refresh

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _create_stream_monitor(self, pid: int) -> StreamMonitor:
        monitor = StreamMonitor(
            self.scheduler,
            pid,
            on_trust=self.algorithm.on_trust,
            on_suspect=self.algorithm.on_suspect,
        )
        self._stream_monitors[pid] = monitor
        return monitor

    def _defer_membership_sync(self) -> None:
        """SWIM mode: coalesce membership-change reactions.

        The election recompute and the dependent re-alignment are pure
        functions of the *current* view, so when gossip lands a burst of
        mutations only the last state matters.  One callback per
        ``_SWIM_MEMBERSHIP_COALESCE`` window serves the whole burst; the
        all-pairs plane keeps its synchronous per-message reactions (its
        event timing is digest-pinned).
        """
        if self._membership_sync_pending or self._shut_down:
            return
        self._membership_sync_pending = True
        self.scheduler.schedule(
            _SWIM_MEMBERSHIP_COALESCE, self._run_deferred_membership_sync
        )

    def _run_deferred_membership_sync(self) -> None:
        self._membership_sync_pending = False
        if self._shut_down:
            return
        self.algorithm.on_membership_changed()
        self._sync_membership_dependents()

    def _sync_membership_dependents(self) -> None:
        """Align FD-plane interest and frame destinations with the members."""
        if self._shut_down:
            return
        service = self.service
        my_node = service.node.node_id
        current = {
            record.node for record in self.view.members() if record.node != my_node
        }
        dest_nodes = tuple(sorted(current))
        if dest_nodes != self._dest_nodes:
            self._dest_nodes = dest_nodes
            service.batcher.invalidate_dests()
        plane = service.plane
        for node in current - self._interested_nodes:
            plane.register_interest(self.group, node, self.qos, self)
        for node in self._interested_nodes - current:
            if plane.unregister_interest(self.group, node):
                # No group watches this peer anymore: its requested rate
                # must stop pinning the shared heartbeat interval.
                service.forget_peer(node)
            self._cell_state.pop(node, None)
            self._next_sync.pop(node, None)
            self._sync_cursor.pop(node, None)
            # Forget what we shipped: if the node id returns with a fresh
            # daemon, its first cell must bootstrap with the full view.
            self._sent_version.pop(node, None)
            self._lease_sent_version.pop(node, None)
        self._interested_nodes = current
        if self._stream_monitors is None:
            # all_candidates: node monitors exist for every candidate's
            # workstation, born *suspected* — the record proves nothing
            # about the process being up; trust comes from frames or an
            # explicit trust seed (grant_grace).
            for record in self.view.candidates():
                if record.node != my_node:
                    plane.ensure_monitor(record.node)
        else:
            # Drop stream monitors of processes that left the group.
            for pid in list(self._stream_monitors):
                if not self.view.is_present(pid):
                    self._stream_monitors.pop(pid).stop()

    def _hello_fields(self) -> dict:
        view = self.view
        fields = {
            "view_version": view.version,
            "view_digest": view.digest64(),
            "lease_digest": self.lease_ledger.digest64(),
        }
        service = self.service
        if service._swim:
            # Piggyback the plane's bounded rumour batch on whatever HELLO
            # round is going out (one batch per round: every message of the
            # round carries it, the dissemination budget burns once).
            updates = service.plane.piggyback()
            if updates:
                fields["swim_updates"] = updates
        return fields

    def _push_sync(
        self, dest_node: int, view: bool = True, leases: bool = False
    ) -> None:
        """Push the diverged half (full view, full ledger or both) to a
        peer — rate-limited anti-entropy.

        Convergence takes at most two pushes: after the peer merges our full
        view its records are a superset of ours, and its answering sync (its
        digest still differs) makes our view the same superset.
        """
        if self._shut_down:
            return
        now = self.scheduler.now
        if now < self._next_sync.get(dest_node, 0.0):
            return
        if self.service._swim:
            window, spent = self._sync_budget
            period = self.service.config.hello_period
            if now - window >= period:
                window, spent = now, 0
            if spent >= _SWIM_GOSSIP_FANOUT:
                return  # budget exhausted; the gossip rounds converge the rest
            self._sync_budget = (window, spent + 1)
        self._next_sync[dest_node] = now + self.service.config.hello_period
        members = records = ()
        if view and self.service._swim:
            # Bounded sync: stream the record set in fixed windows, one per
            # rate-limited push, rotating a per-destination cursor through
            # version space (wrapping back to 0 so records the peer lost
            # long ago are re-covered).  Convergence takes O(V / window)
            # pushes instead of one unbounded message — the trade the SWIM
            # plane exists to make.  The shipped-version cursor is left
            # alone: the window is keyed to the sync rotation, not to what
            # the delta path owes.
            cursor = self._sync_cursor.get(dest_node, 0)
            if cursor >= self.view.version:
                cursor = 0
            members, high = self.view.delta_window(cursor, _SWIM_SYNC_CAP)
            self._sync_cursor[dest_node] = high
        elif view:
            members = self.view.digest()
            self._sent_version[dest_node] = self.view.version
        if leases:
            records = self.lease_ledger.full()
            self._lease_sent_version[dest_node] = self.lease_ledger.version
            self._lease_diverged_since = None
        self.transport.send(
            HelloMessage(
                sender_node=self.service.node.node_id,
                dest_node=dest_node,
                group=self.group,
                kind="sync",
                members=members,
                leases=records,
                **self._hello_fields(),
            )
        )

    def _announce_join(self) -> None:
        """Flood the join to the bootstrap peer set (paper: the workstations
        configured to run the service).

        SWIM mode bounds the flood: the join goes to this node's id-ring
        successors only, whose replies seed the view; gossip, cell deltas
        and the epidemic plane spread the newcomer to everyone else.  The
        cap is what keeps a mass bootstrap O(k·n) messages, not O(n²).
        """
        service = self.service
        my_node = service.node.node_id
        peers = [n for n in service.peer_nodes if n != my_node]
        if service._swim and len(peers) > _SWIM_JOIN_FANOUT:
            peers.sort()
            start = bisect.bisect_left(peers, my_node)
            peers = [
                peers[(start + i) % len(peers)] for i in range(_SWIM_JOIN_FANOUT)
            ]
        view = self.view
        digest = view.digest()
        fields = self._hello_fields()
        hellos = []
        for node_id in peers:
            self._sent_version[node_id] = view.version
            hellos.append(
                HelloMessage(
                    sender_node=my_node,
                    dest_node=node_id,
                    group=self.group,
                    kind="join",
                    members=digest,
                    **fields,
                )
            )
        self._send_all(hellos)

    def _send_hello_reply(self, dest_node: int) -> None:
        trusted = tuple(
            [self.pid]
            + [
                record.pid
                for record in self.view.members()
                if record.pid != self.pid and self.trusted(record.pid)
            ]
        )
        self._sent_version[dest_node] = self.view.version
        self._lease_sent_version[dest_node] = self.lease_ledger.version
        self.transport.send(
            HelloMessage(
                sender_node=self.service.node.node_id,
                dest_node=dest_node,
                group=self.group,
                kind="reply",
                members=self.view.digest(),
                leader_hint=self.algorithm.leader_hint(),
                acc_table=self.algorithm.acc_entries(),
                trusted=trusted,
                leases=self.lease_ledger.full(),
                **self._hello_fields(),
            )
        )

    def _peer_nodes(self) -> Tuple[int, ...]:
        """Remote nodes hosting present members, each once, in member
        order — the gossip rounds' visit order.  Rebuilt only when the
        view version moves, not every hello period."""
        view = self.view
        if self._peer_nodes_version != view.version:
            my_node = self.service.node.node_id
            self._peer_nodes_cache = tuple(
                dict.fromkeys(r.node for r in view.members() if r.node != my_node)
            )
            self._peer_nodes_version = view.version
        return self._peer_nodes_cache

    def _send_hellos(self) -> None:
        """Periodic gossip: a membership *delta* (and digest) per peer node.

        Steady state ships an empty delta — the digest doubles as the
        anti-entropy heartbeat that lets a diverged peer notice and repair
        even when this group's cells are silent.  A peer that received a
        cell within the last hello period already holds our current digest
        (cells carry it), so its gossip is skipped entirely — in a healthy
        all-candidates group the cell refreshes replace gossip wholesale,
        removing the last O(groups × node pairs) steady-state message
        stream.
        """
        if self._shut_down:
            return
        self.service.node.meter.on_timer(self.group)
        now = self.scheduler.now
        if self.service._swim:
            self._swim_gossip_round(now)
            return
        view = self.view
        version = view.version
        ledger = self.lease_ledger
        lease_version = ledger.version
        hello_period = self.service.config.hello_period
        cell_state = self._cell_state
        if self._hello_stamp == (version, lease_version):
            # Versions unchanged since the last completed round: every
            # peer provably owes no membership or lease delta (a round
            # either verified that or shipped the delta and stamped the
            # peer current).  Skip the round outright while every covering
            # cell is still inside the hello period; otherwise gossip
            # (empty deltas) only to the uncovered peers, in the cached
            # peer order.
            if now < self._hello_quiet_until:
                return
            fields = None
            my_node = self.service.node.node_id
            oldest = now
            all_covered = True
            hellos = []
            for node in self._peer_nodes():
                state = cell_state.get(node)
                if state is not None and now - state[1] < hello_period:
                    if state[1] < oldest:
                        oldest = state[1]
                    continue
                all_covered = False
                if fields is None:
                    fields = self._hello_fields()
                hellos.append(
                    HelloMessage(
                        sender_node=my_node,
                        dest_node=node,
                        group=self.group,
                        kind="gossip",
                        members=(),
                        leases=(),
                        **fields,
                    )
                )
            self._send_all(hellos)
            if all_covered:
                self._hello_quiet_until = oldest + hello_period
            return
        fields = self._hello_fields()
        my_node = self.service.node.node_id
        sent = self._sent_version
        lease_sent = self._lease_sent_version
        #: Oldest covering-cell send time among skipped peers — the first
        #: coverage to lapse bounds the quiet window.
        oldest = now
        all_covered = True
        hellos = []
        for node in self._peer_nodes():
            delta = view.delta_since(sent.get(node, 0))
            lease_delta = ledger.delta_since(lease_sent.get(node, 0))
            if not delta and not lease_delta:
                state = cell_state.get(node)
                if state is not None and now - state[1] < hello_period:
                    # A fresh cell already carried our view digest — but
                    # cells never carry lease deltas, so an owed delta
                    # (checked above) still forces the gossip out.
                    if state[1] < oldest:
                        oldest = state[1]
                    continue
            all_covered = False
            if delta:
                sent[node] = version
            if lease_delta:
                lease_sent[node] = lease_version
            hellos.append(
                HelloMessage(
                    sender_node=my_node,
                    dest_node=node,
                    group=self.group,
                    kind="gossip",
                    members=delta,
                    leases=lease_delta,
                    **fields,
                )
            )
        self._send_all(hellos)
        self._hello_stamp = (version, lease_version)
        if all_covered:
            self._hello_quiet_until = oldest + hello_period
        else:
            # An uncovered peer gets gossip every round: a quiet window
            # carried over from an earlier stamp must not suppress it.
            self._hello_quiet_until = float("-inf")

    def _swim_gossip_round(self, now: float) -> None:
        """The SWIM-mode gossip round: bounded fan-out, windowed deltas.

        The all-pairs round may message every peer (its plane is O(n²)
        regardless); here at most :data:`_SWIM_GOSSIP_FANOUT` peers get a
        HELLO per period, chosen by rotating a cursor over the peer list so
        everyone is eventually visited, and each carries at most
        :data:`_SWIM_DELTA_CAP` membership records — the shipped-version
        cursor advances only to the window's watermark, streaming the rest
        across rounds.  Peers that owe nothing and were covered by a fresh
        cell are skipped for free, so the steady-state cost matches the
        all-pairs quiet path while the worst case stays O(k).
        """
        view = self.view
        version = view.version
        ledger = self.lease_ledger
        lease_version = ledger.version
        hello_period = self.service.config.hello_period
        cell_state = self._cell_state
        my_node = self.service.node.node_id
        sent = self._sent_version
        lease_sent = self._lease_sent_version
        nodes = self._peer_nodes()
        count = len(nodes)
        if not count:
            return
        fields = None
        budget = _SWIM_GOSSIP_FANOUT
        start = self._gossip_cursor % count
        hellos = []
        for i in range(count):
            node = nodes[(start + i) % count]
            last = sent.get(node, 0)
            lease_last = lease_sent.get(node, 0)
            state = cell_state.get(node)
            covered = state is not None and now - state[1] < hello_period
            if covered and last >= version and lease_last >= lease_version:
                continue
            if budget <= 0:
                # Out of fan-out; resume here next period.
                self._gossip_cursor = (start + i) % count
                break
            budget -= 1
            delta, high = view.delta_window(last, _SWIM_DELTA_CAP)
            sent[node] = high
            lease_delta = ledger.delta_since(lease_last)
            if lease_delta:
                lease_sent[node] = lease_version
            if fields is None:
                fields = self._hello_fields()
            hellos.append(
                HelloMessage(
                    sender_node=my_node,
                    dest_node=node,
                    group=self.group,
                    kind="gossip",
                    members=delta,
                    leases=lease_delta,
                    **fields,
                )
            )
        else:
            self._gossip_cursor = start
        self._send_all(hellos)


class LeaderElectionService:
    """The daemon: command handling, message dispatch, group runtimes."""

    def __init__(
        self,
        scheduler: Scheduler,
        transport: Transport,
        node: Node,
        peer_nodes: Tuple[int, ...],
        config: Optional[ServiceConfig] = None,
        rng: Optional[RngRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        configurator_cache: Optional[ConfiguratorCache] = None,
    ) -> None:
        self.scheduler = scheduler
        self.transport = transport
        self.node = node
        self.peer_nodes = tuple(peer_nodes)
        self.config = config if config is not None else ServiceConfig()
        self.rng = rng if rng is not None else RngRegistry(seed=0)
        self.trace = trace if trace is not None else TraceRecorder()
        self.configurator_cache = (
            configurator_cache if configurator_cache is not None else ConfiguratorCache()
        )
        self._registered: Dict[int, str] = {}
        self._groups: Dict[int, GroupRuntime] = {}
        self._join_seq = 0
        self._shut_down = False

        service_config = self.config
        # Validated by ServiceConfig.__post_init__ against the same mapping;
        # re-checked here because a boot-time crash beats a KeyError later.
        loader = FD_MONITOR_LOADERS.get(service_config.fd_variant)
        if loader is None:
            raise ValueError(f"unknown fd_variant {service_config.fd_variant!r}")
        stream = self.rng.stream(f"service.{node.node_id}.fd")
        #: The plane-selection seam.  Everything downstream of the plane —
        #: the trust/suspect listener bus, monitor readout, grace grants —
        #: is shared surface, so elections cannot tell which plane fired.
        #: The default plane's RNG stream and draw order are untouched by
        #: the branch (SWIM draws from its own derived stream), which is
        #: what keeps the all_pairs path bit-identical.
        self._swim = service_config.fd_plane == "swim"
        #: Effective steady-state cell re-send cadence.  Under all_pairs the
        #: refresh doubles as the liveness heartbeat's payload repair and
        #: must track ``cell_refresh`` exactly.  Under SWIM liveness comes
        #: from the probe ring and membership news from rumours, so the
        #: refresh is pure loss-repair anti-entropy and runs 4× slower —
        #: this is where the per-destination steady wire cost drops from
        #: O(n) full-rate streams to a trickle.
        self.cell_refresh = service_config.cell_refresh * (4.0 if self._swim else 1.0)
        if self._swim:
            self.plane = SwimFdPlane(
                scheduler=scheduler,
                transport=transport,
                node_id=node.node_id,
                rng=self.rng.stream(f"service.{node.node_id}.fd.swim"),
                cache=self.configurator_cache,
                probe_fanout=service_config.swim_probe_fanout,
                indirect_relays=service_config.swim_indirect_relays,
                loss_window=service_config.loss_window,
                delay_window=service_config.delay_window,
                ready_threshold=service_config.estimator_ready_threshold,
                # Optimistic trust must outlive the epidemic evidence delay:
                # on wide rings first-hand evidence for most peers arrives
                # with the peers' cell-refresh round, not with a probe.
                grace_floor=2.0 * self.cell_refresh,
                meter=node.meter,
            )
        else:
            self.plane = NodeFdPlane(
                scheduler=scheduler,
                node_id=node.node_id,
                monitor_class=loader(),
                cache=self.configurator_cache,
                loss_window=service_config.loss_window,
                delay_window=service_config.delay_window,
                ready_threshold=service_config.estimator_ready_threshold,
                meter=node.meter,
            )
        self.batcher = AliveBatcher(
            scheduler=scheduler,
            transport=transport,
            node_id=node.node_id,
            rng=stream,
            meter=node.meter,
            # SWIM: frames are dissemination carriers, not liveness signals
            # — cell-less, rumour-less frames are skipped and membership
            # rumours piggyback on every frame that does go out.
            payload_only=self._swim,
            rumours=self.plane if self._swim else None,
        )
        if self._swim:
            # A refutation of a suspicion about *us* must not wait a full
            # period: flush the frame plane so the alive rumour races the
            # suspicion's confirm timer.
            self.plane.set_flush_hook(self.batcher.flush)
        #: Last η requested from each peer node (rate-change hysteresis).
        self._last_requested_rate: Dict[int, float] = {}
        self._reconfig_timer = PeriodicTimer(
            scheduler,
            period_fn=lambda: service_config.reconfig_interval,
            callback=self._reconfigure,
            initial_delay=float(stream.uniform(0.5, 1.0))
            * service_config.reconfig_interval,
        )
        self._reconfig_timer.start()
        node.service = self
        node.set_receiver(self.handle_message)

    # ------------------------------------------------------------------
    # API entry points (used via repro.core.commands / repro.core.api)
    # ------------------------------------------------------------------
    def register(self, pid: int, name: str = "") -> None:
        """Register an application process under a unique identifier."""
        if pid in self._registered:
            raise ValueError(f"pid {pid} is already registered")
        self._registered[pid] = name

    def unregister(self, pid: int) -> None:
        """Unregister a process; leaves all groups it joined."""
        if pid not in self._registered:
            raise ValueError(f"pid {pid} is not registered")
        for group in [g for g, rt in self._groups.items() if rt.pid == pid]:
            self.leave(pid, group)
        del self._registered[pid]

    def join(
        self,
        pid: int,
        group: int,
        candidate: bool = True,
        qos: Optional[FDQoS] = None,
        algorithm: Optional[str] = None,
        on_leader_change: Optional[LeaderCallback] = None,
    ) -> GroupRuntime:
        """Join ``group``; see the paper's four join parameters (§4).

        ``candidate`` — compete for leadership or listen passively;
        ``qos`` — FD QoS used for this group's election;
        ``on_leader_change`` — interrupt-style notification (None = the
        application will query); ``algorithm`` — override the service-wide
        election algorithm (must be consistent across the group).
        """
        if pid not in self._registered:
            raise ValueError(f"pid {pid} is not registered")
        existing = self._groups.get(group)
        if existing is not None:
            if existing.pid == pid:
                raise ValueError(f"pid {pid} already joined group {group}")
            raise ValueError(
                f"group {group} is already served for pid {existing.pid} on this "
                "node (one process per group per node)"
            )
        runtime = GroupRuntime(
            service=self,
            group=group,
            pid=pid,
            candidate=candidate,
            qos=qos or self.config.default_qos,
            algorithm_name=algorithm or self.config.algorithm,
            on_leader_change=on_leader_change,
        )
        self._groups[group] = runtime
        runtime.start()
        return runtime

    def leave(self, pid: int, group: int) -> None:
        """Leave ``group`` voluntarily."""
        runtime = self._groups.get(group)
        if runtime is None or runtime.pid != pid:
            raise ValueError(f"pid {pid} is not in group {group}")
        runtime.leave()
        del self._groups[group]

    def leader_of(self, group: int) -> Optional[int]:
        """Query-mode readout of the current leader view for ``group``."""
        runtime = self._groups.get(group)
        return runtime.leader if runtime is not None else None

    def group_runtime(self, group: int) -> Optional[GroupRuntime]:
        """The runtime serving ``group`` on this node (introspection)."""
        return self._groups.get(group)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    #: Exact-type dispatch for the group-scoped message types; frames and
    #: rate requests are node-level and handled before the lookup.  Unknown
    #: types are ignored, as the isinstance chain once was.
    _DISPATCH = {
        HelloMessage: GroupRuntime.handle_hello,
        AccuseMessage: GroupRuntime.handle_accuse,
        LeaseRequestMessage: GroupRuntime.handle_lease_request,
        LeaseReplyMessage: GroupRuntime.handle_lease_reply,
        LeaseEventMessage: GroupRuntime.handle_lease_event,
    }

    def handle_message(self, message: Message) -> None:
        if self._shut_down:
            return
        message_type = type(message)
        if message_type is BatchFrame:
            self._handle_frame(message)
            return
        if message_type is RateRequestMessage:
            if message.interval > 0:  # network input: never crash on junk
                self.batcher.set_requested(message.sender_node, message.interval)
            return
        handler = self._DISPATCH.get(message_type)
        if handler is None:
            # SWIM probe traffic is node-level (no group), so it lands on
            # the dispatch miss path — zero cost for the default plane.
            if self._swim:
                if message_type is SwimPingMessage:
                    self.plane.on_ping(message)
                elif message_type is SwimPingReqMessage:
                    self.plane.on_ping_req(message)
                elif message_type is SwimAckMessage:
                    self.plane.on_ack(message)
            return
        runtime = self._groups.get(message.group)
        if runtime is not None:
            handler(runtime, message)

    def _handle_frame(self, frame: BatchFrame) -> None:
        """One frame: every group cell first, then the node-level FD header.

        Cell payloads must be ingested before the node monitor's trust
        transition fans out (payload before trust, see
        :meth:`GroupRuntime.handle_cell`).
        """
        sender = frame.sender_node
        groups = self._groups
        for cell in frame.cells:
            runtime = groups.get(cell.group)
            if runtime is not None:
                runtime.handle_cell(sender, frame, cell)
        # Piggybacked SWIM rumours ride after the cells for the same
        # payload-before-trust reason the header observation does.
        if self._swim and frame.swim_updates:
            self.plane.apply_updates(frame.swim_updates)
        self.plane.observe_frame(sender, frame.seq, frame.send_time, frame.interval)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Crash path: stop all timers and monitors, drop all state."""
        if self._shut_down:
            return
        self._shut_down = True
        for runtime in self._groups.values():
            runtime.shutdown()
        self._groups.clear()
        self._registered.clear()
        self._reconfig_timer.stop()
        self.batcher.shutdown()
        self.plane.shutdown()

    # ------------------------------------------------------------------
    # Shared FD plumbing
    # ------------------------------------------------------------------
    def _reconfigure(self) -> None:
        """Periodic FD reconfiguration, once over the whole node plane."""
        if self._shut_down:
            return
        self.node.meter.on_timer()
        threshold = self.config.rate_change_threshold
        for peer, params in self.plane.reconfigure_ready():
            last = self._last_requested_rate.get(peer)
            if last is not None and abs(params.eta - last) <= threshold * last:
                continue
            self._last_requested_rate[peer] = params.eta
            self.transport.send(
                RateRequestMessage(
                    sender_node=self.node.node_id,
                    dest_node=peer,
                    interval=params.eta,
                )
            )

    def forget_peer(self, node: int) -> None:
        """A peer left every hosted group: drop its node-level state —
        requested rate, outbound stream counter, link-quality history."""
        self.batcher.forget_node(node)
        self.plane.forget_node(node)
        self._last_requested_rate.pop(node, None)

    def next_join_seq(self) -> int:
        self._join_seq += 1
        return self._join_seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaderElectionService(node={self.node.node_id}, "
            f"groups={sorted(self._groups)})"
        )
