"""The per-workstation leader election daemon (paper §4, Figure 2).

One :class:`LeaderElectionService` instance runs on each node.  It hosts, per
group the local application joined, a :class:`GroupRuntime` that wires
together the four core modules of the paper's architecture:

* **Group Maintenance** — a :class:`~repro.core.group.MembershipView`
  maintained by HELLO gossip of membership *deltas* (ALIVE cells carry the
  sender's own record on first contact), with digest-triggered
  anti-entropy (a receiver whose 64-bit view digest differs from the
  sender's for a hello period pushes a ``"sync"`` HELLO);
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

A :class:`GroupRuntime` is the election's :class:`~repro.core.election.base.
GroupContext`, the group's lifecycle and the wiring of three components that
each own their state and timers: :mod:`repro.core.membership` (the view and
its HELLO gossip), :mod:`repro.core.cells` (cell emission and ingestion) and
:mod:`repro.lease.server` (the lease tier).  Which FD plane the daemon runs
is decided once, where it is constructed; everything else speaks the
:class:`~repro.runtime.base.FdPlane` contract.

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

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Optional, Tuple

from repro.core.cells import GroupCells
from repro.core.election.base import GroupContext
from repro.core.election.registry import available_algorithms, create_algorithm
from repro.core.group import MembershipView, make_incarnation
from repro.core.membership import Membership
from repro.fd.configurator import ConfiguratorCache, bootstrap_params, eta_range
from repro.fd.monitor import NfdsMonitor
from repro.fd.nfde import NfdeMonitor
from repro.fd.plane import NodeFdPlane
from repro.fd.qos import FDQoS
from repro.fd.scheduler import AliveBatcher
from repro.fd.swim import SwimFdPlane
from repro.lease.server import LeaseServer
from repro.metrics.trace import TraceRecorder
from repro.net.message import (
    AccuseMessage,
    BatchFrame,
    HelloMessage,
    LeaseEventMessage,
    LeaseReplyMessage,
    LeaseRequestMessage,
    Message,
    RateRequestMessage,
)
from repro.net.node import Node
from repro.runtime.base import FdPlane, Scheduler, Transport
from repro.runtime.timers import PeriodicTimer
from repro.sim.rng import RngRegistry

__all__ = ["ServiceConfig", "LeaderElectionService", "GroupRuntime"]

LeaderCallback = Callable[[int, Optional[int]], None]

#: fd_variant name → monitor class ("nfds": Chen et al.'s synchronized-clock
#: algorithm, what the paper's service runs; "nfde": the expected-arrival
#: variant for unsynchronized clocks).  The all-pairs plane's only choice.
FD_MONITORS = {"nfds": NfdsMonitor, "nfde": NfdeMonitor}

#: Node-level FD plane selection (see :mod:`repro.fd.swim`).
FD_PLANES = ("all_pairs", "swim")

#: Relative η change that triggers a RATE-REQUEST to the peer node.
RATE_CHANGE_THRESHOLD = 0.15

#: Period of group-maintenance gossip, in seconds.
HELLO_PERIOD = 1.0

#: How often the FD plane re-runs the configurator over its node pairs.
RECONFIG_INTERVAL = 5.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the daemon; defaults match the paper's experiments."""

    #: Election algorithm name (see :mod:`repro.core.election.registry`).
    algorithm: str = "omega_lc"
    #: Default FD QoS for joins that do not specify one (paper §6.1 values).
    default_qos: FDQoS = field(default_factory=FDQoS)
    #: Failure-detector variant (see :data:`FD_MONITORS`).
    fd_variant: str = "nfds"
    #: Node-level FD plane: "all_pairs" (the paper's — every node pair
    #: monitored, O(n²) wire/timers) or "swim" (randomized k-peer probing
    #: with epidemic dissemination, O(k·n) wire — see :mod:`repro.fd.swim`).
    fd_plane: str = "all_pairs"

    def __post_init__(self) -> None:
        """Validate eagerly: a bad config must fail at construction, not
        deep inside the first join (or, worse, the first monitor creation
        minutes into a run)."""
        if self.algorithm not in available_algorithms():
            raise ValueError(
                f"unknown election algorithm {self.algorithm!r} "
                f"(known: {', '.join(available_algorithms())})"
            )
        if self.fd_variant not in FD_MONITORS:
            raise ValueError(
                f"unknown fd_variant {self.fd_variant!r} "
                f"(expected one of {', '.join(FD_MONITORS)})"
            )
        if self.fd_plane not in FD_PLANES:
            raise ValueError(
                f"unknown fd_plane {self.fd_plane!r} "
                f"(expected one of {', '.join(FD_PLANES)})"
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
        self.plane = plane = service.plane
        self.group = group
        self.pid = pid
        self.candidate = candidate
        self.qos = qos
        self._on_leader_change = on_leader_change
        self._join_time = self.scheduler.now
        self._leader_view: Optional[int] = None
        self._shut_down = False
        self.view = view = MembershipView(group)
        # GroupContext's membership readout is the view's, bound directly.
        self.candidate_members = view.candidates
        self.is_present_candidate = view.is_present_candidate
        self.member_joined_at = view.joined_at
        self.algorithm = create_algorithm(algorithm_name, self)
        rng = service.rng.stream(f"service.{plane.node_id}.group.{group}")
        #: Group maintenance: one bounded gossip rule on either plane.
        self.membership = membership = Membership(
            self,
            bootstrap=service.peer_nodes,
            hello_period=HELLO_PERIOD,
            first_round=float(rng.uniform(0.0, HELLO_PERIOD)),
            meter=service.node.meter,
            forget_peer=service.forget_peer,
        )
        #: The lease tier: the replicated ledger rides the leader's cells,
        #: the manager grants only while the local pid leads.
        self.leases = leases = LeaseServer(membership, qos.detection_time, service.trace)
        self.lease_ledger = leases.ledger
        self.lease_manager = leases.manager
        #: The batcher's cell source and the receive side of the same cells.
        self.cells = cells = GroupCells(membership, service.batcher, leases)
        self._stream_monitors = cells.stream_monitors
        membership.carry(cells, leases)
        # The components' entry points, bound once (dispatch, client library).
        self.handle_cell = cells.handle_cell
        self.handle_hello = membership.handle_hello
        self.handle_lease_request = leases.handle_request
        self.handle_lease_reply = leases.handle_reply
        self.handle_lease_event = leases.handle_event
        self.submit_lease_request = leases.submit
        service.batcher.add_group(group, cells, eta=bootstrap_params(qos).eta)

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
        self.membership.start()

    def leave(self) -> None:
        """Voluntarily leave the group: tombstone, tell everyone, stop."""
        self.view.apply_leave(self.pid)
        # A last gossip round spreads the tombstone so the group re-elects
        # immediately instead of waiting for a failure detection.
        self.membership.send_hellos()
        self.service.trace.record_leave(self.scheduler.now, self.group, self.pid)
        self.shutdown()

    def shutdown(self) -> None:
        """Stop all activity (crash path: no goodbye messages)."""
        if self._shut_down:
            return
        self._shut_down = True
        self.leases.stop()
        self.algorithm.stop()
        self.membership.stop()
        self.service.batcher.remove_group(self.group)
        self.membership.release()
        self.cells.stop()

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
        if node is None or not self.plane.trusted(node):
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
        plane = self.plane
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
        if node != self.plane.node_id:
            self.membership.watch_node(node)
            self.plane.grant_grace(node)
        monitors = self._stream_monitors
        if monitors is not None:
            monitor = monitors.get(pid)
            if monitor is None:
                monitor = self.cells.stream_monitor(pid)
            elif monitor.cells_received > 0 or monitor.suspicions > 0 or monitor.trusted:
                return  # first-hand evidence: the grace would be a no-op
            monitor.grant_grace(self.scheduler.now + self.qos.detection_time)

    def on_leader_view(self, leader: Optional[int]) -> None:
        if leader == self._leader_view:
            return
        self._leader_view = leader
        self.service.trace.record_view(self.scheduler.now, self.group, self.pid, leader)
        self.leases.on_leader_view(leader)
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

    # ------------------------------------------------------------------
    # Node-level trust bus (PlaneListener)
    # ------------------------------------------------------------------
    def on_node_trust(self, node: int) -> None:
        """The shared plane started trusting ``node``: fan out per pid."""
        if self._shut_down:
            return
        self.cells.on_trust(node)
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

    @property
    def leader(self) -> Optional[int]:
        """The service's current leader view for this group (the API's
        "query" notification mode)."""
        return self._leader_view

    def handle_accuse(self, message: AccuseMessage) -> None:
        if message.accused == self.pid:
            applied = self.algorithm.on_accusation(message.accused_phase)
            if applied:
                self.service.trace.record_accusation(
                    self.scheduler.now, self.group, self.pid
                )


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
        stream = self.rng.stream(f"service.{node.node_id}.fd")
        #: The plane-selection seam, the daemon's one plane-dependent
        #: statement: everything downstream speaks the FdPlane contract, so
        #: elections cannot tell which plane fired.  The probing plane draws
        #: from its own derived RNG stream, which keeps the all_pairs path
        #: bit-identical.
        self.plane: FdPlane
        shared = dict(
            scheduler=scheduler, node_id=node.node_id, cache=self.configurator_cache, meter=node.meter
        )
        if service_config.fd_plane == "swim":
            swim_stream = self.rng.stream(f"service.{node.node_id}.fd.swim")
            self.plane = SwimFdPlane(transport=transport, rng=swim_stream, **shared)
        else:
            monitor_class = FD_MONITORS[service_config.fd_variant]
            self.plane = NodeFdPlane(monitor_class=monitor_class, **shared)
        self.batcher = AliveBatcher(
            scheduler=scheduler,
            transport=transport,
            node_id=node.node_id,
            rng=stream,
            meter=node.meter,
            plane=self.plane,
        )
        # A refutation of a suspicion about *us* must not wait a full
        # period: the plane flushes the frame round so the alive rumour
        # races the suspicion's confirm timer.  Its probes carry echoes too.
        self.plane.set_batcher(self.batcher)
        #: Node-level message types the plane consumes (probe traffic).
        self._plane_handlers = self.plane.message_handlers()
        #: The monitor a frame header goes to straight, by sender node.
        self._header_monitor = self.plane.header_monitors.get
        #: Last η requested from each peer node and its monitor's suspicion
        #: count then (rate-change hysteresis).
        self._last_requested_rate: Dict[int, Tuple[float, int]] = {}
        self._reconfig_timer = PeriodicTimer(
            scheduler,
            period_fn=lambda: RECONFIG_INTERVAL,
            callback=self._reconfigure,
            initial_delay=float(stream.uniform(0.5, 1.0)) * RECONFIG_INTERVAL,
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
    #: Exact-type dispatch for the group-scoped message types, to the entry
    #: point the runtime bound for each; frames and rate requests are
    #: node-level and handled before the lookup.  Unknown types are ignored.
    _DISPATCH = {
        HelloMessage: attrgetter("handle_hello"),
        AccuseMessage: attrgetter("handle_accuse"),
        LeaseRequestMessage: attrgetter("handle_lease_request"),
        LeaseReplyMessage: attrgetter("handle_lease_reply"),
        LeaseEventMessage: attrgetter("handle_lease_event"),
    }

    def handle_message(self, message: Message) -> None:
        if self._shut_down:
            return
        message_type = type(message)
        if message_type is BatchFrame:
            # Every cell before the FD header: payload before trust (see
            # GroupCells.handle_cell); piggybacked rumours are the plane's,
            # with the header.  Where frames flow every period, one without
            # an echo tells the batcher nothing (AliveBatcher.on_carrier).
            sender = message.sender_node
            for cell in message.cells:
                runtime = self._groups.get(cell.group)
                if runtime is not None:
                    runtime.handle_cell(sender, message, cell)
            if message.ack is not None or self.batcher.payload_only:
                self.batcher.on_carrier(sender, message.ack, message.send_time)
            monitor = self._header_monitor(sender)
            if monitor is None:
                self.plane.observe_frame(message)
            else:
                monitor.on_alive(message.seq, message.send_time, message.interval)
            return
        if message_type is RateRequestMessage:
            # Network input: obey only a period the configurator can ask for
            # a hosted group (1 µs would flood this daemon, inf blind its peers).
            budgets = [runtime.qos.detection_time for runtime in self._groups.values()]
            interval = message.interval
            if budgets and eta_range(min(budgets))[0] <= interval <= eta_range(max(budgets))[1]:
                self.batcher.set_requested(message.sender_node, interval)
            return
        handler = self._DISPATCH.get(message_type)
        if handler is None:
            # The plane's probe traffic is node-level (no group), so it
            # lands on the dispatch miss path — zero cost for a plane
            # that consumes none.
            handler = self._plane_handlers.get(message_type)
            if handler is not None:
                handler(message)
            return
        runtime = self._groups.get(message.group)
        if runtime is not None:
            handler(runtime)(message)

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
        for peer, params in self.plane.reconfigure_ready():
            monitor = self.plane.monitors[peer]
            if not monitor.trusted:
                continue  # a dead peer is not asked
            # One suspected since it was last asked may be a rebooted daemon
            # at the bootstrap η: it is asked again, moved answer or not.
            last, seen = self._last_requested_rate.get(peer, (0.0, -1))
            if seen == monitor.suspicions and abs(params.eta - last) <= RATE_CHANGE_THRESHOLD * last:
                continue
            self._last_requested_rate[peer] = (params.eta, monitor.suspicions)
            self.transport.send(
                RateRequestMessage(
                    sender_node=self.node.node_id,
                    dest_node=peer,
                    interval=params.eta,
                )
            )

    def forget_peer(self, node: int) -> None:
        """A peer left every hosted group: drop its node-level state —
        requested rate, outbound stream counter, the plane's probe state
        (its monitor and link history went with the last interest)."""
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
