"""Application-facing API: processes, group handles, crash-surviving hosts.

:class:`Application` is the shared-library side of the paper's architecture:
an application process registers once, then joins and leaves groups, chooses
whether it is a leadership candidate, picks interrupt- or query-style leader
notifications, and sets the FD QoS per group.

:meth:`Application.join` returns a first-class :class:`GroupHandle` — the
redesigned service surface.  Instead of threading a single
``on_leader_change`` callback through the join call, applications subscribe
any number of watchers with :meth:`GroupHandle.watch_leader`, read the
leader with :meth:`GroupHandle.leader`, and reach the lease/lock tier
anchored on the group's stable leader through :meth:`GroupHandle.lease`
(per-name) or :meth:`GroupHandle.lease_client` (the raw client).

:class:`ServiceHost` ties a daemon to a workstation's lifecycle: when the
node crashes the daemon dies with it; when the node recovers, the host boots
a fresh daemon and the applications re-register and re-join their groups
(with their original pids — the paper's churn experiments rely on recovering
processes rejoining, e.g. S1's lower-id rejoin demotions, §6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.commands import CommandHandler, Join, Leave, QueryLeader, Register
from repro.core.service import LeaderElectionService, ServiceConfig
from repro.fd.configurator import ConfiguratorCache
from repro.fd.qos import FDQoS
from repro.lease.client import HostLeaseChannel, LeaseClient, LeaseGrant
from repro.metrics.trace import TraceRecorder
from repro.net.message import LeaseReplyMessage
from repro.net.node import Node
from repro.runtime.base import Scheduler, Transport
from repro.sim.rng import RngRegistry

__all__ = ["Application", "GroupHandle", "LeaseHandle", "ServiceHost"]

LeaderCallback = Callable[[int, Optional[int]], None]


@dataclass
class _JoinSpec:
    group: int
    candidate: bool
    qos: Optional[FDQoS]
    algorithm: Optional[str]


class LeaseHandle:
    """One named lease as seen by one application (see :class:`GroupHandle`).

    A thin veneer over the group's shared :class:`~repro.lease.client
    .LeaseClient`: the name and requested TTL are fixed at construction,
    the fencing token of the current grant is one property away.
    """

    __slots__ = ("client", "name", "ttl")

    def __init__(self, client: LeaseClient, name: str, ttl: float) -> None:
        self.client = client
        self.name = name
        self.ttl = ttl

    def acquire(
        self,
        callback: Optional[Callable[[LeaseReplyMessage], None]] = None,
        *,
        wait: bool = True,
    ) -> None:
        """Acquire (and then auto-renew) the lease; see
        :meth:`repro.lease.client.LeaseClient.acquire`."""
        self.client.acquire(self.name, self.ttl, callback, wait=wait)

    def release(
        self, callback: Optional[Callable[[LeaseReplyMessage], None]] = None
    ) -> bool:
        return self.client.release(self.name, callback)

    def query(self, callback: Callable[[LeaseReplyMessage], None]) -> None:
        self.client.query(self.name, callback)

    def watch(
        self,
        callback: Callable[[LeaseReplyMessage], None],
        period: float = 1.0,
    ) -> Callable[[], None]:
        return self.client.watch(self.name, callback, period)

    @property
    def grant(self) -> Optional[LeaseGrant]:
        """The live grant (None if not currently held)."""
        return self.client.grant(self.name)

    @property
    def token(self) -> Optional[int]:
        """The held grant's fencing token (None if not held) — pass it to
        downstream resources so stale holders can be fenced off."""
        grant = self.client.grant(self.name)
        return grant.token if grant is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        held = self.grant
        state = f"token={held.token}" if held is not None else "unheld"
        return f"LeaseHandle({self.name!r}, {state})"


class GroupHandle:
    """A joined group, as a first-class object.

    Returned by :meth:`Application.join`; stays valid across daemon
    restarts (the standing join is replayed on rebind) until
    :meth:`leave` is called.
    """

    __slots__ = ("app", "group", "_lease_client")

    def __init__(self, app: "Application", group: int) -> None:
        self.app = app
        self.group = group
        self._lease_client: Optional[LeaseClient] = None

    def leader(self) -> Optional[int]:
        """Query-mode readout of the group's current leader."""
        return self.app.leader(self.group)

    def leave(self) -> None:
        """Leave the group; the handle (and its lease client) go dead."""
        if self._lease_client is not None:
            self._lease_client.close()
            self._lease_client = None
        self.app.leave(self.group)

    def watch_leader(self, callback: LeaderCallback) -> Callable[[], None]:
        """Interrupt-style leader notifications: ``callback(group, leader)``
        on every change.  Returns an unsubscribe function."""
        return self.app._add_leader_listener(self.group, callback)

    def lease_client(
        self,
        *,
        client_id: Optional[int] = None,
        on_lost: Optional[Callable[[str], None]] = None,
        **kwargs,
    ) -> LeaseClient:
        """A dedicated lease client for this group (advanced use; most code
        wants :meth:`lease`).  Defaults the client id to the app's pid."""
        host = self.app.host
        if host is None:
            raise RuntimeError(
                "application is not attached to a ServiceHost; "
                "call ServiceHost.add_application first"
            )
        cid = client_id if client_id is not None else self.app.pid
        return LeaseClient(
            HostLeaseChannel(host, self.group),
            host.scheduler,
            host.rng.stream(f"lease.app.{cid}.group.{self.group}"),
            group=self.group,
            client_id=cid,
            on_lost=on_lost,
            **kwargs,
        )

    def lease(self, name: str, ttl: float = 0.0) -> LeaseHandle:
        """A handle on the named lease/lock anchored on this group's stable
        leader (``ttl`` 0.0 = the server's maximum)."""
        if self._lease_client is None:
            self._lease_client = self.lease_client()
        return LeaseHandle(self._lease_client, name, ttl)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupHandle(group={self.group}, app={self.app.pid})"


class Application:
    """An application process using the leader election service."""

    def __init__(self, pid: int, name: str = "") -> None:
        self.pid = pid
        self.name = name or f"app-{pid}"
        self._handler: Optional[CommandHandler] = None
        self._joins: Dict[int, _JoinSpec] = {}
        self._handles: Dict[int, GroupHandle] = {}
        self._leader_listeners: Dict[int, List[LeaderCallback]] = {}
        #: Set by :meth:`ServiceHost.add_application`; GroupHandle.lease()
        #: needs the host's scheduler/rng and its live daemon.
        self.host: Optional["ServiceHost"] = None

    # ------------------------------------------------------------------
    # Binding (done by the host on every daemon (re)start)
    # ------------------------------------------------------------------
    def bind(self, handler: CommandHandler) -> None:
        """Attach to a daemon: register and replay standing group joins.

        Joins execute synchronously, and a leader-change interrupt fired
        from inside one may itself join or leave groups (hierarchical
        elections do exactly this) — hence the snapshot.
        """
        self._handler = handler
        handler.execute(Register(pid=self.pid, name=self.name))
        for spec in list(self._joins.values()):
            self._execute_join(spec)

    def unbind(self) -> None:
        """The daemon died (node crash); API calls will fail until rebind."""
        self._handler = None

    @property
    def bound(self) -> bool:
        return self._handler is not None

    # ------------------------------------------------------------------
    # The service API (paper §4)
    # ------------------------------------------------------------------
    def join(
        self,
        group: int,
        candidate: bool = True,
        qos: Optional[FDQoS] = None,
        algorithm: Optional[str] = None,
    ) -> GroupHandle:
        """Join ``group``; the join is standing (re-applied after crashes).

        Returns the group's :class:`GroupHandle`; subscribe to leader
        changes through :meth:`GroupHandle.watch_leader` (any number of
        watchers).
        """
        spec = _JoinSpec(group, candidate, qos, algorithm)
        self._joins[group] = spec
        if self._handler is not None:
            self._execute_join(spec)
        handle = self._handles.get(group)
        if handle is None:
            handle = self._handles[group] = GroupHandle(self, group)
        return handle

    def leave(self, group: int) -> None:
        """Leave ``group`` (also removes the standing join)."""
        self._joins.pop(group, None)
        self._handles.pop(group, None)
        self._leader_listeners.pop(group, None)
        if self._handler is not None:
            self._handler.execute(Leave(pid=self.pid, group=group))

    def leader(self, group: int) -> Optional[int]:
        """Query-mode readout of the group's current leader."""
        if self._handler is None:
            return None
        return self._handler.execute(QueryLeader(group=group))

    @property
    def joined_groups(self) -> List[int]:
        return sorted(self._joins)

    def group(self, group: int) -> Optional[GroupHandle]:
        """The handle for a joined group (None if not joined)."""
        return self._handles.get(group)

    # ------------------------------------------------------------------
    # Leader-change fan-out (GroupHandle.watch_leader)
    # ------------------------------------------------------------------
    def _add_leader_listener(
        self, group: int, callback: LeaderCallback
    ) -> Callable[[], None]:
        listeners = self._leader_listeners.setdefault(group, [])
        listeners.append(callback)

        def unsubscribe() -> None:
            try:
                listeners.remove(callback)
            except ValueError:
                pass  # already unsubscribed (or the group was left)

        return unsubscribe

    def _dispatch_leader_change(self, group: int, leader: Optional[int]) -> None:
        # Snapshot: a watcher may (un)subscribe — or join/leave groups, as
        # the hierarchical-election example does — from inside the callback.
        for callback in list(self._leader_listeners.get(group, ())):
            callback(group, leader)

    def _execute_join(self, spec: _JoinSpec) -> None:
        assert self._handler is not None
        self._handler.execute(
            Join(
                pid=self.pid,
                group=spec.group,
                candidate=spec.candidate,
                qos=spec.qos,
                on_leader_change=self._dispatch_leader_change,
                algorithm=spec.algorithm,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Application(pid={self.pid}, groups={self.joined_groups})"


class ServiceHost:
    """Runs the daemon on one node and restarts it after recoveries."""

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
        restart_delay_range: Tuple[float, float] = (0.02, 0.2),
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
        self.restart_delay_range = restart_delay_range
        self.apps: List[Application] = []
        self.service: Optional[LeaderElectionService] = None
        self.restarts = 0
        node.add_observer(self)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_application(self, app: Application) -> Application:
        """Attach an application process to this workstation."""
        self.apps.append(app)
        app.host = self
        if self.service is not None:
            app.bind(CommandHandler(self.service))
        return app

    def start(self) -> None:
        """Boot the daemon and bind all applications."""
        self._boot()

    def _boot(self) -> None:
        self.service = LeaderElectionService(
            scheduler=self.scheduler,
            transport=self.transport,
            node=self.node,
            peer_nodes=self.peer_nodes,
            config=self.config,
            rng=self.rng,
            trace=self.trace,
            configurator_cache=self.configurator_cache,
        )
        handler = CommandHandler(self.service)
        for app in self.apps:
            app.bind(handler)

    # ------------------------------------------------------------------
    # Node lifecycle (NodeObserver)
    # ------------------------------------------------------------------
    def on_node_crash(self, node: Node) -> None:
        self.trace.record_crash(self.scheduler.now, node.node_id)
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        for app in self.apps:
            app.unbind()

    def on_node_recover(self, node: Node) -> None:
        self.trace.record_recover(self.scheduler.now, node.node_id)
        low, high = self.restart_delay_range
        stream = self.rng.stream(f"host.{node.node_id}.restart")
        delay = float(stream.uniform(low, high))
        self.scheduler.schedule(delay, self._restart_after_recovery)

    def _restart_after_recovery(self) -> None:
        if not self.node.up or self.service is not None:
            return  # crashed again before the restart, or already restarted
        self.restarts += 1
        self._boot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.service is not None else "down"
        return f"ServiceHost(node={self.node.node_id}, {state})"
