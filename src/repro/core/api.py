"""Application-facing API: processes, group handles, crash-surviving hosts.

:class:`Application` is the shared-library side of the paper's architecture:
an application process registers once, then joins groups.  Each join returns
the group's :class:`GroupHandle`, the one object through which the process
uses that group: it holds the standing join (candidacy, FD QoS, algorithm),
reads the leader (query mode), fans leader changes out to any number of
watchers (interrupt mode), makes lease clients for the lease/lock tier
anchored on the group's stable leader, and leaves.

:class:`ServiceHost` ties a daemon to a workstation's lifecycle: when the
node crashes the daemon dies with it; when the node recovers, the host boots
a fresh daemon and the applications re-register and re-join their groups
(with their original pids — the paper's churn experiments rely on recovering
processes rejoining, e.g. S1's lower-id rejoin demotions, §6.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.commands import CommandHandler
from repro.core.service import LeaderElectionService, ServiceConfig
from repro.fd.configurator import ConfiguratorCache
from repro.fd.qos import FDQoS
from repro.lease.client import HostLeaseChannel, LeaseClient
from repro.metrics.trace import TraceRecorder
from repro.net.node import Node
from repro.runtime.base import Scheduler, Transport
from repro.sim.rng import RngRegistry

__all__ = ["Application", "GroupHandle", "ServiceHost"]

LeaderCallback = Callable[[int, Optional[int]], None]

#: A recovered node reboots its daemon after a delay drawn uniformly from
#: this range, in seconds.
RESTART_DELAY_RANGE = (0.02, 0.2)


class GroupHandle:
    """A joined group: its standing join, leader watchers and lease clients.

    Returned by :meth:`Application.join`; stays valid across daemon
    restarts (the standing join is replayed on rebind) until
    :meth:`leave` is called.
    """

    __slots__ = ("app", "group", "candidate", "qos", "algorithm", "_watchers", "_clients")

    def __init__(self, app: "Application", group: int) -> None:
        self.app = app
        self.group = group
        self.candidate = True
        self.qos: Optional[FDQoS] = None
        self.algorithm: Optional[str] = None
        self._watchers: List[LeaderCallback] = []
        self._clients: List[LeaseClient] = []

    def leader(self) -> Optional[int]:
        """Query-mode readout of the group's current leader (None while the
        app is unbound)."""
        handler = self.app._handler
        return handler.leader(self.group) if handler is not None else None

    def leave(self) -> None:
        """Leave the group.  The standing join, the watchers and every lease
        client this handle made go with it; a left handle is dead."""
        app = self.app
        if app._groups.get(self.group) is not self:
            return
        for client in self._clients:
            client.close()
        self._clients.clear()
        self._watchers.clear()
        del app._groups[self.group]
        if app._handler is not None:
            app._handler.leave(app.pid, self.group)

    def watch_leader(self, callback: LeaderCallback) -> Callable[[], None]:
        """Interrupt-style leader notifications: ``callback(group, leader)``
        on every change.  Returns an unsubscribe function."""
        watchers = self._watchers
        watchers.append(callback)

        def unsubscribe() -> None:
            if callback in watchers:  # not already unsubscribed or left
                watchers.remove(callback)

        return unsubscribe

    def _notify(self, group: int, leader: Optional[int]) -> None:
        # Snapshot: a watcher may (un)subscribe — or join/leave groups, as
        # the hierarchical-election example does — from inside the callback.
        for callback in list(self._watchers):
            callback(group, leader)

    def lease_client(
        self,
        *,
        client_id: Optional[int] = None,
        on_lost: Optional[Callable[[str], None]] = None,
        **kwargs,
    ) -> LeaseClient:
        """A lease client for the lease/lock tier anchored on this group's
        stable leader; the client id defaults to the app's pid.  It is
        closed when the handle leaves."""
        host = self.app.host
        if host is None:
            raise RuntimeError(
                "application is not attached to a ServiceHost; "
                "call ServiceHost.add_application first"
            )
        cid = client_id if client_id is not None else self.app.pid
        client = LeaseClient(
            HostLeaseChannel(host, self.group),
            host.scheduler,
            host.rng.stream(f"lease.app.{cid}.group.{self.group}"),
            group=self.group,
            client_id=cid,
            on_lost=on_lost,
            **kwargs,
        )
        self._clients.append(client)
        return client

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupHandle(group={self.group}, app={self.app.pid})"


class Application:
    """An application process using the leader election service."""

    def __init__(self, pid: int, name: str = "") -> None:
        self.pid = pid
        self.name = name or f"app-{pid}"
        self._handler: Optional[CommandHandler] = None
        #: The standing joins, in the order a rebind replays them.
        self._groups: Dict[int, GroupHandle] = {}
        #: Set by :meth:`ServiceHost.add_application`; lease clients need
        #: the host's scheduler/rng and its live daemon.
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
        handler.register(self.pid, self.name)
        for handle in list(self._groups.values()):
            handler.join(self.pid, handle.group, handle.candidate, handle.qos,
                         handle._notify, handle.algorithm)

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
        """Join ``group`` and return its :class:`GroupHandle` (the same
        object on a re-join).

        The join stands (it is replayed after crashes) once the daemon
        accepts it, or at once while the app is unbound.  A rejected join
        raises :class:`~repro.core.commands.CommandError` and leaves nothing
        standing.
        """
        handle = self._groups.get(group)
        if handle is None:
            handle = GroupHandle(self, group)
        if self._handler is not None:
            self._handler.join(self.pid, group, candidate, qos, handle._notify, algorithm)
        handle.candidate, handle.qos, handle.algorithm = candidate, qos, algorithm
        self._groups[group] = handle
        return handle

    @property
    def joined_groups(self) -> List[int]:
        return sorted(self._groups)

    def group(self, group: int) -> Optional[GroupHandle]:
        """The handle for a joined group (None if not joined)."""
        return self._groups.get(group)

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
        low, high = RESTART_DELAY_RANGE
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
