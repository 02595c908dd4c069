"""The shared node-level failure-detection plane.

Before the multi-group scale-out, every (group, remote process) pair ran its
own :class:`~repro.fd.monitor.NfdsMonitor` fed by its own ALIVE stream, so
FD timer load and heartbeat traffic grew with the number of hosted groups.
The paper's architecture is one daemon per workstation serving *many*
application processes and groups (§3-§4); what actually crashes is the
workstation, so one failure detector per **node pair** suffices — every
group's election consumes the same trust/suspect output, translated from
nodes to the pids hosted there.

:class:`FdPlaneBase` is the half of the :class:`~repro.runtime.base.FdPlane`
contract that every plane shares (interest table, strictest-QoS rule, trust
readout, listener fan-out); :class:`~repro.fd.swim.SwimFdPlane` is its other
subclass.  :class:`NodeFdPlane` owns, per peer node: one monitor (NFD-S or
NFD-E), which is also its stream's link-quality estimator and goes with the
last interested group, and the set of *interested* groups with their FD QoS.
The effective QoS of a node pair is the strictest (smallest detection time) among the interested groups, so no
group's detection bound is ever loosened by sharing.  Trust transitions fan
out through the registered listeners (the group runtimes), which map the
node to their local pids — the trust/suspect bus of the service layer.

:class:`StreamMonitor` is the cheap per-(group, sender) complement used only
by ``senders_only`` election algorithms (Ω_l): node-level liveness cannot
distinguish a *voluntarily silent* competitor (it stopped contributing cells
to the node's frames) from an active one, so each directly-heard sender gets
a lazy deadline timer keyed to its cells.  In steady state only the leader
sends, so this costs one timer per group, not one per (group, peer).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Protocol, Tuple, Type

from repro.fd.configurator import ConfiguratorCache, bootstrap_params
from repro.fd.monitor import NfdsMonitor
from repro.fd.qos import FDParams, FDQoS
from repro.metrics.usage import UsageMeter
from repro.net.message import BatchFrame
from repro.runtime.base import FdPlane
from repro.sim.vector import deadline_timer

__all__ = ["CELL_REFRESH", "CELL_ECHO_WAIT", "CELL_EARLY_ROUND",
           "PlaneListener", "FdPlaneBase", "NodeFdPlane", "StreamMonitor"]

#: Cell refresh period, seconds, on both planes.  An ``all_candidates``
#: group's cell rides a frame only until its destination acknowledges it
#: (see :mod:`repro.core.cells`) — and once per this period, the
#: anti-entropy for view digests and ledger heads.  This keeps cell bytes
#: O(node pairs), not O(groups × node pairs).
CELL_REFRESH = 8.0
#: Periods after a cell's send from which its echo is overdue: on all-pairs it
#: then rides every round (the next frame back, which echoes it, is due within
#: one); on swim a carrier back that leaves later without the echo shows it lost.
CELL_ECHO_WAIT = 1.5
#: A change on a node that has seen loss re-sends owed cells this many periods later.
CELL_EARLY_ROUND = 0.125


class PlaneListener(Protocol):
    """What a group runtime exposes to the node-level trust/suspect bus."""

    def on_node_trust(self, node: int) -> None: ...

    def on_node_suspect(self, node: int) -> None: ...


class FdPlaneBase(FdPlane):
    """What every node-level plane shares: the per-node interest table with
    its strictest-QoS rule, the trust readout over ``monitors``, the grace
    guard and the listener fan-out.  Subclasses supply the evidence — how a
    peer's ``monitors`` entry is made, fed and torn down."""

    #: See :class:`~repro.runtime.base.FdPlane`; the all-pairs default.
    header_is_liveness = True

    def __init__(
        self,
        scheduler,
        node_id: int,
        cache: ConfiguratorCache,
        meter: Optional[UsageMeter] = None,
    ) -> None:
        self.scheduler = scheduler
        self.node_id = node_id
        self._cache = cache
        self._meter = meter
        #: node -> per-peer state (``trusted`` / ``trusted_since`` at least).
        self.monitors: Dict[int, Any] = {}
        #: node -> group -> (qos, listener); insertion order = fan-out order.
        self._interests: Dict[int, Dict[int, Tuple[FDQoS, PlaneListener]]] = {}
        #: node -> strictest QoS among interested groups.
        self._effective_qos: Dict[int, FDQoS] = {}
        self._shut_down = False

    # ------------------------------------------------------------------
    # Interest registration (the fan-out bus)
    # ------------------------------------------------------------------
    def register_interest(
        self, group: int, node: int, qos: FDQoS, listener: PlaneListener
    ) -> None:
        """Subscribe ``group`` to trust transitions of ``node``; the pair
        is re-tightened to the strictest QoS among all subscribed groups."""
        if node == self.node_id or self._shut_down:
            return
        self._interests.setdefault(node, {})[group] = (qos, listener)
        self._refresh_qos(node)

    def unregister_interest(self, group: int, node: int) -> bool:
        """Drop ``group``'s subscription; the last leaver tears the pair down.

        Returns True when that happened — the caller then also forgets the
        peer's node-level state (its requested heartbeat rate).
        """
        groups = self._interests.get(node)
        if groups is None or group not in groups:
            return False
        del groups[group]
        if groups:
            self._refresh_qos(node)
            return False
        del self._interests[node]
        self._effective_qos.pop(node, None)
        self._drop_peer(node)
        return True

    def _refresh_qos(self, node: int) -> None:
        qos = min(
            (qos for qos, _ in self._interests[node].values()),
            key=lambda q: q.detection_time,
        )
        self._effective_qos[node] = qos
        self._qos_changed(node, qos)

    def ensure_monitor(self, node: int):
        """The peer's ``monitors`` entry, created *untrusted* if missing.

        An entry born here has no evidence the peer is up (a bare
        membership record proves nothing); trust comes from first-hand
        evidence or an explicit :meth:`grant_grace` seed.
        """
        if node == self.node_id or self._shut_down:
            return None
        monitor = self.monitors.get(node)
        if monitor is None:
            qos = self._effective_qos.get(node)
            if qos is None:
                return None  # no group cares about this node
            monitor = self.monitors[node] = self._new_monitor(node, qos)
        return monitor

    def trusted(self, node: int) -> bool:
        """Node-level FD output (a node always trusts itself)."""
        if node == self.node_id:
            return True
        monitor = self.monitors.get(node)
        return monitor is not None and monitor.trusted

    def trusted_for(self, node: int, now: float) -> float:
        """Seconds ``node`` has been *continuously* trusted (0.0 if not).

        A node's trust of itself is as old as this plane.  Quorum-style
        consumers (the lease tier) use this to require trust that has
        *held* over a window: a peer that was suspected and re-trusted a
        moment ago — a reconnecting partition remnant — counts as fresh,
        not established.
        """
        if node == self.node_id:
            return now
        monitor = self.monitors.get(node)
        if monitor is None or not monitor.trusted:
            return 0.0
        return max(0.0, now - monitor.trusted_since)

    def grant_grace(self, node: int) -> None:
        """Optimistically trust ``node`` for one budget (:meth:`_grant`).

        Used to seed a joiner's view from a live peer's trust report; a
        peer with any first-hand evidence ignores the grace, so the (very
        common) hint for an already-observed peer costs one dict hit.
        """
        monitor = self.monitors.get(node)
        if monitor is None:
            monitor = self.ensure_monitor(node)
            if monitor is None:
                return
        if monitor.alives_received > 0 or monitor.suspicions > 0 or monitor.trusted:
            return
        self._grant(node, monitor)

    # ------------------------------------------------------------------
    # Fan-out (node -> every interested group)
    # ------------------------------------------------------------------
    def _fan_trust(self, node: int) -> None:
        for _, listener in list(self._interests.get(node, {}).values()):
            listener.on_node_trust(node)

    def _fan_suspect(self, node: int) -> None:
        for _, listener in list(self._interests.get(node, {}).values()):
            listener.on_node_suspect(node)

    def shutdown(self) -> None:
        """Crash path: drop every peer and all interest."""
        self._shut_down = True
        self.monitors.clear()
        self._interests.clear()
        self._effective_qos.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        trusted = sorted(n for n, m in self.monitors.items() if m.trusted)
        return f"{type(self).__name__}(node={self.node_id}, trusted={trusted})"


class NodeFdPlane(FdPlaneBase):
    """One failure detector per peer *node*, shared by every hosted group;
    each is the link-quality estimator of that node's frame stream."""

    def __init__(
        self,
        scheduler,
        node_id: int,
        monitor_class: Type[NfdsMonitor],
        cache: ConfiguratorCache,
        meter: Optional[UsageMeter] = None,
    ) -> None:
        super().__init__(scheduler, node_id, cache, meter)
        self._monitor_class = monitor_class
        #: Every frame header is its sender's heartbeat.
        self.header_monitors = self.monitors

    def _drop_peer(self, node: int) -> None:
        monitor = self.monitors.pop(node, None)
        if monitor is not None:
            monitor.stop()

    def _qos_changed(self, node: int, qos: FDQoS) -> None:
        monitor = self.monitors.get(node)
        if monitor is not None and monitor.qos is not qos:
            monitor.qos = qos
            # Re-derive the timeout shift immediately: a strict-QoS group
            # must not inherit a looser group's detection bound until the
            # next periodic reconfiguration comes around.  With a warm
            # estimator the configurator gives the exact parameters; before
            # that, the bootstrap values of the new QoS bound δ from above.
            if monitor.ready:
                monitor.reconfigure()
            else:
                params = bootstrap_params(qos)
                if params.delta < monitor.delta:
                    monitor.delta = params.delta
                if params.eta < monitor.desired_eta:
                    monitor.desired_eta = params.eta

    # ------------------------------------------------------------------
    # Monitor plumbing
    # ------------------------------------------------------------------
    def _new_monitor(self, node: int, qos: FDQoS) -> NfdsMonitor:
        return self._monitor_class(
            scheduler=self.scheduler,
            pid=node,  # the monitored identity is the peer node
            qos=qos,
            cache=self._cache,
            on_trust=self._fan_trust,
            on_suspect=self._fan_suspect,
            meter=self._meter,
        )

    def observe_frame(self, frame: BatchFrame) -> None:
        """Feed a frame header to its sender's monitor, created if some group
        watches the sender (the daemon feeds an existing one itself)."""
        monitor = self.monitors.get(frame.sender_node)
        if monitor is None:
            monitor = self.ensure_monitor(frame.sender_node)
            if monitor is None:
                return
        monitor.on_alive(frame.seq, frame.send_time, frame.interval)

    def _grant(self, node: int, monitor: NfdsMonitor) -> None:
        monitor.grant_grace()  # one detection budget

    def observed_loss(self) -> float:
        # Pooled, not per link: one stream at 1 % loss shows its first gap
        # after ~100 frames — blind for ~20 s after either end reboots.
        lost = received = 0.0
        for monitor in self.monitors.values():
            stream_lost, stream_received = monitor.loss_counts()
            lost += stream_lost
            received += stream_received
        return lost / (lost + received) if lost else 0.0

    def delta_for(self, node: int) -> float:
        """Current timeout shift δ toward ``node`` (bootstrap if unknown)."""
        monitor = self.monitors.get(node)
        if monitor is not None:
            return monitor.delta
        qos = self._effective_qos.get(node)
        return bootstrap_params(qos if qos is not None else FDQoS()).delta

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def reconfigure_ready(self) -> Iterator[Tuple[int, FDParams]]:
        """Re-run the configurator for every monitor whose estimate is ready.

        One pass covers every node pair — the per-group reconfiguration
        timers this plane replaced ran the same computation once per
        (group, peer).  Yields ``(node, params)`` so the service can
        renegotiate the node-level heartbeat rate.
        """
        for node, monitor in self.monitors.items():
            if monitor.ready:
                yield node, monitor.reconfigure()

    def shutdown(self) -> None:
        """Crash path: disarm every monitor, drop all interest."""
        for monitor in self.monitors.values():
            monitor.stop()
        super().shutdown()


class StreamMonitor:
    """Per-(group, sender) cell-stream freshness for ``senders_only`` modes.

    Tracks whether one remote process is still *competing* (contributing
    cells) — the node-level plane already answers whether its workstation is
    up.  Shares the lazy-deadline timer idiom of
    :class:`~repro.fd.monitor.NfdsMonitor`; the deadline itself is computed
    by the caller from the frame's sender schedule plus the node pair's
    current δ, so stream monitors never need their own estimator.
    """

    __slots__ = (
        "scheduler",
        "pid",
        "trusted",
        "cells_received",
        "suspicions",
        "_on_trust",
        "_on_suspect",
        "_timer",
    )

    def __init__(
        self,
        scheduler,
        pid: int,
        on_trust: Callable[[int], None],
        on_suspect: Callable[[int], None],
    ) -> None:
        self.scheduler = scheduler
        self.pid = pid
        self.trusted = False
        self.cells_received = 0
        self.suspicions = 0
        self._on_trust = on_trust
        self._on_suspect = on_suspect
        self._timer = deadline_timer(scheduler, self._on_timeout)

    def on_cell(self, deadline: float) -> None:
        """A cell arrived; stay trusted until ``deadline``."""
        self.cells_received += 1
        if deadline <= self.scheduler.now:
            return  # stale: its freshness interval already expired
        self._timer.extend_to(deadline)
        if not self.trusted:
            self.trusted = True
            self._on_trust(self.pid)

    def grant_grace(self, horizon: float) -> None:
        """Optimistic trust until ``horizon`` (hint seeding, no evidence)."""
        if self.cells_received > 0 or self.suspicions > 0 or self.trusted:
            return
        self.trusted = True
        self._timer.extend_to(horizon)
        self._on_trust(self.pid)

    def _on_timeout(self) -> None:
        if self.trusted:
            self.trusted = False
            self.suspicions += 1
            self._on_suspect(self.pid)

    def stop(self) -> None:
        # End of life everywhere in the stack: close (frees a pool slot).
        self._timer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "trusted" if self.trusted else "suspected"
        return f"StreamMonitor(pid={self.pid}, {state})"
