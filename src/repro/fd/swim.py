"""SWIM-style node-level failure detection (the scalable FD plane).

The default :class:`~repro.fd.plane.NodeFdPlane` monitors every node pair:
wire bytes and timer load grow O(n²), which caps deployments near the
paper's 100-workstation cell.  This module implements the alternative
selected by ``ServiceConfig.fd_plane = "swim"``: randomized probing in the
style of SWIM (Das et al., DSN 2002), adapted to this service's QoS-driven
architecture.

Per protocol period a node probes ``k`` peers drawn round-robin from a
shuffled ring (so the interval between successive probes of any one peer is
bounded by one ring round, SWIM §4.3).  A missed direct ACK escalates to
``j`` indirect ``ping-req`` relays before the target is declared suspect,
which keeps one lossy direct path from producing a false suspicion.
Alive/suspect/confirm updates disseminate epidemically by piggybacking
bounded batches on whatever already travels.  Three carriers ask
:meth:`SwimFdPlane.piggyback` for one, each call burning one send of every
rumour handed: the heartbeat :class:`~repro.net.message.BatchFrame` fan-out
(one batch per destination, offered in id-ring order from the node's
successor so that holders cover different arcs — the carrier that brings a
suspicion to the whole group, on the flush it causes), probe traffic (one
per ping, ping-req and ack) and HELLO gossip (one per round, shared by the
round's messages; rare since quiet rounds send nothing).  A rumour is queued
*before* the transition it reports is fanned to the listeners — state before
the reaction to it, as with a cell's payload before trust.  Pings and acks
also carry a cell echo when the batcher holds one for their destination
(``AliveBatcher.acks``), and hand the one they bring back to it: a frame
back need not come soon on this plane.

What stays the paper's math:

* suspicion timeouts come from the same ``FDQoS`` →
  :class:`~repro.fd.configurator.ConfiguratorCache` pipeline, applied to the
  *probed subset*: the protocol period is the configured η and the
  direct-probe timeout the configured δ, re-derived each period from the
  freshest ready estimator under the strictest interested QoS;
* link quality is measured with the same
  :class:`~repro.fd.estimator.LinkQualityEstimator` — probe sequence
  numbers feed its loss tracker, ACK round-trips its delay moments — but
  estimator state is kept only for *currently probed* peers under a bounded
  LRU, so memory is O(k), not O(n).

The plane satisfies the :class:`~repro.runtime.base.FdPlane` contract and
shares :class:`~repro.fd.plane.FdPlaneBase` with the default plane (interest
registration, ``monitors`` with ``.trusted``/``.trusted_since``, the
trust/suspect listener bus), so the election layer cannot tell which plane
fired — that is the selection seam's contract.

Timer story: ONE periodic timer per plane.  Probe timeouts and
suspect→confirm escalations are swept each tick instead of owning per-probe
timers, so timer load is O(1) per node against the default plane's O(n).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.fd.configurator import ConfiguratorCache, bootstrap_params
from repro.fd.estimator import LinkQualityEstimator
from repro.fd.plane import FdPlaneBase, PlaneListener
from repro.fd.qos import FDParams, FDQoS
from repro.metrics.usage import UsageMeter
from repro.net.message import (
    BatchFrame,
    SwimAckMessage,
    SwimPingMessage,
    SwimPingReqMessage,
    SwimUpdate,
    swim_update_wins,
)
from repro.runtime.timers import PeriodicTimer

__all__ = ["SwimFdPlane", "SwimPeerState"]

#: Peers probed per protocol period (k).
PROBE_FANOUT = 2
#: Indirect ping-req relays tried before declaring suspicion (j).
INDIRECT_RELAYS = 3
#: Bound of the estimator LRU over currently-probed peers (O(k) memory).
LINKS_CAP = max(16, 4 * (PROBE_FANOUT + INDIRECT_RELAYS))
#: Max piggybacked updates per message (SWIM bounds every payload).
MAX_PIGGYBACK = 8
#: Rumour buffer capacity; new rumours evict the most-disseminated one.
RUMOUR_BUFFER = 128
#: Minimum optimistic-trust horizon, seconds.  On wide rings first-hand
#: evidence for a peer may take a ring round or a cell refresh to arrive, so
#: grace must outlive that or a mass bootstrap dissolves into a
#: cluster-wide false-suspicion wave.
GRACE_FLOOR = 8.0

_INF = float("inf")


@dataclass(slots=True, eq=False)
class SwimPeerState:
    """Per-peer SWIM state: a ``monitors`` entry of the
    :class:`~repro.runtime.base.FdPlane` contract (``trusted``,
    ``trusted_since``) plus the evidence counters and rumour precedence."""

    node: int
    #: Plane output.  Born untrusted, exactly like the default plane's
    #: monitors: a membership record proves nothing about the process.
    trusted: bool = False
    trusted_since: float = 0.0
    #: First-hand evidence count (frames, pings, acks received from the
    #: peer) — the same guard the default plane uses to ignore grace.
    alives_received: int = 0
    suspicions: int = 0
    #: Highest incarnation seen for the peer, and the winning rumour
    #: status at that incarnation (SWIM's override precedence).
    incarnation: int = 0
    status: str = "alive"
    last_evidence: float = -_INF
    #: Optimistic-trust horizon while no evidence exists (join hints).
    grace_until: float = -_INF
    #: When a local suspicion escalates to a ``confirm`` rumour.
    confirm_at: float = _INF

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "trusted" if self.trusted else "suspected"
        return f"SwimPeerState(node={self.node}, {state}, inc={self.incarnation})"


@dataclass(slots=True)
class _Probe:
    """One outstanding direct probe, swept (not timer-armed) per tick."""

    nonce: int
    target: int
    seq: int
    sent_at: float
    escalate_at: float
    deadline: float
    escalated: bool = False


@dataclass(slots=True)
class _LinkState:
    """Bounded-LRU entry: estimator + probe sequence for one probed peer."""

    estimator: LinkQualityEstimator
    next_seq: int = 0


class SwimFdPlane(FdPlaneBase):
    """Randomized-probing FD plane (see the module docstring)."""

    #: The probe ring, not the frame header, is the liveness signal.
    header_is_liveness = False
    header_monitors: Mapping[int, SwimPeerState] = MappingProxyType({})

    def __init__(
        self,
        scheduler,
        transport,
        node_id: int,
        rng,
        cache: ConfiguratorCache,
        meter: Optional[UsageMeter] = None,
    ) -> None:
        super().__init__(scheduler, node_id, cache, meter)
        self.transport = transport
        self._rng = rng
        #: Strictest QoS across every interest — the probed subset shares
        #: one (η, δ) because the probe schedule is plane-wide.
        self._plane_qos: Optional[FDQoS] = None
        self._params: FDParams = bootstrap_params(FDQoS())

        #: The shuffled probe ring; reshuffled once per full round and when
        #: the interest set changes, per SWIM §4.3's bounded probe interval.
        self._ring: List[int] = []
        self._ring_pos = 0
        self._ring_stale = True

        #: nonce -> outstanding probe (swept each tick; no per-probe timer).
        self._probes: Dict[int, _Probe] = {}
        self._nonce = 0
        #: Our own incarnation number: bumped only by us, to refute.
        self.incarnation = 0
        #: node -> [winning update, remaining piggyback sends].
        self._rumours: "OrderedDict[int, list]" = OrderedDict()
        #: Instrumentation only: non-empty rumour batches handed to each carrier.
        self.batches_handed = {"frame": 0, "probe": 0, "hello": 0}
        #: Bounded estimator LRU over currently-probed peers.
        self._links: "OrderedDict[int, _LinkState]" = OrderedDict()
        #: The frame batcher's flush (it spreads urgent rumours), its cell
        #: echoes per peer (each rides once) and its carrier hook.
        self._flush = self._carried = lambda *_: None
        self._acks: Dict[int, int] = {}
        #: The plane's single timer, created at the first interest so its
        #: random initial phase is drawn then.
        self._timer: Optional[PeriodicTimer] = None

    def set_batcher(self, batcher) -> None:
        self._flush, self._acks, self._carried = batcher.flush, batcher.acks, batcher.on_carrier

    def message_handlers(self):
        return {
            SwimPingMessage: self.on_ping,
            SwimPingReqMessage: self.on_ping_req,
            SwimAckMessage: self.on_ack,
        }

    # ------------------------------------------------------------------
    # Interest registration
    # ------------------------------------------------------------------
    def register_interest(
        self, group: int, node: int, qos: FDQoS, listener: PlaneListener
    ) -> None:
        if node == self.node_id or self._shut_down:
            return
        super().register_interest(group, node, qos, listener)
        self._ring_stale = True
        if self._timer is None:
            # A random initial phase desynchronizes the cluster's probe
            # ticks, mirroring the heartbeat batcher's start-up jitter.
            self._timer = PeriodicTimer(
                self.scheduler,
                period_fn=lambda: self._params.eta,
                callback=self._tick,
                initial_delay=float(self._rng.uniform(0.0, self._params.eta)),
            )
            self._timer.start()

    def _drop_peer(self, node: int) -> None:
        self.monitors.pop(node, None)
        self._ring_stale = True
        self._refresh_plane_qos()

    def _qos_changed(self, node: int, qos: FDQoS) -> None:
        self._refresh_plane_qos()

    def _refresh_plane_qos(self) -> None:
        if not self._effective_qos:
            self._plane_qos = None
            return
        qos = min(self._effective_qos.values(), key=lambda q: q.detection_time)
        if qos is not self._plane_qos:
            self._plane_qos = qos
            self._params = bootstrap_params(qos)

    # ------------------------------------------------------------------
    # Monitor surface
    # ------------------------------------------------------------------
    def _new_monitor(self, node: int, qos: FDQoS) -> SwimPeerState:
        return SwimPeerState(node)

    def observe_frame(self, frame: BatchFrame) -> None:
        """A heartbeat frame is first-hand alive evidence (no deadline: the
        probe ring, not frame freshness, drives suspicion here).  Rumours
        piggybacked on it are applied first — they ride after the frame's
        cells for the same payload-before-trust reason the header does."""
        if frame.swim_updates:
            self.apply_updates(frame.swim_updates)
        self._evidence_alive(frame.sender_node)

    def _grant(self, node: int, peer: SwimPeerState) -> None:
        """Trust ``node`` while the probe ring gets to it.

        Twice the detection budget: probe-based evidence has ring-round
        granularity, so the default plane's one-budget grace would expire
        before the first frame or ACK lands on larger rings.
        """
        qos = self._effective_qos.get(node)
        budget = (qos.detection_time if qos is not None else FDQoS().detection_time)
        now = self.scheduler.now
        peer.trusted = True
        peer.trusted_since = now
        peer.grace_until = now + max(2.0 * budget, GRACE_FLOOR)
        self._fan_trust(node)

    def delta_for(self, node: int) -> float:
        """The plane-wide suspicion timeout δ (stream-monitor deadlines)."""
        return self._params.delta

    def reconfigure_ready(self) -> Iterator[Tuple[int, FDParams]]:
        """No per-pair rate negotiation under SWIM: the probe schedule is
        plane-driven (re-derived each tick), and heartbeat frames are a
        dissemination carrier, not the liveness signal."""
        return iter(())

    def forget_node(self, node: int) -> None:
        """A peer left every hosted group: drop all its per-peer state."""
        self._links.pop(node, None)
        self._rumours.pop(node, None)
        for nonce in [n for n, p in self._probes.items() if p.target == node]:
            del self._probes[nonce]

    def shutdown(self) -> None:
        if self._timer is not None:
            self._timer.stop()
        super().shutdown()
        self._probes.clear()
        self._rumours.clear()
        self._links.clear()

    # ------------------------------------------------------------------
    # The protocol period (the plane's single timer)
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._shut_down:
            return
        if self._meter is not None:
            self._meter.on_timer()
        now = self.scheduler.now
        self._sweep_probes(now)
        self._sweep_peers(now)
        self._refresh_params()
        self._send_probes(now)

    def _sweep_probes(self, now: float) -> None:
        expired: List[int] = []
        for nonce, probe in self._probes.items():
            peer = self.monitors.get(probe.target)
            if peer is None or peer.last_evidence >= probe.sent_at:
                expired.append(nonce)  # answered through some other channel
                continue
            if now >= probe.deadline:
                expired.append(nonce)
                self._declare_suspect(probe.target, now)
            elif not probe.escalated and now >= probe.escalate_at:
                probe.escalated = True
                self._send_ping_reqs(probe)
        for nonce in expired:
            del self._probes[nonce]

    def _sweep_peers(self, now: float) -> None:
        for peer in self.monitors.values():
            if peer.trusted:
                if peer.alives_received == 0 and now > peer.grace_until:
                    # Optimistic trust lapsed with no evidence at all.
                    self._suspect_peer(peer, now)
            elif peer.confirm_at <= now:
                # The refute window passed: broadcast the death (SWIM's
                # confirm), so peers that never probe the node drop it too.
                peer.confirm_at = _INF
                peer.status = "confirm"
                self._queue_rumour(
                    SwimUpdate(peer.node, peer.incarnation, "confirm")
                )

    def _refresh_params(self) -> None:
        """Re-derive (η, δ) from the freshest ready estimator — the same
        configurator math as the default plane, on the probed subset."""
        qos = self._plane_qos
        if qos is None:
            return
        for node in reversed(self._links):
            estimator = self._links[node].estimator
            if estimator.ready:
                self._params = self._cache.configure(qos, estimator.estimate())
                return
        self._params = bootstrap_params(qos)

    def _send_probes(self, now: float) -> None:
        ring = self._ring
        params = self._params
        for _ in range(PROBE_FANOUT):
            if self._ring_stale or self._ring_pos >= len(ring):
                self._rebuild_ring()
                ring = self._ring
                if not ring:
                    return
            target = ring[self._ring_pos]
            self._ring_pos += 1
            if target not in self._effective_qos:
                continue  # departed since the shuffle
            peer = self.ensure_monitor(target)
            if peer is None:
                continue
            link = self._link_state(target)
            seq = link.next_seq
            link.next_seq = seq + 1
            nonce = self._nonce = self._nonce + 1
            self._probes[nonce] = _Probe(
                nonce,
                target,
                seq,
                now,
                now + 0.5 * params.delta,
                now + params.delta,
            )
            self._ping(target, nonce, self.node_id, now)

    def _rebuild_ring(self) -> None:
        nodes = sorted(self._effective_qos)
        self._ring_stale = False
        self._ring_pos = 0
        if not nodes:
            self._ring = []
            return
        order = self._rng.permutation(len(nodes))
        self._ring = [nodes[int(i)] for i in order]

    def _send_ping_reqs(self, probe: _Probe) -> None:
        """Escalate a silent direct probe through ``j`` relays.

        Relays are the target's ring successors — deterministic (no extra
        RNG draws) yet round-varying, since the ring itself reshuffles.
        """
        ring = self._ring
        if not ring:
            return
        relays: List[int] = []
        start = self._ring_pos
        for offset in range(len(ring)):
            candidate = ring[(start + offset) % len(ring)]
            if candidate == probe.target or candidate not in self._effective_qos:
                continue
            peer = self.monitors.get(candidate)
            if peer is None or not peer.trusted:
                continue
            relays.append(candidate)
            if len(relays) >= INDIRECT_RELAYS:
                break
        nonce = probe.nonce
        for relay in relays:
            self.transport.send(
                SwimPingReqMessage(
                    sender_node=self.node_id,
                    dest_node=relay,
                    target=probe.target,
                    nonce=nonce,
                    origin=self.node_id,
                    send_time=probe.sent_at,
                    updates=self.piggyback(),
                )
            )

    # ------------------------------------------------------------------
    # Probe message handlers (wired from the service's dispatch)
    # ------------------------------------------------------------------
    def on_ping(self, message: SwimPingMessage) -> None:
        if self._shut_down:
            return
        # Updates first: a suspicion about *us* must bump our incarnation
        # before the ACK snapshots it.  ``send_time`` is the origin's: the
        # relay's ping left no earlier.
        self.apply_updates(message.updates)
        self._carried(message.sender_node, message.ack, message.send_time)
        self._evidence_alive(message.sender_node)
        self.transport.send(
            SwimAckMessage(
                sender_node=self.node_id,
                dest_node=message.origin,
                nonce=message.nonce,
                incarnation=self.incarnation,
                echo_send_time=message.send_time,
                updates=self.piggyback(),
                ack=self._acks.pop(message.origin, None),
            )
        )

    def on_ping_req(self, message: SwimPingReqMessage) -> None:
        if self._shut_down:
            return
        self.apply_updates(message.updates)
        self._evidence_alive(message.sender_node)
        # Relay hop: probe the target on the origin's behalf.  The target
        # ACKs the origin directly, so one hop each way suffices.
        self._ping(message.target, message.nonce, message.origin, message.send_time)

    def _ping(self, target: int, nonce: int, origin: int, send_time: float) -> None:
        """Probe ``target`` for ``origin``'s round, carrying a rumour batch
        and the cell echo this node owes it, if any."""
        self.transport.send(
            SwimPingMessage(
                sender_node=self.node_id,
                dest_node=target,
                nonce=nonce,
                origin=origin,
                send_time=send_time,
                updates=self.piggyback(),
                ack=self._acks.pop(target, None),
            )
        )

    def on_ack(self, message: SwimAckMessage) -> None:
        if self._shut_down:
            return
        self.apply_updates(message.updates)
        responder = message.sender_node
        # It left when our probe arrived: after the probe left, at least.
        self._carried(responder, message.ack, message.echo_send_time)
        probe = self._probes.pop(message.nonce, None)
        self._evidence_alive(responder, incarnation=message.incarnation)
        if probe is not None and probe.target == responder:
            link = self._link_state(responder)
            # Round-trip sample: echo_send_time is the probe's stamp, so
            # (now − echo) is the full probe→ack loop the suspicion timeout
            # must cover; probe seq gaps feed the loss estimate.
            link.estimator.observe(
                probe.seq, message.echo_send_time, self.scheduler.now
            )

    # ------------------------------------------------------------------
    # Evidence and rumours
    # ------------------------------------------------------------------
    def _evidence_alive(self, node: int, incarnation: Optional[int] = None) -> None:
        peer = self.ensure_monitor(node)
        if peer is None:
            return
        now = self.scheduler.now
        peer.alives_received += 1
        peer.last_evidence = now
        if incarnation is not None and incarnation > peer.incarnation:
            peer.incarnation = incarnation
            peer.status = "alive"
            # A refuting incarnation is news worth spreading: it is what
            # clears an in-flight suspicion cluster-wide.
            self._queue_rumour(SwimUpdate(node, incarnation, "alive"))
        if not peer.trusted:
            peer.trusted = True
            peer.trusted_since = now
            peer.confirm_at = _INF
            self._fan_trust(node)

    def _declare_suspect(self, node: int, now: float) -> None:
        peer = self.monitors.get(node)
        if peer is None or not peer.trusted:
            return
        self._suspect_peer(peer, now)

    def _suspect_peer(self, peer: SwimPeerState, now: float) -> None:
        peer.trusted = False
        peer.suspicions += 1
        peer.status = "suspect"
        peer.confirm_at = now + self._params.delta
        self._queue_rumour(SwimUpdate(peer.node, peer.incarnation, "suspect"))
        self._fan_suspect(peer.node)

    def apply_updates(self, updates: Tuple[SwimUpdate, ...]) -> None:
        """Merge piggybacked membership updates (SWIM's dissemination)."""
        for update in updates:
            self._apply_update(update)

    def _apply_update(self, update: SwimUpdate) -> None:
        node = update.node
        if node == self.node_id:
            # Someone doubts us.  Refute by bumping our incarnation — only
            # the accused may do this, which is what makes the number a
            # logical clock over its own aliveness.
            if update.state != "alive" and update.incarnation >= self.incarnation:
                self.incarnation = update.incarnation + 1
                self._queue_rumour(
                    SwimUpdate(self.node_id, self.incarnation, "alive")
                )
                self._flush()  # spread the refutation now
            return
        peer = self.monitors.get(node)
        if peer is None:
            return  # no interest in this node: nothing to update
        incoming = update
        current = SwimUpdate(node, peer.incarnation, peer.status)
        if not swim_update_wins(incoming, current):
            return
        now = self.scheduler.now
        peer.incarnation = incoming.incarnation
        peer.status = incoming.state
        # Winning news keeps travelling — queued before the fan (module
        # docstring): the flush the fan may cause must find the rumour.
        self._queue_rumour(incoming)
        if incoming.state == "alive":
            if not peer.trusted:
                peer.trusted = True
                peer.trusted_since = now
                peer.confirm_at = _INF
                peer.grace_until = _INF  # rumour-trusted: probes govern now
                self._fan_trust(node)
        else:
            if peer.trusted:
                peer.trusted = False
                peer.suspicions += 1
                peer.confirm_at = (
                    now + self._params.delta if incoming.state == "suspect" else _INF
                )
                self._fan_suspect(node)
            elif incoming.state == "confirm":
                peer.confirm_at = _INF  # confirmed elsewhere; stop our clock

    def _queue_rumour(self, update: SwimUpdate) -> None:
        existing = self._rumours.get(update.node)
        if existing is not None and not swim_update_wins(update, existing[0]):
            return
        if existing is None and len(self._rumours) >= RUMOUR_BUFFER:
            # Evict the most-disseminated rumour (lowest remaining budget).
            victim = min(self._rumours.items(), key=lambda kv: (kv[1][1], kv[0]))[0]
            del self._rumours[victim]
        # λ·log(n) total transmissions per rumour, SWIM §4.1's bound.
        budget = max(MAX_PIGGYBACK, int(4 * math.log2(len(self.monitors) + 2)))
        self._rumours[update.node] = [update, budget]

    def has_rumours(self) -> bool:
        """Whether :meth:`piggyback` would return anything (burns nothing)."""
        return bool(self._rumours)

    def piggyback(self, carrier: str = "probe") -> Tuple[SwimUpdate, ...]:
        """Up to :data:`MAX_PIGGYBACK` updates, freshest-first.

        Preferring the *least*-disseminated rumours (highest remaining
        budget) is SWIM's fairness rule; each selection burns one send from
        the rumour's budget and exhausted rumours retire.
        """
        rumours = self._rumours
        if not rumours:
            return ()
        self.batches_handed[carrier] += 1
        picked = sorted(rumours.items(), key=lambda kv: (-kv[1][1], kv[0]))
        out = []
        for node, entry in picked[:MAX_PIGGYBACK]:
            out.append(entry[0])
            entry[1] -= 1
            if entry[1] <= 0:
                del rumours[node]
        return tuple(out)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _link_state(self, node: int) -> _LinkState:
        links = self._links
        link = links.get(node)
        if link is None:
            if len(links) >= LINKS_CAP:
                links.popitem(last=False)  # evict least-recently probed
            link = _LinkState(LinkQualityEstimator())
            links[node] = link
        else:
            links.move_to_end(node)
        return link
