"""Sender side of the shared FD plane: batched ALIVE emission per node.

One :class:`AliveBatcher` serves the whole daemon.  It wakes up once per
period and emits one :class:`~repro.net.message.BatchFrame` *per destination
node*, each carrying the node-pair FD header plus one cell per hosted group
that is currently emitting toward that destination.  This replaces the
per-group heartbeat senders: wire traffic and timer load are O(node pairs),
not O(groups × node pairs), which is the multi-group scale-out's headline
property.

The aligned schedule matters beyond efficiency: all receivers share the
sender's freshness-point grid, so after a crash they suspect (and re-elect)
nearly simultaneously, which is what keeps group-wide leader recovery near
δ + η/2 instead of δ + η (the paper's Tr sits well below the worst case for
exactly this reason).

Per-destination state that must *not* be shared:

* sequence numbers — receivers estimate loss per directed node pair from
  gaps, so each stream is numbered independently and **pauses** (never
  skips) while the sender has nothing for that destination: a node whose
  every group went voluntarily silent (Ω_l dropping out of the competition)
  must not be scored as message loss downstream;
* requested rates — each receiver's configurator may ask for its own η; the
  sender emits at the fastest rate any *group* bootstraps or any *peer*
  requested (extra heartbeats only improve the slower receivers' detection);
* echoes — the next frame to a peer whose cells were ingested carries the
  newest such ``seq`` back (``BatchFrame.ack``; see :mod:`repro.core.cells`),
  or, on swim, the next probe or probe answer to it if that leaves first.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Optional, Protocol, Tuple

import numpy as np

from repro.fd.plane import CELL_EARLY_ROUND
from repro.metrics.usage import UsageMeter
from repro.net.message import AliveCell, BatchFrame
from repro.runtime.base import FdPlane, Scheduler, TimerHandle, Transport
from repro.runtime.timers import PeriodicTimer

__all__ = ["CellSource", "AliveBatcher"]


class CellSource(Protocol):
    """What a group runtime exposes to the batcher."""

    def dest_nodes(self) -> Iterable[int]:
        """Nodes this group's frames must reach (cells or not)."""
        ...

    def emit_cells(self, early: bool) -> Iterable[Tuple[int, AliveCell]]:
        """Yield ``(dest_node, cell)`` pairs for one emission round.

        May yield fewer destinations than :meth:`dest_nodes`: a group whose
        election payload is unchanged suppresses its cell and relies on the
        frame header alone (the node-level FD needs no payload).
        """
        ...

    def on_ack(self, node: int, seq: Optional[int], departure: float) -> None:
        """A carrier from ``node``, sent at ``departure``, echoes ``seq``."""

    #: Read-only, after a round: it sent a change on a node that saw loss.
    owing: bool


class AliveBatcher:
    """Emits one multiplexed heartbeat frame per destination node."""

    def __init__(
        self,
        scheduler: Scheduler,
        transport: Transport,
        node_id: int,
        rng: np.random.Generator,
        meter: Optional[UsageMeter] = None,
        plane: Optional[FdPlane] = None,
    ) -> None:
        self.scheduler = scheduler
        self.transport = transport
        self.node_id = node_id
        self._rng = rng
        self._meter = meter
        #: The FD plane the frames serve (None: headers are heartbeats and
        #: nothing is piggybacked).  Where the frame *header* is not the
        #: liveness signal (SWIM: the probe ring is), cell-less, rumour-less
        #: frames are skipped entirely — sequence numbers pause, which
        #: receivers already treat as silence rather than loss.  This is
        #: where the O(n²) steady header traffic actually disappears.
        self.payload_only = plane is not None and not plane.header_is_liveness
        #: Per-frame membership-rumour source (the plane's bounded
        #: piggyback batch; each call burns dissemination budget).
        self._rumours = plane
        #: group -> cell source; dict order is the frame's cell order.
        self._sources: Dict[int, CellSource] = {}
        self._active: Dict[int, bool] = {}
        #: group -> its QoS-derived bootstrap period η.
        self._group_eta: Dict[int, float] = {}
        #: peer node -> peer-requested η (node-level RATE-REQUESTs).
        self._requested: Dict[int, float] = {}
        #: dest node -> next sequence number (pauses during silence).
        self.seqs: Dict[int, int] = {}
        #: peer node -> the seq its next frame or probe echoes (set by cell ingestion).
        self.acks: Dict[int, int] = {}
        #: Created on first resume so the random initial phase is drawn
        #: against the *actual* bootstrap interval of the hosted groups.
        self._timer: Optional[PeriodicTimer] = None
        #: The armed zero-delay callback of a requested :meth:`flush`.
        self._flush_handle: Optional[TimerHandle] = None
        #: Memoized union of every active group's destinations, in the
        #: exact first-seen order the per-tick rebuild would produce.
        #: ``None`` = stale; group registrations, activity flips and
        #: membership changes invalidate it (see :meth:`invalidate_dests`).
        self._dests_cache: Optional[Tuple[int, ...]] = None
        #: Rebuilt with the cache: dest -> reusable cell list (see _tick).
        self._per_dest_scratch: Dict[int, list] = {}
        self.active = False
        self._shut_down = False

    # ------------------------------------------------------------------
    # Group registration (driven by joins/leaves)
    # ------------------------------------------------------------------
    def add_group(self, group: int, source: CellSource, eta: float) -> None:
        """Register a hosted group's cell source with bootstrap period η."""
        if eta <= 0:
            raise ValueError(f"eta must be positive (got {eta})")
        self._sources[group] = source
        self._group_eta[group] = eta
        self._active.setdefault(group, False)
        self._dests_cache = None

    def remove_group(self, group: int) -> None:
        self._sources.pop(group, None)
        self._group_eta.pop(group, None)
        was_active = self._active.pop(group, False)
        self._dests_cache = None
        if was_active and not any(self._active.values()):
            self._pause()

    def invalidate_dests(self) -> None:
        """A group's destination set changed (membership moved)."""
        self._dests_cache = None

    def set_active(self, group: int, active: bool) -> None:
        """A group's election switched its emission on or off (Ω_l).

        The node-level stream runs while *any* group emits.  A group joining
        an already-running stream flushes immediately — the whole point of
        (re)entering the competition is to tell the group something changed.
        """
        if group not in self._sources or self._active.get(group) == active:
            return
        self._active[group] = active
        self._dests_cache = None
        if active:
            if self.active:
                self.flush()  # announce the newly-active group's cell now
            else:
                self._resume()
        elif not any(self._active.values()):
            self._pause()

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------
    def interval(self) -> float:
        """The period in force: the fastest rate any peer requested.

        Until the first node-level RATE-REQUEST arrives, the conservative
        bootstrap period (the fastest among the currently-emitting groups)
        applies.  Receivers compute freshness from the *advertised* interval
        carried on each frame, so honouring a slower negotiated rate never
        breaks detection — a peer whose plane wants a faster rate (e.g.
        because a tighter-QoS group just subscribed) simply requests it at
        its next reconfiguration and the minimum wins.
        """
        if self._requested:
            return min(self._requested.values())
        candidates = [
            eta for group, eta in self._group_eta.items() if self._active.get(group)
        ]
        return min(candidates) if candidates else 0.25

    def set_requested(self, node: int, interval: float) -> None:
        """Apply a peer node's requested rate (RATE-REQUEST handler)."""
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        self._requested[node] = interval
        # Takes effect from the next firing; rate renegotiations move η by
        # modest factors, so the one-period transient is harmless.

    def forget_node(self, node: int) -> None:
        """Drop a departed peer's requested rate and stream state.

        The sequence counter must go too: a node that leaves every hosted
        group and later returns starts a *new* stream, and receivers handle
        the seq regression as a stream restart.  Keeping it would leak one
        counter per departed peer over a long churn run.
        """
        self._requested.pop(node, None)
        self.seqs.pop(node, None)
        self.acks.pop(node, None)

    def on_carrier(self, node: int, ack: Optional[int], departure: float) -> None:
        """A frame or probe message from ``node`` left at ``departure`` echoing
        ``ack``; where frames flow every period, one without an echo is none
        (the daemon does not report it)."""
        if ack is not None and ack >= self.seqs.get(node, 0):
            ack = None  # names a frame never sent (stale across a restart)
        if ack is not None or self.payload_only:
            for source in self._sources.values():
                source.on_ack(node, ack, departure)

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------
    def _resume(self) -> None:
        if self.active or self._shut_down:
            return
        self.active = True
        if self._timer is None:
            # A random initial phase; avoids synchronizing distinct nodes.
            self._timer = PeriodicTimer(
                self.scheduler,
                period_fn=self.interval,
                callback=self._tick,
                initial_delay=float(self._rng.uniform(0.0, self.interval())),
            )
            self._timer.start()
        else:
            # A resume — some group re-entered the competition — emits
            # immediately: the whole point is to tell the group something
            # changed.
            self._timer.start()
            self._tick()

    def _pause(self) -> None:
        """Stop emitting; sequence counters freeze (silence, not loss)."""
        if not self.active:
            return
        self.active = False
        self.scheduler.cancel(self._flush_handle)
        self._flush_handle = None
        if self._timer is not None:
            self._timer.stop()

    def shutdown(self) -> None:
        """Stop permanently (node crash)."""
        self._shut_down = True
        self._pause()
        self._sources.clear()
        self._active.clear()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Request one out-of-schedule round at the end of the current
        instant (the period restarts from it).

        Used when election-relevant state changes (an accusation bumped a
        group's accusation time, a local leader changed): waiting up to a
        full period to tell the group would leave it split over the old and
        new leader for that long.  An early extra frame can only extend
        receivers' freshness deadlines, so this is always safe — and since
        frames are multiplexed, one group's urgency refreshes everyone.  Any
        number of requests in one instant emit one round with the final
        state, not a burst whose frames overtake each other on the link.  A
        pending early round (see :meth:`_tick`) is brought forward.
        """
        pending = self._flush_handle
        if self.active and (pending is None or pending.time > self.scheduler.now):
            self.scheduler.cancel(pending)
            self._flush_handle = self.scheduler.schedule(0.0, self._flush_now, pending is not None)

    def _flush_now(self, early: bool) -> None:
        self._flush_handle = None
        self._tick(early)
        self._timer.start()  # next regular tick one full period from now

    def _tick(self, early: bool = False) -> None:
        """One round.  If it left a source :attr:`~CellSource.owing`, the
        ``early`` one leaves ``CELL_EARLY_ROUND · interval()`` later via the
        :meth:`flush` path (it restarts the period, dies with the stream)."""
        if self._meter is not None:
            self._meter.on_timer()
        # Every destination of an emitting group gets a frame — the FD
        # header must flow at η even when every cell is suppressed.  The
        # union of destinations (and its first-seen order, which fixes the
        # frame emission order) only changes on membership or activity
        # moves, so it is memoized across ticks instead of being rebuilt
        # with per-group setdefault sweeps every η.
        if self._dests_cache is None:
            order: Dict[int, None] = {}
            for group, source in self._sources.items():
                if not self._active.get(group):
                    continue
                for dest in source.dest_nodes():
                    order[dest] = None
            self._dests_cache = tuple(order)
            # Pooled per-tick scratch: one persistent cell list per
            # destination, cleared after each frame instead of reallocated
            # every η (emitting sources only ever yield cached dests, so
            # the key set is exact until the next invalidation).
            self._per_dest_scratch = {dest: [] for dest in order}
        per_dest = self._per_dest_scratch
        emitted = owing = False
        for group, source in self._sources.items():
            if not self._active.get(group):
                continue
            for dest, cell in source.emit_cells(early):
                per_dest[dest].append(cell)
                emitted = True
            owing = owing or source.owing
        if owing and self._flush_handle is None:
            delay = CELL_EARLY_ROUND * self.interval()
            self._flush_handle = self.scheduler.schedule(delay, self._flush_now, True)
        payload_only = self.payload_only
        rumours = self._rumours
        # Read once per round: nothing below can queue a rumour, and while
        # any is pending every destination gets its piggyback() call — the
        # calls are the rumours' budget burn.  They are made in id-ring order
        # from this node's successor, not in frame order: a budget shorter
        # than the fan-out then reaches a different arc of the ring from
        # every holder, instead of the same lowest ids from all of them.
        gossiping = rumours is not None and rumours.has_rumours()
        if not per_dest or (payload_only and not emitted and not gossiping):
            return  # SWIM mode with nothing to say: no destination walk
        now = self.scheduler.now
        interval = self.interval()
        seqs = self.seqs
        acks = self.acks
        node_id = self.node_id
        if gossiping:
            ring = sorted(per_dest)
            after = bisect_right(ring, node_id)
            handed = {dest: rumours.piggyback("frame") for dest in ring[after:] + ring[:after]}
        frames = []
        for dest, cells in per_dest.items():
            updates = handed[dest] if gossiping else ()
            if payload_only and not cells and not updates:
                # SWIM mode: the header is not the liveness signal, so a
                # frame with nothing to say is not sent at all.  The seq
                # pauses — receivers score that as silence, not loss.
                continue
            seq = seqs.get(dest, 0)
            seqs[dest] = seq + 1
            ack = acks.pop(dest, None) if acks else None
            # Positional, in field order: sender, dest, seq, send_time,
            # interval, cells, swim_updates, ack.
            if cells or updates or ack is not None:
                frames.append(BatchFrame(
                    node_id, dest, seq, now, interval, tuple(cells), updates, ack
                ))
                cells.clear()
            else:
                # A header-only frame (most of them) is sized here, once:
                # the send path and the meters read the memo, not the model.
                frame = BatchFrame(node_id, dest, seq, now, interval)
                frame._wire = BatchFrame.HEADER_WIRE_BYTES
                frames.append(frame)
        # The whole fan-out in one transport call (one Python call per
        # frame fewer than a send loop).
        self.transport.send_batch(frames)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = sorted(g for g, a in self._active.items() if a)
        return f"AliveBatcher(node={self.node_id}, active_groups={active})"
