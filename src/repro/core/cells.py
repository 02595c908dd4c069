"""One group's ALIVE cells: the batcher's :class:`~repro.fd.scheduler.
CellSource` and the receive side of the same payload.

A :class:`GroupCells` decides, per emission round, which destinations this
group's cell must ride to (change-triggered, first repeated on an early
round under loss, with a refresh and two quiet-window fast paths), and
ingests the cells peers send — election payload, then the stream monitors
Ω_l needs — unless their frame was overtaken.  A tenure-active leader's
cells also carry the lease ledger to each follower (see
:mod:`repro.lease.server`): a ledger delta owed makes a cell due.
"""

from __future__ import annotations

from math import ceil, log
from typing import Dict, Optional, Tuple

from repro.fd.plane import CELL_REPEAT_CAP, CELL_REPEAT_MISS, StreamMonitor
from repro.net.message import AliveCell, BatchFrame

__all__ = ["GroupCells"]

#: Sentinel emit stamp that never compares equal to a real one: algorithms
#: returning ``None`` from :meth:`ElectionAlgorithm.emit_stamp` disable the
#: quiet-window emission fast path.
_NEVER_EMITTED = object()


def _sends_for(loss: float) -> int:
    """How many consecutive frames a changed cell rides at observed ``loss``."""
    if loss <= 0.0:
        return 1
    return min(CELL_REPEAT_CAP, ceil(log(CELL_REPEAT_MISS) / log(loss)))


class GroupCells:
    """Cell emission and ingestion for one (group, local process) pair."""

    __slots__ = (
        "group", "pid", "scheduler", "view", "algorithm", "plane",  # read off the membership
        "cell_state", "stream_monitors", "_membership", "_sent_version", "_batcher", "owing",
        "_leases", "_ledger", "_dest_nodes", "refresh", "_emit_quiet_until", "_emit_stamp_version",
        "_emit_stamp_alg", "_emit_head", "_emit_template", "_emit_payload", "cells_repeated",
        "frame_anchor",
    )

    def __init__(self, membership, batcher, leases) -> None:
        self.group = membership.group
        self.pid = membership.pid
        self.scheduler = membership.scheduler
        self.view = membership.view
        self.algorithm = algorithm = membership.algorithm
        self.plane = plane = membership.plane
        self._batcher = batcher
        #: The group's gossip engine: told when a cell moved the view or
        #: showed a diverged digest; its shipped-version cursors say which
        #: destinations are owed a delta (None: cells carry none).
        self._membership = membership
        self._sent_version = membership.sent_version if membership.cell_deltas else None
        #: The lease server: the ledger segment each destination is owed.
        self._leases = leases
        self._ledger = leases.ledger
        #: Steady-state re-send period of an unchanged cell under this plane
        #: (the horizon inside which the gossip rounds call a peer covered).
        self.refresh = plane.cell_refresh
        #: Per-destination (election payload, time of its first send or last
        #: refresh) — plus, only while there are any, the repeats still owed —
        #: for change-triggered emission with loss-sized repeats and refresh.
        self.cell_state: Dict[int, tuple] = {}
        #: Instrumentation only: cells re-sent because a change (of the
        #: payload, or a ledger delta) was owed.
        self.cells_repeated = 0
        #: The last round sent a change still owed a repeat (CellSource).
        self.owing = False
        #: Sender node -> (seq, send_time) of the newest frame ingested.
        self.frame_anchor: Dict[int, Tuple[int, float]] = {}
        #: Steady-state emission fast path: while neither the membership
        #: version, the algorithm's emit stamp nor the ledger head (see
        #: ``LeaseServer.head``) has moved since the last full round, the
        #: payload is provably unchanged — rounds reuse the
        #: cached template below, skip entirely while no per-destination
        #: refresh is due, and otherwise touch only the dests whose refresh
        #: expired.  Any stamp move falls back to the full (slow) round.
        self._emit_quiet_until = float("-inf")
        self._emit_stamp_version = -1
        self._emit_stamp_alg: object = _NEVER_EMITTED
        self._emit_head = None
        self._emit_template: Optional[AliveCell] = None
        self._emit_payload: tuple = ()
        #: Remote nodes hosting present members (frame destinations).
        self._dest_nodes: Tuple[int, ...] = ()
        #: Per-sender cell-stream monitors; only ``senders_only`` election
        #: algorithms (Ω_l) need them — node-level liveness cannot see a
        #: *voluntarily* silent competitor.  None under ``all_candidates``.
        self.stream_monitors: Optional[Dict[int, StreamMonitor]] = (
            {} if algorithm.monitor_policy == "senders_only" else None
        )

    def stop(self) -> None:
        if self.stream_monitors is not None:
            for monitor in self.stream_monitors.values():
                monitor.stop()
            self.stream_monitors.clear()

    def stream_monitor(self, pid: int) -> StreamMonitor:
        """A new stream monitor for ``pid`` (``senders_only`` only)."""
        monitor = StreamMonitor(
            self.scheduler,
            pid,
            on_trust=self.algorithm.on_trust,
            on_suspect=self.algorithm.on_suspect,
        )
        self.stream_monitors[pid] = monitor
        return monitor

    def handle_cell(self, sender: int, frame: BatchFrame, cell: AliveCell) -> None:
        """Ingest one group cell of a received frame.

        Payload before trust: the election must ingest the carried state
        (in particular a rebooted sender's *fresh* accusation time) before
        any trust transition triggers a leader recomputation — otherwise
        every re-trust briefly elects the sender on stale state.  The
        node-level monitor is fed *after* every cell of the frame (see
        ``LeaderElectionService._handle_frame``); the per-stream monitors
        below follow the same order within the cell.  A frame older in both
        ``seq`` and ``send_time`` than the newest ingested from its sender
        was overtaken: only its (order-free) membership delta and ledger
        records merge.  One count alone would take a reboot or a clock resync
        for a late frame.
        """
        changed = self.view.merge(cell.delta) if cell.delta else False
        anchor = self.frame_anchor.get(sender)
        in_order = anchor is None or frame.seq >= anchor[0]
        if not in_order:
            in_order = frame.send_time >= anchor[1]
            if frame.send_time > anchor[1]:
                # Numbered afresh, sent later: the sender's daemon restarted
                # (its join may never have reached us).
                self._leases.forget(sender)
        # A token floor means records its leader may lack (an attribute read:
        # the lease-free path stays a compare).
        if cell.leases is not None or self._ledger.max_token:
            self._leases.ingest(sender, cell.leases, in_order)
        if not in_order:
            if changed:
                self._membership.view_changed_by_cell()
            return
        self.frame_anchor[sender] = (frame.seq, frame.send_time)
        self.algorithm.on_alive(cell)
        monitors = self.stream_monitors
        if monitors is not None:
            monitor = monitors.get(cell.pid)
            if monitor is None:
                monitor = self.stream_monitor(cell.pid)
            monitor.on_cell(
                frame.send_time + frame.interval + self.plane.delta_for(sender)
            )
        if changed:
            self._membership.view_changed_by_cell()
        if cell.view_digest != self.view.digest64():
            self._membership.push_sync(sender)
        elif self._sent_version is None:  # a no-op where cells carry deltas
            self._membership.digests_agree(sender)

    def dest_nodes(self) -> Tuple[int, ...]:
        """Frame destinations for this group (CellSource protocol)."""
        return self._dest_nodes

    def retarget(self, dest_nodes: Tuple[int, ...]) -> None:
        """The members' nodes moved: new frame destinations."""
        if dest_nodes != self._dest_nodes:
            self._dest_nodes = dest_nodes
            self._batcher.invalidate_dests()

    def _repeat(self, dest: int, state: tuple) -> bool:
        """Account one repeat to ``dest``; True while more are owed.  The
        entry keeps its stamp: the refresh clock and the gossip's coverage
        windows run from the change, not from its repeats."""
        owed = state[2] - 1
        self.cell_state[dest] = (state[0], state[1], owed) if owed else state[:2]
        self.cells_repeated += 1
        return owed > 0

    def emit_cells(self):
        """Yield ``(dest_node, cell)`` for one emission round.

        The node-level FD header flows on every frame; a cell only needs to
        ride along when it carries *news*.  Under ``all_candidates`` (node
        liveness is process liveness) a destination's cell is therefore
        suppressed while the election payload is unchanged, no membership
        or ledger delta is owed, no repeat is owed, and a refresh went out
        within the refresh period.  A *changed* payload — or a ledger delta
        — is owed k − 1 more rounds, k sized from the observed loss
        (:func:`_sends_for`: none while no gap was seen); the repeat shows a
        follower that lost the delta its gap.  For a changed payload
        :attr:`owing` makes the first an early round η/8 later (a lost
        change costs η/8), the rest ride the regular rounds, spread in time
        against a burst of loss; a newer change restarts the count.  The
        refresh is the anti-entropy backstop and carries the membership
        digest (and the ledger head).  ``senders_only`` groups (Ω_l) emit
        every round: their receivers' stream monitors feed on the cells.

        One template cell is built per round; destinations owing no delta
        share it, so a steady-state round allocates at most one cell per
        group regardless of fan-out.

        Without shipped-version cursors (bounded dissemination) no
        destination is owed a membership delta; see ``cell_deltas`` there.
        """
        self.owing = False
        dests = self._dest_nodes
        if not dests:
            return
        view = self.view
        version = view.version
        suppressible = self.stream_monitors is None
        now = self.scheduler.now
        head = self._leases.head()
        if (
            suppressible
            and version == self._emit_stamp_version
            and head is self._emit_head
            and self.algorithm.emit_stamp() == self._emit_stamp_alg
        ):
            # Stamps unchanged since the last full round: the payload is
            # provably identical, every destination is version-current and
            # owes no membership or ledger delta.  Skip the round outright
            # while no per-destination refresh or repeat is due; otherwise
            # touch only the destinations owed one, reusing the cached
            # template cell (its fields equal what a rebuild would produce).
            if now < self._emit_quiet_until:
                return
            refresh = self.refresh
            template = self._emit_template
            cell_state = self.cell_state
            entry = None
            oldest = now
            owing = False
            for dest in dests:
                state = cell_state.get(dest)
                # A missing entry is a destination added by a *deferred*
                # membership reaction (bounded gossip coalesces them) after
                # the full round that stamped this version ran: send it the
                # template now.
                if state is not None:
                    stamped = state[1]
                    if now - stamped < refresh:
                        if stamped < oldest:
                            oldest = stamped
                        if len(state) > 2:
                            owing = self._repeat(dest, state) or owing
                            yield dest, template
                        continue
                if entry is None:
                    # One (payload, stamp) entry per round, shared by every
                    # destination refreshed at this instant.
                    entry = (self._emit_payload, now)
                cell_state[dest] = entry
                yield dest, template
            # While a repeat is still owed the very next frame carries it.
            self._emit_quiet_until = now if owing else oldest + refresh
            return
        digest = view.digest64()
        template = AliveCell(
            group=self.group,
            pid=self.pid,
            view_version=version,
            view_digest=digest,
            leases=head,
        )
        self.algorithm.fill_alive(template)
        payload = (
            template.acc_time,
            template.phase,
            template.local_leader,
            template.local_leader_acc,
        )
        stamp = self.algorithm.emit_stamp()
        refresh = self.refresh
        sent = self._sent_version
        shipped = None if head is None else self._leases.shipped
        cell_state = self.cell_state
        #: One shared entry for every refresh or delta cell of this round,
        #: one for every changed payload or ledger delta (the plane's loss
        #: is read once).
        entry = (payload, now)
        repeated = None
        owing = backlog = False
        #: Oldest still-fresh per-destination send time this round relied
        #: on — the first refresh to expire bounds the quiet window.
        oldest = now
        for dest in dests:
            lease_owed = shipped is not None and shipped.get(dest, 0) < head.top
            if sent is None or sent.get(dest, 0) >= version:
                delta = ()
                sending = entry
                if suppressible:
                    state = cell_state.get(dest)
                    if state is None:
                        pass  # first contact: one cell, as any refresh
                    elif state[0] != payload or lease_owed:
                        if repeated is None:
                            repeats = _sends_for(self.plane.observed_loss()) - 1
                            repeated = (payload, now, repeats) if repeats else entry
                            owing = owing or repeats > 0
                        if state[0] != payload:
                            self.owing = repeats > 0
                        sending = repeated
                    elif now - state[1] < refresh:
                        if state[1] < oldest:
                            oldest = state[1]
                        if len(state) > 2:
                            owing = self._repeat(dest, state) or owing
                            yield dest, template
                        continue
                cell_state[dest] = sending
                if not lease_owed:
                    yield dest, template
                    continue
            else:
                delta = view.delta_since(sent.get(dest, 0))
                sent[dest] = version
                cell_state[dest] = entry
            segment = head
            if lease_owed:
                segment = self._leases.segment(dest)
                backlog = backlog or segment.top < head.top
            yield dest, AliveCell(
                group=self.group,
                pid=self.pid,
                acc_time=template.acc_time,
                phase=template.phase,
                local_leader=template.local_leader,
                local_leader_acc=template.local_leader_acc,
                delta=delta,
                view_version=version,
                view_digest=digest,
                leases=segment,
            )
        if suppressible and stamp is not None and not backlog:
            # Every destination now holds the current payload, version and
            # ledger; the guards above re-run this full round the moment the
            # membership version, the payload stamp or the head moves.
            self._emit_stamp_version = version
            self._emit_stamp_alg = stamp
            self._emit_head = head
            self._emit_template = template
            self._emit_payload = payload
            self._emit_quiet_until = now if owing else oldest + refresh
