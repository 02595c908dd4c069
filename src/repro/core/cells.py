"""One group's ALIVE cells: the batcher's :class:`~repro.fd.scheduler.
CellSource` and the receive side of the same payload.

A :class:`GroupCells` decides, per emission round, which destinations this
group's cell must ride to, and ingests the cells peers send — election
payload, then the stream monitors Ω_l needs — unless their frame was
overtaken.  A tenure-active leader's cells also carry the lease ledger to
each follower (see :mod:`repro.lease.server`).

A cell is *owed* to a destination from the frame that first carried its
current content (a changed payload, a ledger segment, a first contact or a
refresh) until that destination echoes a frame that carried it: the node's
newest in-order frame with cells (it may have carried only other groups'),
on its next frame back (``BatchFrame.ack``) or, on swim, probe or probe
answer.  The echo is overdue ``CELL_ECHO_WAIT`` periods after the send.
All-pairs frames flow every period, so the clock says so: the cell rides the
early round, and every frame once overdue; a destination not heard from
cannot echo, and on a node that has seen loss its news is re-sent blind.  On
swim only a carrier back that left once overdue without the echo does: the
cell goes again as a first contact, once per such exchange.  A crashed link
is repaired by the first exchange after the heal; the refresh is pure
anti-entropy.  Membership news travels by HELLO (see
:mod:`repro.core.membership`): on both planes a cell carries no membership
delta, save the sender's own record on first contact.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.fd.plane import CELL_ECHO_WAIT, CELL_REFRESH, StreamMonitor
from repro.net.message import AliveCell, BatchFrame

__all__ = ["GroupCells"]

#: Sentinel emit stamp that never compares equal to a real one: algorithms
#: returning ``None`` from :meth:`ElectionAlgorithm.emit_stamp` disable the
#: quiet-window emission fast path.
_NEVER_EMITTED = object()
_BLIND = -1  # the frame run of an ``owed`` entry no echo can cover


class GroupCells:
    """Cell emission and ingestion for one (group, local process) pair."""

    __slots__ = (
        "group", "pid", "scheduler", "view", "algorithm", "plane",  # read off the membership
        "cell_state", "stream_monitors", "_membership", "_batcher", "owing",
        "_leases", "_ledger", "_dest_nodes", "_emit_quiet_until", "_emit_stamp_version",
        "_emit_stamp_alg", "_emit_head", "_emit_template", "_emit_payload", "cells_repeated",
        "frame_anchor", "owed", "_periodic",
    )

    def __init__(self, membership, batcher, leases) -> None:
        self.group = membership.group
        self.pid = membership.pid
        self.scheduler = membership.scheduler
        self.view = membership.view
        self.algorithm = algorithm = membership.algorithm
        self.plane = plane = membership.plane
        #: Its ``seqs`` (next per destination) and ``acks`` (echo per peer).
        self._batcher = batcher
        #: The group's gossip engine: told when a cell moved the view and
        #: whether its digest agreed.
        self._membership = membership
        #: The lease server: the ledger segment each destination is owed.
        self._leases = leases
        self._ledger = leases.ledger
        #: Frames flow every period both ways (all-pairs): an echo is overdue
        #: by the clock, not by a carrier back without it (swim).
        self._periodic = plane.header_is_liveness
        #: Per-destination (election payload, time of its first send or last
        #: refresh, ledger head), for change-triggered emission and the refresh.
        self.cell_state: Dict[int, tuple] = {}
        #: Destination -> (first, last seq of the newest run of frames that
        #: all carried its current content, or ``_BLIND`` twice);
        #: ``all_candidates`` only.
        self.owed: Optional[Dict[int, Tuple[int, int]]] = (
            {} if algorithm.monitor_policy == "all_candidates" else None
        )
        #: Instrumentation only: cells re-sent because they were still owed.
        self.cells_repeated = 0
        #: The last round sent a changed payload on a node that has seen loss.
        self.owing = False
        #: Sender node -> (seq, send_time) of the newest frame ingested.
        self.frame_anchor: Dict[int, Tuple[int, float]] = {}
        #: Steady-state emission fast path: while neither the membership
        #: version, the algorithm's emit stamp nor the ledger head (see
        #: ``LeaseServer.head``) has moved since the last full round, rounds
        #: reuse the cached template below and are skipped while no refresh
        #: or owed cell is due.
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
        ``LeaderElectionService.handle_message``); the per-stream monitors
        below follow the same order within the cell.  A frame older in both
        ``seq`` and ``send_time`` than the newest ingested from its sender
        was overtaken: only its (order-free) membership record and ledger
        records merge, and it is not echoed.  One count alone would take a
        reboot or a clock resync for a late frame.
        """
        changed = self._membership.merge_from(sender, cell.delta) if cell.delta else False
        anchor = self.frame_anchor.get(sender)
        in_order = anchor is None or frame.seq >= anchor[0]
        if not in_order:
            in_order = frame.send_time >= anchor[1]
            if frame.send_time > anchor[1]:
                # Numbered afresh, sent later: the sender's daemon restarted
                # (its join may never have reached us).
                self._leases.forget(sender)
                self.forget_sent(sender)
        # A token floor means records its leader may lack (an attribute read:
        # the lease-free path stays a compare).
        if cell.leases is not None or self._ledger.max_token:
            self._leases.ingest(sender, cell.leases, in_order)
        if not in_order:
            if changed:
                self._membership.view_changed()
            return
        self.frame_anchor[sender] = (frame.seq, frame.send_time)
        if self.owed is not None:
            self._batcher.acks[sender] = frame.seq
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
            self._membership.view_changed()
        if cell.view_digest != self.view.digest64():
            self._membership.push_sync(sender)
        else:
            self._membership.digests_agree(sender)

    def dest_nodes(self) -> Tuple[int, ...]:
        """Frame destinations for this group (CellSource protocol)."""
        return self._dest_nodes

    def retarget(self, dest_nodes: Tuple[int, ...]) -> None:
        """The members' nodes moved: new frame destinations."""
        if dest_nodes != self._dest_nodes:
            self._dest_nodes = dest_nodes
            self._batcher.invalidate_dests()

    def forget(self, node: int) -> None:
        """``node`` left the view: what it was sent and acknowledged goes,
        and so do the lease cursors; a return starts with a first contact."""
        self.cell_state.pop(node, None)
        self.frame_anchor.pop(node, None)
        if self.owed is not None:
            self.owed.pop(node, None)
        self._leases.forget(node)

    def on_trust(self, node: int) -> None:
        """``node`` is heard again.  On all-pairs what it was sent meanwhile
        was not owed (or owed blind): its next frame is a first contact.  On
        swim it was owed, and its next carrier shows what it lacks."""
        if self._periodic:
            self.forget_sent(node)

    def forget_sent(self, node: int) -> None:
        """``node`` restarted, was not heard or lost a cell: its next frame is a first contact."""
        if self.owed is not None and self.cell_state.pop(node, None) is not None:
            self.owed.pop(node, None)
            self._emit_quiet_until = float("-inf")

    def on_ack(self, node: int, seq: Optional[int], departure: float) -> None:
        """A carrier from ``node`` left at ``departure`` echoing ``seq`` (None:
        nothing): the owed cell arrived if the echoed frame carried it, and
        on swim was lost if the carrier left once overdue."""
        entry = self.owed.get(node) if self.owed else None
        if entry is None:
            return
        if seq is not None and entry[0] <= seq <= entry[1]:
            del self.owed[node]
        elif not self._periodic and departure - self.cell_state[node][1] >= (
            CELL_ECHO_WAIT * self._batcher.interval()
        ):
            self.cells_repeated += 1
            self.forget_sent(node)

    def emit_cells(self, early: bool):
        """Yield ``(dest_node, cell)`` for one emission round.

        The FD header flows on every frame; under ``all_candidates`` a
        cell rides along only with *news* — a changed payload or ledger
        head, a ledger delta, a first contact, the refresh — or while owed
        (see the module docstring): on all-pairs on the ``early`` round and,
        from ``CELL_ECHO_WAIT`` periods after its news, on every round; on
        swim at the refresh.  A view change alone is no news.  A changed
        payload on a node that has seen frame loss sets :attr:`owing` (the
        batcher arms the early round).  ``senders_only`` groups (Ω_l) emit every round: their
        receivers' stream monitors feed on the cells.  Destinations owed
        neither an introduction nor a ledger segment share one template cell.
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
        stamp = self.algorithm.emit_stamp()
        if (
            suppressible
            and version == self._emit_stamp_version
            and head is self._emit_head
            and stamp == self._emit_stamp_alg
        ):
            # Stamps unchanged since the last full round: the payload is
            # provably identical and no ledger delta is due.  Skip the round
            # outright while no refresh or owed cell is due; otherwise reuse
            # the cached template cell (its fields equal what a rebuild would
            # produce).
            if now < self._emit_quiet_until:
                return
            template, payload = self._emit_template, self._emit_payload
        else:
            template = AliveCell(
                group=self.group,
                pid=self.pid,
                view_version=version,
                view_digest=view.digest64(),
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
        owed = self.owed
        seqs = self._batcher.seqs
        trusted = self.plane.trusted
        cell_state = self.cell_state
        refresh = CELL_REFRESH
        periodic = self._periodic
        shipped = None if head is None else self._leases.shipped
        overdue = CELL_ECHO_WAIT * self._batcher.interval() if owed and periodic else refresh
        wait = 0.0 if early else overdue
        lossy = None  # has this node seen frame loss?  Read at most once.
        #: One shared entry for every destination sent new content.
        entry = (payload, now, head)
        #: Oldest still-fresh per-destination send time this round relied
        #: on — the first refresh to expire bounds the quiet window.
        oldest = now
        changed = backlog = False
        for dest in dests:
            lease_owed = shipped is not None and shipped.get(dest, 0) < head.top
            state = cell_state.get(dest)
            pending = owed.get(dest) if owed else None
            news = lease_owed
            if state is None or state[0] != payload:
                news = True
                changed = changed or state is not None
            elif owed is not None and state[2] != head:
                news = True  # the ledger head moved: its digest is content too
            elif not news and suppressible and now - state[1] < (wait if pending else refresh):
                if state[1] < oldest:
                    oldest = state[1]
                continue
            elif pending is not None and not news:
                if periodic and pending[0] != _BLIND and not trusted(dest):
                    del owed[dest]  # silent: re-trusted, it gets a first contact
                    continue
                self.cells_repeated += 1
                if not periodic:
                    pending = None  # swim: unechoed since the refresh, it goes as one
            if news or pending is None:
                cell_state[dest] = entry
            if owed is not None:
                seq = seqs.get(dest, 0)
                if news or pending is None:  # a new run; blind if no echo can cover it
                    if trusted(dest) or not periodic:
                        owed[dest] = (seq, seq)
                    elif lossy or lossy is None and (lossy := self.plane.observed_loss() > 0.0):
                        owed[dest] = (_BLIND, _BLIND)
                    elif pending is not None:
                        del owed[dest]
                elif pending[0] != _BLIND:  # the run grows while every frame carries it
                    owed[dest] = (pending[0] if pending[1] == seq - 1 else seq, seq)
                elif now - state[1] >= overdue:
                    del owed[dest]  # sent blind on the early round and once overdue
            segment = head
            if lease_owed:
                segment = self._leases.segment(dest)
                backlog = backlog or segment.top < head.top
            # A first contact introduces the sender.
            delta = (view.record(self.pid),) if state is None else ()
            yield dest, self._cell(template, delta, segment)
        if changed and owed is not None:
            self.owing = lossy if lossy is not None else self.plane.observed_loss() > 0.0
        if suppressible and stamp is not None and not backlog:
            # Every destination now holds the current payload and ledger, or
            # is owed them; the guards above re-run this full round the
            # moment the membership version, the payload stamp or the head
            # moves.
            self._emit_stamp_version = version
            self._emit_stamp_alg = stamp
            self._emit_head = head
            self._emit_template = template
            self._emit_payload = payload
            self._emit_quiet_until = now if owed and periodic else oldest + refresh

    def _cell(self, template: AliveCell, delta: tuple, segment) -> AliveCell:
        """The template, or its copy carrying the sender's own record
        ``delta`` and ``segment`` in place of the ledger head."""
        if not delta and segment is template.leases:
            return template
        return AliveCell(
            group=self.group,
            pid=self.pid,
            acc_time=template.acc_time,
            phase=template.phase,
            local_leader=template.local_leader,
            local_leader_acc=template.local_leader_acc,
            delta=delta,
            view_version=template.view_version,
            view_digest=template.view_digest,
            leases=segment,
        )
