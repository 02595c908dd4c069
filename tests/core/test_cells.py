"""Acknowledged cells (``GroupCells.emit_cells`` / ``on_ack``), the ledger
segments a leader's cells carry, and the overtaken-frame guard and echo on
ingest (``GroupCells.handle_cell``).

A cell is owed to a destination from the frame that first carried its
current content until that destination echoes a frame that carried it.  On
the all-pairs plane it rides every early round meanwhile, and every frame
once the echo is overdue; a destination not heard from cannot echo, and
under loss is re-sent its news blind.  On swim it goes again only once a
carrier back that left when the echo was overdue does not echo it.  On both
planes a cell carries no membership delta but its sender's own record on
first contact.  The fakes below stand in for everything a
:class:`GroupCells` reads off its membership and batcher, so each test
scripts exactly one thing: the payload, the clock, the echoes and the
observed loss — or, on the receive side, the order frames arrive in.
"""

from types import SimpleNamespace

import pytest

from repro.core.cells import GroupCells
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.plane import CELL_ECHO_WAIT, CELL_REFRESH
from repro.lease.server import LEDGER_SEGMENT_CAP
from repro.net.message import AliveCell, BatchFrame, LedgerSegment, MemberInfo

ETA = 0.2
DESTS = (1, 2, 3)
#: Age from which a regular round re-sends an unechoed cell (CELL_ECHO_WAIT · η).
TICK = CELL_ECHO_WAIT * ETA


class Algorithm:
    """An ``all_candidates`` election whose payload the test sets."""

    monitor_policy = "all_candidates"

    def __init__(self):
        self.acc_time = 0.0
        self.stamp = 0

    def change(self):
        self.acc_time += 1.0
        self.stamp += 1

    def fill_alive(self, cell):
        cell.acc_time = self.acc_time

    def emit_stamp(self):
        return self.stamp

    def on_alive(self, cell):
        self.forward = cell.local_leader


class View:
    version = 1

    def __init__(self):
        self.merged = []

    def merge(self, delta):
        self.merged.extend(delta)
        return True

    def digest64(self):
        return 7

    def record(self, pid):
        return MemberInfo(
            pid=pid, node=pid, incarnation=1, candidate=True, present=True, joined_at=0.0
        )


class Plane:
    def __init__(self, loss, swim):
        self.loss = loss
        self.reads = 0
        self.header_is_liveness = not swim
        #: Destinations whose frames are not heard (no echo can come back).
        self.silent = set()

    def observed_loss(self):
        self.reads += 1
        return self.loss

    def trusted(self, node):
        return node not in self.silent


class NoLedger:
    """A lease server with nothing to replicate (no cell carries a segment)
    that logs the senders it is told restarted."""

    ledger = SimpleNamespace(max_token=0)  # holds no record

    def __init__(self):
        self.forgotten = []

    def head(self):
        return None

    def forget(self, node):
        self.forgotten.append(node)


class Ledger(NoLedger):
    """A tenure-active leader's lease server, reduced to what the cells read:
    version ``v``'s record is the int ``v``."""

    def __init__(self):
        super().__init__()
        self.version = 1
        self.shipped = {}
        self._head = None

    def write(self, records=1):
        self.version += records

    def head(self):
        if self._head is None or self._head.top != self.version:
            self._head = LedgerSegment(self.version, self.version, 7)
        return self._head

    def segment(self, dest):
        base = self.shipped.get(dest, 0)
        top = min(self.version, base + LEDGER_SEGMENT_CAP)
        self.shipped[dest] = top
        return LedgerSegment(base, top, 7, tuple(range(base + 1, top + 1)))


class WalkCounting(tuple):
    """A destination tuple that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


def make_batcher():
    """The batcher's state a :class:`GroupCells` shares: the next seq per
    destination, the echo per peer, the period."""
    return SimpleNamespace(invalidate_dests=lambda: None, seqs={}, acks={}, interval=lambda: ETA)


def make_cells(loss=0.0, swim=False, dests=DESTS, leases=None, batcher=None, group=1):
    membership = SimpleNamespace(
        group=group,
        pid=0,
        scheduler=SimpleNamespace(now=0.0),
        view=View(),
        algorithm=Algorithm(),
        plane=Plane(loss, swim),
        syncs=[],
        view_moves=[],
    )
    membership.push_sync = membership.syncs.append
    membership.merge_from = lambda node, delta: membership.view.merge(delta)
    membership.view_changed = lambda: membership.view_moves.append(True)
    membership.digests_agree = lambda node: None
    batcher = make_batcher() if batcher is None else batcher
    cells = GroupCells(membership, batcher, NoLedger() if leases is None else leases)
    cells.retarget(dests)
    return cells


def emit(cells, dt=ETA, early=False):
    """One frame round ``dt`` later: ``{dest: cell}``.  Every destination's
    frame is numbered, cell or not (the header flows every round)."""
    cells.scheduler.now += dt
    sent = dict(cells.emit_cells(early))
    dests = cells.dest_nodes()
    for index in range(len(dests)):  # indexed: a walk is the emitter's to count
        cells._batcher.seqs[dests[index]] = cells._batcher.seqs.get(dests[index], 0) + 1
    return sent


def tick(cells, dt=ETA, early=False):
    """:func:`emit`, reduced to ``{dest: acc_time carried}``."""
    return {dest: cell.acc_time for dest, cell in emit(cells, dt, early).items()}


def echo(cells, *dests):
    """Each destination's frame echoes the last frame it was sent."""
    for dest in dests or DESTS:
        cells.on_ack(dest, cells._batcher.seqs[dest] - 1, cells.scheduler.now)


def settle(cells):
    """First contact, echoed: every destination holds the payload."""
    assert tick(cells) == {dest: cells.algorithm.acc_time for dest in DESTS}
    echo(cells)


def everyone(acc_time):
    return {dest: acc_time for dest in DESTS}


def test_an_unechoed_change_rides_every_frame_once_its_echo_is_overdue():
    cells = make_cells()
    settle(cells)
    assert tick(cells) == {}
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)
    assert tick(cells) == {}  # η after: the echo may be on its way
    assert tick(cells) == everyone(1.0)  # 2η: overdue
    assert tick(cells) == everyone(1.0)  # and on every frame from then on
    echo(cells, 1)
    assert tick(cells) == {2: 1.0, 3: 1.0}
    echo(cells, 2, 3)
    assert tick(cells) == {} and tick(cells) == {}
    assert cells.owed == {}
    assert cells.cells_repeated == 2 * len(DESTS) + 2


def test_no_observed_loss_sends_a_change_exactly_once():
    # Echoed before the next regular tick, as a LAN echoes it: one send, and
    # no early round (nothing was ever seen lost).
    cells = make_cells(loss=0.0)
    settle(cells)
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)
    assert not cells.owing
    echo(cells)
    assert tick(cells) == {} and tick(cells) == {}
    assert cells.cells_repeated == 0


def test_one_percent_loss_rides_exactly_the_next_frame_too():
    # The change arms the early round, which re-sends to every destination
    # not yet echoed; the echo then ends it.
    cells = make_cells(loss=0.01)
    settle(cells)
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)
    assert cells.owing
    assert tick(cells, dt=ETA / 8, early=True) == everyone(1.0)
    echo(cells)
    assert tick(cells) == {} and tick(cells) == {}
    assert cells.cells_repeated == len(DESTS)


def test_an_echo_of_a_frame_before_the_change_acknowledges_nothing():
    cells = make_cells()
    settle(cells)
    tick(cells)
    before = {dest: cells._batcher.seqs[dest] - 1 for dest in DESTS}  # header-only frames
    cells.algorithm.change()
    tick(cells)
    for dest, seq in before.items():
        cells.on_ack(dest, seq, cells.scheduler.now)
    assert set(cells.owed) == set(DESTS)
    assert tick(cells, dt=ETA / 8, early=True) == everyone(1.0)


def test_an_echo_of_a_frame_without_the_groups_cell_acknowledges_nothing():
    # The echo is the node's: it names the newest frame whose cells were
    # ingested, whichever group's they were.  Group 1's change is lost; the
    # next frame carries only group 2's and is echoed.
    batcher = make_batcher()
    first, second = make_cells(batcher=batcher), make_cells(batcher=batcher, group=2)

    def frames():
        """One round of both groups: ``{group: {dest: acc_time}}``."""
        sent = {}
        for cells in (first, second):
            cells.scheduler.now += ETA
            sent[cells.group] = {dest: cell.acc_time for dest, cell in cells.emit_cells(False)}
        for dest in DESTS:
            batcher.seqs[dest] = batcher.seqs.get(dest, 0) + 1
        return sent

    def echoes():
        for cells in (first, second):  # the service hands an echo to every group
            echo(cells)

    frames()
    echoes()
    first.algorithm.change()
    assert frames() == {1: everyone(1.0), 2: {}}  # lost
    second.algorithm.change()
    assert frames() == {1: {}, 2: everyone(1.0)}  # delivered, echoed
    echoes()
    assert set(first.owed) == set(DESTS) and second.owed == {}
    assert frames() == {1: everyone(1.0), 2: {}}  # overdue: re-sent
    echoes()
    assert first.owed == {}


def test_a_second_change_restarts_the_count_with_the_new_payload():
    # The cell is owed from the frame that first carried the newer payload.
    cells = make_cells()
    settle(cells)
    cells.algorithm.change()
    tick(cells)
    first = cells._batcher.seqs[1] - 1
    cells.algorithm.change()
    assert tick(cells) == everyone(2.0)
    cells.on_ack(1, first, cells.scheduler.now)  # an echo of 1.0 does not cover 2.0
    assert tick(cells, dt=ETA / 8, early=True) == everyone(2.0)
    echo(cells)
    assert tick(cells) == {}


def test_a_regular_round_re_sends_only_once_the_echo_is_overdue():
    cells = make_cells()
    settle(cells)
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)  # news
    assert tick(cells, dt=ETA / 2) == {}  # a flush: the echo may be on its way
    assert tick(cells, dt=ETA / 2) == {}  # the regular tick η after
    assert tick(cells, dt=0.75 * ETA) == everyone(1.0)  # a flush 1.75 η after: overdue
    assert tick(cells, dt=0.0) == everyone(1.0)  # and every frame from then on
    cells.algorithm.change()
    assert tick(cells) == everyone(2.0)
    assert tick(cells, dt=ETA / 8, early=True) == everyone(2.0)  # the early round: at once


def test_owing_marks_only_the_round_that_sent_the_change():
    for loss, armed in ((0.0, False), (0.01, True)):
        cells = make_cells(loss=loss)
        tick(cells)
        assert not cells.owing  # a first contact is not a change
        cells.algorithm.change()
        owing = []
        for _ in range(3):  # the change, a round, a re-send
            tick(cells)
            owing.append(cells.owing)
        assert owing == [armed, False, False]


def test_loss_is_read_once_per_changed_round_and_never_on_quiet_ones():
    cells = make_cells(loss=0.1)
    settle(cells)
    cells.algorithm.change()
    tick(cells)
    assert cells.plane.reads == 1  # once, not once per destination
    tick(cells)
    tick(cells)
    echo(cells)
    tick(cells)
    assert cells.plane.reads == 1  # re-sends and quiet rounds: never


def test_neither_a_first_contact_nor_a_refresh_is_repeated():
    # Once echoed; neither arms the early round, and both are owed until then.
    cells = make_cells(loss=0.5)
    assert tick(cells) and not cells.owing
    echo(cells)
    assert tick(cells) == {}
    cells.scheduler.now += CELL_REFRESH
    assert tick(cells) == everyone(0.0) and not cells.owing
    echo(cells)
    assert tick(cells) == {}
    assert cells.cells_repeated == 0


def test_after_the_last_repeat_rounds_are_skipped_until_the_refresh():
    dests = WalkCounting(DESTS)
    cells = make_cells(loss=0.01, dests=dests)
    settle(cells)
    cells.algorithm.change()
    tick(cells)
    due = cells.scheduler.now + CELL_REFRESH
    assert tick(cells, dt=ETA / 8, early=True)  # the re-send, then its echo
    echo(cells)
    assert tick(cells) == {}  # one walk finds every echo in
    walks = WalkCounting.walks
    while cells.scheduler.now + ETA < due:
        assert tick(cells) == {}
    assert WalkCounting.walks == walks  # skipped outright: no destination walk
    # The refresh clock runs from the change, not from its re-send.
    cells.scheduler.now = due
    assert tick(cells, dt=1e-6) == everyone(1.0)
    assert tick(cells) == {}
    assert tick(cells) == everyone(1.0)  # owed too
    echo(cells)
    assert tick(cells) == {}


def test_a_restarted_destination_is_re_sent_the_payload_on_the_next_frame():
    cells = make_cells()
    settle(cells)
    assert tick(cells) == {}
    # Node 2's daemon restarts: its frames are numbered afresh, sent later.
    ingest(cells, frame(40, 10.0, L, sender=2), frame(0, 11.0, L, sender=2))
    assert cells._leases.forgotten == [2]
    assert tick(cells) == {2: 0.0}
    echo(cells, 2)
    assert tick(cells) == {}


def test_a_destination_not_heard_from_is_sent_a_change_once_and_again_when_heard():
    # A passive member, a crashed daemon or a cut link's far end echoes
    # nothing: on a node that has seen no loss it is not owed, and its
    # frames' return re-sends the payload.
    cells = make_cells()
    settle(cells)
    cells.plane.silent = {3}
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)
    assert set(cells.owed) == {1, 2}
    echo(cells, 1, 2)
    assert tick(cells) == {} and tick(cells) == {}
    cells.plane.silent = set()
    cells.on_trust(3)
    assert tick(cells) == {3: 1.0}
    assert tick(cells) == {}
    assert tick(cells) == {3: 1.0}  # owed now, until echoed
    echo(cells, 3)
    assert tick(cells) == {}
    cells.algorithm.change()
    tick(cells)
    cells.plane.silent = {2}  # crashed with the change owed: dropped when due
    tick(cells)
    assert tick(cells) == {1: 2.0, 3: 2.0}
    assert set(cells.owed) == {1, 3}


def test_a_destination_not_heard_from_is_re_sent_its_news_blind_under_loss():
    # It cannot echo, so on a node that has seen loss its news rides the
    # early round a change arms and the first round once overdue, then stops.
    cells = make_cells(loss=0.01)
    settle(cells)
    cells.plane.silent = {3}
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)
    assert tick(cells, dt=ETA / 8, early=True) == everyone(1.0)
    echo(cells)
    assert set(cells.owed) == {3}  # no echo covers a blind send
    assert tick(cells) == {}
    assert tick(cells) == {3: 1.0}  # overdue
    assert cells.owed == {}
    assert tick(cells) == {} and tick(cells) == {}
    assert cells.cells_repeated == len(DESTS) + 1


def carrier(cells, dest, ack=None):
    """A frame or probe message back from ``dest``, sent now, echoing
    ``ack`` (default: nothing)."""
    cells.on_ack(dest, ack, cells.scheduler.now)


def swim_changed():
    """Swim cells that sent a change to every destination, echoed by none."""
    cells = make_cells(swim=True)
    settle(cells)
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)
    return cells


def test_swim_re_sends_a_lost_cell_once_per_exchange_that_shows_it_lost():
    # Node 1's frame was lost; nodes 2 and 3 echo theirs.  Rounds alone
    # re-send nothing; a carrier back from node 1 that left once the echo
    # was overdue, echoing nothing, re-sends it on the next round — once.
    cells = swim_changed()
    echo(cells, 2, 3)
    sent = []
    for round_ in range(12):
        if round_ in (1, 2, 3, 4, 6):  # probes and answers from node 1
            carrier(cells, 1)
        sent.append(tick(cells))
    # Round r's carrier left r·η after the send, and the echo is overdue
    # 1.5·η after it.  Round 1's may have crossed the frame; round 2's
    # shows the loss.  Rounds 3 and 4 are inside 1.5·η of that re-send,
    # round 6's is not.
    assert [index for index, cell in enumerate(sent) if cell] == [2, 6]
    assert all(cell == {1: 1.0} for cell in sent if cell)
    assert cells.cells_repeated == 2
    echo(cells, 1)
    assert cells.owed == {}


def test_swim_never_re_sends_an_echoed_cell():
    cells = swim_changed()
    echo(cells)
    for _ in range(12):
        for dest in DESTS:
            carrier(cells, dest)  # echo-less carriers after the echo prove nothing
        assert tick(cells) == {}
    assert cells.owed == {} and cells.cells_repeated == 0


def test_swim_ack_direction_loss_costs_one_re_send_per_exchange():
    # Node 1 got the change, but the probe answer that echoed it was lost:
    # its next ping and answer carry no echo (an echo rides once).  One
    # re-send answers both; the echo of that frame clears the debt.
    cells = swim_changed()
    echo(cells, 2, 3)
    for _ in range(3):
        tick(cells)
    carrier(cells, 1)  # its ping, echo-less
    carrier(cells, 1)  # the answer to ours, in the same exchange
    assert tick(cells) == {1: 1.0}
    resent = cells._batcher.seqs[1] - 1
    carrier(cells, 1)  # the frame cannot have arrived yet: not a loss
    assert tick(cells) == {}
    carrier(cells, 1, ack=resent)
    assert cells.owed == {}
    for _ in range(10):
        carrier(cells, 1)
        assert tick(cells) == {}
    assert cells.cells_repeated == 1


def test_swim_owes_an_unheard_destination_and_its_return_shows_what_it_lacks():
    # A suspected peer is owed like any other (owing costs nothing while it
    # sends nothing back): trusted again, it is sent no first contact, but
    # its first carrier back re-sends what it missed.
    cells = make_cells(swim=True)
    settle(cells)
    cells.plane.silent = {3}
    cells.algorithm.change()
    assert tick(cells) == everyone(1.0)
    assert set(cells.owed) == set(DESTS)
    echo(cells, 1, 2)
    cells.plane.silent = set()
    cells.on_trust(3)
    assert tick(cells) == {} and tick(cells) == {}
    carrier(cells, 3)
    assert tick(cells) == {3: 1.0}
    assert cells.cells_repeated == 1


def deltas(cells):
    """One round ETA later: ``{dest: membership records carried}``."""
    return {dest: cell.delta for dest, cell in emit(cells).items()}


@pytest.mark.parametrize("swim", [True, False], ids=["swim", "all_pairs"])
def test_a_view_change_is_no_cell_news(swim):
    # The membership gossips deltas itself: a first contact carries exactly
    # the sender's own record (it introduces itself), every other cell none,
    # and a moved view alone sends no cell.
    cells = make_cells(swim=swim)
    intro = (cells.view.record(cells.pid),)
    assert deltas(cells) == {dest: intro for dest in DESTS}
    echo(cells)
    cells.algorithm.change()
    assert deltas(cells) == {dest: () for dest in DESTS}
    echo(cells)
    cells.view.version = 2
    for _ in range(3):
        assert deltas(cells) == {}


def test_bounded_membership_cells_are_owed_but_carry_no_deltas():
    # A swim cell left unechoed goes again only as a first contact, and the
    # refresh starts a new run.
    cells = make_cells(swim=True)
    intro = (cells.view.record(cells.pid),)
    assert deltas(cells) == {dest: intro for dest in DESTS}
    echo(cells)
    cells.algorithm.change()
    assert deltas(cells) == {dest: () for dest in DESTS}
    assert set(cells.owed) == set(DESTS)
    cells.view.version = 2
    for _ in range(3):
        assert tick(cells) == {}  # rounds alone re-send nothing on swim
    carrier(cells, 2)
    assert deltas(cells) == {2: intro}  # a lost cell goes again as a first contact
    assert not cells.owing
    # The refresh goes to every destination, owed or not, and starts a new run.
    cells.scheduler.now += CELL_REFRESH
    assert deltas(cells) == {dest: () for dest in DESTS}
    echo(cells)
    assert cells.owed == {}
    ingest(cells, frame(5, 10.0, L))
    assert cells._batcher.acks == {SENDER: 5}  # swim echoes what it ingests
    # A restarted sender takes its lease cursors, and is sent a first contact.
    ingest(cells, frame(0, 11.0, L))
    assert cells._leases.forgotten == [SENDER] and SENDER not in cells.cell_state


def segments(cells):
    """One round ETA later: ``{dest: (base, top, number of records)}``."""
    return {
        dest: (cell.leases.base, cell.leases.top, len(cell.leases.records))
        for dest, cell in emit(cells).items()
    }


def test_a_ledger_delta_makes_the_cell_due_and_rides_once():
    cells = make_cells(leases=Ledger())
    assert segments(cells) == {dest: (0, 1, 1) for dest in DESTS}  # first contact
    echo(cells)
    assert segments(cells) == {}
    cells._leases.write(3)
    assert segments(cells) == {dest: (1, 4, 3) for dest in DESTS}
    echo(cells)
    assert segments(cells) == {}
    assert not cells.owing  # a ledger delta never arms the early round
    cells.scheduler.now += CELL_REFRESH
    assert segments(cells) == {dest: (4, 4, 0) for dest in DESTS}  # the head


def test_under_loss_the_next_frame_shows_a_lost_delta_as_a_gap():
    cells = make_cells(loss=0.01, leases=Ledger())
    segments(cells)
    echo(cells)
    cells._leases.write(2)
    assert segments(cells) == {dest: (1, 3, 2) for dest in DESTS}
    assert not cells.owing
    assert segments(cells) == {}
    # Overdue, the unechoed cell rides on with the head: base 3 is past what
    # a follower that lost the delta has applied, so it NACKs.
    assert segments(cells) == {dest: (3, 3, 0) for dest in DESTS}
    echo(cells)
    assert segments(cells) == {}


def test_a_backlog_streams_over_consecutive_frames():
    ledger = Ledger()
    cells = make_cells(leases=ledger)
    segments(cells)
    echo(cells)
    ledger.write(LEDGER_SEGMENT_CAP + 5)
    top = 1 + LEDGER_SEGMENT_CAP
    assert segments(cells) == {dest: (1, top, LEDGER_SEGMENT_CAP) for dest in DESTS}
    assert segments(cells) == {dest: (top, top + 5, 5) for dest in DESTS}
    echo(cells)
    assert segments(cells) == {}


def test_a_rewound_cursor_ends_the_quiet_window():
    ledger = Ledger()
    cells = make_cells(leases=ledger)
    segments(cells)
    ledger.write(2)
    segments(cells)
    echo(cells)
    ledger.shipped[2] = 1  # a NACK: node 2 applied only version 1
    ledger._head = None
    assert segments(cells) == {2: (1, 3, 2)}


# ----------------------------------------------------------------------
# Receive side: a frame overtaken on the link cannot rewind the election
# ----------------------------------------------------------------------

SENDER = 4
L, M = 8, 9  # two forwards the sender names, in that order


def frame(seq, send_time, forward, delta=(), digest=7, sender=SENDER):
    """One frame from ``sender`` carrying a cell that forwards ``forward``."""
    cell = AliveCell(group=1, pid=sender, local_leader=forward, delta=delta, view_digest=digest)
    return BatchFrame(
        sender_node=sender, dest_node=0, seq=seq, send_time=send_time, cells=(cell,)
    )


def ingest(cells, *frames):
    for received in frames:
        cells.handle_cell(received.sender_node, received, received.cells[0])
    return cells.algorithm.forward


def test_a_frame_overtaken_by_its_successor_cannot_rewind_the_forward():
    cells = make_cells(loss=0.01)
    record = MemberInfo(pid=5, node=5, incarnation=1, candidate=True, present=True, joined_at=0.0)
    before = frame(5, 10.0, L, delta=(record,), digest=99)  # sent first, diverged digest
    after = frame(6, 10.2, M)
    assert ingest(cells, after, before) == M  # the parent went back to L
    membership = cells._membership
    assert cells.view.merged == [record]  # the delta still merges, order-free
    assert membership.view_moves == [True]
    assert membership.syncs == []  # an overtaken digest is no divergence
    assert cells.frame_anchor[SENDER] == (6, 10.2)
    assert cells._batcher.acks == {SENDER: 6}  # the overtaken frame is not echoed
    assert cells._leases.forgotten == []  # late, not restarted


def test_in_order_frames_are_all_ingested():
    cells = make_cells(loss=0.01)
    assert ingest(cells, frame(5, 10.0, L)) == L
    assert ingest(cells, frame(6, 10.2, M)) == M
    assert cells._batcher.acks == {SENDER: 6}


def test_a_rebooted_sender_restarts_its_seq_and_is_ingested():
    cells = make_cells(loss=0.01)
    assert ingest(cells, frame(6, 10.2, M), frame(0, 11.0, L)) == L
    assert ingest(cells, frame(1, 11.2, M)) == M  # the anchor moved to the new stream
    assert cells._batcher.acks == {SENDER: 1}  # the echo follows the new numbering
    # What the lease tier applied from, or shipped to, the old daemon goes.
    assert cells._leases.forgotten == [SENDER]


def test_a_resynced_clock_steps_send_time_back_and_is_ingested():
    cells = make_cells(loss=0.01)
    assert ingest(cells, frame(6, 10.2, M), frame(7, 10.1, L)) == L
    assert cells._leases.forgotten == []  # the same daemon, numbering on


def test_the_anchor_goes_when_the_peer_leaves_the_view():
    config = ExperimentConfig(
        name="anchor-goes", n_nodes=4, seed=3, node_churn=False, duration=30.0, warmup=5.0
    )
    system = build_system(config)
    system.sim.run_until(5.0)
    cells = system.hosts[0].service.group_runtime(1).cells
    assert set(cells.frame_anchor) == {1, 2, 3}
    system.hosts[3].service.leave(3, 1)  # pid == node id in build_system
    system.sim.run_until(8.0)
    assert set(cells.frame_anchor) == {1, 2}


def test_a_cell_without_a_segment_reaches_a_non_empty_ledger_only():
    cells = make_cells(loss=0.01)
    leases = cells._leases
    told = []
    leases.ingest = lambda sender, segment, in_order: told.append((sender, segment, in_order))
    ingest(cells, frame(5, 10.0, L))
    assert told == []  # an empty ledger has nothing a leader could lack
    cells._ledger = SimpleNamespace(max_token=3)  # holds records
    ingest(cells, frame(6, 10.2, L))
    assert told == [(SENDER, None, True)]
