"""Loss-sized repeats of a changed ALIVE cell (``GroupCells.emit_cells``),
the ledger segments a leader's cells carry, and the overtaken-frame guard
on ingest (``GroupCells.handle_cell``).

A changed election payload goes to each destination on the next round and
then rides k − 1 more, k sized from the loss the plane observes; nothing is
sent twice while no loss was ever seen.  The fakes below stand in for
everything a :class:`GroupCells` reads off its membership, so each test
scripts exactly one thing: the payload, the clock and the observed loss —
or, on the receive side, the order frames arrive in.
"""

from types import SimpleNamespace

import pytest

from repro.core.cells import GroupCells
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.plane import CELL_REFRESH, CELL_REPEAT_CAP
from repro.lease.server import LEDGER_SEGMENT_CAP
from repro.net.message import AliveCell, BatchFrame, LedgerSegment, MemberInfo

ETA = 0.2
DESTS = (1, 2, 3)


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
        self.records = ()
        self.merged = []

    def merge(self, delta):
        self.merged.extend(delta)
        return True

    def digest64(self):
        return 7

    def delta_since(self, version):
        return self.records if version < self.version else ()


class Plane:
    cell_refresh = CELL_REFRESH

    def __init__(self, loss):
        self.loss = loss
        self.reads = 0

    def observed_loss(self):
        self.reads += 1
        return self.loss


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


class Ledger:
    """A tenure-active leader's lease server, reduced to what the cells read:
    version ``v``'s record is the int ``v``."""

    ledger = SimpleNamespace(max_token=0)  # holds no record

    def __init__(self):
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


def make_cells(loss, cell_deltas=True, dests=DESTS, leases=None):
    membership = SimpleNamespace(
        group=1,
        pid=0,
        scheduler=SimpleNamespace(now=0.0),
        view=View(),
        algorithm=Algorithm(),
        plane=Plane(loss),
        cell_deltas=cell_deltas,
        sent_version={dest: 1 for dest in dests},
        syncs=[],
        view_moves=[],
    )
    membership.push_sync = membership.syncs.append
    membership.view_changed_by_cell = lambda: membership.view_moves.append(True)
    batcher = SimpleNamespace(invalidate_dests=lambda: None)
    cells = GroupCells(membership, batcher, NoLedger() if leases is None else leases)
    cells.retarget(dests)
    return cells


def tick(cells, dt=ETA):
    """One frame round ``dt`` later: ``{dest: acc_time carried}``."""
    cells.scheduler.now += dt
    return {dest: cell.acc_time for dest, cell in cells.emit_cells()}


def rounds_until_quiet(cells, limit=10):
    """Frames in a row that carry the cell to every destination."""
    count = 0
    while count < limit:
        sent = tick(cells)
        if not sent:
            return count
        assert set(sent) == set(DESTS)
        count += 1
    raise AssertionError("the cell never stopped riding")


def test_no_observed_loss_sends_a_change_exactly_once():
    cells = make_cells(loss=0.0)
    assert rounds_until_quiet(cells) == 1  # first contact
    cells.algorithm.change()
    assert tick(cells) == {dest: 1.0 for dest in DESTS}
    assert tick(cells) == {} and tick(cells) == {}
    assert cells.cells_repeated == 0
    assert all(len(state) == 2 for state in cells.cell_state.values())  # as before


def test_one_percent_loss_rides_exactly_the_next_frame_too():
    cells = make_cells(loss=0.01)
    rounds_until_quiet(cells)
    before = cells.cells_repeated
    cells.algorithm.change()
    assert tick(cells) == {dest: 1.0 for dest in DESTS}
    assert tick(cells) == {dest: 1.0 for dest in DESTS}  # the repeat
    assert tick(cells) == {}
    assert cells.cells_repeated - before == len(DESTS)


@pytest.mark.parametrize(
    "loss, sends",
    [(0.0005, 1), (0.01, 2), (0.1, 3), (0.5, CELL_REPEAT_CAP), (0.99, CELL_REPEAT_CAP)],
)
def test_sends_follow_the_observed_loss_up_to_the_cap(loss, sends):
    cells = make_cells(loss=loss)
    rounds_until_quiet(cells)
    cells.algorithm.change()
    assert rounds_until_quiet(cells) == sends
    assert sends * ETA < CELL_REFRESH  # over before the refresh would fire


def test_loss_is_read_once_per_changed_round_and_never_on_quiet_ones():
    cells = make_cells(loss=0.1)
    rounds_until_quiet(cells)
    reads = cells.plane.reads
    cells.algorithm.change()
    tick(cells)
    assert cells.plane.reads == reads + 1  # once, not once per destination
    rounds_until_quiet(cells)
    tick(cells)
    assert cells.plane.reads == reads + 1  # repeats and quiet rounds: never


def test_a_second_change_restarts_the_count_with_the_new_payload():
    cells = make_cells(loss=0.1)  # 3 sends
    rounds_until_quiet(cells)
    cells.algorithm.change()
    assert tick(cells) == {dest: 1.0 for dest in DESTS}
    assert tick(cells) == {dest: 1.0 for dest in DESTS}
    cells.algorithm.change()  # one repeat of 1.0 still owed: superseded
    for _ in range(3):
        assert tick(cells) == {dest: 2.0 for dest in DESTS}
    assert tick(cells) == {}


def test_after_the_last_repeat_rounds_are_skipped_until_the_refresh():
    dests = WalkCounting(DESTS)
    cells = make_cells(loss=0.01, dests=dests)
    rounds_until_quiet(cells)
    cells.algorithm.change()
    tick(cells)
    changed_at = cells.scheduler.now
    assert tick(cells)  # the repeat
    walks = WalkCounting.walks
    while cells.scheduler.now + ETA < changed_at + CELL_REFRESH:
        assert tick(cells) == {}
    assert WalkCounting.walks == walks  # skipped outright: no destination walk
    # The refresh clock runs from the change, not from the repeat.
    assert tick(cells) == {dest: 1.0 for dest in DESTS}
    assert tick(cells) == {}


def test_owing_marks_only_the_round_that_sent_the_change():
    # The batcher arms one early round after it; the repeats themselves
    # (fast path) ride what comes next without arming another.
    cells = make_cells(loss=0.1)  # 3 sends
    rounds_until_quiet(cells)
    assert not cells.owing
    cells.algorithm.change()
    owed = []
    for _ in range(4):  # the full round, two fast-path repeats, a quiet round
        tick(cells)
        owed.append(cells.owing)
    assert owed == [True, False, False, False]
    assert cells.cells_repeated == 2 * len(DESTS)


def test_neither_a_first_contact_nor_a_refresh_is_repeated():
    cells = make_cells(loss=0.5)
    assert rounds_until_quiet(cells) == 1  # first contact: nothing *changed*
    before = cells.cells_repeated
    cells.scheduler.now += CELL_REFRESH
    assert rounds_until_quiet(cells) == 1
    assert cells.cells_repeated == before


def test_a_delta_owing_destination_gets_its_delta_cell_once_as_before():
    cells = make_cells(loss=0.5)
    rounds_until_quiet(cells)
    assert tick(cells, CELL_REFRESH)  # start from a fresh refresh
    before = cells.cells_repeated
    record = MemberInfo(
        pid=9, node=9, incarnation=1, candidate=True, present=True, joined_at=0.0
    )
    cells.view.records = (record,)
    cells.view.version = 2
    cells._sent_version[1] = 2  # only 2 and 3 owe the delta
    cells.scheduler.now += ETA
    sent = dict(cells.emit_cells())
    assert sent[2].delta == sent[3].delta == (record,)
    assert 1 not in sent  # version-current, payload unchanged, refresh fresh
    assert tick(cells) == {}
    assert cells.cells_repeated == before


def test_bounded_membership_is_unaffected():
    # No shipped-version cursors (the swim membership): every destination
    # takes the shared template, once — the swim plane reports 0.0 loss.
    cells = make_cells(loss=0.0, cell_deltas=False)
    rounds_until_quiet(cells)
    cells.algorithm.change()
    cells.scheduler.now += ETA
    sent = list(cells.emit_cells())
    assert [dest for dest, _ in sent] == list(DESTS)
    assert len({id(cell) for _, cell in sent}) == 1
    assert tick(cells) == {}
    assert cells.cells_repeated == 0


# ----------------------------------------------------------------------
# The lease ledger riding a leader's cells
# ----------------------------------------------------------------------


def segments(cells):
    """One round ETA later: ``{dest: (base, top, number of records)}``."""
    cells.scheduler.now += ETA
    return {
        dest: (cell.leases.base, cell.leases.top, len(cell.leases.records))
        for dest, cell in cells.emit_cells()
    }


def test_a_ledger_delta_makes_the_cell_due_and_rides_once():
    cells = make_cells(loss=0.0, leases=Ledger())
    assert segments(cells) == {dest: (0, 1, 1) for dest in DESTS}  # first contact
    assert segments(cells) == {}
    cells._leases.write(3)
    assert segments(cells) == {dest: (1, 4, 3) for dest in DESTS}
    assert segments(cells) == {}
    assert not cells.owing  # a ledger delta never arms the early round
    cells.scheduler.now += CELL_REFRESH
    assert segments(cells) == {dest: (4, 4, 0) for dest in DESTS}  # the head


def test_under_loss_the_next_frame_shows_a_lost_delta_as_a_gap():
    cells = make_cells(loss=0.01, leases=Ledger())
    segments(cells)
    cells._leases.write(2)
    assert segments(cells) == {dest: (1, 3, 2) for dest in DESTS}
    assert not cells.owing
    # The repeat carries the head: base 3 is past what a follower that lost
    # the delta has applied, so it NACKs one frame later.
    assert segments(cells) == {dest: (3, 3, 0) for dest in DESTS}
    assert segments(cells) == {}


def test_a_backlog_streams_over_consecutive_frames():
    ledger = Ledger()
    cells = make_cells(loss=0.0, leases=ledger)
    segments(cells)
    ledger.write(LEDGER_SEGMENT_CAP + 5)
    top = 1 + LEDGER_SEGMENT_CAP
    assert segments(cells) == {dest: (1, top, LEDGER_SEGMENT_CAP) for dest in DESTS}
    assert segments(cells) == {dest: (top, top + 5, 5) for dest in DESTS}
    assert segments(cells) == {}


def test_a_rewound_cursor_ends_the_quiet_window():
    ledger = Ledger()
    cells = make_cells(loss=0.0, leases=ledger)
    segments(cells)
    ledger.write(2)
    segments(cells)
    ledger.shipped[2] = 1  # a NACK: node 2 applied only version 1
    ledger._head = None
    assert segments(cells) == {2: (1, 3, 2)}


# ----------------------------------------------------------------------
# Receive side: a frame overtaken on the link cannot rewind the election
# ----------------------------------------------------------------------

SENDER = 4
L, M = 8, 9  # two forwards the sender names, in that order


def frame(seq, send_time, forward, delta=(), digest=7):
    """One frame from SENDER carrying a cell that forwards ``forward``."""
    cell = AliveCell(group=1, pid=SENDER, local_leader=forward, delta=delta, view_digest=digest)
    return BatchFrame(
        sender_node=SENDER, dest_node=0, seq=seq, send_time=send_time, cells=(cell,)
    )


def ingest(cells, *frames):
    for received in frames:
        cells.handle_cell(SENDER, received, received.cells[0])
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
    assert cells._leases.forgotten == []  # late, not restarted


def test_in_order_frames_are_all_ingested():
    cells = make_cells(loss=0.01)
    assert ingest(cells, frame(5, 10.0, L)) == L
    assert ingest(cells, frame(6, 10.2, M)) == M


def test_a_rebooted_sender_restarts_its_seq_and_is_ingested():
    cells = make_cells(loss=0.01)
    assert ingest(cells, frame(6, 10.2, M), frame(0, 11.0, L)) == L
    assert ingest(cells, frame(1, 11.2, M)) == M  # the anchor moved to the new stream
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
