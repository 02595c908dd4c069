"""Loss-sized repeats of a changed ALIVE cell (``GroupCells.emit_cells``).

A changed election payload goes to each destination on the next frame and
then rides k − 1 more, k sized from the loss the plane observes; nothing is
sent twice while no loss was ever seen.  The fakes below stand in for
everything a :class:`GroupCells` reads off its membership, so each test
scripts exactly one thing: the payload, the clock and the observed loss.
"""

from types import SimpleNamespace

import pytest

from repro.core.cells import GroupCells
from repro.fd.plane import CELL_REFRESH, CELL_REPEAT_CAP
from repro.net.message import MemberInfo

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


class View:
    version = 1

    def __init__(self):
        self.records = ()

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


class WalkCounting(tuple):
    """A destination tuple that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


def make_cells(loss, cell_deltas=True, dests=DESTS):
    membership = SimpleNamespace(
        group=1,
        pid=0,
        scheduler=SimpleNamespace(now=0.0),
        view=View(),
        algorithm=Algorithm(),
        plane=Plane(loss),
        cell_deltas=cell_deltas,
        sent_version={dest: 1 for dest in dests},
    )
    cells = GroupCells(membership, SimpleNamespace(invalidate_dests=lambda: None))
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
