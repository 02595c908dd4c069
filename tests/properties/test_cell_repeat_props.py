"""An echo acknowledges a changed cell only if its frame carried that cell,
and an owed cell rides every round that may re-send it — whatever is lost
on the way out or back; and however the link reorders one sender's frames,
the receiver ends on the last forward sent.

``GroupCells.emit_cells`` / ``on_ack`` are driven frame by frame against a
scripted network: any interleaving of payload changes, regular ticks,
early rounds and flushes, lost frames, frames that carry another group's
cell only, and echoes.  The echo is the receiving node's: it names the
newest delivered frame that carried any cell.  A destination no longer owed
must hold the sender's current payload, an echo of the newest frame that
carried it ends the debt, and while owed the cell rides every early round
and every round once ``CELL_ECHO_WAIT`` periods passed since it went out.
On swim an unchanged cell goes again only after a carrier back shows it
lost.  ``GroupCells.handle_cell`` is fed one sender's frames in any arrival
order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.test_cells import DESTS, ETA, TICK, frame, ingest, make_cells, tick

#: One frame round: does the payload change just before it, what kind of
#: round it is, which destinations lose the frame, whose frame carries
#: another group's cell, and which destinations echo what they got after it.
KINDS = {"tick": (ETA, False), "early": (ETA / 8, True), "flush": (ETA / 8, False)}
DEST_SETS = st.sets(st.sampled_from(DESTS))
ROUNDS = st.lists(
    st.tuples(st.booleans(), st.sampled_from(sorted(KINDS)), DEST_SETS, DEST_SETS, DEST_SETS),
    min_size=1,
    max_size=30,  # 6 s at most: inside the refresh period
)


@settings(max_examples=300, deadline=None)
@given(rounds=ROUNDS)
def test_an_echo_ends_the_debt_only_for_a_frame_that_carried_the_cell(rounds):
    cells = make_cells()
    holds = {}
    #: dest -> (payload, time it first went out, seqs of the frames carrying it).
    current_news = {}
    #: dest -> seq of the newest frame delivered with any cell, not echoed yet.
    unechoed = {}
    for change, kind, drops, others, echoes in rounds:
        if change:
            cells.algorithm.change()
        current = cells.algorithm.acc_time
        dt, early = KINDS[kind]
        now = cells.scheduler.now + dt
        owed_before = set(cells.owed)
        seqs = {dest: cells._batcher.seqs.get(dest, 0) for dest in DESTS}
        sent = tick(cells, dt, early)
        assert all(carried == current for carried in sent.values())
        for dest in owed_before:
            if early or now - current_news[dest][1] >= TICK:
                assert dest in sent  # it re-sends
        for dest, carried in sent.items():
            if current_news.get(dest, (None,))[0] != carried:
                current_news[dest] = (carried, now, [])
            current_news[dest][2].append(seqs[dest])
            if dest not in drops:
                holds[dest] = carried
        for dest in DESTS:
            if dest not in drops and (dest in sent or dest in others):
                unechoed[dest] = seqs[dest]
        for dest in echoes & set(unechoed):
            ack = unechoed.pop(dest)
            cells.on_ack(dest, ack, cells.scheduler.now)
            if ack == current_news[dest][2][-1]:
                assert dest not in cells.owed
        for dest in DESTS:
            if dest not in cells.owed:
                assert holds.get(dest) == current


@st.composite
def arrivals(draw):
    """One sender's frames (seq i, sent at 0.2·i, forwarding a drawn leader)
    and the order the link delivers them in."""
    forwards = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    sent = [frame(seq, 0.2 * seq, forward) for seq, forward in enumerate(forwards)]
    return sent, draw(st.permutations(sent))


@settings(max_examples=300, deadline=None)
@given(arrivals())
def test_the_receiver_ends_on_the_last_forward_sent(frames):
    sent, arrived = frames
    assert ingest(make_cells(loss=0.01), *arrived) == sent[-1].cells[0].local_leader


#: One swim round: does the payload change before it, which destinations
#: lose the frame, which send a carrier back after it (a frame, a probe or
#: an answer), and which of those carriers lost the echo they held.
SWIM_ROUNDS = st.lists(
    st.tuples(st.booleans(), DEST_SETS, DEST_SETS, DEST_SETS), min_size=1, max_size=30
)


@settings(max_examples=300, deadline=None)
@given(rounds=SWIM_ROUNDS)
def test_swim_re_sends_only_what_a_carrier_back_shows_lost(rounds):
    # A destination no longer owed holds the current payload, and an
    # unchanged payload goes again only on the round after a carrier back
    # that left ``CELL_ECHO_WAIT`` periods after the last send without
    # echoing it — however frames and echoes are lost.
    cells = make_cells(swim=True)
    holds, last, unechoed, shown_lost = {}, {}, {}, set()
    for change, drops, carriers, echo_lost in rounds:
        if change:
            cells.algorithm.change()
        seqs = {dest: cells._batcher.seqs.get(dest, 0) for dest in DESTS}
        sent = tick(cells)
        now = cells.scheduler.now
        for dest, carried in sent.items():
            if dest in last and last[dest][0] == carried:
                assert dest in shown_lost  # a re-send needs the evidence
            last[dest] = (carried, now, seqs[dest])
            if dest not in drops:
                holds[dest] = carried
                unechoed[dest] = seqs[dest]
        current = cells.algorithm.acc_time
        assert all(holds.get(dest) == current for dest in DESTS if dest not in cells.owed)
        shown_lost.clear()
        for dest in carriers:
            ack = unechoed.pop(dest, None)  # an echo rides once, lost or not
            if dest in echo_lost:
                ack = None
            if ack != last[dest][2] and now - last[dest][1] >= TICK - 1e-9:
                shown_lost.add(dest)
            cells.on_ack(dest, ack, now)
