"""A changed cell reaches a destination within k frames unless k in a row
are lost — whatever else happens meanwhile; and however the link reorders
one sender's frames, the receiver ends on the last forward sent.

``GroupCells.emit_cells`` is driven frame by frame against a scripted
network: any interleaving of payload changes and per-destination drops in
which no destination loses k consecutive frames (k being what the observed
loss calls for).  Each destination must then hold the sender's current
payload from the k-th frame after the latest change on.
``GroupCells.handle_cell`` is fed one sender's frames in any arrival order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import _sends_for

from tests.core.test_cells import DESTS, frame, ingest, make_cells, tick

#: One frame round: does the payload change just before it, and which
#: destinations would lose the frame (subject to the run-length cap).
ROUNDS = st.lists(
    st.tuples(st.booleans(), st.sets(st.sampled_from(DESTS))), min_size=1, max_size=40
)


@settings(max_examples=200, deadline=None)
@given(loss=st.sampled_from([0.0, 0.002, 0.01, 0.1, 0.5]), rounds=ROUNDS)
def test_current_payload_is_held_within_k_frames_of_the_change(loss, rounds):
    k = _sends_for(loss)
    cells = make_cells(loss=loss)
    holds = tick(cells)  # first contact (never repeated) gets through
    lost_in_a_row = {dest: 0 for dest in DESTS}
    frames_since_change = k
    for change, drops in rounds:
        if change:
            cells.algorithm.change()
            frames_since_change = 0
        sent = tick(cells)
        frames_since_change += 1
        for dest in DESTS:
            # The frame header flows every round; a drop loses it whole.
            if dest in drops and lost_in_a_row[dest] + 1 < k:
                lost_in_a_row[dest] += 1
                continue
            lost_in_a_row[dest] = 0
            if dest in sent:
                holds[dest] = sent[dest]
        assert all(carried == cells.algorithm.acc_time for carried in sent.values())
        if frames_since_change >= k:
            assert holds == {dest: cells.algorithm.acc_time for dest in DESTS}


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
