"""Unit tests for the node-level ALIVE batcher."""

from types import SimpleNamespace

import pytest

from repro.fd.scheduler import AliveBatcher
from repro.metrics.usage import UsageMeter
from repro.net.message import AliveCell, BatchFrame, SwimUpdate
from repro.net.network import Network, NetworkConfig

from tests.core.test_cells import make_cells


@pytest.fixture
def network(sim, rng):
    net = Network(sim, NetworkConfig(n_nodes=4), rng)
    return net


class FakeSource:
    """A scripted cell source for one group (no suppression: every round)."""

    owing = False

    def __init__(self, group, dests, acc_time=0.0):
        self.group = group
        self.dests = list(dests)
        self.acc_time = acc_time

    def dest_nodes(self):
        return tuple(self.dests)

    def emit_cells(self, early):
        for dest in self.dests:
            yield dest, AliveCell(group=self.group, pid=0, acc_time=self.acc_time)


class QuietSource(FakeSource):
    """Every cell suppressed: the steady state of an unchanged group."""

    def emit_cells(self, early):
        return ()


class EchoLog(QuietSource):
    """A quiet source that logs the carriers handed to it."""

    def __init__(self, group, dests):
        super().__init__(group, dests)
        self.acks = []

    def on_ack(self, node, seq, departure):
        self.acks.append((node, seq, departure))


class FakeRumours:
    """A scripted plane whose header is no liveness signal, holding
    ``batches`` one-update rumour batches."""

    header_is_liveness = False

    def __init__(self, batches=0):
        self.batches = batches
        self.calls = 0

    def has_rumours(self):
        return self.batches > 0

    def piggyback(self, carrier="probe"):
        self.calls += 1
        if self.batches <= 0:
            return ()
        self.batches -= 1
        return (SwimUpdate(node=9, incarnation=self.calls, state="suspect"),)


def make_batcher(sim, network, rng, node_id=0, **kwargs):
    return AliveBatcher(
        scheduler=sim,
        transport=network,
        node_id=node_id,
        rng=rng.stream("batcher"),
        **kwargs,
    )


def collect(network, node_id):
    received = []
    network.node(node_id).set_receiver(received.append)
    return received


class TestEmission:
    def test_sends_one_frame_per_destination_each_period(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        boxes = {n: collect(network, n) for n in (1, 2, 3)}
        batcher.add_group(1, FakeSource(1, [1, 2, 3]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(10.0)
        for box in boxes.values():
            assert 38 <= len(box) <= 41  # ~10 s / 0.25 s

    def test_many_groups_share_one_frame(self, sim, network, rng):
        """The scale-out property: frames per period are O(node pairs),
        however many groups are hosted."""
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        for group in range(1, 9):
            batcher.add_group(group, FakeSource(group, [1]), eta=0.25)
            batcher.set_active(group, True)
        sim.run_until(10.0)
        assert 38 <= len(box) <= 50  # still one frame per period (+ flushes)
        steady = box[-1]
        assert isinstance(steady, BatchFrame)
        assert [cell.group for cell in steady.cells] == list(range(1, 9))

    def test_emissions_to_all_destinations_are_simultaneous(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        send_times = {1: [], 2: []}
        network.node(1).set_receiver(lambda m: send_times[1].append(m.send_time))
        network.node(2).set_receiver(lambda m: send_times[2].append(m.send_time))
        batcher.add_group(1, FakeSource(1, [1, 2]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(5.0)
        assert send_times[1] == send_times[2]  # one shared schedule

    def test_sequences_are_per_destination_and_contiguous(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(5.0)
        seqs = [m.seq for m in box]
        assert seqs == list(range(len(seqs)))

    def test_an_echo_rides_the_next_frame_to_its_peer_once(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        boxes = {n: collect(network, n) for n in (1, 2)}
        batcher.add_group(1, QuietSource(1, [1, 2]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(1.0)
        batcher.acks[1] = 7  # a cell of node 1's frame 7 was ingested
        sim.run_until(1.6)
        assert [frame.ack for frame in boxes[1] if frame.send_time > 1.0] == [7, None]
        assert all(frame.ack is None for frame in boxes[2])
        batcher.acks[1] = 8
        batcher.forget_node(1)  # a departed peer's echo goes with its stream
        assert batcher.acks == {}

    def test_a_carrier_hands_its_echo_to_every_group(self, sim, network, rng):
        # All pairs: a frame without an echo says nothing (one is due within
        # a period).  Swim: it may show a cell lost, so every carrier counts.
        # Either way an echo naming a frame never sent is none.
        for plane, expected in (
            (None, [(1, 2, 5.0)]),
            (FakeRumours(), [(1, 2, 5.0), (1, None, 6.0), (1, None, 7.0)]),
        ):
            batcher = make_batcher(sim, network, rng, plane=plane)
            sources = [EchoLog(group, [1]) for group in (1, 2)]
            for source in sources:
                batcher.add_group(source.group, source, eta=0.25)
            batcher.seqs[1] = 3  # frames 0-2 went to node 1
            batcher.on_carrier(1, 2, 5.0)
            batcher.on_carrier(1, None, 6.0)
            batcher.on_carrier(1, 3, 7.0)
            assert [source.acks for source in sources] == [expected, expected]

    def test_payload_fields_stamped(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1], acc_time=1.5), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(1.0)
        frame = box[0]
        assert frame.sender_node == 0
        assert frame.interval == pytest.approx(0.25)
        assert frame.send_time <= sim.now
        (cell,) = frame.cells
        assert cell.group == 1
        assert cell.pid == 0
        assert cell.acc_time == 1.5


class TestSilence:
    def test_all_groups_silent_freezes_sequences(self, sim, network, rng):
        """Voluntary silence must not look like loss: sequences pause."""
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(2.0)
        batcher.set_active(1, False)
        sim.run_until(6.0)
        batcher.set_active(1, True)
        sim.run_until(8.0)
        seqs = [m.seq for m in box]
        assert seqs == list(range(len(seqs)))  # contiguous across the pause

    def test_resume_emits_immediately(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(2.0)
        batcher.set_active(1, False)
        sim.run_until(6.0)
        count = len(box)
        batcher.set_active(1, True)
        sim.run_until(6.1)  # just the link delay: no full period elapses
        assert len(box) == count + 1

    def test_newly_active_group_joins_running_stream_immediately(
        self, sim, network, rng
    ):
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(2.0)
        batcher.add_group(2, FakeSource(2, [1]), eta=0.25)
        batcher.set_active(2, True)
        sim.run_until(2.1)  # just the link delay of the activation flush
        assert {cell.group for cell in box[-1].cells} == {1, 2}

    def test_flushes_in_one_instant_emit_one_round_with_the_final_state(
        self, sim, network, rng
    ):
        """A flush is a request served at the end of the instant: five of
        them are one frame per destination carrying the last state, not
        five frames microseconds apart that overtake each other."""
        batcher = make_batcher(sim, network, rng)
        boxes = [collect(network, n) for n in (1, 2)]
        source = FakeSource(1, [1, 2])
        batcher.add_group(1, source, eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(1.0)
        counts = [len(box) for box in boxes]
        seqs = dict(batcher.seqs)
        for acc_time in (1.0, 2.0, 3.0, 4.0, 5.0):
            source.acc_time = acc_time
            batcher.flush()
        assert batcher.seqs == seqs  # nothing left yet
        sim.run_until(1.1)  # the link delay; no regular tick before 1.25
        assert [len(box) for box in boxes] == [count + 1 for count in counts]
        assert all(box[-1].send_time == 1.0 for box in boxes)
        assert all(box[-1].cells[0].acc_time == 5.0 for box in boxes)
        sim.run_until(2.0)
        later = [m.send_time for m in boxes[0] if m.send_time > 1.0]
        assert later[0] == pytest.approx(1.25)  # the period restarted at the flush

    @pytest.mark.parametrize("stop", ["pause", "shutdown"])
    def test_a_pending_flush_dies_with_the_stream(self, sim, network, rng, stop):
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(1.0)
        count, seqs = len(box), dict(batcher.seqs)
        batcher.flush()
        if stop == "pause":
            batcher.set_active(1, False)
        else:
            batcher.shutdown()
        sim.run_until(3.0)
        assert len(box) == count and batcher.seqs == seqs

    def test_set_active_idempotent(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        batcher.set_active(1, True)
        batcher.set_active(1, False)
        batcher.set_active(1, False)
        assert not batcher.active


def changing_cells(sim, loss, group=1):
    """A real :class:`GroupCells` to nodes 1–3 on the simulator's clock, at
    the observed ``loss`` (its membership faked as in the cells tests).
    Nothing echoes its cells: the collecting receivers send no frames."""
    cells = make_cells(loss=loss)
    cells.scheduler = sim
    cells.group = group
    return cells


class TestEarlyRepeatRound:
    """A round that sends a change on a node that has seen loss arms one
    more round an eighth of a period later, which re-sends every cell not
    yet echoed — through the flush path, so it restarts the period and dies
    with the stream; a regular tick re-sends once the echo is overdue."""

    CHANGE = 1.1  # off the 0.25 s grid the boot flush started

    def changed(self, sim, network, rng, sources):
        batcher = make_batcher(sim, network, rng)
        for cells in sources:
            batcher.add_group(cells.group, cells, eta=0.25)
            batcher.set_active(cells.group, True)
        sim.run_until(self.CHANGE)
        for cells in sources:
            cells.algorithm.change()
        batcher.flush()
        return batcher

    def since_change(self, box):
        """``(ms after the change, acc_times carried)`` per frame from it on."""
        return [
            (round((frame.send_time - self.CHANGE) * 1e3, 6), [c.acc_time for c in frame.cells])
            for frame in box
            if frame.send_time >= self.CHANGE
        ]

    def test_an_owed_repeat_rides_one_round_an_eighth_of_a_period_later(self, sim, network, rng):
        box = collect(network, 1)
        batcher = self.changed(sim, network, rng, [changing_cells(sim, loss=0.01)])
        assert batcher.interval() == 0.25
        sim.run_until(1.5)
        # change, the early round, then the period from there: η after the
        # first send the echo is not overdue yet
        assert self.since_change(box) == [(0.0, [1.0]), (31.25, [1.0]), (281.25, [])]

    def test_owing_sources_in_one_round_arm_one_early_round(self, sim, network, rng):
        box = collect(network, 1)
        sources = [changing_cells(sim, loss=0.01, group=group) for group in (1, 2, 3)]
        self.changed(sim, network, rng, sources)
        sim.run_until(1.5)
        assert self.since_change(box) == [
            (0.0, [1.0, 1.0, 1.0]), (31.25, [1.0, 1.0, 1.0]), (281.25, [])
        ]

    def test_later_repeats_ride_the_regular_ticks(self, sim, network, rng):
        # Never echoed, a change rides the early round and then every regular
        # tick from the one its echo is overdue on (1.5 η after the change):
        # spread in time, as a burst of loss (a crashed link) needs.
        box = collect(network, 1)
        self.changed(sim, network, rng, [changing_cells(sim, loss=0.1)])
        sim.run_until(1.9)
        assert self.since_change(box) == [
            (0.0, [1.0]), (31.25, [1.0]), (281.25, []), (531.25, [1.0]), (781.25, [1.0])
        ]

    def test_a_node_that_saw_no_loss_arms_none(self, sim, network, rng):
        box = collect(network, 1)
        self.changed(sim, network, rng, [changing_cells(sim, loss=0.0)])
        sim.run_until(1.5)
        assert self.since_change(box) == [(0.0, [1.0]), (250.0, [])]  # the regular tick

    def test_a_flush_brings_a_pending_early_round_forward(self, sim, network, rng):
        box = collect(network, 1)
        cells = changing_cells(sim, loss=0.1)
        batcher = self.changed(sim, network, rng, [cells])
        sim.run_until(self.CHANGE + 0.01)
        cells.algorithm.change()
        batcher.flush()  # the early round was due at +31.25 ms
        sim.run_until(1.5)
        # The flush carries the newer change and arms its own early round.
        assert self.since_change(box)[:4] == [
            (0.0, [1.0]), (10.0, [2.0]), (41.25, [2.0]), (291.25, [])
        ]

    @pytest.mark.parametrize("stop", ["pause", "shutdown"])
    def test_a_pending_early_round_dies_with_the_stream(self, sim, network, rng, stop):
        box = collect(network, 1)
        batcher = self.changed(sim, network, rng, [changing_cells(sim, loss=0.01)])
        sim.run_until(self.CHANGE + 0.01)  # the change round has landed
        assert batcher._flush_handle is not None  # the early round is armed
        count, seqs = len(box), dict(batcher.seqs)
        if stop == "pause":
            batcher.set_active(1, False)
        else:
            batcher.shutdown()
        sim.run_until(3.0)
        assert len(box) == count and batcher.seqs == seqs


class TestPayloadOnly:
    """SWIM mode: frames carry cells and rumours, the header is no signal."""

    def test_nothing_to_say_sends_nothing_but_meters_the_timer(self, sim, network, rng):
        meter = UsageMeter()
        rumours = FakeRumours()
        batcher = make_batcher(
            sim, network, rng, meter=meter, plane=rumours
        )
        boxes = [collect(network, n) for n in (1, 2, 3)]
        batcher.add_group(1, QuietSource(1, [1, 2, 3]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(10.0)
        assert boxes == [[], [], []]
        assert batcher.seqs == {}  # no stream advanced: silence, not loss
        assert rumours.calls == 0  # learnt from has_rumours(), burning nothing
        assert 38 <= meter.timers <= 41  # ~10 s / 0.25 s: the wake-up is still counted

    def test_pending_rumours_are_offered_to_every_destination_in_order(
        self, sim, network, rng
    ):
        """While anything is pending every destination gets its piggyback()
        call, in id-ring order from the node's successor (node 0: plain
        destination order): the calls are the rumours' dissemination budget."""
        rumours = FakeRumours()
        batcher = make_batcher(sim, network, rng, plane=rumours)
        boxes = [collect(network, n) for n in (1, 2, 3)]
        batcher.add_group(1, QuietSource(1, [1, 2, 3]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(1.0)
        rumours.batches = 2  # drains mid-round
        batcher.flush()
        sim.run_until(1.1)
        assert rumours.calls == 3  # the third destination was still asked
        carried = [[u.incarnation for f in box for u in f.swim_updates] for box in boxes]
        assert carried == [[1], [2], []]
        assert [len(box) for box in boxes] == [1, 1, 0]
        assert batcher.seqs == {1: 1, 2: 1}

    def test_two_holders_hand_a_short_budget_to_different_arcs_of_the_ring(self, sim, rng):
        """A budget shorter than the fan-out goes to the holder's id-ring
        successors — from every holder to the same lowest ids, it reached
        nobody else.  The order frames are *sent* in stays destination order."""
        sent = []
        wire = SimpleNamespace(send_batch=sent.extend)
        for holder in (1, 4):
            rumours = FakeRumours()
            batcher = make_batcher(sim, wire, rng, node_id=holder, plane=rumours)
            batcher.add_group(1, QuietSource(1, [n for n in range(6) if n != holder]), eta=0.25)
            batcher.set_active(1, True)
            sim.run_until(sim.now + 1.0)
            rumours.batches = 2
            batcher.flush()
            sim.run_until(sim.now)  # the flush is a request: served this instant
            assert rumours.calls == 5
            batcher.shutdown()
        handed = [
            (f.sender_node, f.dest_node, [u.incarnation for u in f.swim_updates]) for f in sent
        ]
        assert handed == [(1, 2, [1]), (1, 3, [2]), (4, 0, [2]), (4, 5, [1])]

    def test_cells_travel_without_asking_an_empty_rumour_buffer(self, sim, network, rng):
        rumours = FakeRumours()
        batcher = make_batcher(sim, network, rng, plane=rumours)
        boxes = [collect(network, n) for n in (1, 2)]
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.add_group(2, QuietSource(2, [1, 2]), eta=0.25)
        batcher.set_active(1, True)
        batcher.set_active(2, True)
        sim.run_until(1.0)
        assert boxes[0] and not boxes[1]  # the cell-less destination is skipped
        assert all(len(frame.cells) == 1 for frame in boxes[0])
        assert rumours.calls == 0

    def test_all_pairs_mode_sends_the_bare_header_every_period(self, sim, network, rng):
        """Without a plane that says otherwise the header *is* the liveness signal."""
        batcher = make_batcher(sim, network, rng)
        boxes = [collect(network, n) for n in (1, 2, 3)]
        batcher.add_group(1, QuietSource(1, [1, 2, 3]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(10.0)
        for box in boxes:
            assert 38 <= len(box) <= 41
            assert all(frame.cells == () and frame.swim_updates == () for frame in box)
            assert [frame.seq for frame in box] == list(range(len(box)))


class TestRates:
    def test_fastest_rate_wins_across_groups_and_peers(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.5)
        batcher.add_group(2, FakeSource(2, [1]), eta=0.3)
        batcher.set_active(1, True)
        batcher.set_active(2, True)
        assert batcher.interval() == pytest.approx(0.3)
        batcher.set_requested(1, 0.1)
        assert batcher.interval() == pytest.approx(0.1)

    def test_silent_group_does_not_force_its_rate(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.5)
        batcher.add_group(2, FakeSource(2, [1]), eta=0.05)
        batcher.set_active(1, True)
        assert batcher.interval() == pytest.approx(0.5)

    def test_negotiated_slower_rate_honoured(self, sim, network, rng):
        """Once peers negotiate, the bootstrap period stops being a floor."""
        batcher = make_batcher(sim, network, rng)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.5)
        batcher.set_active(1, True)
        batcher.set_requested(1, 2.0)
        assert batcher.interval() == pytest.approx(2.0)

    def test_rejects_nonpositive_interval(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        with pytest.raises(ValueError):
            batcher.set_requested(1, 0.0)

    def test_forgotten_peer_rate_dropped(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.5)
        batcher.set_active(1, True)
        batcher.set_requested(1, 0.05)
        batcher.forget_node(1)
        assert batcher.interval() == pytest.approx(0.5)


class TestLifecycle:
    def test_removed_group_stops_contributing(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(2.0)
        count = len(box)
        batcher.remove_group(1)
        sim.run_until(5.0)
        assert len(box) == count

    def test_shutdown_clears_everything(self, sim, network, rng):
        batcher = make_batcher(sim, network, rng)
        box = collect(network, 1)
        batcher.add_group(1, FakeSource(1, [1]), eta=0.25)
        batcher.set_active(1, True)
        batcher.shutdown()
        sim.run_until(5.0)
        assert box == []
        assert not batcher.active
