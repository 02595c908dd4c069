"""Group-scoped faults and the cross-group isolation invariant."""

import numpy as np
import pytest

from repro.chaos.invariants import check_cross_group_isolation
from repro.chaos.run import ChaosRunConfig, run_scripted
from repro.chaos.script import ChaosScript, GroupFault, group_fault, heal
from repro.chaos.transport import ChaosTransport
from repro.experiments.scenario import ExperimentConfig
from repro.metrics.leadership import leader_intervals
from repro.metrics.trace import TraceRecorder
from repro.net.message import AccuseMessage, AliveCell, BatchFrame, HelloMessage
from repro.sim.engine import Simulator


class Sink:
    def __init__(self):
        self.messages = []

    def send(self, message):
        self.messages.append(message)

    def send_batch(self, messages):
        self.messages.extend(messages)


def make_transport(seed=0):
    sink = Sink()
    transport = ChaosTransport(
        sink, Simulator(), np.random.default_rng(np.random.SeedSequence(entropy=seed))
    )
    return transport, sink


def frame(cells):
    return BatchFrame(sender_node=0, dest_node=1, cells=tuple(cells))


class TestGroupFaultOverlay:
    def test_group_scoped_messages_dropped(self):
        transport, sink = make_transport()
        transport.set_group_fault(2, 1.0)
        transport.send(HelloMessage(sender_node=0, dest_node=1, group=2))
        transport.send(HelloMessage(sender_node=0, dest_node=1, group=1))
        transport.send(
            AccuseMessage(sender_node=0, dest_node=1, group=2, accuser=0, accused=1)
        )
        assert [m.group for m in sink.messages] == [1]
        assert transport.stats.dropped_group == 2

    def test_frame_cells_stripped_but_header_flows(self):
        """The shared FD stream must survive a fault on one group."""
        transport, sink = make_transport()
        transport.set_group_fault(2, 1.0)
        transport.send(
            frame([AliveCell(group=1, pid=0), AliveCell(group=2, pid=0)])
        )
        (delivered,) = sink.messages
        assert [cell.group for cell in delivered.cells] == [1]
        assert transport.stats.dropped_group_cells == 1

    def test_fully_stripped_frame_still_delivers_its_header(self):
        transport, sink = make_transport()
        transport.set_group_fault(2, 1.0)
        transport.send(frame([AliveCell(group=2, pid=0)]))
        (delivered,) = sink.messages
        assert delivered.cells == ()
        assert delivered.seq == 0  # header intact: the node FD keeps eating

    def test_an_echo_does_not_cross_while_a_group_is_faulted(self):
        # It would acknowledge the faulted group's cells a stripped frame
        # never delivered; without a fault it flows untouched.
        transport, sink = make_transport()
        echo = BatchFrame(sender_node=0, dest_node=1, seq=4, ack=9)
        transport.send(echo)
        transport.set_group_fault(2, 0.5)
        transport.send(echo)
        assert [message.ack for message in sink.messages] == [9, None]
        assert sink.messages[1].seq == 4  # the header still flows

    def test_partial_rate_is_probabilistic_per_cell(self):
        transport, sink = make_transport(seed=7)
        transport.set_group_fault(2, 0.5)
        for _ in range(200):
            transport.send(frame([AliveCell(group=2, pid=0)]))
        survivors = sum(len(m.cells) for m in sink.messages)
        assert 60 <= survivors <= 140  # ~100 expected

    def test_heal_clears_group_faults(self):
        transport, sink = make_transport()
        transport.set_group_fault(2, 1.0)
        transport.heal()
        transport.send(HelloMessage(sender_node=0, dest_node=1, group=2))
        assert len(sink.messages) == 1

    def test_rate_validation(self):
        transport, _ = make_transport()
        with pytest.raises(ValueError):
            transport.set_group_fault(1, 1.5)

    def test_script_step_round_trips(self):
        script = ChaosScript(
            steps=(group_fault(5.0, 2, 0.8), heal(10.0)), duration=20.0
        )
        restored = ChaosScript.from_dict(script.to_dict())
        assert restored == script
        assert isinstance(restored.steps[0], GroupFault)
        assert script.live_supported  # transport-level: runs live too


def _trace(events):
    recorder = TraceRecorder()
    for kind, time, args in events:
        getattr(recorder, f"record_{kind}")(time, *args)
    return recorder.events


def _isolation(events, end_time=100.0):
    """The checker as ``run_scripted`` calls it, on groups 1 and 2."""
    intervals = {group: leader_intervals(events, group, end_time) for group in (1, 2)}
    return check_cross_group_isolation(events, intervals=intervals, end_time=end_time)


class TestCrossGroupIsolationChecker:
    def _stable_two_groups(self, until=100.0):
        """Both groups agree on leaders from t=1 on (pids 0 and 10)."""
        events = []
        for group, leader in ((1, 0), (2, 10)):
            base = 0 if group == 1 else 10
            for pid in (base, base + 1, base + 2):
                events.append(("join", 0.5, (group, pid, pid % 3)))
                events.append(("view", 1.0, (group, pid, leader)))
        return events

    def test_quiet_window_with_stable_leaders_passes(self):
        events = self._stable_two_groups()
        events.append(("chaos", 30.0, ("group_fault(group=1, rate=0.9)",)))
        events.append(("chaos", 60.0, ("heal()",)))
        violations = _isolation(_trace(events))
        assert violations == []

    def test_other_group_flip_during_window_is_a_violation(self):
        events = self._stable_two_groups()
        events.append(("chaos", 30.0, ("group_fault(group=1, rate=0.9)",)))
        # Group 2 (NOT the target) loses its agreed leader mid-window.
        events.append(("view", 40.0, (2, 11, 12)))
        events.append(("chaos", 60.0, ("heal()",)))
        violations = _isolation(_trace(events))
        assert len(violations) == 1
        assert violations[0].invariant == "cross-group-isolation"
        assert "group 2" in violations[0].detail

    def test_target_group_flip_is_not_a_violation(self):
        events = self._stable_two_groups()
        events.append(("chaos", 30.0, ("group_fault(group=1, rate=0.9)",)))
        events.append(("view", 40.0, (1, 1, 2)))  # the faulted group itself
        events.append(("chaos", 60.0, ("heal()",)))
        violations = _isolation(_trace(events))
        assert violations == []

    def test_flip_explained_by_crash_is_skipped(self):
        events = self._stable_two_groups()
        events.append(("chaos", 30.0, ("group_fault(group=1, rate=0.9)",)))
        events.append(("crash", 35.0, (1,)))  # node 1 dies mid-window
        events.append(("view", 40.0, (2, 11, 12)))
        events.append(("chaos", 60.0, ("heal()",)))
        violations = _isolation(_trace(events))
        assert violations == []

    def test_window_overlapping_global_fault_is_skipped(self):
        events = self._stable_two_groups()
        events.append(("chaos", 20.0, ("drop(rate=0.5)",)))
        events.append(("chaos", 30.0, ("group_fault(group=1, rate=0.9)",)))
        events.append(("view", 40.0, (2, 11, 12)))
        events.append(("chaos", 60.0, ("heal()",)))
        violations = _isolation(_trace(events))
        assert violations == []  # the global drop makes attribution unsound

    def test_earlier_group_fault_target_not_judged_in_later_window(self):
        """Overlays persist until the heal: a group already faulted by an
        earlier step must not be misattributed when a second group_fault
        (different target) opens a new window."""
        events = self._stable_two_groups()
        events.append(("chaos", 30.0, ("group_fault(group=2, rate=1.0)",)))
        events.append(("chaos", 32.0, ("group_fault(group=1, rate=1.0)",)))
        # Group 2's own starvation flips its leader after the second step.
        events.append(("view", 40.0, (2, 11, 12)))
        events.append(("chaos", 60.0, ("heal()",)))
        violations = _isolation(_trace(events))
        assert violations == []

    def test_window_closes_at_the_next_group_fault_step(self):
        """A later group_fault is a chaos step like any other: it closes
        the open window, so flips after it are not attributed to the
        first fault."""
        events = self._stable_two_groups()
        events.append(("chaos", 30.0, ("group_fault(group=1, rate=1.0)",)))
        events.append(("chaos", 35.0, ("group_fault(group=1, rate=0.5)",)))
        violations = _isolation(_trace(events + [("view", 35.5, (2, 11, 12))]))
        # The flip lands in the second window (35-100), which still only
        # faults group 1 — a genuine violation there.
        assert len(violations) == 1

    def test_window_ends_at_next_global_step(self):
        events = self._stable_two_groups()
        events.append(("chaos", 30.0, ("group_fault(group=1, rate=0.9)",)))
        events.append(("chaos", 35.0, ("drop(rate=0.5)",)))
        events.append(("view", 40.0, (2, 11, 12)))  # after the global step
        events.append(("chaos", 60.0, ("heal()",)))
        violations = _isolation(_trace(events))
        assert violations == []


class TestEndToEndIsolation:
    def test_total_group_fault_leaves_other_group_stable(self):
        """A 100% fault on group 2's traffic for 60 s: group 1 must hold
        its leader, and the run must pass every invariant."""
        script = ChaosScript(
            steps=(group_fault(25.0, 2, 1.0), heal(85.0)),
            duration=160.0,
        )
        config = ChaosRunConfig(
            script=script,
            system=ExperimentConfig(name="isolation-e2e", n_nodes=5, n_groups=2, seed=3),
        )
        result = run_scripted(config)
        assert result.ok, [v.to_dict() for v in result.report.violations]
        # The fault bit: cells of group 2 were stripped from frames.  A quiet
        # all-pairs group whose cells cover every peer (one coverage rule,
        # the emitter's refresh horizon) sends no HELLO to drop, so
        # ``dropped_group`` alone may be 0.
        stats = result.transport_stats
        assert stats["dropped_group"] + stats["dropped_group_cells"] > 0
