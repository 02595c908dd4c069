"""Unit tests for the trace recorder."""

from repro.metrics.leadership import leader_intervals
from repro.metrics.trace import TraceRecorder


class TestTraceRecorder:
    def test_record_and_length(self):
        trace = TraceRecorder()
        trace.record_join(0.0, group=1, pid=2, node=2)
        trace.record_view(0.1, group=1, pid=2, leader=2)
        trace.record_crash(5.0, node=2)
        trace.record_recover(6.0, node=2)
        trace.record_leave(7.0, group=1, pid=2)
        assert len(trace) == 5
        kinds = [e.kind for e in trace.events]
        assert kinds == ["join", "view", "crash", "recover", "leave"]

    def test_a_node_event_reaches_each_groups_analysis(self):
        trace = TraceRecorder()
        for group in (1, 2):
            trace.record_join(0.0, group=group, pid=1, node=1)
            trace.record_view(0.5, group=group, pid=1, leader=1)
        trace.record_leave(1.0, group=2, pid=1)
        trace.record_crash(2.0, node=1)  # node-level: no group of its own
        ends = {
            group: [(i.start, i.end) for i in leader_intervals(trace.events, group, 3.0)]
            for group in (1, 2)
        }
        assert ends == {1: [(0.5, 2.0)], 2: [(0.5, 1.0)]}

    def test_trace_event_is_slotted(self):
        """TraceEvent carries no per-instance __dict__ (memory: traces hold
        hundreds of thousands of events)."""
        trace = TraceRecorder()
        trace.record_crash(1.0, node=1)
        assert not hasattr(trace.events[0], "__dict__")


class TestChaosEventsAndDigest:
    def test_record_chaos_carries_a_label(self):
        trace = TraceRecorder()
        trace.record_chaos(5.0, "partition(groups=((0, 1),))")
        event = trace.events[0]
        assert event.kind == "chaos"
        assert event.label == "partition(groups=((0, 1),))"
        assert event.group is None  # visible to every group's analysis

    def test_digest_is_deterministic(self):
        def build():
            trace = TraceRecorder()
            trace.record_join(0.0, group=1, pid=1, node=1)
            trace.record_chaos(1.5, "drop(rate=0.3)")
            trace.record_view(2.0, group=1, pid=1, leader=1)
            return trace

        assert build().digest() == build().digest()

    def test_digest_is_bit_sensitive(self):
        base = TraceRecorder()
        base.record_view(2.0, group=1, pid=1, leader=1)
        nudged = TraceRecorder()
        # The smallest representable perturbation of the timestamp must
        # change the digest — that is the "bit-identical" in the replay
        # contract.
        import math

        nudged.record_view(math.nextafter(2.0, 3.0), group=1, pid=1, leader=1)
        assert base.digest() != nudged.digest()

    def test_digest_sensitive_to_order_and_fields(self):
        first = TraceRecorder()
        first.record_crash(1.0, node=1)
        first.record_recover(2.0, node=1)
        second = TraceRecorder()
        second.record_recover(2.0, node=1)
        second.record_crash(1.0, node=1)
        assert first.digest() != second.digest()
