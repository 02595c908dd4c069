"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_clock_start_time_configurable(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [1.5]

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1, 2, 3]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run_until(1.0)
        assert fired == list(range(10))

    def test_event_at_boundary_time_fires(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(5.0)
        assert fired == [1]

    def test_event_beyond_boundary_does_not_fire(self, sim):
        fired = []
        sim.schedule(5.0001, lambda: fired.append(1))
        sim.run_until(5.0)
        assert fired == []
        sim.run_until(6.0)
        assert fired == [1]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(9.0, lambda: None)

    def test_run_backwards_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_events_scheduled_during_execution_fire(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert fired == ["outer", "inner"]

    def test_zero_delay_event_fires_at_current_time(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append(sim.now)))
        sim.run_until(2.0)
        assert fired == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_cancel_via_simulator_helper(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run_until(2.0)
        assert fired == []

    def test_cancel_none_is_noop(self, sim):
        sim.cancel(None)  # must not raise

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run_until(2.0)

    def test_pending_count_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1
        assert not keep.cancelled


class TestPendingCountCounter:
    """pending_count() is a live O(1) counter, exact through every path."""

    def _scan(self, sim):
        """Ground truth the counter must always agree with.

        A callback's heap entry is a (time, seq, event) tuple whose event
        carries the cancellation state; an arrival's is a 5-tuple.
        """
        return sum(1 for entry in sim.heap if len(entry) > 3 or not entry[2].cancelled)

    def test_tracks_schedule_execute_and_cancel(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count() == 10 == self._scan(sim)
        sim.cancel(events[0])
        events[1].cancel()  # both cancellation entry points count
        assert sim.pending_count() == 8 == self._scan(sim)
        sim.run_until(5.0)  # fires events 3..5 and skips the two cancelled
        assert sim.pending_count() == 5 == self._scan(sim)
        sim.run_until(100.0)
        assert sim.pending_count() == 0 == self._scan(sim)

    def test_exact_across_compaction(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(300)]
        for event in events[::2]:
            sim.cancel(event)
        assert sim.compactions >= 1
        assert sim.pending_count() == 150 == self._scan(sim)

    def test_double_cancel_counts_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        event.cancel()
        assert sim.pending_count() == 0 == self._scan(sim)

    def test_cancel_after_fire_does_not_go_negative(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        sim.cancel(event)
        event.cancel()
        assert sim.pending_count() == 0 == self._scan(sim)

    def test_exact_when_read_inside_a_callback(self, sim):
        observed = []
        sim.schedule(2.0, lambda: None)

        def probe():
            observed.append(sim.pending_count())

        sim.schedule(1.0, probe)
        sim.run_until(3.0)
        # While probe runs, only the t=2 event is still pending.
        assert observed == [1]

    def test_exact_after_peek_time_pops_cancelled_heads(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(first)
        assert sim.peek_time() == 2.0
        assert sim.pending_count() == 1 == self._scan(sim)

    def test_pending_count_does_not_scan_the_heap(self, sim):
        """The count must answer without touching heap entries."""

        class Unscannable(list):
            def __iter__(self):
                raise AssertionError("pending_count scanned the heap")

        for i in range(50):
            sim.schedule(float(i + 1), lambda: None)
        sim.cancel(sim.schedule(0.5, lambda: None))
        heap = sim.heap
        sim.heap = Unscannable(heap)
        try:
            assert sim.pending_count() == 50
        finally:
            sim.heap = heap


class TestCompaction:
    """The batch drain of cancelled entries (Simulator._compact)."""

    def test_mass_cancellation_compacts_heap(self, sim):
        events = [sim.schedule(float(i), lambda: None) for i in range(1, 201)]
        for event in events:
            sim.cancel(event)
        assert sim.compactions >= 1
        # The heap physically shrank: at most the compaction floor's worth of
        # dead entries may still await the next batch drain.
        assert len(sim.heap) < Simulator.COMPACT_MIN_CANCELLED

    def test_compaction_preserves_order_and_counts(self, sim):
        fired = []
        events = []
        for i in range(300):
            events.append(sim.schedule(float(i + 1), lambda i=i: fired.append(i)))
        for event in events[::2]:  # cancel every other event
            sim.cancel(event)
        sim.run_until(400.0)
        assert fired == list(range(1, 300, 2))
        assert sim.events_executed == 150
        assert sim.compactions >= 1

    def test_compaction_from_within_callback_is_safe(self, sim):
        """A callback that mass-cancels must not derail the running loop."""
        fired = []
        victims = [sim.schedule(50.0 + i, lambda: fired.append("victim")) for i in range(200)]

        def massacre():
            fired.append("massacre")
            for event in victims:
                sim.cancel(event)

        sim.schedule(1.0, massacre)
        sim.schedule(300.0, lambda: fired.append("survivor"))
        sim.run_until(400.0)
        assert fired == ["massacre", "survivor"]
        assert sim.compactions >= 1

    def test_cancel_already_fired_event_is_harmless(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        sim.cancel(event)  # no pending entry; must not corrupt counters
        sim.schedule(3.0, lambda: None)
        sim.run_until(6.0)
        assert sim.events_executed == 2

    def test_small_heaps_do_not_compact(self, sim):
        for _ in range(10):
            sim.cancel(sim.schedule(1.0, lambda: None))
        assert sim.compactions == 0
        sim.run_until(2.0)


class TestDropCancelledHead:
    """Dead heap heads: peek_time and step drain them through
    Simulator._drop_cancelled_head, run_until skips them as it pops, and
    the heap head, pending_count and the cancelled-entry counter stay
    mutually consistent no matter which entry point runs first."""

    def _live_scan(self, sim):
        return sum(1 for entry in sim.heap if len(entry) > 3 or not entry[2].cancelled)

    def test_peek_time_after_cancelled_head(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(first)
        assert sim.peek_time() == 2.0
        # The dead head was physically popped, and every counter agrees.
        assert len(sim.heap) == 1
        assert sim.pending_count() == 1 == self._live_scan(sim)

    def test_step_after_cancelled_heads(self, sim):
        fired = []
        for i in range(5):
            sim.cancel(sim.schedule(float(i + 1), lambda: None))
        sim.schedule(10.0, lambda: fired.append(1))
        assert sim.step()
        assert fired == [1]
        assert sim.pending_count() == 0 == self._live_scan(sim)

    def test_run_until_then_peek_then_step_consistent(self, sim):
        """Interleave all three entry points across cancellations."""
        fired = []
        events = [sim.schedule(float(i + 1), lambda i=i: fired.append(i)) for i in range(6)]
        sim.cancel(events[0])
        sim.run_until(2.0)  # skips the cancelled head, fires event 1
        assert fired == [1]
        sim.cancel(events[2])
        assert sim.peek_time() == 4.0  # pops the dead t=3 head
        assert sim.pending_count() == 3 == self._live_scan(sim)
        assert sim.step()  # fires event 3 at t=4
        assert fired == [1, 3]
        assert sim.pending_count() == 2 == self._live_scan(sim)

    def test_peek_time_on_fully_cancelled_heap(self, sim):
        for i in range(4):
            sim.cancel(sim.schedule(float(i + 1), lambda: None))
        assert sim.peek_time() is None
        assert sim.heap == []
        assert sim.pending_count() == 0
        assert not sim.step()


class TestScheduleArgs:
    """schedule()/schedule_at() carry positional args to the callback
    (the allocation-light alternative to a per-event closure)."""

    def test_schedule_passes_args(self, sim):
        fired = []
        sim.schedule(1.0, lambda a, b: fired.append((a, b)), "x", 2)
        sim.run_until(2.0)
        assert fired == [("x", 2)]

    def test_schedule_at_passes_args(self, sim):
        fired = []
        sim.schedule_at(1.5, fired.append, "payload")
        sim.run_until(2.0)
        assert fired == ["payload"]

    def test_step_passes_args(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 7)
        assert sim.step()
        assert fired == [7]

    def test_cancel_releases_args(self, sim):
        event = sim.schedule(1.0, print, "large payload")
        sim.cancel(event)
        assert event.args == ()  # no reference kept alive until the pop


class TestRunControl:
    def test_step_executes_one_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step()
        assert fired == [1]
        assert sim.now == 1.0

    def test_step_returns_false_when_empty(self, sim):
        assert not sim.step()

    def test_step_skips_cancelled(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1)).cancel()
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step()
        assert fired == [2]

    def test_run_drains_queue(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_halts_run(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["stop"]
        # The remaining event is still pending and runs on the next call.
        sim.run()
        assert fired == ["stop", "after"]

    def test_counters(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run_until(5.0)
        assert sim.events_executed == 1

    def test_peek_time(self, sim):
        assert sim.peek_time() is None
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_exception_propagates_and_clock_is_consistent(self, sim):
        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(5.0)
        assert sim.now == 1.0
