"""Property-based tests for the event engine and timers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.timers import VariableTimer
from repro.sim.engine import Simulator

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=50
)


class TestEngineProperties:
    @given(delays)
    @settings(max_examples=200)
    def test_events_fire_in_nondecreasing_time_order(self, ds):
        sim = Simulator()
        fired = []
        for d in ds:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(ds)

    @given(delays, st.sets(st.integers(min_value=0, max_value=49)))
    @settings(max_examples=200)
    def test_cancelled_events_never_fire(self, ds, to_cancel):
        sim = Simulator()
        fired = []
        events = []
        for i, d in enumerate(ds):
            events.append(sim.schedule(d, lambda i=i: fired.append(i)))
        for i in to_cancel:
            if i < len(events):
                events[i].cancel()
        sim.run()
        cancelled = {i for i in to_cancel if i < len(ds)}
        assert set(fired) == set(range(len(ds))) - cancelled

    @given(delays)
    @settings(max_examples=100)
    def test_run_until_only_past_events(self, ds):
        sim = Simulator()
        fired = []
        for d in ds:
            sim.schedule(d, lambda d=d: fired.append(d))
        horizon = 50.0
        sim.run_until(horizon)
        assert all(d <= horizon for d in fired)
        assert sorted(fired) == sorted(d for d in ds if d <= horizon)
        assert sim.now == horizon

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_variable_timer_fires_exactly_at_deadlines_in_force(self, extensions):
        """A VariableTimer may fire several times (an extension arriving
        after a firing re-arms it), but every firing must happen exactly at
        a deadline that was requested, in increasing order, and the last
        firing must be the final deadline."""
        sim = Simulator()
        fired = []
        timer = VariableTimer(sim, lambda: fired.append(sim.now))
        deadlines = set()
        deadline = 0.0
        t = 0.0
        for ext in extensions:
            t += ext / 2
            deadline = max(deadline, t + ext)
            deadlines.add(deadline)
            sim.schedule_at(t, lambda d=deadline: timer.extend_to(d))
        final_deadline = deadline
        sim.run_until(1000.0)
        assert fired, "armed timer must eventually fire"
        assert all(f in deadlines for f in fired)
        assert fired == sorted(fired)
        assert fired[-1] == final_deadline
