"""Property-based tests for the leadership-metrics analysis.

The analysis is a pure fold over traces, so we can fire arbitrary (but
well-formed) event sequences at it and check structural invariants.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.leadership import analyze_leadership, leader_intervals, replay
from repro.metrics.trace import TraceEvent


@st.composite
def traces(draw):
    """Random well-formed traces over 3 pids on 3 nodes, ties included."""
    n = 3
    events = []
    time = 0.0
    up = [False] * n
    joined = [False] * n
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        # Zero steps make same-instant events: the predicate passes through
        # several states at one time, where interval- and event-based folds
        # would part ways.
        time += draw(st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)))
        pid = draw(st.integers(min_value=0, max_value=n - 1))
        kind = draw(
            st.sampled_from(["join", "leave", "crash", "recover", "view", "view"])
        )
        if kind == "join":
            if up[pid] or not joined[pid]:
                events.append(
                    TraceEvent(time=time, kind="join", group=1, pid=pid, node=pid)
                )
                joined[pid] = True
                up[pid] = True
        elif kind == "leave":
            if joined[pid]:
                events.append(TraceEvent(time=time, kind="leave", group=1, pid=pid))
                joined[pid] = False
        elif kind == "crash":
            if up[pid]:
                events.append(TraceEvent(time=time, kind="crash", node=pid))
                up[pid] = False
        elif kind == "recover":
            if not up[pid]:
                events.append(TraceEvent(time=time, kind="recover", node=pid))
                up[pid] = True
                # the process rejoins shortly after
                time += 0.01
                events.append(
                    TraceEvent(time=time, kind="join", group=1, pid=pid, node=pid)
                )
                joined[pid] = True
        else:
            leader = draw(
                st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1))
            )
            events.append(
                TraceEvent(time=time, kind="view", group=1, pid=pid, leader=leader)
            )
    return events, time + 1.0


class TestAnalysisInvariants:
    @given(traces())
    @settings(max_examples=200, deadline=None)
    def test_availability_is_a_probability(self, trace_and_end):
        events, end = trace_and_end
        m = analyze_leadership(events, group=1, end_time=end)
        assert 0.0 <= m.availability <= 1.0 + 1e-9

    @given(traces())
    @settings(max_examples=200, deadline=None)
    def test_recovery_samples_are_well_formed(self, trace_and_end):
        events, end = trace_and_end
        m = analyze_leadership(events, group=1, end_time=end)
        for sample in m.recovery_samples:
            assert sample.duration >= 0.0
            assert sample.crash_time >= 0.0
            assert sample.recovered_time <= end
        assert m.leader_crashes == len(m.recovery_samples) + m.censored_recoveries

    @given(traces())
    @settings(max_examples=200, deadline=None)
    def test_demotions_are_well_formed(self, trace_and_end):
        events, end = trace_and_end
        m = analyze_leadership(events, group=1, end_time=end)
        for demotion in m.demotions:
            assert demotion.lost_at <= demotion.reestablished_at
            assert demotion.unjustified == (
                demotion.new_leader != demotion.leader
                and not demotion.leader_crashed_recently
            )
        assert m.unjustified_demotions + m.disruptions <= len(m.demotions)

    @given(traces(), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=150, deadline=None)
    def test_warmup_never_increases_counts(self, trace_and_end, warmup):
        events, end = trace_and_end
        if warmup >= end:
            return
        full = analyze_leadership(events, group=1, end_time=end)
        trimmed = analyze_leadership(
            events, group=1, end_time=end, measure_from=warmup
        )
        assert trimmed.leader_crashes <= full.leader_crashes
        assert len(trimmed.demotions) <= len(full.demotions)

    @given(traces())
    @settings(max_examples=100, deadline=None)
    def test_analysis_is_deterministic(self, trace_and_end):
        events, end = trace_and_end
        a = analyze_leadership(events, group=1, end_time=end)
        b = analyze_leadership(events, group=1, end_time=end)
        assert a.availability == b.availability
        assert len(a.demotions) == len(b.demotions)

    @given(traces(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_availability_integrates_the_intervals(self, trace_and_end, share):
        events, end = trace_and_end
        measure_from = share * end
        m = analyze_leadership(events, group=1, end_time=end, measure_from=measure_from)
        held = sum(
            max(0.0, min(i.end, end) - max(i.start, measure_from))
            for i in leader_intervals(events, group=1, end_time=end)
        )
        assert math.isclose(m.availability * (end - measure_from), held, abs_tol=1e-9)

    @given(traces())
    @settings(max_examples=200, deadline=None)
    def test_recoveries_close_where_the_replay_has_a_leader(self, trace_and_end):
        events, end = trace_and_end
        led = {
            (event.time, state.common_leader())
            for event, state in replay(events, group=1, end_time=end)
        }
        m = analyze_leadership(events, group=1, end_time=end)
        for sample in m.recovery_samples:
            assert (sample.recovered_time, sample.new_leader) in led
