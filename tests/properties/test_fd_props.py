"""Property-based tests for the failure-detector mathematics."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.configurator import configure
from repro.fd.estimator import REORDER_WINDOW, LinkQualityEstimator
from repro.fd.qos import (
    FDQoS,
    LinkEstimate,
    expected_mistake_recurrence,
    mistake_probability,
    query_accuracy,
)

estimates = st.builds(
    LinkEstimate,
    loss_prob=st.floats(min_value=1e-4, max_value=0.5),
    delay_mean=st.floats(min_value=1e-5, max_value=0.5),
    delay_std=st.floats(min_value=0.0, max_value=0.5),
)
qoses = st.builds(
    FDQoS,
    detection_time=st.floats(min_value=0.05, max_value=5.0),
    mistake_recurrence=st.floats(min_value=60.0, max_value=1e8),
    query_accuracy=st.floats(min_value=0.9, max_value=0.9999999),
)


class TestConfiguratorProperties:
    @given(qoses, estimates)
    @settings(max_examples=150, deadline=None)
    def test_detection_budget_always_respected(self, qos, estimate):
        params = configure(qos, estimate)
        assert params.eta > 0
        assert params.delta >= 0
        assert params.eta + params.delta <= qos.detection_time * (1 + 1e-9)

    @given(qoses, estimates)
    @settings(max_examples=150, deadline=None)
    def test_feasible_solutions_verified_against_model(self, qos, estimate):
        params = configure(qos, estimate)
        if params.degraded:
            return
        recurrence = expected_mistake_recurrence(params.eta, params.delta, estimate)
        accuracy = query_accuracy(params.eta, params.delta, estimate)
        assert recurrence >= qos.mistake_recurrence * (1 - 1e-6)
        assert accuracy >= qos.query_accuracy - 1e-9

    @given(estimates)
    @settings(max_examples=150, deadline=None)
    def test_mistake_probability_is_a_probability(self, estimate):
        for eta, delta in ((0.1, 0.9), (0.5, 0.5), (0.9, 0.1)):
            p = mistake_probability(eta, delta, estimate)
            assert 0.0 <= p <= 1.0

    @given(estimates, st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_mistakes_decrease_with_delta(self, estimate, eta):
        p_tight = mistake_probability(eta, 0.1, estimate)
        p_loose = mistake_probability(eta, 2.0, estimate)
        assert p_loose <= p_tight + 1e-12


class TestEstimatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),  # seq
                st.floats(min_value=0.0, max_value=1e4),  # send time
                st.floats(min_value=0.0, max_value=10.0),  # delay
            ),
            max_size=200,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_estimator_always_yields_valid_estimates(self, observations):
        estimator = LinkQualityEstimator(ready_threshold=1)
        for seq, send_time, delay in observations:
            estimator.observe(seq, send_time, send_time + delay)
        estimate = estimator.estimate()
        assert 0.0 < estimate.loss_prob < 1.0
        assert estimate.delay_mean > 0.0
        assert estimate.delay_std >= 0.0
        assert math.isfinite(estimate.delay_std)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_loss_estimate_tracks_gap_ratio(self, received, gap):
        """Feeding `received` contiguous heartbeats then one gap of `gap`:
        the estimate must be ordered consistently with the true ratio."""
        estimator = LinkQualityEstimator(loss_window=1024, ready_threshold=1)
        for i in range(received):
            estimator.observe(i, float(i), float(i) + 0.001)
        estimator.observe(received + gap, float(received + gap), float(received + gap))
        p = estimator.loss_probability()
        true_ratio = gap / (received + gap + 1)
        # The floor and a received frame keep it within the open interval,
        # but it must be within a coarse band of the truth.
        assert 0.0 < p < 1.0
        if gap == 0:
            assert p < 0.3
        elif true_ratio > 0.5:
            assert p > 0.3

    @given(
        frames=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=REORDER_WINDOW - 1)),
            max_size=300,
        ),
        reach=st.integers(min_value=0, max_value=REORDER_WINDOW - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_late_frame_is_not_a_lost_frame(self, frames, reach):
        """Frame 0 opens the stream; frame i is ``dropped`` or delivered up
        to ``reach`` (< the reorder window) positions late.  No drop ⇒ the
        lost count is exactly 0 whatever the order; with drops it is the
        in-order count to within the forgetting applied while a frame was
        late (each drop's gap opens ≤ reach arrivals off its in-order place,
        each late frame's refund comes ≤ 2·reach arrivals after its gap),
        and at no point negative."""
        sent = [(0, 0)] + [
            (seq, seq + late % (reach + 1))
            for seq, (dropped, late) in enumerate(frames, start=1)
            if not dropped
        ]
        in_order = LinkQualityEstimator()
        for seq, _ in sent:
            in_order.observe(seq, float(seq), seq + 0.001)
        shuffled = LinkQualityEstimator()
        newest = overtaken = 0
        for seq, _ in sorted(sent, key=lambda frame: frame[1]):
            shuffled.observe(seq, float(seq), seq + 0.001)
            assert shuffled.loss_counts()[0] >= 0.0
            overtaken += seq < newest
            newest = max(newest, seq)
        lost, expected = shuffled.loss_counts()[0], in_order.loss_counts()[0]
        drops = sent[-1][0] + 1 - len(sent)
        if drops == 0:
            assert lost == 0.0
        forgotten = 1.0 - (1.0 - 1.0 / 512.0) ** (2 * reach + 1)
        assert abs(lost - expected) <= (drops + overtaken) * forgotten + 1e-9
        assert 0.0 < shuffled.loss_probability() < 1.0
