"""Unit tests for the link quality estimator."""

import pytest

from repro.fd.estimator import REORDER_WINDOW, LinkQualityEstimator
from repro.sim.rng import RngRegistry


def feed(estimator, n, loss_prob=0.0, delay=0.01, jitter_rng=None, start_seq=0):
    """Feed ``n`` sent heartbeats, dropping each with ``loss_prob``."""
    t = 0.0
    seq = start_seq
    for _ in range(n):
        t += 0.1
        drop = jitter_rng is not None and jitter_rng.random() < loss_prob
        if not drop:
            d = delay if jitter_rng is None else jitter_rng.exponential(delay)
            estimator.observe(seq, t, t + d)
        seq += 1
    return seq


class TestWarmup:
    def test_not_ready_initially(self):
        est = LinkQualityEstimator()
        assert not est.ready
        # No stand-in estimate: every caller waits for ``ready``; what an
        # impatient one would read is the loss floor and no delay history.
        assert est.samples == 0
        assert est.loss_probability() == 1.0 / 512.0

    def test_ready_after_threshold(self):
        est = LinkQualityEstimator(ready_threshold=8)
        feed(est, 7)
        assert not est.ready
        feed(est, 1, start_seq=7)
        assert est.ready

    def test_rejects_tiny_windows(self):
        with pytest.raises(ValueError):
            LinkQualityEstimator(loss_window=1)


class TestLossEstimation:
    def test_loss_floor_without_losses(self):
        """A loss-free stream estimates the window's floor, never zero —
        this floor drives the LAN configuration (DESIGN.md §3)."""
        est = LinkQualityEstimator(loss_window=512)
        feed(est, 2000)
        assert est.loss_probability() == 1.0 / 512.0

    def test_no_loss_seen_is_the_floor_from_the_first_reconfiguration(self):
        """No evidence-free prior: the 8 samples that make the estimator
        ready already give the floor (a prior of 1/2 said 0.1 here and
        needed ≈ 250 frames to wash out)."""
        est = LinkQualityEstimator()
        feed(est, 8)
        assert est.ready
        assert est.estimate().loss_prob == 1.0 / 512.0

    def test_one_drop_in_ten_is_a_tenth_and_decays_as_one_over_n(self):
        est = LinkQualityEstimator()
        for seq in (0, 1, 2, 3, 5, 6, 7, 8, 9):
            est.observe(seq, seq * 0.1, seq * 0.1 + 0.01)
        assert est.loss_probability() == pytest.approx(0.1, rel=0.01)
        feed(est, 90, start_seq=10)
        assert est.loss_probability() == pytest.approx(0.01, rel=0.1)
        feed(est, 5000, start_seq=100)
        assert est.loss_probability() == 1.0 / 512.0  # forgotten: the floor

    def test_reordering_without_a_drop_is_not_loss(self):
        """Adjacent swaps and 3-deep bursts delivered backwards: every gap
        the early frame opened is taken back by the late one."""
        est = LinkQualityEstimator()
        order = []
        for base in range(0, 300, 6):
            order += [base + 1, base, base + 2, base + 5, base + 4, base + 3]
        for seq in order:
            est.observe(seq, seq * 0.1, seq * 0.1 + 0.01)
        assert est.loss_counts()[0] == 0.0
        assert est.loss_probability() == 1.0 / 512.0

    def test_a_duplicate_takes_nothing_back(self):
        est = LinkQualityEstimator()
        for seq in (0, 1, 4, 2, 2, 1, 4):  # 3 is lost; 2 arrives late, twice
            est.observe(seq, seq * 0.1, seq * 0.1 + 0.01)
        assert est.loss_counts()[0] == pytest.approx(1.0, rel=0.02)

    def test_loss_rate_tracks_truth(self):
        rng = RngRegistry(5).stream("loss")
        est = LinkQualityEstimator(loss_window=512)
        feed(est, 5000, loss_prob=0.1, jitter_rng=rng)
        assert 0.06 < est.loss_probability() < 0.15

    def test_seq_restart_not_counted_as_loss(self):
        est = LinkQualityEstimator()
        feed(est, 100)
        before = est.loss_probability()
        # Sender reboots: sequence numbers restart from zero.
        est.observe(0, 100.0, 100.01)
        after = est.loss_probability()
        assert after <= before * 1.05

    def test_gaps_are_counted_again_after_a_restart(self):
        """A regression beyond the reorder window re-anchors the stream: the
        survivor is not loss-blind until the new counter passes the old."""
        est = LinkQualityEstimator()
        feed(est, 500)
        est.observe(0, 100.0, 100.01)  # sender rebooted
        assert est.loss_counts()[0] == 0.0
        est.observe(1, 100.1, 100.11)
        est.observe(4, 100.4, 100.41)  # 2 and 3 lost
        assert est.loss_counts()[0] == 2.0
        assert est.loss_probability() > 1.0 / 512.0

    def test_a_short_lived_stream_restart_is_blind_for_at_most_the_window(self):
        est = LinkQualityEstimator()
        feed(est, REORDER_WINDOW // 2)  # old stream died young
        for seq in range(0, 3 * REORDER_WINDOW, 2):  # new one drops every other
            est.observe(seq, 100.0 + seq, 100.01 + seq)
        assert est.loss_counts()[0] > REORDER_WINDOW / 2

    def test_gap_counted_as_loss(self):
        est = LinkQualityEstimator(loss_window=64)
        est.observe(0, 0.0, 0.01)
        est.observe(10, 1.0, 1.01)  # 9 lost
        assert est.loss_probability() > 0.5

    def test_raw_counts_are_unsmoothed(self):
        """Exactly zero lost on a gap-free stream (the smoothed estimate
        never is); a gap shows at once and then decays, never to zero."""
        est = LinkQualityEstimator(loss_window=64)
        feed(est, 100)
        lost, received = est.loss_counts()
        assert lost == 0.0 and 0.0 < received <= 64.0
        est.observe(102, 11.0, 11.01)  # 2 lost
        assert est.loss_counts()[0] == 2.0
        feed(est, 100, start_seq=103)
        assert 0.0 < est.loss_counts()[0] < 2.0

    def test_adapts_when_conditions_change(self):
        """Exponential forgetting: a link that turns lossy is re-estimated."""
        rng = RngRegistry(5).stream("adapt")
        est = LinkQualityEstimator(loss_window=128)
        last = feed(est, 1000)  # clean era
        clean = est.loss_probability()
        feed(est, 1000, loss_prob=0.2, jitter_rng=rng, start_seq=last)
        assert est.loss_probability() > clean * 10


class TestDelayEstimation:
    def test_constant_delay(self):
        est = LinkQualityEstimator()
        feed(est, 200, delay=0.05)
        e = est.estimate()
        assert e.delay_mean == pytest.approx(0.05, rel=0.01)
        assert e.delay_std == pytest.approx(0.0, abs=1e-6)

    def test_exponential_delay_moments(self):
        rng = RngRegistry(5).stream("delay")
        est = LinkQualityEstimator(delay_window=256)
        feed(est, 5000, delay=0.1, jitter_rng=rng, loss_prob=0.0)
        e = est.estimate()
        assert e.delay_mean == pytest.approx(0.1, rel=0.25)
        assert e.delay_std == pytest.approx(0.1, rel=0.35)

    def test_negative_clock_skew_clamped(self):
        est = LinkQualityEstimator()
        for i in range(20):
            est.observe(i, float(i), float(i) - 0.001)  # arrival "before" send
        assert est.estimate().delay_mean >= 0.0

    def test_estimate_is_valid_link_estimate(self):
        est = LinkQualityEstimator()
        feed(est, 100, delay=0.01)
        e = est.estimate()
        assert 0.0 < e.loss_prob < 1.0
        assert e.delay_mean > 0.0
