"""A node monitor is its stream's link-quality estimator, to the bit.

:class:`~repro.fd.monitor.NfdsMonitor` folds the next frame of its stream
into the estimate inline, and hands every other frame (a gap, a late frame, a
duplicate, a restart) to :meth:`LinkQualityEstimator.observe`, which stays the
reference.  One drawn stream goes to a node monitor and to a standalone
estimator; after every frame their ``loss_counts()``, ``estimate()``,
``ready`` and ``samples`` must be equal bit for bit, a reconfiguration must
give both the same parameters, and the monitor's freshness deadline must be
the one its rule computes from the frame and that δ.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.configurator import ConfiguratorCache
from repro.fd.estimator import REORDER_WINDOW, LinkQualityEstimator
from repro.fd.monitor import NfdsMonitor
from repro.fd.nfde import NfdeMonitor
from repro.fd.qos import FDQoS
from repro.sim.engine import Simulator

_DELAYS = st.floats(min_value=-0.005, max_value=0.05)  # negative: clock skew
_PAUSES = st.sampled_from([0.0, 0.01, 0.1, 0.25, 1.5])  # 1.5 s outlives δ

#: (kind, size, delay of its frames, pause before each of its frames).
_OPS = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 40), _DELAYS, _PAUSES),
    st.tuples(st.just("gap"), st.integers(1, 2 * REORDER_WINDOW), _DELAYS, _PAUSES),
    st.tuples(st.just("late"), st.integers(1, 2 * REORDER_WINDOW), _DELAYS, _PAUSES),
    st.tuples(st.just("dup"), st.just(0), _DELAYS, _PAUSES),
    st.tuples(st.just("restart"), st.integers(0, 3), _DELAYS, _PAUSES),
)


def seqs_of(ops):
    """Expand the ops into ``(seq, delay, pause)`` frames."""
    last = -1
    for kind, size, delay, pause in ops:
        if kind == "run":
            for _ in range(size):
                last += 1
                yield last, delay, pause
            continue
        if kind == "gap":
            last += size + 1
        elif kind == "late":
            last = max(last - size, 0)
        elif kind == "restart":
            last = size
        yield max(last, 0), delay, pause


def bits(estimator):
    """Every readout of an estimator, floats as their exact bit patterns."""
    estimate = estimator.estimate()
    floats = (*estimator.loss_counts(), estimate.loss_prob, estimate.delay_mean, estimate.delay_std)
    return tuple(value.hex() for value in floats), estimator.ready, estimator.samples


class FreshnessRule:
    """Where each variant puts the deadline one frame moves it to."""

    def __init__(self, monitor_class):
        self.expected_arrival = monitor_class is NfdeMonitor
        self.arrivals = deque(maxlen=NfdeMonitor.window)

    def deadline(self, seq, send_time, interval, delta, now):
        if not self.expected_arrival:
            return send_time + interval + delta
        arrivals = self.arrivals
        if arrivals:
            last_seq, last_arrival = arrivals[-1]
            if seq <= last_seq or now - last_arrival > interval + delta:
                arrivals.clear()
        arrivals.append((seq, now))
        offset = sum(a - s * interval for s, a in arrivals) / len(arrivals)
        return offset + (seq + 1) * interval + delta


def _check(monitor_class, ops, interval):
    sim = Simulator()
    qos = FDQoS()
    cache = ConfiguratorCache()
    monitor = monitor_class(
        scheduler=sim,
        pid=1,
        qos=qos,
        cache=cache,
        on_trust=lambda pid: None,
        on_suspect=lambda pid: None,
    )
    reference = LinkQualityEstimator()
    rule = FreshnessRule(monitor_class)
    expected = None  # the armed deadline; None once it fired or before any
    frames = 0
    for frames, (seq, delay, pause) in enumerate(seqs_of(ops), start=1):
        sim.run_until(sim.now + pause)
        if expected is not None and expected <= sim.now:
            expected = None  # it fired
        now = sim.now
        send_time = now - delay
        deadline = rule.deadline(seq, send_time, interval, monitor.delta, now)
        monitor.on_alive(seq, send_time, interval)
        reference.observe(seq, send_time, now)
        assert bits(monitor) == bits(reference)
        assert monitor.alives_received == frames
        if deadline > now and (expected is None or deadline > expected):
            expected = deadline
        assert monitor._timer.deadline == expected
        if monitor.ready and frames % 5 == 0:
            assert monitor.reconfigure() == cache.configure(qos, reference.estimate())
    return frames


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=12), st.sampled_from([0.1, 0.25]))
def test_nfds_monitor_folds_its_stream_like_the_estimator(ops, interval):
    _check(NfdsMonitor, ops, interval)


@settings(max_examples=100, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=12), st.sampled_from([0.1, 0.25]))
def test_nfde_monitor_folds_its_stream_like_the_estimator(ops, interval):
    _check(NfdeMonitor, ops, interval)


def test_streams_cross_the_delay_warm_up():
    """The drawn streams reach both sides of the 64-sample warm-up of the
    delay weight; pinned here with one stream of each length."""
    short = [("run", 10, 0.001, 0.1), ("gap", 3, 0.002, 0.1), ("run", 5, 0.0, 0.1)]
    long = short + [("run", 40, 0.001, 0.1), ("late", 2, 0.0, 0.0), ("run", 30, -0.001, 0.1)]
    assert _check(NfdsMonitor, short, 0.25) < 64 < _check(NfdsMonitor, long, 0.25)
