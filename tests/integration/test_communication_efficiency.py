"""End-to-end communication efficiency: the Ω_lc/Ω_l cost gap (Figure 6).

"Eventually only the leader sends ALIVE messages" — we verify it literally
by counting steady-state ALIVE traffic per sender, and verify the quadratic
vs linear scaling of the two algorithms.
"""

import pytest

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.net.message import BatchFrame


def run_and_count_alives(algorithm, n, seed=5, measure=(30.0, 60.0)):
    """Returns per-node ALIVE send counts within the measurement window."""
    config = ExperimentConfig(
        name=f"eff-{algorithm}",
        algorithm=algorithm,
        n_nodes=n,
        duration=measure[1],
        warmup=10.0,
        seed=seed,
        node_churn=False,
    )
    system = build_system(config)
    counts = {node_id: 0 for node_id in range(n)}
    original_send = system.network.send

    def counting_send(message):
        if isinstance(message, BatchFrame) and message.send_time >= measure[0]:
            counts[message.sender_node] += 1
        original_send(message)

    system.network.send = counting_send
    system.sim.run_until(measure[1])
    leader = system.hosts[0].service.leader_of(1)
    return counts, leader


class TestS3OnlyLeaderSends:
    def test_steady_state_single_sender(self):
        counts, leader = run_and_count_alives("omega_l", n=4)
        senders = {node for node, c in counts.items() if c > 0}
        assert senders == {leader}

    def test_s2_everyone_sends(self):
        counts, _ = run_and_count_alives("omega_lc", n=4)
        assert all(c > 0 for c in counts.values())

    def test_message_ratio_near_n(self):
        """S2 sends ≈ n times the ALIVEs of S3 (n·(n-1) vs (n-1) streams)."""
        s2, _ = run_and_count_alives("omega_lc", n=6)
        s3, _ = run_and_count_alives("omega_l", n=6)
        ratio = sum(s2.values()) / max(sum(s3.values()), 1)
        assert 4.0 < ratio < 8.0


class TestScaling:
    def total_alives(self, algorithm, n):
        counts, _ = run_and_count_alives(algorithm, n=n)
        return sum(counts.values())

    def test_s2_total_grows_quadratically(self):
        small = self.total_alives("omega_lc", 4)
        large = self.total_alives("omega_lc", 8)
        # n(n-1): 12 -> 56 streams, i.e. ~4.7x; allow slack for rate noise.
        assert 3.0 < large / small < 7.0

    def test_s3_total_grows_linearly(self):
        small = self.total_alives("omega_l", 4)
        large = self.total_alives("omega_l", 8)
        # (n-1): 3 -> 7 streams, i.e. ~2.3x.
        assert 1.5 < large / small < 3.5

    def test_cpu_accounting_tracks_the_gap(self):
        config = ExperimentConfig(
            name="cpu-gap",
            algorithm="omega_lc",
            n_nodes=6,
            duration=60.0,
            warmup=10.0,
            seed=5,
            node_churn=False,
        )
        s2 = build_system(config)
        s2.sim.run_until(60.0)
        s3 = build_system(config.with_(algorithm="omega_l"))
        s3.sim.run_until(60.0)
        s2_cpu = sum(n.meter.cpu_us for n in s2.network.nodes.values())
        s3_cpu = sum(n.meter.cpu_us for n in s3.network.nodes.values())
        # The gap is the ratio of message rates.  S2: n(n − 1) streams at η.
        # S3: the leader's n − 1 streams at η, plus — η does not touch these
        # — a HELLO per second on each of the (n − 1)² pairs whose sender
        # emits no cell to cover the peer.  With no loss seen η is the LAN's
        # 0.33 s (it was 0.25 s and below under the estimator's prior, when
        # this asserted > 2.5×): 90.8 against 40.1 messages/s, 2.26×;
        # measured 162 774 µs against 67 468 µs, 2.41× (S2 lost a third of
        # its cost, S3 only its leader's share).
        n, eta = 6, s2.hosts[0].service.batcher.interval()
        assert eta == pytest.approx(0.33, rel=0.01)
        modelled = (n * (n - 1) / eta) / ((n - 1) / eta + (n - 1) ** 2 / 1.0)
        assert s2_cpu / s3_cpu == pytest.approx(modelled, rel=0.1)
