"""Unit tests for lossy and crash-prone link models."""

import pytest

from repro.net.links import Link, LinkConfig
from repro.net.message import BatchFrame


def make_link(sim, rng, **kwargs):
    config = LinkConfig(**kwargs)
    return Link(sim, src=0, dst=1, config=config, rng=rng.stream("link.test"))


def make_message():
    return BatchFrame(sender_node=0, dest_node=1)


class TestLinkConfig:
    def test_defaults_are_the_paper_lan(self):
        config = LinkConfig()
        assert config.delay_mean == pytest.approx(0.025e-3)
        assert config.loss_prob == 0.0
        assert not config.crash_prone

    def test_rejects_bad_loss_prob(self):
        with pytest.raises(ValueError):
            LinkConfig(loss_prob=1.0)
        with pytest.raises(ValueError):
            LinkConfig(loss_prob=-0.1)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            LinkConfig(delay_mean=-1.0)

    def test_mttf_mttr_must_come_together(self):
        with pytest.raises(ValueError):
            LinkConfig(mttf=60.0)
        with pytest.raises(ValueError):
            LinkConfig(mttf=60.0, mttr=0.0)
        assert LinkConfig(mttf=60.0, mttr=3.0).crash_prone


class TestLossyLink:
    def test_lossless_link_delivers_everything(self, sim, rng):
        link = make_link(sim, rng, loss_prob=0.0, delay_mean=0.001)
        received = []
        for _ in range(100):
            link.transmit(make_message(), received.append)
        sim.run_until(1.0)
        assert len(received) == 100
        assert link.stats.delivered == 100
        assert link.stats.dropped == 0

    def test_loss_rate_matches_probability(self, sim, rng):
        link = make_link(sim, rng, loss_prob=0.1, delay_mean=0.001)
        received = []
        n = 5000
        for _ in range(n):
            link.transmit(make_message(), received.append)
        sim.run_until(10.0)
        loss_rate = 1.0 - len(received) / n
        assert 0.07 < loss_rate < 0.13
        assert link.stats.offered == n
        assert link.stats.delivered + link.stats.dropped_loss == n

    def test_delay_distribution_mean(self, sim, rng):
        link = make_link(sim, rng, delay_mean=0.1)
        arrivals = []
        for _ in range(2000):
            link.transmit(make_message(), lambda m: arrivals.append(sim.now))
        sim.run_until(100.0)
        mean_delay = sum(arrivals) / len(arrivals)
        # All sent at t=0; exponential mean 0.1 s.
        assert 0.09 < mean_delay < 0.11

    def test_messages_can_reorder(self, sim, rng):
        link = make_link(sim, rng, delay_mean=0.1)
        order = []
        for i in range(50):
            msg = make_message()
            msg.seq = i
            link.transmit(msg, lambda m: order.append(m.seq))
        sim.run_until(10.0)
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # independent delays reorder

    def test_bytes_accounting(self, sim, rng):
        link = make_link(sim, rng, delay_mean=0.0)
        msg = make_message()
        link.transmit(msg, lambda m: None)
        sim.run_until(1.0)
        assert link.stats.bytes_delivered == msg.wire_bytes()


class TestCrashProneLink:
    def test_down_link_drops_everything(self, sim, rng):
        link = make_link(sim, rng, delay_mean=0.001)
        link.set_down(True)
        received = []
        for _ in range(10):
            link.transmit(make_message(), received.append)
        sim.run_until(1.0)
        assert received == []
        assert link.stats.dropped_down == 10

    def test_recovered_link_delivers_again(self, sim, rng):
        link = make_link(sim, rng, delay_mean=0.001)
        link.set_down(True)
        link.transmit(make_message(), lambda m: None)
        link.set_down(False)
        received = []
        link.transmit(make_message(), received.append)
        sim.run_until(1.0)
        assert len(received) == 1

    def test_in_flight_messages_survive_crash(self, sim, rng):
        """A message already on the wire is delivered even if the link
        crashes before its arrival (see Simulator.run_until)."""
        link = make_link(sim, rng, delay_mean=0.1)
        received = []
        link.transmit(make_message(), received.append)
        sim.schedule(0.0001, lambda: link.set_down(True))
        sim.run_until(5.0)
        assert len(received) == 1


class TestWithConfig:
    """Link.with_config: rebuild behaviour, keep identity and RNG stream."""

    def test_keeps_stream_and_down_state(self, sim, rng):
        link = make_link(sim, rng, loss_prob=0.5)
        link.set_down(True)
        rebuilt = link.with_config(LinkConfig(delay_mean=1.0))
        assert rebuilt.rng is link.rng
        assert rebuilt.down
        assert rebuilt.src == link.src and rebuilt.dst == link.dst
        assert rebuilt.config.delay_mean == 1.0

    def test_counters_start_fresh(self, sim, rng):
        link = make_link(sim, rng)
        link.transmit(make_message(), lambda m: None)
        rebuilt = link.with_config(LinkConfig())
        assert link.stats.offered == 1
        assert rebuilt.stats.offered == 0

    def test_stream_continues_across_reconfig(self, sim, rng):
        """The rebuilt link draws the *continuation* of the old link's
        stream — reconfiguring one link never perturbs any other."""
        stream_a = rng.stream("link.cont.a")
        reference = [stream_a.exponential(0.5) for _ in range(6)]

        registry2 = type(rng)(rng.seed)
        link = Link(sim, 0, 1, LinkConfig(delay_mean=0.5),
                    registry2.stream("link.cont.a"))
        for _ in range(3):
            link.transmit(make_message(), lambda m: None)
        link = link.with_config(LinkConfig(delay_mean=0.5))
        for _ in range(3):
            link.transmit(make_message(), lambda m: None)
        # Each arrival is a heap entry (time, seq, link, message, deliver)
        # pushed at now = 0: its time is the drawn delay.
        delays = [entry[0] for entry in sorted(sim.heap, key=lambda e: e[1])]
        assert delays == reference
