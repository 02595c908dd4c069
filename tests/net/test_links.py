"""Unit tests for lossy and crash-prone link models.

A link is state the network's send loop reads per message, so these drive
it through a two-node :class:`Network`: node 0 sends over link 0 → 1, and
node 1's receiver records what arrives.
"""

import pytest

from repro.net.links import Link, LinkConfig
from repro.net.message import BatchFrame
from repro.net.network import Network, NetworkConfig


class Wire:
    """Link 0 → 1 of a two-node network, and what came through it."""

    def __init__(self, sim, rng, on_arrival=None, **kwargs):
        self.sim = sim
        self.network = Network(sim, NetworkConfig(n_nodes=2), rng)
        self.network.set_link_config(0, 1, LinkConfig(**kwargs))
        self.received = []
        self.network.node(1).set_receiver(on_arrival or self.received.append)

    @property
    def link(self):
        return self.network.link(0, 1)

    def send(self, count=1):
        for seq in range(count):
            self.network.send(make_message(seq))


def make_message(seq=0):
    return BatchFrame(sender_node=0, dest_node=1, seq=seq)


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
        wire = Wire(sim, rng, loss_prob=0.0, delay_mean=0.001)
        wire.send(100)
        assert sim.pending_count() == 100  # one arrival entry each
        sim.run_until(1.0)
        assert len(wire.received) == 100

    def test_loss_rate_matches_probability(self, sim, rng):
        wire = Wire(sim, rng, loss_prob=0.1, delay_mean=0.001)
        n = 5000
        wire.send(n)
        sim.run_until(10.0)
        loss_rate = 1.0 - len(wire.received) / n
        assert 0.07 < loss_rate < 0.13
        assert sim.pending_count() == 0  # a lost message left no entry

    def test_delay_distribution_mean(self, sim, rng):
        arrivals = []
        wire = Wire(sim, rng, lambda m: arrivals.append(sim.now), delay_mean=0.1)
        wire.send(2000)
        sim.run_until(100.0)
        mean_delay = sum(arrivals) / len(arrivals)
        # All sent at t=0; exponential mean 0.1 s.
        assert 0.09 < mean_delay < 0.11

    def test_messages_can_reorder(self, sim, rng):
        order = []
        wire = Wire(sim, rng, lambda m: order.append(m.seq), delay_mean=0.1)
        wire.send(50)
        sim.run_until(10.0)
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # independent delays reorder

    def test_bytes_accounting(self, sim, rng):
        """Links count nothing: the sender's meter is charged on the send,
        the receiver's on the delivery."""
        wire = Wire(sim, rng, delay_mean=0.0)
        size = make_message().wire_bytes()
        wire.send()
        sender, receiver = wire.network.node(0).meter, wire.network.node(1).meter
        assert (sender.messages_sent, sender.bytes_sent) == (1, size)
        assert receiver.messages_received == 0
        sim.run_until(1.0)
        assert (receiver.messages_received, receiver.bytes_received) == (1, size)


class TestCrashProneLink:
    def test_down_link_drops_everything(self, sim, rng):
        wire = Wire(sim, rng, delay_mean=0.001)
        wire.link.set_down(True)
        wire.send(10)
        assert sim.pending_count() == 0  # nothing was pushed
        sim.run_until(1.0)
        assert wire.received == []

    def test_recovered_link_delivers_again(self, sim, rng):
        wire = Wire(sim, rng, delay_mean=0.001)
        wire.link.set_down(True)
        wire.send()
        wire.link.set_down(False)
        wire.send()
        sim.run_until(1.0)
        assert len(wire.received) == 1

    def test_in_flight_messages_survive_crash(self, sim, rng):
        """A message already on the wire is delivered even if the link
        crashes before its arrival (see Simulator.run_until)."""
        wire = Wire(sim, rng, delay_mean=0.1)
        wire.send()
        sim.schedule(0.0001, lambda: wire.link.set_down(True))
        sim.run_until(5.0)
        assert len(wire.received) == 1


class TestWithConfig:
    """Link.with_config: rebuild behaviour, keep identity and RNG stream."""

    def test_keeps_stream_and_down_state(self, rng):
        link = Link(0, 1, LinkConfig(loss_prob=0.5), rng.stream("link.test"))
        link.set_down(True)
        rebuilt = link.with_config(LinkConfig(delay_mean=1.0))
        assert rebuilt.rng is link.rng
        assert rebuilt.down
        assert rebuilt.src == link.src and rebuilt.dst == link.dst
        assert rebuilt.config.delay_mean == 1.0

    def test_stream_continues_across_reconfig(self, sim, rng):
        """The rebuilt link draws the *continuation* of the old link's
        stream — reconfiguring one link never perturbs any other."""
        stream = rng.stream("link.0.1")  # the stream the network derives
        reference = [stream.exponential(0.5) for _ in range(6)]

        wire = Wire(sim, type(rng)(rng.seed), delay_mean=0.5)
        wire.send(3)
        wire.network.set_link_config(0, 1, LinkConfig(delay_mean=0.5))
        wire.send(3)
        # Each arrival is a heap entry (time, seq, message, deliver) pushed
        # at now = 0: its time is the drawn delay.
        delays = [entry[0] for entry in sorted(sim.heap, key=lambda e: e[1])]
        assert delays == reference
