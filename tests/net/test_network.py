"""Unit tests for the network topology and send path."""

import pytest

from repro.net.links import LinkConfig
from repro.net.message import BatchFrame
from repro.net.network import Network, NetworkConfig


@pytest.fixture
def network(sim, rng):
    return Network(sim, NetworkConfig(n_nodes=4), rng)


def alive(src, dst):
    return BatchFrame(sender_node=src, dest_node=dst)


class TestTopology:
    def test_full_mesh_of_directed_links(self, network):
        links = list(network.links())
        assert len(links) == 4 * 3
        pairs = {(l.src, l.dst) for l in links}
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (0, 0) not in pairs

    def test_node_lookup(self, network):
        assert network.node(2).node_id == 2
        with pytest.raises(KeyError):
            network.node(99)

    def test_rejects_empty_network(self, sim, rng):
        with pytest.raises(ValueError):
            NetworkConfig(n_nodes=0)

    def test_per_link_override(self, sim, rng, network):
        network.set_link_config(0, 1, LinkConfig(delay_mean=1.0, loss_prob=0.5))
        assert network.link(0, 1).config.loss_prob == 0.5
        # The reverse direction keeps the default.
        assert network.link(1, 0).config.loss_prob == 0.0

    def test_override_preserves_down_state(self, network):
        network.link(0, 1).set_down(True)
        network.set_link_config(0, 1, LinkConfig(delay_mean=1.0))
        assert network.link(0, 1).down


class TestSendPath:
    def test_delivery_reaches_receiver(self, sim, network):
        received = []
        network.node(1).set_receiver(received.append)
        network.send(alive(0, 1))
        sim.run_until(1.0)
        assert len(received) == 1

    def test_sender_meter_charged(self, sim, network):
        network.node(1).set_receiver(lambda m: None)
        message = alive(0, 1)
        network.send(message)
        assert network.node(0).meter.messages_sent == 1
        assert network.node(0).meter.bytes_sent == message.wire_bytes()

    def test_receiver_meter_charged_on_delivery(self, sim, network):
        network.node(1).set_receiver(lambda m: None)
        message = alive(0, 1)
        network.send(message)
        sim.run_until(1.0)
        assert network.node(1).meter.messages_received == 1
        assert network.node(1).meter.bytes_received == message.wire_bytes()

    def test_crashed_sender_sends_nothing(self, sim, network):
        received = []
        network.node(1).set_receiver(received.append)
        network.node(0).crash()
        network.send(alive(0, 1))
        sim.run_until(1.0)
        assert received == []
        assert network.node(0).meter.messages_sent == 0

    def test_crashed_receiver_drops_delivery(self, sim, network):
        received = []
        network.node(1).set_receiver(received.append)
        network.send(alive(0, 1))
        network.node(1).crash()
        sim.run_until(1.0)
        assert received == []
        assert network.node(1).meter.messages_received == 0

    def test_send_batch_fans_out(self, sim, network):
        received = []
        for n in (1, 2, 3):
            network.node(n).set_receiver(received.append)
        network.send_batch([alive(0, n) for n in (1, 2, 3)])
        sim.run_until(1.0)
        assert len(received) == 3
