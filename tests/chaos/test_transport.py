"""ChaosTransport: fault overlays over the Transport protocol."""

from typing import List

from repro.chaos.transport import ChaosTransport
from repro.net.message import HelloMessage
from repro.runtime.base import Transport


class RecordingTransport:
    """An inner Transport that just logs what reaches it."""

    def __init__(self) -> None:
        self.sent: List[HelloMessage] = []

    def send(self, message) -> None:
        self.sent.append(message)

    def send_batch(self, messages) -> None:
        self.sent.extend(messages)


def msg(src: int, dst: int) -> HelloMessage:
    return HelloMessage(sender_node=src, dest_node=dst, group=1, kind="gossip")


def make(sim, rng) -> tuple:
    inner = RecordingTransport()
    chaos = ChaosTransport(inner, sim, rng.stream("chaos"))
    return inner, chaos


class TestOverlays:
    def test_satisfies_transport_protocol(self, sim, rng):
        _, chaos = make(sim, rng)
        assert isinstance(chaos, Transport)

    def test_nominal_passthrough(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.send(msg(0, 1))
        assert len(inner.sent) == 1
        assert chaos.stats.forwarded == 1
        assert chaos.stats.dropped == 0

    def test_partition_blocks_cross_component_traffic(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_partition([[0, 1], [2, 3]])
        chaos.send(msg(0, 2))  # cross: dropped
        chaos.send(msg(2, 0))  # cross: dropped
        chaos.send(msg(0, 1))  # same component: delivered
        chaos.send(msg(2, 3))  # same component: delivered
        assert len(inner.sent) == 2
        assert chaos.stats.dropped_partition == 2

    def test_unlisted_nodes_share_the_remainder_component(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_partition([[0]])  # 1, 2, ... form the implicit rest
        chaos.send(msg(1, 2))
        chaos.send(msg(0, 1))
        assert len(inner.sent) == 1
        assert chaos.separated(0, 1)
        assert not chaos.separated(1, 2)

    def test_asym_cut_blocks_one_direction_only(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.cut_link(0, 1)
        chaos.send(msg(0, 1))
        chaos.send(msg(1, 0))
        assert len(inner.sent) == 1
        assert inner.sent[0].sender_node == 1
        assert chaos.stats.dropped_cut == 1

    def test_drop_rate_one_blocks_everything(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_drop(1.0)
        for _ in range(20):
            chaos.send(msg(0, 1))
        assert inner.sent == []
        assert chaos.stats.dropped_rate == 20

    def test_drop_rate_is_roughly_honoured(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_drop(0.5)
        for _ in range(2000):
            chaos.send(msg(0, 1))
        assert 800 < len(inner.sent) < 1200

    def test_duplicate_sends_two_copies(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_duplicate(1.0)
        chaos.send(msg(0, 1))
        assert len(inner.sent) == 2
        assert chaos.stats.duplicated == 1

    def test_reorder_delays_delivery_through_the_scheduler(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_reorder(0.5)
        chaos.send(msg(0, 1))
        assert inner.sent == []  # still in flight
        sim.run_until(1.0)
        assert len(inner.sent) == 1
        assert chaos.stats.delayed == 1

    def test_reorder_lets_messages_overtake(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_reorder(1.0)
        for i in range(50):
            chaos.send(msg(0, i))
        sim.run_until(2.0)
        order = [m.dest_node for m in inner.sent]
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # at least one overtake

    def test_heal_clears_every_overlay(self, sim, rng):
        inner, chaos = make(sim, rng)
        chaos.set_partition([[0], [1]])
        chaos.cut_link(2, 3)
        chaos.set_drop(1.0)
        chaos.set_duplicate(1.0)
        chaos.set_reorder(1.0)
        chaos.heal()
        chaos.send(msg(0, 1))
        chaos.send(msg(2, 3))
        assert len(inner.sent) == 2  # immediate, single, undropped
        assert not chaos.partitioned

    def test_same_seed_same_outcome(self, sim, rng):
        import numpy as np

        outcomes = []
        for _ in range(2):
            inner = RecordingTransport()
            chaos = ChaosTransport(inner, sim, np.random.default_rng(7))
            chaos.set_drop(0.3)
            chaos.set_duplicate(0.3)
            for i in range(200):
                chaos.send(msg(0, i))
            outcomes.append([m.dest_node for m in inner.sent])
        assert outcomes[0] == outcomes[1]
