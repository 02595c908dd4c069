"""Message arrivals in the simulator's one event heap.

``Network.send`` / ``send_batch`` push each surviving message onto
``Simulator.heap`` as a ``(time, seq, message, deliver)`` entry, and the run
loop delivers it inline.  Two layers:

* kernel tests of arrival entries (exact times, push order at ties, a
  delivery that transmits more, a ``send_batch`` fan-out that creates no
  :class:`~repro.sim.engine.Event`);
* one Hypothesis property whose reference is the per-event path: a network
  that schedules each arrival as its own ``Event``.  Both take ``seq`` from
  ``Simulator.order`` at the same moment, so a mix of zero and positive
  delays, loss, crashed senders, chaos drop/dup/jitter, replies sent from a
  delivery, and callbacks pinned with ``schedule_at`` to the very instant of
  a pending arrival must give the same delivery log, meters,
  ``events_executed`` and ``pending_count`` after every ``step``;

and a full ``build_system`` run that must give a bit-identical trace digest
with the pooled deadline kernel and under :func:`force_scalar`.
"""

from heapq import heappush

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.transport import ChaosTransport
from repro.net.links import LinkConfig
from repro.net.message import BatchFrame
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.vector import force_scalar

_N_NODES = 4


def push(sim, arrival, message, deliver):
    """Push one arrival entry the way ``Network.send`` does."""
    heappush(sim.heap, (arrival, next(sim.order), message, deliver))


class TestArrivalEntries:
    def test_delivers_at_exact_arrival_time(self):
        sim = Simulator()
        log = []
        frame = BatchFrame(sender_node=0, dest_node=1)
        push(sim, 2.5, frame, lambda m: log.append((sim.now, m)))
        assert sim.pending_count() == 1
        sim.run()
        assert log == [(2.5, frame)]
        assert sim.events_executed == 1

    def test_equal_time_arrivals_drain_in_submission_order(self):
        """Arrivals and callbacks due at one instant fire in push order."""
        sim = Simulator()
        log = []
        for i in range(5):
            frame = BatchFrame(sender_node=0, dest_node=1, seq=i)
            push(sim, 1.0, frame, lambda m: log.append(m.seq))
            if i == 2:
                sim.schedule_at(1.0, log.append, "timer")
        sim.run()
        assert log == [0, 1, 2, "timer", 3, 4]

    def test_earlier_submission_moves_the_head(self):
        sim = Simulator()
        log = []
        a = BatchFrame(sender_node=0, dest_node=1, seq=10)
        b = BatchFrame(sender_node=0, dest_node=1, seq=20)
        push(sim, 5.0, a, lambda m: log.append((sim.now, m.seq)))
        assert sim.peek_time() == 5.0
        push(sim, 1.0, b, lambda m: log.append((sim.now, m.seq)))
        assert sim.peek_time() == 1.0
        sim.run()
        assert log == [(1.0, 20), (5.0, 10)]

    def test_delivery_callback_may_submit_more(self):
        """A delivery that triggers a fresh fan-out (handle_message sending
        replies) leaves the new arrivals drainable by the run loop."""
        sim = Simulator()
        log = []
        reply = BatchFrame(sender_node=1, dest_node=0, seq=99)

        def on_first(message):
            log.append((sim.now, message.seq))
            push(sim, sim.now + 1.0, reply, on_second)

        def on_second(message):
            log.append((sim.now, message.seq))

        push(sim, 1.0, BatchFrame(sender_node=0, dest_node=1), on_first)
        sim.run()
        assert log == [(1.0, 0), (2.0, 99)]


#: Per directed link: (delay_mean, loss_prob).
_LAN, _LOSSY, _ZERO, _ZERO_LOSSY = (0.001, 0.0), (0.001, 0.3), (0.0, 0.0), (0.0, 0.3)


class ReferenceNetwork(Network):
    """The per-event path: each message is its own send, and each
    surviving arrival its own engine Event."""

    def _offer(self, messages):
        for message in messages:
            sender = self.nodes[message.sender_node]
            if not sender.up:
                continue
            sender.meter.messages_sent += 1
            sender.meter.bytes_sent += message.wire_bytes()
            link = self.link(message.sender_node, message.dest_node)
            if link.down:
                continue
            if link.loss_prob:
                delay = link.rng.lossy_delay(link.loss_prob, link.delay_mean)
                if delay is None:
                    continue
            else:
                mean = link.delay_mean
                delay = link.rng.exponential(mean) if mean else 0.0
            self.sim.schedule(delay, self.nodes[message.dest_node].deliver, message)


_SEND = st.tuples(
    st.just("send"),
    st.integers(0, _N_NODES - 1),
    st.integers(0, _N_NODES - 1),
    st.booleans(),  # through send_batch (else send)
)
_PIN = st.tuples(st.just("pin"))  # schedule_at the next pending instant
_TOGGLE = st.tuples(st.just("toggle"), st.integers(0, _N_NODES - 1))  # crash/recover
_CANCEL = st.tuples(st.just("cancel"))  # schedule a callback and cancel it
_CHAOS = st.tuples(
    st.sampled_from([0.0, 0.25]),  # drop
    st.sampled_from([0.0, 0.5]),  # duplicate
    st.sampled_from([0.0, 0.002]),  # jitter
)


def _scenarios(links, ops, chaos):
    return st.fixed_dictionaries(
        {
            "links": st.lists(
                st.sampled_from(links),
                min_size=_N_NODES * _N_NODES,
                max_size=_N_NODES * _N_NODES,
            ),
            "rounds": st.lists(st.lists(st.one_of(*ops), max_size=10), min_size=1, max_size=6),
            "chaos": chaos,
            "replies": st.integers(0, 8),
        }
    )


def _run(scenario, network_class):
    """Drive one scenario; return everything the two paths must agree on."""
    sim = Simulator()
    links = scenario["links"]

    class _Network(network_class):
        def _make_link(self, src, dst, link_config):
            delay, loss = links[src * _N_NODES + dst]
            config = LinkConfig(delay_mean=delay, loss_prob=loss)
            return super()._make_link(src, dst, config)

    net = _Network(sim, NetworkConfig(n_nodes=_N_NODES), RngRegistry(seed=42))
    transport = net
    if scenario["chaos"] is not None:
        drop, dup, jitter = scenario["chaos"]
        transport = ChaosTransport(net, sim, np.random.default_rng(7))
        transport.set_drop(drop)
        transport.set_duplicate(dup)
        transport.set_reorder(jitter)

    log = []
    replies = [scenario["replies"]]
    seqs = iter(range(10**6))

    def receive(message, node):
        log.append((sim.now, node, message.sender_node, message.seq))
        if replies[0]:  # a delivery that sends: its arrival joins the heap
            replies[0] -= 1
            transport.send(
                BatchFrame(sender_node=node, dest_node=message.sender_node, seq=next(seqs))
            )

    def listen(node):
        node.set_receiver(lambda m, n=node.node_id: receive(m, n))

    for node in net.nodes.values():
        listen(node)

    def run_round(ops):
        frames = {}  # sender -> its fan-out: a send_batch is one node's
        for op in ops:
            if op[0] == "send":
                _, src, dst, batched = op
                if src == dst:
                    continue
                frame = BatchFrame(sender_node=src, dest_node=dst, seq=next(seqs))
                if batched:
                    frames.setdefault(src, []).append(frame)
                else:
                    transport.send(frame)
            elif op[0] == "pin":
                at = sim.peek_time()
                if at is not None:
                    sim.schedule_at(at, lambda: log.append((sim.now, "pin")))
            elif op[0] == "toggle":
                node = net.nodes[op[1]]
                if node.up:
                    node.crash()
                else:
                    node.recover()
                    listen(node)
            else:
                sim.cancel(sim.schedule(0.0005, lambda: log.append("cancelled")))
        for fan_out in frames.values():
            transport.send_batch(fan_out)

    for index, ops in enumerate(scenario["rounds"]):
        sim.schedule_at(0.001 * (index + 1), run_round, ops)

    steps = []
    while sim.step():
        steps.append((sim.now, sim.pending_count(), sim.events_executed))
    meters = {
        nid: (m.messages_sent, m.bytes_sent, m.messages_received, m.bytes_received)
        for nid, m in ((nid, node.meter) for nid, node in net.nodes.items())
    }
    return log, steps, meters


def _assert_matches_reference(scenario):
    """Same key, same counter: a heap arrival fires exactly where its own
    engine event would have."""
    assert _run(scenario, Network) == _run(scenario, ReferenceNetwork)


class TestBatchedScalarEquivalence:
    @given(_scenarios([_LAN, _LOSSY, _ZERO, _ZERO_LOSSY], [_SEND, _PIN, _TOGGLE, _CANCEL],
                      st.none() | _CHAOS))
    @settings(max_examples=100, deadline=None)
    def test_arrival_mix_matches_per_event_reference(self, scenario):
        _assert_matches_reference(scenario)

    @given(_scenarios([_LAN, _LOSSY], [_SEND, _PIN], st.none()))
    @settings(max_examples=30, deadline=None)
    def test_lossy_mix_is_bit_identical(self, scenario):
        _assert_matches_reference(scenario)

    @given(_scenarios([_LAN, _LOSSY, _ZERO], [_SEND, _PIN], _CHAOS))
    @settings(max_examples=30, deadline=None)
    def test_chaos_overlay_mix_is_bit_identical(self, scenario):
        """ChaosTransport.send_batch stays per-message; jittered copies
        re-enter through Network.send and take their place in the heap."""
        _assert_matches_reference(scenario)

    @given(_scenarios([_ZERO, _ZERO_LOSSY], [_SEND, _PIN, _CANCEL], st.none()))
    @settings(max_examples=30, deadline=None)
    def test_zero_delay_mix_is_bit_identical(self, scenario):
        """An exact-``now`` arrival takes its push-order place among the
        callbacks due at the same instant."""
        _assert_matches_reference(scenario)

    @given(_scenarios([_LAN, _ZERO], [_SEND, _TOGGLE], st.none()))
    @settings(max_examples=30, deadline=None)
    def test_crashed_sender_mix_is_bit_identical(self, scenario):
        """A crashed node's sends vanish without meter charges or RNG draws
        on both paths (the down-check precedes everything)."""
        _assert_matches_reference(scenario)

    def test_every_sent_frame_is_one_arrival_entry(self):
        """Every frame of a ``send_batch`` fan-out, zero delay included,
        becomes one arrival entry: no :class:`Event` per message."""
        for delay in (0.001, 0.0):
            sim = Simulator()
            net = Network(
                sim,
                NetworkConfig(n_nodes=_N_NODES, default_link=LinkConfig(delay_mean=delay)),
                RngRegistry(seed=42),
            )
            received = []
            for node in net.nodes.values():
                node.set_receiver(received.append)
            pairs = [(0, 1), (0, 2), (0, 3)] * 20 + [(1, 0)] * 20 + [(2, 0)] * 20
            frames = [
                BatchFrame(sender_node=s, dest_node=d, seq=i) for i, (s, d) in enumerate(pairs)
            ]
            for sender in (0, 1, 2):  # one fan-out per sending node
                net.send_batch([frame for frame in frames if frame.sender_node == sender])
            assert len(sim.heap) == sim.pending_count() == 100
            assert all(len(entry) == 4 for entry in sim.heap)
            sim.run()
            assert sorted(received, key=frames.index) == frames
            if not delay:  # one instant: push order
                assert received == frames
            assert sim.events_executed == 100
            meters = [net.node(node).meter for node in range(_N_NODES)]
            assert [meter.messages_sent for meter in meters] == [60, 20, 20, 0]
            assert [meter.messages_received for meter in meters] == [40, 20, 20, 20]


class TestSystemBitExactness:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=3, max_value=5),
        st.booleans(),
        st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=6, deadline=None)
    def test_full_simulation_digest_is_bit_identical(
        self, seed, n_nodes, churn, loss
    ):
        """The pooled deadline kernel changes nothing observable against
        its scalar reference (:func:`force_scalar`): same digest, same
        event count, no more engine events."""
        from repro.experiments.runner import build_system
        from repro.experiments.scenario import ExperimentConfig

        config = ExperimentConfig(
            name="delivery-prop",
            algorithm="omega_lc",
            n_nodes=n_nodes,
            duration=8.0,
            warmup=2.0,
            seed=seed,
            node_churn=churn,
            link_loss_prob=loss,
        )
        pooled = build_system(config)
        pooled.sim.run_until(config.duration)
        with force_scalar():
            scalar = build_system(config)
            scalar.sim.run_until(config.duration)
        assert pooled.trace.digest() == scalar.trace.digest()
        assert len(pooled.trace.events) == len(scalar.trace.events)
        assert pooled.sim.events_executed <= scalar.sim.events_executed
