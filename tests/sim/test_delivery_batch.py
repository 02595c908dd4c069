"""Batched-vs-scalar delivery equivalence (repro.sim.vector.DeliveryBatch).

Mirrors ``test_vector.py``'s two layers for the message datapath:

* kernel-level tests of :class:`DeliveryBatch` ordering through the
  engine's merged delivery heap;
* Hypothesis properties — arbitrary frame mixes through
  :meth:`Network.send_batch`, with and without chaos overlays
  (loss/dup/jitter), must produce the *identical* delivery log (same
  arrival times, same order, same link stats) as the scalar path under
  :func:`force_scalar`; and a full ``build_system`` simulation must give
  a bit-identical trace digest across the seed/size/churn/loss grid.
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
from repro.sim.vector import DeliveryBatch, delivery_batch_for, force_scalar


def submit(batch, arrival, link, message, deliver):
    """Enqueue one arrival the way ``Link.transmit`` does."""
    heappush(batch.heap, (arrival, next(batch.order), link, message, deliver))


class TestDeliveryBatchBasics:
    def test_delivers_at_exact_arrival_time(self):
        sim = Simulator()
        batch = DeliveryBatch(sim)
        log = []

        class _Link:
            class stats:
                delivered = 0
                bytes_delivered = 0

        frame = BatchFrame(sender_node=0, dest_node=1)
        submit(batch, 2.5, _Link, frame, lambda m: log.append(sim.now))
        sim.run()
        assert log == [2.5]
        assert _Link.stats.delivered == 1
        assert batch.deliveries == 1

    def test_equal_time_arrivals_drain_in_submission_order(self):
        sim = Simulator()
        batch = DeliveryBatch(sim)
        log = []

        class _Link:
            class stats:
                delivered = 0
                bytes_delivered = 0

        for i in range(5):
            frame = BatchFrame(sender_node=0, dest_node=1, seq=i)
            submit(batch, 1.0, _Link, frame, lambda m: log.append(m.seq))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_earlier_submission_moves_the_head(self):
        sim = Simulator()
        batch = DeliveryBatch(sim)
        log = []

        class _Link:
            class stats:
                delivered = 0
                bytes_delivered = 0

        a = BatchFrame(sender_node=0, dest_node=1, seq=10)
        b = BatchFrame(sender_node=0, dest_node=1, seq=20)
        submit(batch, 5.0, _Link, a, lambda m: log.append((sim.now, m.seq)))
        submit(batch, 1.0, _Link, b, lambda m: log.append((sim.now, m.seq)))
        sim.run()
        assert log == [(1.0, 20), (5.0, 10)]

    def test_delivery_callback_may_submit_more(self):
        """A delivery that triggers a fresh fan-out (handle_message sending
        replies) must leave the new arrivals drainable by the run loop."""
        sim = Simulator()
        batch = DeliveryBatch(sim)
        log = []

        class _Link:
            class stats:
                delivered = 0
                bytes_delivered = 0

        reply = BatchFrame(sender_node=1, dest_node=0, seq=99)

        def on_first(message):
            log.append((sim.now, message.seq))
            submit(batch, sim.now + 1.0, _Link, reply, on_second)

        def on_second(message):
            log.append((sim.now, message.seq))

        submit(batch, 1.0, _Link, BatchFrame(sender_node=0, dest_node=1), on_first)
        sim.run()
        assert log == [(1.0, 0), (2.0, 99)]

    def test_delivery_batch_for_only_on_plain_simulator(self):
        sim = Simulator()
        assert delivery_batch_for(sim) is not None
        assert delivery_batch_for(sim) is delivery_batch_for(sim)  # shared
        with force_scalar():
            assert delivery_batch_for(sim) is None


#: One scripted round: up to 12 (src, dst) frame sends over 4 nodes.
_rounds = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=12,
    ),
    min_size=1,
    max_size=8,
)

_N_NODES = 4


def _run_mix(rounds, *, scalar, loss=0.0, delay=0.001, chaos=None, crash=None):
    """Drive one frame-mix script; return (delivery log, link stats, meters).

    Every source of randomness is seeded identically across invocations, so
    the batched and scalar runs draw the same streams — any divergence in
    the log is a real datapath difference, not noise.
    """

    def build_and_run():
        sim = Simulator()
        registry = RngRegistry(seed=42)
        net = Network(
            sim,
            NetworkConfig(
                n_nodes=_N_NODES,
                default_link=LinkConfig(delay_mean=delay, loss_prob=loss),
            ),
            registry,
        )
        log = []
        for node in net.nodes.values():
            node.set_receiver(
                lambda m, nid=node.node_id: log.append(
                    (sim.now, nid, m.sender_node, m.seq)
                )
            )
        transport = net
        if chaos is not None:
            drop, dup, jitter = chaos
            transport = ChaosTransport(
                net, sim, np.random.default_rng(np.random.SeedSequence(entropy=7))
            )
            transport.set_drop(drop)
            transport.set_duplicate(dup)
            transport.set_reorder(jitter)
        if crash is not None:
            net.nodes[crash].crash()
        seq = 0
        for index, round_ops in enumerate(rounds):
            frames = []
            for src, dst in round_ops:
                if src == dst:
                    continue
                frames.append(
                    BatchFrame(sender_node=src, dest_node=dst, seq=seq)
                )
                seq += 1
            sim.schedule(0.01 * (index + 1), transport.send_batch, frames)
        sim.run()
        stats = {
            (link.src, link.dst): (link.stats.delivered, link.stats.bytes_delivered)
            for link in net.links()
        }
        meters = {
            nid: (
                node.meter.messages_sent,
                node.meter.bytes_sent,
                node.meter.messages_received,
                node.meter.bytes_received,
            )
            for nid, node in net.nodes.items()
        }
        return log, stats, meters

    if scalar:
        with force_scalar():
            return build_and_run()
    return build_and_run()


class TestBatchedScalarEquivalence:
    @given(_rounds, st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_lossy_mix_is_bit_identical(self, rounds, loss):
        """Same RNG streams, same arrivals, same order, same counters —
        the batched fan-out must be invisible to everything downstream."""
        batched = _run_mix(rounds, scalar=False, loss=loss)
        scalar = _run_mix(rounds, scalar=True, loss=loss)
        assert batched == scalar

    @given(
        _rounds,
        st.sampled_from([0.0, 0.25]),
        st.sampled_from([0.0, 0.5]),
        st.sampled_from([0.0, 0.005]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chaos_overlay_mix_is_bit_identical(self, rounds, drop, dup, jitter):
        """ChaosTransport.send_batch deliberately stays per-message so the
        script-pinned RNG draw order is preserved; the surviving traffic
        still reaches Network.send (scalar, draw-for-draw identical)."""
        overlay = (drop, dup, jitter)
        batched = _run_mix(rounds, scalar=False, chaos=overlay)
        scalar = _run_mix(rounds, scalar=True, chaos=overlay)
        assert batched == scalar

    @given(_rounds)
    @settings(max_examples=20, deadline=None)
    def test_zero_delay_mix_is_bit_identical(self, rounds):
        """delay_mean=0 arrivals stay on the scalar path (each needs its own
        engine-seq position among same-time events) — and must still agree."""
        batched = _run_mix(rounds, scalar=False, delay=0.0)
        scalar = _run_mix(rounds, scalar=True, delay=0.0)
        assert batched == scalar

    @given(_rounds, st.integers(min_value=0, max_value=_N_NODES - 1))
    @settings(max_examples=20, deadline=None)
    def test_crashed_sender_mix_is_bit_identical(self, rounds, crashed):
        """A crashed node's sends vanish without meter charges or RNG draws
        on both paths (the down-check precedes everything)."""
        batched = _run_mix(rounds, scalar=False, crash=crashed)
        scalar = _run_mix(rounds, scalar=True, crash=crashed)
        assert batched == scalar

    def test_all_deliveries_route_through_the_batch(self):
        """On the batched path, every positive-delay arrival must drain
        through the shared batch heap (not fall back to per-message engine
        events) — the engine's run loop pops arrivals directly, so the
        batched run schedules *no* engine events for message traffic at
        all, strictly fewer than the scalar path's one per message."""
        rounds = [[(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)] for _ in range(20)]

        def run():
            sim = Simulator()
            net = Network(
                sim,
                NetworkConfig(
                    n_nodes=_N_NODES,
                    default_link=LinkConfig(delay_mean=0.001),
                ),
                RngRegistry(seed=42),
            )
            seq = 0
            for index, round_ops in enumerate(rounds):
                frames = [
                    BatchFrame(sender_node=s, dest_node=d, seq=(seq := seq + 1))
                    for s, d in round_ops
                ]
                sim.schedule(0.01 * (index + 1), net.send_batch, frames)
            sim.run()
            return sim

        sim = run()
        with force_scalar():
            scalar_sim = run()
        batch = sim.delivery_batch
        assert batch is not None
        assert batch.deliveries == 100  # every frame, none leaked to scalar
        assert scalar_sim.delivery_batch is None
        # The merged loop needs no engine entries for deliveries at all:
        # only the per-round trigger events remain.
        assert sim.events_scheduled == scalar_sim.events_scheduled - 100


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
        """The tentpole contract, full-system edition: the batched datapath
        (and the pooled deadline kernel it composes with) changes nothing
        observable — same digest, same event count, fewer engine events."""
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
        batched = build_system(config)
        batched.sim.run_until(config.duration)
        with force_scalar():
            scalar = build_system(config)
            scalar.sim.run_until(config.duration)
        assert batched.trace.digest() == scalar.trace.digest()
        assert len(batched.trace.events) == len(scalar.trace.events)
        assert batched.sim.events_executed <= scalar.sim.events_executed
