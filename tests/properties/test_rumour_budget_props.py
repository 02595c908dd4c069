"""A rumour leaves a node at most its budget's worth of times — whoever
carries it, in whatever order.

One :class:`SwimFdPlane` with a real :class:`AliveBatcher` on top holds one
suspicion rumour and is driven through any interleaving of frame ticks,
flushes, probe periods, incoming pings (whose acks carry a batch), incoming
acks, HELLO rounds and the same rumour heard again.  Everything it sends is
recorded: the rumour must ride at most ``budget`` messages (a HELLO round's
shared batch counting once), the per-carrier counters must add up to
exactly the batches handed, and once the budget is spent the rumour is gone.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.scheduler import AliveBatcher
from repro.fd.swim import MAX_PIGGYBACK
from repro.net.message import BatchFrame, SwimAckMessage, SwimPingMessage, SwimUpdate
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

from tests.fd.test_scheduler import QuietSource
from tests.fd.test_swim import make_plane

OPS = st.lists(
    st.sampled_from(["tick", "flush", "probe", "ping", "ack", "hello", "again"]),
    min_size=1,
    max_size=60,
)


def carried(message):
    return message.swim_updates if isinstance(message, BatchFrame) else message.updates


@settings(max_examples=150, deadline=None)
@given(n_peers=st.integers(min_value=3, max_value=40), node_id=st.integers(0, 40), ops=OPS)
def test_no_rumour_is_handed_out_beyond_its_budget(n_peers, node_id, ops):
    sim, rng = Simulator(), RngRegistry(7)
    peers = [n for n in range(n_peers + 1) if n != node_id][:n_peers]
    plane, cluster, _ = make_plane(sim, rng, peers, node_id=node_id)
    batcher = AliveBatcher(sim, cluster, node_id, rng.stream("batcher"), plane=plane)
    batcher.add_group(1, QuietSource(1, peers), eta=0.25)
    batcher.set_active(1, True)
    victim = peers[0]
    for peer in peers:
        plane.grant_grace(peer)
    rumour = SwimUpdate(node=victim, incarnation=0, state="suspect")
    plane.apply_updates((rumour,))
    budget = max(MAX_PIGGYBACK, int(4 * math.log2(len(plane.monitors) + 2)))
    hello_batches = 0
    for nonce, op in enumerate(ops):
        if op == "tick":
            batcher._tick()
        elif op == "flush":
            batcher.flush()
        elif op == "probe":
            plane._send_probes(sim.now)
        elif op == "ping":
            plane.on_ping(SwimPingMessage(peers[1], node_id, nonce=nonce, origin=peers[1]))
        elif op == "ack":
            plane.on_ack(SwimAckMessage(peers[2], node_id, nonce=nonce, updates=(rumour,)))
        elif op == "hello":
            hello_batches += rumour in plane.piggyback("hello")
        else:
            plane.apply_updates((rumour,))  # old news: must not refill the budget
        on_the_wire = sum(rumour in carried(message) for message in cluster.sent)
        handed = on_the_wire + hello_batches
        assert handed <= budget
        assert sum(plane.batches_handed.values()) == handed
        assert plane.has_rumours() == (handed < budget)  # exhausted ⇒ retired
