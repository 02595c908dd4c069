"""The SWIM probe state machine: unit scenarios, Hypothesis properties
and the leak-regression sweep.

The plane under test is driven through a scripted transport that plays
the rest of the cluster: live peers answer direct probes with acks,
relays forward ping-reqs, and a peer can be made reachable only
indirectly (direct pings dropped) to force the escalation path.  Wire
loss and delay are irrelevant here — those belong to the chaos suite —
so delivery is instantaneous and the tests reason purely about the
protocol's state transitions.

The A/B plane-equivalence test (same chaos script, same stable leader on
both planes) lives in tests/chaos/test_run.py next to the other
full-stack scripted runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.configurator import ConfiguratorCache
from repro.fd.scheduler import AliveBatcher
from repro.fd.swim import LINKS_CAP, MAX_PIGGYBACK, RUMOUR_BUFFER, SwimFdPlane
from repro.net.message import (
    BatchFrame,
    SwimAckMessage,
    SwimPingMessage,
    SwimPingReqMessage,
    SwimUpdate,
    swim_update_wins,
)
from repro.fd.qos import FDQoS

from tests.fd.test_scheduler import QuietSource


class Listener:
    def __init__(self):
        self.events = []

    def on_node_trust(self, node):
        self.events.append(("trust", node))

    def on_node_suspect(self, node):
        self.events.append(("suspect", node))


class ScriptedCluster:
    """Plays every peer of the plane under test.

    ``alive`` peers answer any ping addressed to them (acking the probe's
    *origin*, as the protocol specifies) and forward ping-reqs;
    ``indirect_only`` peers drop pings sent directly by the origin but
    answer relayed ones — the scenario SWIM's escalation exists for.
    """

    #: Scripted one-hop delivery latency.  Non-zero so peer answers arrive
    #: through the scheduler (like the real network) instead of re-entering
    #: the plane mid-sweep, yet far below δ so they always beat deadlines.
    LATENCY = 0.001

    def __init__(self, sim):
        self.sim = sim
        self.plane = None  # wired after construction
        self.alive = set()
        self.indirect_only = set()
        self.sent = []
        self.incarnations = {}

    def send(self, message):
        self.sent.append(message)
        if isinstance(message, SwimPingMessage):
            target = message.dest_node
            if target not in self.alive:
                return
            direct = message.sender_node == message.origin
            if direct and target in self.indirect_only:
                return
            self.sim.schedule(
                2 * self.LATENCY,  # probe hop + ack hop
                self._deliver_ack,
                target,
                message,
            )
        elif isinstance(message, SwimPingReqMessage):
            relay = message.dest_node
            if relay not in self.alive:
                return
            # The relay's forwarded ping, sender != origin.
            self.sim.schedule(
                self.LATENCY,
                self.send,
                SwimPingMessage(
                    sender_node=relay,
                    dest_node=message.target,
                    nonce=message.nonce,
                    origin=message.origin,
                    send_time=message.send_time,
                ),
            )

    def send_batch(self, messages):
        for message in messages:
            self.send(message)

    def _deliver_ack(self, target, ping):
        if target not in self.alive:
            return  # died while the ack was in flight
        self.plane.on_ack(
            SwimAckMessage(
                sender_node=target,
                dest_node=ping.origin,
                nonce=ping.nonce,
                incarnation=self.incarnations.get(target, 0),
                echo_send_time=ping.send_time,
            )
        )


def make_plane(sim, rng, peers, cluster=None, node_id=0, **kw):
    cluster = cluster if cluster is not None else ScriptedCluster(sim)
    plane = SwimFdPlane(
        scheduler=sim,
        transport=cluster,
        node_id=node_id,
        rng=rng.stream("swim.0"),
        cache=ConfiguratorCache(),
        **kw,
    )
    cluster.plane = plane
    listener = Listener()
    for node in peers:
        plane.register_interest(1, node, FDQoS(), listener)
    return plane, cluster, listener


def pings_to(cluster, target, direct_only=False):
    return [
        m
        for m in cluster.sent
        if isinstance(m, SwimPingMessage)
        and m.dest_node == target
        and (not direct_only or m.sender_node == m.origin)
    ]


class TestProbeAck:
    def test_answered_probe_trusts_the_target(self, sim, rng):
        plane, cluster, listener = make_plane(sim, rng, peers=[1, 2, 3])
        cluster.alive = {1, 2, 3}
        sim.run_until(2.0)
        # Every peer was probed at least once (k=2 per η=0.25 s over a
        # 3-peer ring) and every ack landed as first-hand evidence.
        for node in (1, 2, 3):
            assert pings_to(cluster, node)
            assert plane.trusted(node)
            assert plane.monitors[node].alives_received > 0
        assert ("suspect", 1) not in listener.events

    def test_probe_rtt_feeds_the_link_estimator(self, sim, rng):
        plane, cluster, _ = make_plane(sim, rng, peers=[1])
        cluster.alive = {1}
        sim.run_until(5.0)
        link = plane._links[1]
        assert link.next_seq > 0
        assert link.estimator.samples > 0

    def test_unanswered_probe_suspects_after_the_deadline(self, sim, rng):
        plane, cluster, listener = make_plane(sim, rng, peers=[1])
        cluster.alive = {1}
        sim.run_until(2.0)
        assert plane.trusted(1)
        cluster.alive = set()  # the peer dies
        sim.run_until(6.0)
        assert not plane.trusted(1)
        assert ("suspect", 1) in listener.events
        assert plane.monitors[1].suspicions >= 1


class TestIndirectProbe:
    def test_ping_req_escalation_saves_a_reachable_target(self, sim, rng):
        # Node 1 is alive but its direct path from us is dead: the direct
        # probe lapses, the escalation fans out through trusted relays,
        # and the relayed probe's ack refutes the pending suspicion.
        plane, cluster, listener = make_plane(sim, rng, peers=[1, 2, 3])
        cluster.alive = {1, 2, 3}
        cluster.indirect_only = {1}
        sim.run_until(8.0)
        assert [m for m in cluster.sent if isinstance(m, SwimPingReqMessage)]
        relayed = [
            m for m in pings_to(cluster, 1) if m.sender_node != m.origin
        ]
        assert relayed, "escalation never produced a relayed probe"
        assert plane.trusted(1)
        assert ("suspect", 1) not in listener.events

    def test_dead_target_is_suspected_despite_relays(self, sim, rng):
        plane, cluster, listener = make_plane(sim, rng, peers=[1, 2, 3])
        cluster.alive = {1, 2, 3}
        sim.run_until(2.0)
        cluster.alive = {2, 3}  # node 1 actually dies; relays stay up
        sim.run_until(8.0)
        assert not plane.trusted(1)
        assert ("suspect", 1) in listener.events
        # The local suspicion escalated to a broadcast confirm rumour.
        assert plane.monitors[1].status in ("suspect", "confirm")

    def test_relay_answers_ping_req_on_behalf_of_origin(self, sim, rng):
        plane, cluster, _ = make_plane(sim, rng, peers=[1])
        message = SwimPingReqMessage(
            sender_node=9, dest_node=0, target=1, nonce=77, origin=9,
            send_time=0.5,
        )
        plane.on_ping_req(message)
        forwarded = [
            m
            for m in cluster.sent
            if isinstance(m, SwimPingMessage) and m.dest_node == 1
        ]
        assert len(forwarded) == 1
        assert forwarded[0].origin == 9  # target acks the origin directly
        assert forwarded[0].nonce == 77


class TestRefutation:
    def test_suspicion_of_self_bumps_incarnation_and_refutes(self, sim, rng):
        plane, cluster, _ = make_plane(sim, rng, peers=[1])
        assert plane.incarnation == 0
        plane.apply_updates((SwimUpdate(node=0, incarnation=0, state="suspect"),))
        assert plane.incarnation == 1
        refutes = [u for u in plane.piggyback() if u.node == 0]
        assert refutes and refutes[0].state == "alive"
        assert refutes[0].incarnation == 1

    def test_refute_race_alive_with_higher_incarnation_wins(self, sim, rng):
        # The classic race: a stale suspicion arrives after the target
        # already refuted.  The refutation's higher incarnation must win
        # regardless of arrival order.
        plane, cluster, listener = make_plane(sim, rng, peers=[1])
        plane.ensure_monitor(1)
        forward = (
            SwimUpdate(node=1, incarnation=0, state="suspect"),
            SwimUpdate(node=1, incarnation=1, state="alive"),
        )
        reverse = tuple(reversed(forward))
        plane.apply_updates(forward)
        assert plane.trusted(1)
        plane2, _, _ = make_plane(sim, rng, peers=[1])
        plane2.ensure_monitor(1)
        plane2.apply_updates(reverse)
        assert plane2.trusted(1)
        for p in (plane, plane2):
            peer = p.monitors[1]
            assert (peer.incarnation, peer.status) == (1, "alive")

    def test_ack_incarnation_refutes_in_flight_suspicion(self, sim, rng):
        plane, cluster, listener = make_plane(sim, rng, peers=[1])
        plane.ensure_monitor(1)
        plane.apply_updates((SwimUpdate(node=1, incarnation=0, state="suspect"),))
        assert not plane.trusted(1)
        plane.on_ack(
            SwimAckMessage(
                sender_node=1, dest_node=0, nonce=999, incarnation=1,
                echo_send_time=0.0,
            )
        )
        assert plane.trusted(1)
        assert plane.monitors[1].status == "alive"


updates_about = st.builds(
    SwimUpdate,
    node=st.just(1),
    incarnation=st.integers(min_value=0, max_value=6),
    state=st.sampled_from(("alive", "suspect", "confirm")),
)


class TestRumourCarriers:
    def test_the_flush_a_rumoured_suspicion_causes_carries_the_rumour(self, sim, rng):
        """The suspect transition moves the election's choice, which asks
        the batcher for a flush *inside* the fan: the round that serves it,
        at the end of the instant, must carry the rumour to every peer (not
        leave empty — in payload-only mode not even sent — and make the
        rumour wait a whole η)."""
        plane, cluster, listener = make_plane(sim, rng, peers=[1, 2, 3])
        batcher = AliveBatcher(sim, cluster, 0, rng.stream("batcher"), plane=plane)
        batcher.add_group(1, QuietSource(1, [1, 2, 3]), eta=0.25)
        batcher.set_active(1, True)
        listener.on_node_suspect = lambda node: batcher.flush()  # the election's reaction
        plane.grant_grace(3)
        assert plane.trusted(3) and not plane.has_rumours()
        rumour = SwimUpdate(node=3, incarnation=0, state="suspect")
        plane.apply_updates((rumour,))
        assert not plane.trusted(3)
        sim.run_until(sim.now)  # the flush is a request: served this instant
        frames = [m for m in cluster.sent if isinstance(m, BatchFrame)]
        assert [f.dest_node for f in frames] == [1, 2, 3]
        assert all(f.swim_updates == (rumour,) for f in frames)
        assert plane.batches_handed == {"frame": 3, "probe": 0, "hello": 0}

    def test_batches_are_counted_by_carrier_and_only_when_handed(self, sim, rng):
        plane, cluster, listener = make_plane(sim, rng, peers=[1, 2, 3])
        assert plane.piggyback("hello") == () and plane.piggyback() == ()
        assert plane.batches_handed == {"frame": 0, "probe": 0, "hello": 0}
        plane.grant_grace(2)
        plane.apply_updates((SwimUpdate(node=2, incarnation=0, state="suspect"),))
        assert len(plane.piggyback("hello")) == 1
        plane.on_ping(SwimPingMessage(sender_node=1, dest_node=0, nonce=7, origin=1))
        assert cluster.sent[-1].updates  # the ack carried a batch
        assert plane.batches_handed == {"frame": 0, "probe": 1, "hello": 1}


class TestUpdateProperties:
    @given(stream=st.lists(updates_about, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_peer_state_converges_order_independently(self, stream):
        """(incarnation, status) is a join: any arrival order of the same
        update set ends in the same winning rumour — the property that
        makes epidemic dissemination safe under reordering/duplication."""
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry

        final = []
        for ordering in (stream, list(reversed(stream)), stream + stream):
            sim, rng = Simulator(), RngRegistry(seed=1)
            plane, _, _ = make_plane(sim, rng, peers=[1])
            plane.ensure_monitor(1)
            plane.apply_updates(tuple(ordering))
            peer = plane.monitors[1]
            final.append((peer.incarnation, peer.status))
        assert final[0] == final[1] == final[2]
        # And the winner matches a pure fold of the precedence relation.
        winner = SwimUpdate(node=1, incarnation=0, state="alive")
        for update in stream:
            if swim_update_wins(update, winner):
                winner = update
        assert final[0] == (winner.incarnation, winner.state)

    @given(stream=st.lists(updates_about, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_peer_incarnation_is_monotonic(self, stream):
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry

        sim, rng = Simulator(), RngRegistry(seed=1)
        plane, _, _ = make_plane(sim, rng, peers=[1])
        plane.ensure_monitor(1)
        seen = 0
        for update in stream:
            plane.apply_updates((update,))
            incarnation = plane.monitors[1].incarnation
            assert incarnation >= seen
            seen = incarnation

    @given(
        dooms=st.lists(
            st.integers(min_value=0, max_value=10), min_size=1, max_size=16
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_own_incarnation_outruns_every_doubt(self, dooms):
        """Only the accused bumps its own incarnation, and it always ends
        strictly above any incarnation it was doubted at — which is what
        guarantees a live node's refutation eventually wins everywhere."""
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry

        sim, rng = Simulator(), RngRegistry(seed=1)
        plane, _, _ = make_plane(sim, rng, peers=[1])
        previous = plane.incarnation
        for doubt in dooms:
            plane.apply_updates(
                (SwimUpdate(node=0, incarnation=doubt, state="suspect"),)
            )
            assert plane.incarnation >= previous
            previous = plane.incarnation
        assert plane.incarnation > max(dooms)

    @given(stream=st.lists(updates_about, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_piggyback_is_always_bounded(self, stream):
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry

        sim, rng = Simulator(), RngRegistry(seed=1)
        plane, _, _ = make_plane(sim, rng, peers=[1])
        plane.ensure_monitor(1)
        plane.apply_updates(tuple(stream))
        for _ in range(8):
            assert len(plane.piggyback()) <= MAX_PIGGYBACK


class TestLeakRegression:
    def test_join_leave_200_nodes_leaves_no_plane_state_behind(self, sim, rng):
        """Satellite of the swim PR: a long churn run must not accumulate
        per-departed-peer state anywhere in the plane (the all-pairs
        plane's forget_node leak, re-asserted here for swim)."""
        plane, cluster, listener = make_plane(sim, rng, peers=[])
        cluster.alive = set(range(1, 201))
        for node in range(1, 201):
            plane.register_interest(1, node, FDQoS(), listener)
        sim.run_until(5.0)
        assert len(plane.monitors) <= 200
        for node in range(1, 201):
            plane.unregister_interest(1, node)
            plane.forget_node(node)
        sim.run_until(8.0)
        assert plane.monitors == {}
        assert plane._interests == {}
        assert plane._effective_qos == {}
        assert plane._links == {} and plane._rumours == {}
        assert plane._probes == {}

    def test_rumour_buffer_is_bounded_under_churn(self, sim, rng):
        plane, cluster, listener = make_plane(sim, rng, peers=[])
        for node in range(1, 401):
            plane.register_interest(1, node, FDQoS(), listener)
            plane.ensure_monitor(node)
            plane.apply_updates(
                (SwimUpdate(node=node, incarnation=1, state="suspect"),)
            )
        assert len(plane._rumours) <= RUMOUR_BUFFER

    def test_link_lru_is_bounded_by_probe_fanout(self, sim, rng):
        plane, cluster, listener = make_plane(
            sim, rng, peers=range(1, 201)
        )
        cluster.alive = set(range(1, 201))
        sim.run_until(20.0)
        assert len(plane._links) <= LINKS_CAP
        assert LINKS_CAP < 50  # O(k), not O(n)

    def test_batcher_forgets_departed_peer_stream_state(self, sim, rng):
        from repro.fd.scheduler import AliveBatcher
        from repro.net.network import Network, NetworkConfig

        network = Network(sim, NetworkConfig(n_nodes=4), rng)
        batcher = AliveBatcher(
            scheduler=sim, transport=network, node_id=0,
            rng=rng.stream("batcher"),
        )

        class Source:
            owing = False

            def dest_nodes(self):
                return (1, 2, 3)

            def emit_cells(self, early):
                return ()

        batcher.add_group(1, Source(), eta=0.25)
        batcher.set_active(1, True)
        sim.run_until(2.0)
        assert set(batcher.seqs) == {1, 2, 3}
        batcher.set_requested(2, 0.5)
        for node in (1, 2, 3):
            batcher.forget_node(node)
        assert batcher.seqs == {}
        assert batcher._requested == {}
