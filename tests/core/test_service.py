"""Unit/functional tests for the service daemon and group runtime."""

import math

import pytest

from repro.core.service import LeaderElectionService, ServiceConfig
from repro.fd.configurator import eta_range
from repro.fd.qos import FDQoS
from repro.metrics.trace import TraceRecorder
from repro.net.message import BatchFrame, RateRequestMessage
from repro.net.network import Network, NetworkConfig
from repro.sim.rng import RngRegistry


def build(sim, n=4, algorithm="omega_lc", config=None):
    rng = RngRegistry(3)
    network = Network(sim, NetworkConfig(n_nodes=n), rng)
    trace = TraceRecorder()
    services = []
    for node_id in range(n):
        service = LeaderElectionService(
            scheduler=sim,
            transport=network,
            node=network.node(node_id),
            peer_nodes=tuple(range(n)),
            config=config or ServiceConfig(algorithm=algorithm),
            rng=rng,
            trace=trace,
        )
        services.append(service)
    return network, services, trace


class TestServiceConfigValidation:
    """A bad config fails at construction, not deep inside the first join."""

    def test_defaults_are_valid(self):
        ServiceConfig()

    def test_nfde_variant_is_valid(self):
        ServiceConfig(fd_variant="nfde")

    def test_unknown_algorithm_rejected_eagerly(self):
        with pytest.raises(ValueError, match="election algorithm 'bogus'"):
            ServiceConfig(algorithm="bogus")

    def test_registered_algorithm_is_accepted(self):
        from repro.core.election import registry
        from repro.core.election.omega_id import OmegaId

        class Plugged(OmegaId):
            name = "plugged-for-test"

        try:
            registry.register_algorithm(Plugged)
            assert ServiceConfig(algorithm="plugged-for-test").algorithm == (
                "plugged-for-test"
            )
        finally:
            registry._REGISTRY.pop("plugged-for-test", None)

    def test_unknown_fd_variant_rejected_eagerly(self):
        with pytest.raises(ValueError, match="fd_variant"):
            ServiceConfig(fd_variant="nfd-x")

    def test_bad_variant_cannot_reach_join_time(self, sim):
        """The old failure mode: fd_variant typos used to surface only when
        the first monitor was created, deep inside message handling."""
        with pytest.raises(ValueError, match="fd_variant"):
            build(sim, config=ServiceConfig(fd_variant="typo"))


class TestRegistration:
    def test_register_and_join(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        runtime = services[0].join(0, group=1)
        assert runtime.pid == 0
        # Alone in the group and a candidate: elects itself synchronously.
        assert services[0].leader_of(1) == 0

    def test_register_duplicate_rejected(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        with pytest.raises(ValueError):
            services[0].register(0)

    def test_join_requires_registration(self, sim):
        _, services, _ = build(sim)
        with pytest.raises(ValueError):
            services[0].join(0, group=1)

    def test_double_join_rejected(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        services[0].join(0, group=1)
        with pytest.raises(ValueError):
            services[0].join(0, group=1)

    def test_one_process_per_group_per_node(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        services[0].register(100)
        services[0].join(0, group=1)
        with pytest.raises(ValueError, match="one process per group"):
            services[0].join(100, group=1)

    def test_same_process_multiple_groups(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        services[0].join(0, group=1)
        services[0].join(0, group=2)
        assert services[0].group_runtime(1) is not None
        assert services[0].group_runtime(2) is not None

    def test_unregister_leaves_groups(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        services[0].join(0, group=1)
        services[0].unregister(0)
        assert services[0].group_runtime(1) is None

    def test_leave_requires_membership(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        with pytest.raises(ValueError):
            services[0].leave(0, group=1)


class TestElection:
    def join_all(self, sim, services, group=1, **kwargs):
        for node_id, service in enumerate(services):
            service.register(node_id)
            service.join(node_id, group=group, **kwargs)

    def test_group_converges_to_one_leader(self, sim):
        _, services, _ = build(sim)
        self.join_all(sim, services)
        sim.run_until(5.0)
        leaders = {s.leader_of(1) for s in services}
        assert len(leaders) == 1
        assert leaders.pop() in range(4)

    def test_leader_is_stable_without_faults(self, sim):
        _, services, trace = build(sim)
        self.join_all(sim, services)
        sim.run_until(5.0)
        leader = services[0].leader_of(1)
        sim.run_until(60.0)
        assert services[0].leader_of(1) == leader
        assert all(s.leader_of(1) == leader for s in services)

    def test_leader_excluded_for_non_candidates(self, sim):
        _, services, _ = build(sim)
        for node_id, service in enumerate(services):
            service.register(node_id)
            # Only node 2 and 3 are candidates.
            service.join(node_id, group=1, candidate=node_id >= 2)
        sim.run_until(5.0)
        leaders = {s.leader_of(1) for s in services}
        assert leaders in ({2}, {3})

    def test_leave_triggers_reelection(self, sim):
        _, services, _ = build(sim)
        self.join_all(sim, services)
        sim.run_until(5.0)
        leader = services[0].leader_of(1)
        services[leader].leave(leader, group=1)
        sim.run_until(10.0)
        survivors = [s for i, s in enumerate(services) if i != leader]
        new_leaders = {s.leader_of(1) for s in survivors}
        assert len(new_leaders) == 1
        assert new_leaders.pop() != leader

    def test_interrupt_notifications_fire(self, sim):
        _, services, _ = build(sim)
        changes = []
        services[0].register(0)
        services[0].join(
            0, group=1, on_leader_change=lambda g, l: changes.append((g, l))
        )
        for node_id in range(1, 4):
            services[node_id].register(node_id)
            services[node_id].join(node_id, group=1)
        sim.run_until(5.0)
        assert changes  # at least the initial election
        assert changes[-1][0] == 1
        assert changes[-1][1] == services[0].leader_of(1)

    def test_algorithm_override_per_group(self, sim):
        _, services, _ = build(sim, algorithm="omega_lc")
        services[0].register(0)
        runtime = services[0].join(0, group=7, algorithm="omega_l")
        assert runtime.algorithm.name == "omega_l"

    def test_unknown_algorithm_rejected(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        with pytest.raises(ValueError, match="unknown election algorithm"):
            services[0].join(0, group=1, algorithm="raft")


class TestEchoes:
    def test_an_echo_clears_what_it_covers_and_one_of_a_frame_never_sent_nothing(self, sim):
        _, services, _ = build(sim)
        TestElection().join_all(sim, services)
        sim.run_until(5.0)
        service, peer = services[0], services[1]
        cells = service.group_runtime(1).cells
        last = service.batcher.seqs[1] - 1  # the newest frame node 0 sent node 1
        cells.owed[1] = (last, last, cells.view.version)

        def echo(ack):
            seq = peer.batcher.seqs[0]
            peer.batcher.seqs[0] = seq + 1
            frame = BatchFrame(sender_node=1, dest_node=0, seq=seq, send_time=sim.now,
                               interval=peer.batcher.interval(), ack=ack)
            service.handle_message(frame)

        echo(last + 1)  # a stale echo from across a restart: never sent
        assert 1 in cells.owed
        echo(last)
        assert 1 not in cells.owed


class TestCrashPath:
    def test_shutdown_stops_all_activity(self, sim):
        network, services, _ = build(sim)
        for node_id, service in enumerate(services):
            service.register(node_id)
            service.join(node_id, group=1)
        sim.run_until(5.0)
        sent_before = network.node(0).meter.messages_sent
        network.node(0).crash()
        services[0].shutdown()
        sim.run_until(15.0)
        assert network.node(0).meter.messages_sent == sent_before

    def test_crashed_leader_is_replaced(self, sim):
        network, services, _ = build(sim)
        for node_id, service in enumerate(services):
            service.register(node_id)
            service.join(node_id, group=1)
        sim.run_until(5.0)
        leader = services[0].leader_of(1)
        network.node(leader).crash()
        services[leader].shutdown()
        sim.run_until(10.0)
        survivors = [s for i, s in enumerate(services) if i != leader]
        new_leaders = {s.leader_of(1) for s in survivors}
        assert len(new_leaders) == 1
        assert new_leaders.pop() != leader


class TestQoSPlumbing:
    def test_join_qos_overrides_default(self, sim):
        _, services, _ = build(sim)
        services[0].register(0)
        qos = FDQoS(detection_time=0.5)
        runtime = services[0].join(0, group=1, qos=qos)
        assert runtime.qos.detection_time == 0.5

    def test_a_peers_link_history_goes_with_its_last_groups_interest(self, sim):
        """A peer node's monitor is its stream's estimator, shared by every
        group that watches the node: frames the daemon receives feed it
        while any group does, and it goes with the last one."""
        _, services, _ = build(sim)
        service = services[0]
        plane = service.plane

        class Quiet:
            def on_node_trust(self, node): ...
            def on_node_suspect(self, node): ...

        for group in (1, 2):
            plane.register_interest(group, 2, FDQoS(), Quiet())
        for seq in range(10):
            service.handle_message(
                BatchFrame(sender_node=2, dest_node=0, seq=seq, send_time=sim.now, interval=0.25)
            )
        monitor = plane.monitors[2]
        assert monitor.samples == 10 and monitor.ready
        assert not plane.unregister_interest(1, 2)  # group 2 still watches
        assert plane.monitors[2] is monitor and monitor.ready
        assert plane.unregister_interest(2, 2)  # the last leaver
        assert 2 not in plane.monitors
        plane.register_interest(1, 2, FDQoS(), Quiet())
        fresh = plane.ensure_monitor(2)
        assert fresh is not monitor
        assert fresh.samples == 0 and not fresh.ready and fresh.loss_counts() == (0.0, 0.0)

    def test_departed_peer_rate_no_longer_pins_the_interval(self, sim):
        """A peer that left every hosted group must stop forcing the
        heartbeat rate it once requested (node-level RATE-REQUEST)."""
        from repro.net.message import RateRequestMessage

        _, services, _ = build(sim)
        for node_id in (0, 1, 2):
            services[node_id].register(node_id)
            services[node_id].join(node_id, group=1)
        sim.run_until(5.0)
        services[0].handle_message(
            RateRequestMessage(sender_node=1, dest_node=0, interval=0.05)
        )
        assert services[0].batcher.interval() == pytest.approx(0.05)
        services[1].leave(1, group=1)
        sim.run_until(10.0)  # the tombstone gossips to node 0
        assert services[0].batcher.interval() > 0.05

    def test_strictest_qos_wins_on_the_shared_plane(self, sim):
        """Two groups watching the same node: the tighter detection time
        governs the shared monitor."""
        _, services, _ = build(sim)
        services[0].register(0)
        services[0].join(0, group=1, qos=FDQoS(detection_time=2.0))
        services[0].join(0, group=2, qos=FDQoS(detection_time=0.5))
        services[1].register(1)
        services[1].join(1, group=1)
        services[1].join(1, group=2)
        sim.run_until(5.0)
        monitor = services[0].plane.monitors[1]
        assert monitor.qos.detection_time == 0.5

    def test_tighter_group_tightens_delta_immediately(self, sim):
        """The strict group's detection bound must apply the moment it
        subscribes — not one reconfiguration period later."""
        from repro.fd.configurator import bootstrap_params

        _, services, _ = build(sim)
        for node_id in (0, 1):
            services[node_id].register(node_id)
            services[node_id].join(node_id, group=1, qos=FDQoS(detection_time=2.0))
        sim.run_until(1.0)
        monitor = services[0].plane.monitors[1]
        loose_delta = monitor.delta
        for node_id in (0, 1):
            services[node_id].join(
                node_id, group=2, qos=FDQoS(detection_time=0.5)
            )
        sim.run_until(1.1)  # the join announcement reaches node 0
        tight = bootstrap_params(FDQoS(detection_time=0.5))
        assert monitor.delta <= tight.delta < loose_delta


class TestRateRequests:
    """A RATE-REQUEST is network input: a daemon obeys one only inside the
    range of periods the configurator can ask for a group it hosts."""

    def _cell(self, sim):
        network, services, _ = build(sim, n=3)
        for node_id in range(3):
            services[node_id].register(node_id)
            services[node_id].join(node_id, group=1)
        sim.run_until(5.0)
        return network, services

    def _forge(self, network, interval):
        for peer in (1, 2):
            network.send(RateRequestMessage(sender_node=peer, dest_node=0, interval=interval))

    def test_a_tiny_request_cannot_make_the_daemon_tick_every_microsecond(self, sim):
        network, services = self._cell(sim)
        interval = services[0].batcher.interval()
        self._forge(network, 1e-6)
        sim.run_until(5.001)  # delivered
        assert services[0].batcher.interval() == interval
        events = sim.events_executed
        sim.run_until(5.5)
        assert sim.events_executed - events < 100

    def test_an_infinite_request_cannot_blind_the_peers(self, sim):
        network, services = self._cell(sim)
        self._forge(network, math.inf)
        sim.run_until(6.0)  # node 0 has advertised its period since
        network.node(0).crash()
        services[0].shutdown()
        sim.run_until(6.0 + 2 * FDQoS().detection_time)
        assert not services[1].plane.trusted(0)
        assert not services[2].plane.trusted(0)

    def test_every_period_the_configurator_can_ask_is_obeyed(self, sim):
        _, services = self._cell(sim)
        requested = services[0].batcher._requested
        low, high = eta_range(FDQoS().detection_time)
        for interval, obeyed in (
            (low, low), (high, high),
            (low * 0.999, high), (high * 1.001, high), (math.nan, high), (0.0, high), (-1.0, high),
        ):
            services[0].handle_message(
                RateRequestMessage(sender_node=1, dest_node=0, interval=interval)
            )
            assert requested[1] == obeyed
