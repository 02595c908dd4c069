"""Tests for the command handler (application/daemon boundary)."""

import pytest

from repro.core.commands import CommandError, CommandHandler
from repro.core.service import LeaderElectionService, ServiceConfig
from repro.net.network import Network, NetworkConfig
from repro.sim.rng import RngRegistry


@pytest.fixture
def handler(sim):
    rng = RngRegistry(4)
    network = Network(sim, NetworkConfig(n_nodes=2), rng)
    service = LeaderElectionService(
        scheduler=sim,
        transport=network,
        node=network.node(0),
        peer_nodes=(0, 1),
        config=ServiceConfig(),
        rng=rng,
    )
    return CommandHandler(service)


class TestCommandHandler:
    def test_register_join_query_leave_cycle(self, sim, handler):
        handler.register(0)
        handler.join(0, 1)
        sim.run_until(3.0)
        assert handler.leader(1) == 0  # alone: self
        handler.leave(0, 1)
        assert handler.leader(1) is None

    def test_unregister(self, handler):
        handler.register(0)
        handler.unregister(0)
        with pytest.raises(CommandError):
            handler.unregister(0)

    def test_rejections_become_command_errors(self, handler):
        with pytest.raises(CommandError):
            handler.join(0, 1)  # unregistered
        handler.register(0)
        handler.join(0, 1)
        with pytest.raises(CommandError):
            handler.join(0, 1)  # double join
        with pytest.raises(CommandError):
            handler.leave(0, 2)  # not a member

    def test_join_carries_all_four_paper_parameters(self, handler):
        """Paper §4: group id, candidacy, notification mode, FD QoS."""
        from repro.fd.qos import FDQoS

        handler.register(0)
        notifications = []
        runtime = handler.join(
            0,
            9,
            candidate=False,
            qos=FDQoS(detection_time=0.25),
            on_leader_change=lambda g, leader: notifications.append((g, leader)),
        )
        assert runtime.candidate is False
        assert runtime.qos.detection_time == 0.25
