"""Unit tests for the churn injectors."""

import pytest

from repro.net.faults import LinkChurnInjector, NodeChurnInjector
from repro.net.links import Link, LinkConfig
from repro.net.node import Node


class TestNodeChurn:
    def test_node_crashes_and_recovers(self, sim, rng):
        node = Node(sim, 0)
        # Keyword form pins the protocol-era parameter name (scheduler=,
        # finishing the sim= rename of the runtime refactor).
        injector = NodeChurnInjector(
            scheduler=sim, node=node, rng=rng.stream("churn"),
            mean_uptime=10.0, mean_downtime=1.0,
        )
        injector.start()
        sim.run_until(500.0)
        assert injector.crashes_injected > 10
        # Exponential(10)/Exponential(1) churn: roughly uptime/(up+down) up.
        assert node.incarnation == pytest.approx(injector.crashes_injected, abs=1)

    def test_rates_are_roughly_exponential(self, sim, rng):
        node = Node(sim, 0)
        injector = NodeChurnInjector(
            sim, node, rng.stream("churn"), mean_uptime=10.0, mean_downtime=1.0
        )
        injector.start()
        sim.run_until(2000.0)
        # ~2000/11 ≈ 180 cycles expected.
        assert 120 < injector.crashes_injected < 260

    def test_stop_halts_churn(self, sim, rng):
        node = Node(sim, 0)
        injector = NodeChurnInjector(
            sim, node, rng.stream("churn"), mean_uptime=1.0, mean_downtime=0.1
        )
        injector.start()
        sim.run_until(10.0)
        count = injector.crashes_injected
        injector.stop()
        sim.run_until(100.0)
        assert injector.crashes_injected == count

    def test_rejects_nonpositive_means(self, sim, rng):
        node = Node(sim, 0)
        with pytest.raises(ValueError):
            NodeChurnInjector(sim, node, rng.stream("x"), mean_uptime=0.0)


class TestLinkChurn:
    def test_link_goes_down_and_up(self, sim, rng):
        link = Link(0, 1, LinkConfig(), rng.stream("l"))
        injector = LinkChurnInjector(
            scheduler=sim, link=link, rng=rng.stream("churn"),
            mean_uptime=10.0, mean_downtime=3.0,
        )
        injector.start()
        # Sample the state over time; both states must be visited.
        states = []
        for t in range(1, 300):
            sim.schedule_at(float(t), lambda: states.append(link.down))
        sim.run_until(300.0)
        assert injector.crashes_injected > 5
        assert any(states) and not all(states)
        # Downtime fraction ≈ 3/13.
        down_frac = sum(states) / len(states)
        assert 0.08 < down_frac < 0.45

    def test_stop_halts_churn(self, sim, rng):
        link = Link(0, 1, LinkConfig(), rng.stream("l"))
        injector = LinkChurnInjector(
            sim, link, rng.stream("churn"), mean_uptime=1.0, mean_downtime=0.5
        )
        injector.start()
        sim.run_until(20.0)
        injector.stop()
        count = injector.crashes_injected
        sim.run_until(100.0)
        assert injector.crashes_injected == count
