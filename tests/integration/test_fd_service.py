"""End-to-end failure-detector behaviour inside the running service:
rate negotiation, adaptation to network conditions, and the NFD-E variant.
"""

import pytest

from repro.core.service import ServiceConfig
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.qos import FDQoS
from repro.metrics.leadership import analyze_leadership


def build(algorithm="omega_lc", seed=5, duration=400.0, **kw):
    config = ExperimentConfig(
        name=f"fd-{algorithm}",
        algorithm=algorithm,
        n_nodes=4,
        duration=duration,
        warmup=60.0,
        seed=seed,
        node_churn=False,
        **kw,
    )
    return config, build_system(config)


class TestRateNegotiation:
    def test_senders_apply_requested_rates(self):
        """On a clean LAN, the configurator relaxes η above the bootstrap
        0.25 s; the sender must end up using the negotiated interval."""
        config, system = build()
        system.sim.run_until(120.0)
        service = system.hosts[0].service
        interval = service.batcher.interval()
        assert interval > 0.26  # relaxed beyond the bootstrap period
        # And the detection budget is still respected end to end:
        for monitor in service.plane.monitors.values():
            assert interval + monitor.delta <= config.qos.detection_time * 1.25

    def test_rates_tighten_on_lossy_links(self):
        _, lan = build(seed=5)
        lan.sim.run_until(120.0)
        _, lossy = build(seed=5, link_delay_mean=0.1, link_loss_prob=0.1)
        lossy.sim.run_until(120.0)
        lan_eta = lan.hosts[0].service.batcher.interval()
        lossy_eta = lossy.hosts[0].service.batcher.interval()
        assert lossy_eta < lan_eta

    def test_tighter_qos_means_faster_heartbeats(self):
        _, slow = build(seed=5)
        slow.sim.run_until(120.0)
        _, fast = build(seed=5, qos=FDQoS(detection_time=0.25))
        fast.sim.run_until(120.0)
        slow_eta = slow.hosts[0].service.batcher.interval()
        fast_eta = fast.hosts[0].service.batcher.interval()
        assert fast_eta < slow_eta / 2

    def test_monitor_deltas_track_estimates(self):
        """δ must end up near T_D^U − η once the estimator warms up."""
        config, system = build()
        system.sim.run_until(120.0)
        for monitor in system.hosts[0].service.plane.monitors.values():
            assert monitor.delta + monitor.desired_eta == pytest.approx(
                config.qos.detection_time, rel=0.02
            )


class TestNfdeVariant:
    def test_service_runs_on_nfde(self):
        """The expected-arrival FD slots in without protocol changes."""
        config = ExperimentConfig(
            name="nfde",
            algorithm="omega_lc",
            n_nodes=4,
            duration=300.0,
            warmup=30.0,
            seed=5,
            node_churn=False,
        )
        system = build_system(config)
        for host in system.hosts:
            host.config = ServiceConfig(algorithm="omega_lc", fd_variant="nfde")
        system.sim.run_until(config.duration)
        metrics = analyze_leadership(
            system.trace.events, 1, config.duration, measure_from=config.warmup
        )
        assert metrics.availability > 0.999
        assert metrics.unjustified_demotions == 0

    def test_nfde_detects_crashes_like_nfds(self):
        config = ExperimentConfig(
            name="nfde-crash",
            algorithm="omega_lc",
            n_nodes=4,
            duration=120.0,
            warmup=20.0,
            seed=5,
            node_churn=False,
        )
        system = build_system(config)
        for host in system.hosts:
            host.config = ServiceConfig(algorithm="omega_lc", fd_variant="nfde")
        sim = system.sim
        sim.run_until(40.0)
        leader = system.hosts[0].service.leader_of(1)
        sim.schedule_at(50.0, lambda: system.network.node(leader).crash())
        sim.run_until(config.duration)
        metrics = analyze_leadership(
            system.trace.events, 1, config.duration, measure_from=config.warmup
        )
        assert len(metrics.recovery_samples) == 1
        assert metrics.recovery_samples[0].duration < 2.5

    def test_unknown_variant_rejected(self):
        """Even a config whose eager validation was bypassed cannot reach
        monitor creation: the daemon resolves the variant at boot (by plain
        lookup — ``ServiceConfig`` is where the name is validated)."""
        from repro.core.service import LeaderElectionService
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry
        from repro.net.network import Network, NetworkConfig

        sim = Simulator()
        rng = RngRegistry(1)
        network = Network(sim, NetworkConfig(n_nodes=2), rng)
        config = ServiceConfig()
        object.__setattr__(config, "fd_variant", "bogus")
        with pytest.raises(KeyError, match="bogus"):
            LeaderElectionService(
                scheduler=sim,
                transport=network,
                node=network.node(0),
                peer_nodes=(0, 1),
                config=config,
                rng=rng,
            )
