"""Unit tests for the NFD-S monitor (receiver side)."""

import pytest

from repro.fd.configurator import ConfiguratorCache
from repro.fd.monitor import NfdsMonitor
from repro.fd.qos import FDQoS


class Events:
    def __init__(self):
        self.log = []

    def bundle(self):
        return dict(
            on_trust=lambda pid: self.log.append(("trust", pid)),
            on_suspect=lambda pid: self.log.append(("suspect", pid)),
        )


@pytest.fixture
def events():
    return Events()


def make_monitor(sim, events, start_trusted=False, qos=None):
    return NfdsMonitor(
        scheduler=sim,
        pid=7,
        qos=qos or FDQoS(),
        cache=ConfiguratorCache(),
        **events.bundle(),
        start_trusted=start_trusted,
    )


class TestTrustTransitions:
    def test_starts_suspected_by_default(self, sim, events):
        monitor = make_monitor(sim, events)
        assert not monitor.trusted
        sim.run_until(10.0)
        assert events.log == []  # no transition without evidence

    def test_first_alive_grants_trust(self, sim, events):
        monitor = make_monitor(sim, events)
        sim.run_until(1.0)
        monitor.on_alive(seq=0, send_time=1.0, sender_interval=0.25)
        assert monitor.trusted
        assert events.log == [("trust", 7)]

    def test_freshness_deadline_is_send_plus_interval_plus_delta(self, sim, events):
        monitor = make_monitor(sim, events)
        monitor.on_alive(seq=0, send_time=0.0, sender_interval=0.25)
        # bootstrap delta = 0.75, so suspicion at 0 + 0.25 + 0.75 = 1.0.
        sim.run_until(0.999)
        assert monitor.trusted
        sim.run_until(1.001)
        assert not monitor.trusted
        assert events.log == [("trust", 7), ("suspect", 7)]

    def test_steady_heartbeats_keep_trust(self, sim, events):
        monitor = make_monitor(sim, events)
        for i in range(40):
            sim.schedule_at(
                i * 0.25,
                lambda i=i: monitor.on_alive(i, sim.now, 0.25),
            )
        sim.run_until(10.0)
        assert monitor.trusted
        assert events.log == [("trust", 7)]
        assert monitor.suspicions == 0

    def test_silence_triggers_suspicion_then_alive_restores(self, sim, events):
        monitor = make_monitor(sim, events)
        monitor.on_alive(0, 0.0, 0.25)
        sim.run_until(5.0)
        assert not monitor.trusted
        monitor.on_alive(1, 5.0, 0.25)
        assert monitor.trusted
        assert events.log == [("trust", 7), ("suspect", 7), ("trust", 7)]
        assert monitor.suspicions == 1

    def test_stale_alive_does_not_restore_trust(self, sim, events):
        """NFD-S: a heartbeat whose freshness interval already passed must
        not resurrect trust."""
        monitor = make_monitor(sim, events)
        monitor.on_alive(0, 0.0, 0.25)
        sim.run_until(5.0)
        monitor.on_alive(1, 0.25, 0.25)  # sent long ago, just arrived
        assert not monitor.trusted

    def test_detection_time_bounded_by_eta_plus_delta(self, sim, events):
        monitor = make_monitor(sim, events)
        # Sender crashes right after this heartbeat.
        monitor.on_alive(0, 0.0, 0.25)
        sim.run_until(10.0)
        # Suspicion lands at t=1.0 (δ0=0.75 + η=0.25).
        assert not monitor.trusted
        assert events.log[-1] == ("suspect", 7)

    def test_stop_disarms(self, sim, events):
        monitor = make_monitor(sim, events)
        monitor.on_alive(0, 0.0, 0.25)
        monitor.stop()
        sim.run_until(10.0)
        assert events.log == [("trust", 7)]  # no suspicion after stop


class TestGrace:
    def test_start_trusted_gives_one_detection_budget(self, sim, events):
        monitor = make_monitor(sim, events, start_trusted=True)
        assert monitor.trusted
        sim.run_until(0.999)
        assert monitor.trusted
        sim.run_until(1.001)
        assert not monitor.trusted

    def test_grant_grace_on_fresh_monitor(self, sim, events):
        monitor = make_monitor(sim, events)
        monitor.grant_grace()
        assert monitor.trusted
        assert events.log == [("trust", 7)]
        sim.run_until(1.001)
        assert not monitor.trusted

    def test_grace_refused_with_firsthand_evidence(self, sim, events):
        monitor = make_monitor(sim, events)
        monitor.on_alive(0, 0.0, 0.25)
        sim.run_until(2.0)  # trusted then suspected: firsthand opinion
        assert not monitor.trusted
        monitor.grant_grace()
        assert not monitor.trusted  # an opinion is not overridden by gossip

    def test_grace_noop_when_already_trusted(self, sim, events):
        monitor = make_monitor(sim, events, start_trusted=True)
        monitor.grant_grace()
        assert events.log == []  # no duplicate trust notification


class TestReconfigure:
    def test_reconfigure_updates_delta_and_eta(self, sim, events):
        monitor = make_monitor(sim, events)
        for i in range(600):
            monitor.on_alive(i, i * 0.25, 0.25)
            sim.run_until((i + 1) * 0.25 - 0.2499)
        sim.run_until(160.0)
        params = monitor.reconfigure()
        assert params.eta == monitor.desired_eta
        assert params.delta == monitor.delta
        # On a clean LAN-ish stream the solver relaxes η beyond bootstrap.
        assert monitor.desired_eta > 0.25
