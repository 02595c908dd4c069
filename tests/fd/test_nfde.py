"""Unit tests for the NFD-E (expected-arrival) monitor extension."""

from repro.fd.configurator import ConfiguratorCache
from repro.fd.nfde import NfdeMonitor
from repro.fd.qos import FDQoS


class Events:
    def __init__(self):
        self.log = []

    def bundle(self):
        return dict(
            on_trust=lambda pid: self.log.append(("trust", pid)),
            on_suspect=lambda pid: self.log.append(("suspect", pid)),
        )


def make_monitor(sim, events):
    return NfdeMonitor(
        scheduler=sim,
        pid=5,
        qos=FDQoS(),
        cache=ConfiguratorCache(),
        **events.bundle(),
    )


class TestNfde:
    def test_steady_stream_keeps_trust_despite_clock_offset(self, sim):
        """NFD-E must work with an arbitrarily skewed sender clock: we lie
        about send times by a constant +1000 s and the monitor must not
        care, because it only regresses on arrival times."""
        events = Events()
        monitor = make_monitor(sim, events)
        skew = 1000.0
        for i in range(40):
            sim.schedule_at(
                i * 0.25, lambda i=i: monitor.on_alive(i, sim.now + skew, 0.25)
            )
        sim.run_until(9.9)
        assert monitor.trusted
        assert monitor.suspicions == 0

    def test_crash_detected_after_silence(self, sim):
        events = Events()
        monitor = make_monitor(sim, events)
        for i in range(10):
            sim.schedule_at(i * 0.25, lambda i=i: monitor.on_alive(i, sim.now, 0.25))
        sim.run_until(30.0)
        assert not monitor.trusted
        # Detection within roughly η + δ of the last heartbeat (2.25 + 1.0).
        assert ("suspect", 5) in events.log

    def test_alive_after_suspicion_restores(self, sim):
        events = Events()
        monitor = make_monitor(sim, events)
        monitor.on_alive(0, 0.0, 0.25)
        sim.run_until(10.0)
        assert not monitor.trusted
        monitor.on_alive(1, 10.0, 0.25)
        assert monitor.trusted

    def test_seq_restart_resets_regression(self, sim):
        events = Events()
        monitor = make_monitor(sim, events)
        for i in range(10):
            monitor.on_alive(i, sim.now, 0.25)
        monitor.on_alive(0, sim.now, 0.25)  # sender rebooted
        assert len(monitor._arrivals) == 1
        assert monitor.trusted
