"""The :class:`~repro.runtime.base.FdPlane` contract, on both planes.

Everything above the plane — the service, the group runtimes, the frame
batcher — is written against this contract only, so whatever it promises
must hold for :class:`NodeFdPlane` (frame headers are heartbeats) and
:class:`SwimFdPlane` (a probe ring is) alike.  Evidence is fed the one way
both planes share: received frames.  Nobody answers the swim plane's
probes here, so on either plane a peer stays trusted exactly as long as
its frames keep coming.
"""

import pytest

from repro.fd.configurator import ConfiguratorCache
from repro.fd.monitor import NfdsMonitor
from repro.fd.nfde import NfdeMonitor
from repro.fd.plane import NodeFdPlane
from repro.fd.qos import FDQoS
from repro.fd.swim import SwimFdPlane
from repro.net.message import (
    BatchFrame,
    SwimAckMessage,
    SwimPingMessage,
    SwimPingReqMessage,
    SwimUpdate,
)
from repro.runtime.base import FdPlane, Transport

PEER = 7


class Wire:
    """Swallows what the plane sends (the swim plane's probes)."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def send_batch(self, messages):
        self.sent.extend(messages)


class Batcher:
    """The frame batcher as a plane sees it, logging what it is asked;
    ``acks`` are the cell echoes it holds per peer."""

    def __init__(self, log, acks=()):
        self.log, self.acks = log, dict(acks)

    def flush(self):
        self.log.append("flushed")

    def on_carrier(self, node, ack, departure):
        self.log.append(("carried", node, ack, departure))


class Listener:
    def __init__(self, name, log):
        self.name, self.log = name, log

    def on_node_trust(self, node):
        self.log.append((self.name, "trust", node))

    def on_node_suspect(self, node):
        self.log.append((self.name, "suspect", node))


@pytest.fixture(params=["all_pairs", "swim"])
def plane(request, sim, rng):
    shared = dict(scheduler=sim, node_id=0, cache=ConfiguratorCache())
    if request.param == "swim":
        return SwimFdPlane(transport=Wire(), rng=rng.stream("swim"), **shared)
    return NodeFdPlane(monitor_class=NfdsMonitor, **shared)


def frame(node, seq, now):
    return BatchFrame(sender_node=node, dest_node=0, seq=seq, send_time=now, interval=0.25)


def feed(plane, sim, node, seconds, every=0.1):
    """``node``'s frames keep arriving for ``seconds``."""
    until = sim.now + seconds
    seq = 0
    while sim.now < until:
        plane.observe_frame(frame(node, seq, sim.now))
        seq += 1
        sim.run_until(sim.now + every)


def watch(plane, log=None, group=1, node=PEER, name="a"):
    log = [] if log is None else log
    plane.register_interest(group, node, FDQoS(), Listener(name, log))
    return log


def test_satisfies_the_protocol(plane):
    assert isinstance(plane, FdPlane)
    assert isinstance(Wire(), Transport)


def test_a_peer_is_born_untrusted(plane, sim):
    log = watch(plane)
    monitor = plane.ensure_monitor(PEER)
    assert monitor is plane.monitors[PEER] and not monitor.trusted
    assert not plane.trusted(PEER) and plane.trusted_for(PEER, sim.now) == 0.0
    assert plane.ensure_monitor(PEER + 1) is None  # nobody cares about it
    assert plane.ensure_monitor(0) is None and plane.trusted(0)  # itself
    assert log == []


def test_grace_trusts_a_peer_nothing_is_known_about(plane):
    log = watch(plane)
    plane.grant_grace(PEER)
    assert plane.trusted(PEER) and log == [("a", "trust", PEER)]
    plane.grant_grace(PEER)  # already trusted: nothing to add
    assert log == [("a", "trust", PEER)]


def test_grace_is_ignored_once_first_hand_evidence_exists(plane, sim):
    log = watch(plane)
    feed(plane, sim, PEER, 1.0)
    assert plane.trusted(PEER)
    sim.run_until(sim.now + 10.0)  # the frames stopped
    assert not plane.trusted(PEER)
    assert log == [("a", "trust", PEER), ("a", "suspect", PEER)]
    plane.grant_grace(PEER)
    assert not plane.trusted(PEER) and len(log) == 2


def test_trusted_for_measures_continuous_trust(plane, sim):
    watch(plane)
    sim.run_until(2.0)
    assert plane.trusted_for(0, sim.now) == sim.now  # as old as the plane
    assert plane.trusted_for(PEER, sim.now) == 0.0
    feed(plane, sim, PEER, 1.0)
    first = plane.trusted_for(PEER, sim.now)
    assert first == pytest.approx(1.0, abs=0.15)
    feed(plane, sim, PEER, 2.0)
    assert plane.trusted_for(PEER, sim.now) == pytest.approx(first + 2.0, abs=0.15)
    sim.run_until(sim.now + 10.0)  # suspected ...
    assert plane.trusted_for(PEER, sim.now) == 0.0
    feed(plane, sim, PEER, 0.5)  # ... and re-trusted: the clock restarts
    assert 0.0 < plane.trusted_for(PEER, sim.now) < 1.0


def test_an_nfde_peer_re_trusted_after_suspicion_is_trusted_afresh(sim):
    """NFD-E stamps its trust transitions too: the lease quorum's trust-age
    guard reads them on either monitor variant."""
    plane = NodeFdPlane(
        monitor_class=NfdeMonitor, scheduler=sim, node_id=0, cache=ConfiguratorCache()
    )
    watch(plane)
    feed(plane, sim, PEER, 3.0)
    assert plane.trusted_for(PEER, sim.now) == pytest.approx(3.0, abs=0.15)
    sim.run_until(sim.now + 10.0)
    assert not plane.trusted(PEER)
    plane.observe_frame(frame(PEER, 0, sim.now))
    assert plane.trusted(PEER)
    assert plane.trusted_for(PEER, sim.now) == pytest.approx(0.0)


def test_the_last_unregister_drops_the_peer(plane, sim):
    watch(plane, group=1)
    watch(plane, group=2)
    feed(plane, sim, PEER, 0.5)
    assert not plane.unregister_interest(3, PEER)  # never subscribed
    assert not plane.unregister_interest(1, PEER)
    assert plane.trusted(PEER)
    assert plane.unregister_interest(2, PEER)
    assert PEER not in plane.monitors and not plane.trusted(PEER)
    assert plane.ensure_monitor(PEER) is None
    assert not plane.unregister_interest(2, PEER)


def test_transitions_fan_out_in_registration_order(plane, sim):
    log = []
    for name, group in (("first", 5), ("second", 2), ("third", 9)):
        watch(plane, log, group=group, name=name)
    feed(plane, sim, PEER, 0.5)
    sim.run_until(sim.now + 10.0)
    names = ["first", "second", "third"]
    assert log == [(n, "trust", PEER) for n in names] + [(n, "suspect", PEER) for n in names]


def test_every_call_is_inert_after_shutdown(plane, sim):
    log = watch(plane)
    feed(plane, sim, PEER, 0.5)
    sent = len(plane.transport.sent) if hasattr(plane, "transport") else 0
    del log[:]
    plane.shutdown()
    plane.shutdown()  # idempotent
    watch(plane, log, group=2)
    watch(plane, log, node=PEER + 1)
    assert plane.ensure_monitor(PEER) is None and plane.monitors == {}
    feed(plane, sim, PEER, 0.5)
    plane.grant_grace(PEER)
    plane.apply_updates((SwimUpdate(PEER, 1, "suspect"),))
    assert not plane.trusted(PEER) and plane.trusted_for(PEER, sim.now) == 0.0
    assert not plane.unregister_interest(1, PEER)
    assert list(plane.reconfigure_ready()) == []
    assert not plane.has_rumours() and plane.piggyback() == ()
    plane.forget_node(PEER)
    sim.run_until(sim.now + 10.0)
    assert log == []
    if hasattr(plane, "transport"):
        assert len(plane.transport.sent) == sent  # the probe ring stopped


def test_no_loss_is_observed_until_a_gap_is_seen(plane, sim):
    watch(plane)
    assert plane.observed_loss() == 0.0  # nothing heard yet
    feed(plane, sim, PEER, 2.0)
    assert plane.observed_loss() == 0.0  # exactly: a gap-free stream


def test_all_pairs_pools_the_observed_loss_over_its_streams(sim):
    plane = NodeFdPlane(
        scheduler=sim, node_id=0, monitor_class=NfdsMonitor, cache=ConfiguratorCache()
    )
    for node in (PEER, PEER + 1):
        watch(plane, node=node)
    for seq in range(50):
        plane.observe_frame(frame(PEER, seq, sim.now))
    for seq in (0, 2):  # one frame of this young stream went missing
        plane.observe_frame(frame(PEER + 1, seq, sim.now))
    assert 1 / 60 < plane.observed_loss() < 1 / 40  # ≈ 1 lost of 53, not 1 of 3
    assert plane.unregister_interest(1, PEER + 1)  # its history goes with it
    assert plane.observed_loss() == 0.0


def test_the_probing_plane_numbers_no_stream_and_reports_no_loss(sim, rng):
    plane = SwimFdPlane(
        scheduler=sim, transport=Wire(), node_id=0, rng=rng.stream("swim"),
        cache=ConfiguratorCache(),
    )
    watch(plane)
    for seq in (0, 5, 9):
        plane.observe_frame(frame(PEER, seq, sim.now))
    assert plane.observed_loss() == 0.0


def test_a_plane_fed_by_headers_disseminates_nothing(sim):
    plane = NodeFdPlane(
        scheduler=sim, node_id=0, monitor_class=NfdsMonitor, cache=ConfiguratorCache()
    )
    log = watch(plane)
    feed(plane, sim, PEER, 0.5)
    assert plane.header_is_liveness
    assert plane.message_handlers() == {}
    plane.apply_updates((SwimUpdate(PEER, 1, "suspect"),))
    plane.set_batcher(Batcher(log, {PEER: 3}))
    assert plane.trusted(PEER) and log == [("a", "trust", PEER)]
    assert plane.has_rumours() is False and plane.piggyback() == ()


def test_a_probing_plane_names_the_messages_it_consumes(sim, rng):
    plane = SwimFdPlane(
        scheduler=sim, transport=Wire(), node_id=0, rng=rng.stream("swim"),
        cache=ConfiguratorCache(),
    )
    assert not plane.header_is_liveness
    assert set(plane.message_handlers()) == {
        SwimPingMessage, SwimPingReqMessage, SwimAckMessage,
    }
    watch(plane)
    feed(plane, sim, PEER, 0.5)
    rumour = SwimUpdate(PEER, 1, "suspect")
    plane.apply_updates((rumour,))
    assert not plane.trusted(PEER)
    assert plane.has_rumours() and plane.piggyback() == (rumour,)


def test_a_probing_plane_trades_cell_echoes_on_its_probes(sim, rng):
    # A frame back may be a long way off on this plane: the batcher's echo
    # for a peer rides the next ping or answer to it, once, and every one
    # received hands its echo (or the lack of one) and departure back.
    wire = Wire()
    plane = SwimFdPlane(
        scheduler=sim, transport=wire, node_id=0, rng=rng.stream("swim"),
        cache=ConfiguratorCache(),
    )
    log = watch(plane)
    batcher = Batcher(log, {PEER: 4})
    plane.set_batcher(batcher)
    plane.on_ping(SwimPingMessage(PEER, 0, nonce=1, origin=PEER, send_time=2.0, ack=3))
    plane.on_ping(SwimPingMessage(PEER, 0, nonce=2, origin=PEER, send_time=2.5))
    assert [(type(m), m.ack) for m in wire.sent] == [(SwimAckMessage, 4), (SwimAckMessage, None)]
    assert batcher.acks == {}  # taken: the next frame does not carry it again
    batcher.acks[PEER] = 5
    sim.run_until(5.0)  # the probe ring reaches the peer
    assert [m.ack for m in wire.sent if type(m) is SwimPingMessage][:1] == [5]
    # An answer left when our probe arrived: no earlier than the probe did.
    plane.on_ack(SwimAckMessage(PEER, 0, nonce=9, echo_send_time=1.5, ack=6))
    assert [entry for entry in log if entry[0] == "carried"] == [
        ("carried", PEER, 3, 2.0), ("carried", PEER, None, 2.5), ("carried", PEER, 6, 1.5),
    ]
