"""A leader change costs each node O(1) full leader recomputes, not O(n).

Counts only, no wall clock: ``OmegaLc.full_recomputes`` summed over every
node, from the crash of the agreed leader until it has rejoined and all n
nodes agree again.  Each survivor rescans when it suspects the dead leader
itself and when the last forward naming it goes (≈ 2), the rejoin moves the
membership version (≈ 1–2): ≈ 4 n in all.  Rescanning on every re-forward
that *ties* the dead leader — n − 2 of them per survivor — made it ≈ n².

And a lost change cell costs one η, not one ``CELL_REFRESH``: the second
half drops exactly one survivor→survivor change cell of a failover and
times how long the dead leader stays in some survivor's view (the early
round re-sends it, unacknowledged).
"""

from collections import Counter

import pytest

from repro.chaos.transport import ChaosTransport
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.configurator import configure
from repro.fd.qos import LinkEstimate
from repro.net.message import BatchFrame, HelloMessage, RateRequestMessage

GROUP = 1
WARMUP = 6.0
SETTLE = 3.0
DEADLINE = 30.0


def total_recomputes(system):
    return sum(
        host.service.group_runtime(GROUP).algorithm.full_recomputes
        for host in system.hosts
        if host.service is not None
    )


def agreed_leader(system, n_up):
    """The one leader all ``n_up`` daemons hold, or None."""
    views = [
        host.service.leader_of(GROUP) for host in system.hosts if host.service is not None
    ]
    if len(views) != n_up or len(set(views)) != 1:
        return None
    return views[0]


def run_until_agreed(system, n_up, avoiding=None):
    sim = system.sim
    while sim.now < DEADLINE:
        sim.run_until(sim.now + 0.25)
        leader = agreed_leader(system, n_up)
        if leader is not None and leader != avoiding:
            return leader
    raise AssertionError(f"no agreement among {n_up} nodes by t={DEADLINE}")


def failover_recomputes(n, plane):
    config = ExperimentConfig(
        name=f"failover-cost-{plane}-{n}", n_nodes=n, seed=3, node_churn=False,
        duration=DEADLINE, warmup=WARMUP, fd_plane=plane,
    )
    system = build_system(config)
    system.sim.run_until(WARMUP)
    leader = agreed_leader(system, n)
    assert leader is not None
    victim = system.network.node(leader)  # pid == node id in build_system
    victim.crash()
    before = total_recomputes(system)  # the survivors': the victim's daemon is gone
    run_until_agreed(system, n - 1, avoiding=leader)
    victim.recover()
    leader = run_until_agreed(system, n)  # the rebooted daemon counts from zero
    # The rejoin's membership record is still spreading (swim gossips it
    # over a few periods); its version bumps are part of the bill.
    system.sim.run_until(system.sim.now + SETTLE)
    assert agreed_leader(system, n) == leader
    return total_recomputes(system) - before


@pytest.mark.parametrize("plane", ["all_pairs", "swim"])
def test_failover_recomputes_are_linear_in_group_size(plane):
    small = failover_recomputes(32, plane)
    assert 32 <= small <= 6 * 32
    large = failover_recomputes(64, plane)
    assert large <= 2.6 * small


class DropOneChangeCell(ChaosTransport):
    """Once armed, cuts ``pair`` for exactly the next frame on it whose
    cell differs from the last cell that pair carried."""

    pair = None
    armed = False
    dropped = 0

    def __init__(self, *args):
        super().__init__(*args)
        self._last = {}

    def send(self, message):
        if type(message) is BatchFrame and message.cells:
            key = (message.sender_node, message.dest_node)
            cell = message.cells[0]
            payload = (cell.acc_time, cell.phase, cell.local_leader, cell.local_leader_acc)
            if self.armed and key == self.pair and payload != self._last.get(key):
                self.armed = False
                self.dropped += 1
                self.cut_link(*key)
                super().send(message)
                self.clear_cuts()
                return
            self._last[key] = payload
        super().send(message)


LOSSY_WARMUP = 20.0  # every node has seen a gap by then (1 % of ~1 300 frames)


def lossy_system(seed, **links):
    """12 nodes sending through a :class:`DropOneChangeCell`, warmed up."""

    def wrap(network, sim, rng):
        return DropOneChangeCell(network, sim, rng.stream("chaos.transport"))

    config = ExperimentConfig(
        name="lost-change-cell", n_nodes=12, seed=seed, node_churn=False,
        duration=60.0, warmup=LOSSY_WARMUP, **links,
    )
    system = build_system(config, transport_wrapper=wrap)
    system.sim.run_until(LOSSY_WARMUP)
    leader = agreed_leader(system, 12)
    assert leader is not None
    return system, leader


def repeats(system):
    return sum(
        host.service.group_runtime(GROUP).cells.cells_repeated
        for host in system.hosts
        if host.service is not None
    )


@pytest.mark.parametrize("seed, pair", [(1, (0, 1)), (2, (3, 8)), (3, (10, 2))])
def test_a_lost_change_cell_costs_one_period_not_one_refresh(seed, pair):
    system, leader = lossy_system(seed, link_delay_mean=0.010, link_loss_prob=0.01)
    sim, transport = system.sim, system.transport
    survivors = [host for host in system.hosts if host.service.node.node_id != leader]
    sender, receiver = survivors[pair[0]].service, survivors[pair[1]].service
    assert sender.plane.observed_loss() > 0.001  # it arms the early round
    transport.pair = (sender.node.node_id, receiver.node.node_id)
    transport.armed = True
    detection = system.config.qos.detection_time
    eta = max(host.service.batcher.interval() for host in survivors)
    system.network.node(leader).crash()
    killed = sim.now
    sim.run_until(killed + detection + 2 * eta)
    assert transport.dropped == 1
    stale = [h.service.node.node_id for h in survivors if h.service.leader_of(GROUP) == leader]
    assert stale == []  # the parent waits out the refresh: ≈ 2.05 s


def last_suspicion_to_last_leave(seed, kills):
    """Per leader kill on 12 (10 ms, 1 %) nodes: seconds from the last
    survivor suspecting the dead leader to the last survivor leaving it,
    polled at 1 ms."""
    config = ExperimentConfig(
        name="failover-spans", n_nodes=12, seed=seed, node_churn=False, duration=600.0,
        warmup=LOSSY_WARMUP, link_delay_mean=0.010, link_loss_prob=0.01,
    )
    system = build_system(config)
    sim = system.sim
    sim.run_until(LOSSY_WARMUP)

    def agreed(n_up, deadline):
        while sim.now < deadline:
            leader = agreed_leader(system, n_up)
            if leader is not None:
                return leader
            sim.run_until(sim.now + 0.05)
        raise AssertionError(f"no agreement among {n_up} nodes by t={deadline}")

    spans = []
    for _ in range(kills):
        leader = agreed(12, sim.now + 10.0)
        survivors = [h.service for h in system.hosts if h.service.node.node_id != leader]
        victim = system.network.node(leader)
        victim.crash()
        deadline = sim.now + 10.0
        suspected = None
        while any(service.leader_of(GROUP) == leader for service in survivors):
            assert sim.now < deadline
            sim.run_until(sim.now + 0.001)
            if suspected is None and not any(s.plane.trusted(leader) for s in survivors):
                suspected = sim.now
        spans.append(sim.now - suspected)
        agreed(11, sim.now + 10.0)
        victim.recover()
        agreed(12, sim.now + 10.0)
        sim.run_until(sim.now + LOSSY_WARMUP)  # the rebooted daemon sees loss too
    return spans


def test_the_last_survivor_leaves_a_dead_leader_within_one_early_round_of_suspecting_it():
    # Ω_lc's stage 2 holds every survivor on the dead leader until the last
    # survivor's changed forward reaches it.  That forward is one of ≈ 110
    # change cells per failover: at 1 % loss about two in three failovers
    # lose one, and on exponential-delay links a frame sent before the
    # change can land after it.  A lost cell's repeat now leaves η/8 later,
    # and an overtaken frame cannot re-install the superseded forward.  The
    # parent waited for the sender's next regular tick (uniform in [0, η],
    # η ≈ 0.2 s) or the 1 s refresh: median ≈ 0.14 s.
    spans = sorted(last_suspicion_to_last_leave(seed=1, kills=12))
    assert spans[len(spans) // 2] <= 0.06


def test_on_a_network_that_loses_nothing_nothing_is_sent_twice():
    # Constant-delay, loss-free links: every change is echoed before its
    # echo is overdue, so a failover re-sends nothing.  The byte total was
    # 1 641 470 while the estimator's prior of 1/2 held η at 0.12–0.17 s for
    # the first minute; with no loss seen the estimate is the window's floor
    # from the first reconfiguration, η is the LAN's 0.33 s, and a quiet
    # group whose cells cover every peer sends no empty HELLO: 1 025 188.
    # With a cell acknowledged instead of refreshed every second: 919 038.
    # With one gossip rule on both planes (a cell carries no membership
    # delta, and a join reaches at most 16 id-ring successors): 901 162.
    system, leader = lossy_system(3, link_delay_mean=0.0, link_loss_prob=0.0)
    system.network.node(leader).crash()
    system.sim.run_until(30.0)
    assert agreed_leader(system, 11) not in (None, leader)
    assert repeats(system) == 0
    assert sum(system.network.node(n).meter.bytes_sent for n in range(12)) == 901_162


class RateRequests(ChaosTransport):
    """Counts RATE-REQUESTs per directed node pair."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = Counter()

    def send(self, message):
        if type(message) is RateRequestMessage:
            self.asked[message.sender_node, message.dest_node] += 1
        super().send(message)


def test_on_a_lan_that_loses_nothing_eta_is_the_configurators_answer_for_it():
    # The exponential-delay twin (32 nodes, 25 µs mean, loss-free; boot and
    # one leader kill).  Frames may overtake each other, but a late frame is
    # not a lost one and same-instant flushes are one round: nobody observes
    # loss, nothing is repeated (the parent repeated ≈ 1 % of changed cells
    # here), and every monitor asks once, for the η the configurator gives
    # the estimator's loss floor — not the most pessimistic of 31 priors.
    def wrap(network, sim, rng):
        return RateRequests(network, sim, rng.stream("chaos.transport"))

    config = ExperimentConfig(
        name="loss-free-lan", n_nodes=32, seed=3, node_churn=False, duration=DEADLINE, warmup=6.0
    )
    system = build_system(config, transport_wrapper=wrap)
    sim = system.sim
    sim.run_until(6.0)
    leader = agreed_leader(system, 32)
    assert leader is not None

    def services():
        return [host.service for host in system.hosts if host.service is not None]

    def lan_eta(monitor):
        measured = monitor.estimate()
        floor = LinkEstimate(1.0 / 512.0, measured.delay_mean, measured.delay_std)
        return configure(config.qos, floor).eta

    def holds(asked=1):
        for service in services():
            assert service.plane.observed_loss() == 0.0
            for monitor in service.plane.monitors.values():
                assert monitor.ready
                assert monitor.desired_eta == lan_eta(monitor)
                assert service.batcher.interval() >= monitor.desired_eta
        assert repeats(system) == 0
        assert max(system.transport.asked.values()) == asked

    holds()
    assert len(system.transport.asked) == 32 * 31
    eta = services()[0].batcher.interval()
    assert eta == pytest.approx(0.33 * config.qos.detection_time, rel=0.01)
    system.network.node(leader).crash()
    sim.run_until(12.0)
    assert agreed_leader(system, 31) not in (None, leader)
    holds()
    system.network.node(leader).recover()
    sim.run_until(24.0)
    assert agreed_leader(system, 32) is not None
    # The rebooted daemon is a new one and asks its peers afresh; they have
    # suspected it since they last asked, so they ask it again once it is
    # trusted — even though their answer has not moved.  The parent did not:
    # the rebooted node stayed at the bootstrap η = T_D^U / 4.
    holds(asked=2)


class HelloTimes(ChaosTransport):
    """Notes when each HELLO is handed to the wire."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hellos = []

    def send(self, message):
        if type(message) is HelloMessage:
            self.hellos.append(self.scheduler.now)
        super().send(message)


def test_a_suspicion_rumour_reaches_every_swim_survivor_on_the_flush_it_causes():
    # 50 nodes, loss-free 25 µs links.  The first survivor to time a probe
    # out queues the rumour and flushes; each receiver queues it *before*
    # the suspicion moves its election and flushes in turn, and each holder
    # hands its budgeted batches to its own ring successors — two or three
    # hops.  The parent's flush left without the rumour and every holder
    # spent its budget on ids 0–21: the rest waited for a ping, an ack or a
    # HELLO to bring it, 0.19 s in the median and up to 0.8 s.
    def wrap(network, sim, rng):
        return HelloTimes(network, sim, rng.stream("chaos.transport"))

    config = ExperimentConfig(
        name="rumour-rides-the-flush", n_nodes=50, seed=3, node_churn=False,
        duration=DEADLINE, warmup=WARMUP, fd_plane="swim",
    )
    system = build_system(config, transport_wrapper=wrap)
    sim = system.sim
    sim.run_until(WARMUP)
    leader = agreed_leader(system, 50)
    assert leader is not None
    suspected = {}
    for host in system.hosts:
        plane, node = host.service.plane, host.service.node.node_id
        if node != leader:
            def note(peer, node=node, fan=plane._fan_suspect):
                if peer == leader:
                    suspected.setdefault(node, sim.now)
                fan(peer)
            plane._fan_suspect = note
    system.network.node(leader).crash()
    sim.run_until(sim.now + 5.0)
    assert len(suspected) == 49
    first, last = min(suspected.values()), max(suspected.values())
    assert last - first < 1e-3
    assert not [t for t in system.transport.hellos if first <= t <= last]
    frames = sum(h.service.plane.batches_handed["frame"] for h in system.hosts if h.service)
    assert frames >= 49  # the carrier was the frame fan-out
