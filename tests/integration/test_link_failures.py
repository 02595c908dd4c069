"""End-to-end link-crash behaviour: Ω_lc's forwarding vs Ω_l's fragility.

This reproduces, deterministically, the mechanism behind the paper's
Figure 7: when a single directed link from the leader crashes, Ω_lc keeps
the group agreed (forwarding carries the leader around the dead link, at the
price of an accusation-driven demotion), while Ω_l leaves the cut-off
process disagreeing for the whole outage.
"""

import pytest

from repro import (
    Application,
    LinkConfig,
    Network,
    NetworkConfig,
    RngRegistry,
    ServiceConfig,
    ServiceHost,
    Simulator,
)
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.configurator import ConfiguratorCache
from repro.fd.plane import CELL_REFRESH
from repro.metrics.leadership import analyze_leadership
from repro.metrics.trace import TraceRecorder


def build(algorithm, seed=5, duration=90.0):
    config = ExperimentConfig(
        name=f"link-{algorithm}",
        algorithm=algorithm,
        n_nodes=4,
        duration=duration,
        warmup=10.0,
        seed=seed,
        node_churn=False,
    )
    return config, build_system(config)


def cut_link(system, src, dst, at, downtime):
    link = system.network.link(src, dst)
    system.sim.schedule_at(at, lambda: link.set_down(True))
    system.sim.schedule_at(at + downtime, lambda: link.set_down(False))


class TestLeaderOutputLinkCrash:
    """One direction cut: leader -> victim.  The victim still *can* accuse
    the leader, so both algorithms hand leadership off via an accusation
    (a Figure 7 'mistake') within about a detection time."""

    def run_scenario(self, algorithm, downtime=6.0):
        config, system = build(algorithm)
        system.sim.run_until(20.0)
        leader = system.hosts[0].service.leader_of(1)
        victim = next(n for n in range(4) if n != leader)
        cut_link(system, leader, victim, at=25.0, downtime=downtime)
        system.sim.run_until(config.duration)
        metrics = analyze_leadership(
            system.trace.events, 1, config.duration, measure_from=config.warmup
        )
        return leader, victim, metrics

    def test_omega_lc_hands_off_fast(self):
        leader, victim, metrics = self.run_scenario("omega_lc")
        unavailable = (1.0 - metrics.availability) * metrics.duration
        assert unavailable < 1.5
        assert metrics.unjustified_demotions <= 2

    def test_omega_l_hands_off_within_detection_plus_slack(self):
        leader, victim, metrics = self.run_scenario("omega_l")
        unavailable = (1.0 - metrics.availability) * metrics.duration
        assert unavailable < 2.0
        # The handoff is accusation-driven: a (link-caused) demotion.
        assert metrics.unjustified_demotions >= 1


class TestLeaderVictimPartition:
    """Both directions cut: the victim can neither hear the leader nor
    accuse it.  Ω_lc's forwarding keeps the victim following the leader
    through its peers; Ω_l leaves it self-elected for the whole outage —
    the mechanism behind Figure 7's availability gap."""

    def run_scenario(self, algorithm, downtime=6.0):
        config, system = build(algorithm)
        system.sim.run_until(20.0)
        leader = system.hosts[0].service.leader_of(1)
        victim = next(n for n in range(4) if n != leader)
        cut_link(system, leader, victim, at=25.0, downtime=downtime)
        cut_link(system, victim, leader, at=25.0, downtime=downtime)
        system.sim.run_until(config.duration)
        metrics = analyze_leadership(
            system.trace.events, 1, config.duration, measure_from=config.warmup
        )
        return leader, victim, metrics

    def test_omega_lc_forwarding_bridges_the_partition(self):
        leader, victim, metrics = self.run_scenario("omega_lc")
        unavailable = (1.0 - metrics.availability) * metrics.duration
        # The victim keeps following the leader via forwards: no demotion,
        # near-zero unavailability.
        assert metrics.unjustified_demotions == 0
        assert unavailable < 0.5

    def test_omega_l_disagrees_for_the_whole_outage(self):
        leader, victim, metrics = self.run_scenario("omega_l", downtime=6.0)
        unavailable = (1.0 - metrics.availability) * metrics.duration
        # ~6 s outage minus ~1 s detection: several seconds leaderless.
        assert unavailable > 3.0

    def test_omega_lc_beats_omega_l_under_partition(self):
        _, _, lc = self.run_scenario("omega_lc")
        _, _, l = self.run_scenario("omega_l")
        assert lc.availability > l.availability


class TestNonLeaderLinkCrash:
    @pytest.mark.parametrize("algorithm", ["omega_lc", "omega_l"])
    def test_link_between_followers_is_harmless_in_s3(self, algorithm):
        """In Ω_l only the leader sends, so a link between two followers
        carries no ALIVEs and its crash must not disturb anything.  In Ω_lc
        it triggers an accusation against a follower — also harmless for
        leadership."""
        config, system = build(algorithm)
        system.sim.run_until(20.0)
        leader = system.hosts[0].service.leader_of(1)
        followers = [n for n in range(4) if n != leader]
        cut_link(system, followers[0], followers[1], at=25.0, downtime=6.0)
        system.sim.run_until(config.duration)
        metrics = analyze_leadership(
            system.trace.events, 1, config.duration, measure_from=config.warmup
        )
        unavailable = (1.0 - metrics.availability) * metrics.duration
        assert unavailable < 0.5


class TestTotalLeaderIsolation:
    def test_omega_lc_replaces_fully_disconnected_leader(self):
        """All output links of the leader crash: nobody hears it, everyone
        must agree on a replacement within roughly the detection bound."""
        config, system = build("omega_lc")
        system.sim.run_until(20.0)
        leader = system.hosts[0].service.leader_of(1)
        for dst in range(4):
            if dst != leader:
                cut_link(system, leader, dst, at=25.0, downtime=30.0)
        system.sim.run_until(60.0)
        views = {
            h.service.leader_of(1)
            for h in system.hosts
            if h.node.node_id != leader
        }
        assert len(views) == 1
        assert views.pop() != leader


class TestABumpAcrossACrashedLink:
    """Leader → victim down, victim → leader up: the victim's accusation
    reaches the leader, whose bumped cell dies on the crashed link.  It stays
    owed until the victim echoes it, so the first frame after the heal
    carries it — the victim does not go on ranking the leader on the
    accusation time it held before the outage until a refresh is due."""

    def test_the_first_frame_after_the_heal_carries_the_bump(self):
        config, system = build("omega_lc")
        sim = system.sim
        sim.run_until(20.0)
        leader = system.hosts[0].service.leader_of(1)
        victim = next(n for n in range(4) if n != leader)
        # Healed between two frames, neither of them a 1 s refresh's.
        cut_link(system, leader, victim, at=25.0, downtime=4.9)
        sim.run_until(29.9)  # the heal
        led = system.hosts[leader].service.group_runtime(1)
        seen = system.hosts[victim].service.group_runtime(1).algorithm
        assert seen._info[leader][0] < led.algorithm.acc_time  # the bump died on the link
        monitor = system.hosts[victim].service.plane.monitors[leader]
        heard = monitor.alives_received
        while monitor.alives_received == heard:
            sim.run_until(sim.now + 0.001)
        assert seen._info[leader] == (led.algorithm.acc_time, led.algorithm.phase)
        assert sim.now < led.cells.cell_state[victim][1] + CELL_REFRESH


class TestPassiveListenersUnderLoss:
    """A passive listener's node sends no frames, so it echoes nothing: on
    lossy links a new leader's cell must still reach it by blind re-sends,
    not only by the refresh (which would leave it naming a dead leader for
    up to ``CELL_REFRESH``)."""

    CANDIDATES = (0, 1, 2)

    def build(self, seed, n_nodes=8):
        sim, rng = Simulator(), RngRegistry(seed)
        link = LinkConfig(delay_mean=0.005, loss_prob=0.05)
        network = Network(sim, NetworkConfig(n_nodes=n_nodes, default_link=link), rng)
        trace, cache = TraceRecorder(), ConfiguratorCache()
        handles = []
        for node in range(n_nodes):
            host = ServiceHost(
                scheduler=sim, transport=network, node=network.node(node),
                peer_nodes=tuple(range(n_nodes)), config=ServiceConfig(algorithm="omega_lc"),
                rng=rng, trace=trace, configurator_cache=cache,
            )
            app = Application(pid=node)
            handles.append(app.join(1, candidate=node in self.CANDIDATES))
            host.add_application(app)
            host.start()
        return sim, network, handles

    def test_they_follow_a_new_leader_well_inside_the_refresh(self):
        lags = []
        for seed in (1, 2, 3, 4):
            sim, network, handles = self.build(seed)
            sim.run_until(20.0)
            for _ in range(2):  # kill the leader twice
                alive = [c for c in self.CANDIDATES if network.nodes[c].up]
                network.node(handles[alive[0]].leader()).crash()
                alive = [c for c in alive if network.nodes[c].up]
                while len({handles[c].leader() for c in alive} - {None}) != 1 or any(
                    handles[c].leader() not in alive for c in alive
                ):
                    sim.run_until(sim.now + 0.005)
                agreed, leader = sim.now, handles[alive[0]].leader()
                waiting = set(range(len(self.CANDIDATES), len(handles)))
                while waiting and sim.now < agreed + CELL_REFRESH:
                    waiting -= {p for p in waiting if handles[p].leader() == leader}
                    lags.append(sim.now - agreed)
                    sim.run_until(sim.now + 0.005)
                assert not waiting
                sim.run_until(sim.now + 3.0)
        assert max(lags) < 1.0
