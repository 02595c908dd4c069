"""End-to-end: the two leader-notification modes of the paper's API (§4).

A process chooses at join time how it learns about the leader: "by an
interrupt from the service, whenever the leader of g changes, or by querying
the service, whenever p wants to do so."  Both must expose the same
information.
"""

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig


def build(seed=5):
    config = ExperimentConfig(
        name="notify",
        algorithm="omega_lc",
        n_nodes=4,
        duration=120.0,
        warmup=10.0,
        seed=seed,
        node_churn=False,
    )
    return config, build_system(config)


class TestNotificationModes:
    def test_interrupts_track_queries(self):
        config, system = build()
        sim = system.sim
        sim.run_until(1.0)
        interrupts = []
        service = system.hosts[0].service
        service.register(50)
        service.join(
            50,
            group=9,
            candidate=False,
            on_leader_change=lambda g, leader: interrupts.append((sim.now, leader)),
        )
        # Other nodes populate group 9 as candidates.
        for host in system.hosts[1:]:
            node_id = host.node.node_id
            host.service.register(50 + node_id)
            host.service.join(50 + node_id, group=9, candidate=True)
        sim.run_until(30.0)
        # The query view equals the last interrupt delivered.
        assert interrupts, "the listener must have been told about a leader"
        assert service.leader_of(9) == interrupts[-1][1]

    def test_interrupt_fires_on_leader_crash(self):
        config, system = build()
        sim = system.sim
        sim.run_until(1.0)
        interrupts = []
        observer_host = system.hosts[0]
        observer = observer_host.service
        observer.register(50)
        observer.join(
            50, group=9, candidate=False,
            on_leader_change=lambda g, leader: interrupts.append(leader),
        )
        for host in system.hosts[1:]:
            node_id = host.node.node_id
            host.service.register(50 + node_id)
            host.service.join(50 + node_id, group=9, candidate=True)
        sim.run_until(30.0)
        leader_pid = observer.leader_of(9)
        leader_node = leader_pid - 50
        system.network.node(leader_node).crash()
        sim.run_until(60.0)
        assert observer.leader_of(9) != leader_pid
        assert interrupts[-1] == observer.leader_of(9)
        # The interrupt stream saw both the old and the new leader.
        assert leader_pid in interrupts

    def test_query_mode_needs_no_callback(self):
        config, system = build()
        sim = system.sim
        sim.run_until(30.0)
        # The experiment apps joined in query mode (no callback): polling
        # works and agrees across nodes.
        views = {app.group(1).leader() for app in system.apps}
        assert len(views) == 1
        assert views.pop() is not None
