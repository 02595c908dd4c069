"""Tests for the application API and the crash-restarting service host."""

import pytest

from repro.core.api import Application, ServiceHost
from repro.core.commands import CommandError
from repro.core.service import ServiceConfig
from repro.fd.configurator import ConfiguratorCache
from repro.metrics.trace import TraceRecorder
from repro.net.network import Network, NetworkConfig
from repro.sim.rng import RngRegistry


def build_hosts(sim, n=4, algorithm="omega_lc"):
    rng = RngRegistry(9)
    network = Network(sim, NetworkConfig(n_nodes=n), rng)
    trace = TraceRecorder()
    cache = ConfiguratorCache()
    hosts = []
    for node_id in range(n):
        host = ServiceHost(
            scheduler=sim,
            transport=network,
            node=network.node(node_id),
            peer_nodes=tuple(range(n)),
            config=ServiceConfig(algorithm=algorithm),
            rng=rng,
            trace=trace,
            configurator_cache=cache,
        )
        hosts.append(host)
    return network, hosts, trace


def start_group(sim, hosts, group=1):
    apps = []
    for host in hosts:
        app = Application(pid=host.node.node_id)
        app.join(group)
        host.add_application(app)
        host.start()
        apps.append(app)
    return apps


class TestApplication:
    def test_join_before_bind_is_deferred(self, sim):
        network, hosts, _ = build_hosts(sim)
        app = Application(pid=0)
        app.join(1)
        assert app.joined_groups == [1]
        assert not app.bound
        hosts[0].add_application(app)
        hosts[0].start()
        assert app.bound
        assert hosts[0].service.group_runtime(1) is not None

    def test_leader_query(self, sim):
        network, hosts, _ = build_hosts(sim)
        apps = start_group(sim, hosts)
        sim.run_until(5.0)
        leaders = {app.group(1).leader() for app in apps}
        assert len(leaders) == 1
        assert leaders.pop() is not None

    def test_leader_query_unbound_returns_none(self, sim):
        app = Application(pid=0)
        assert app.join(1).leader() is None

    def test_leave_removes_standing_join(self, sim):
        network, hosts, _ = build_hosts(sim)
        apps = start_group(sim, hosts)
        sim.run_until(5.0)
        apps[0].group(1).leave()
        assert apps[0].joined_groups == []
        assert hosts[0].service.group_runtime(1) is None

    def test_duplicate_registration_is_command_error(self, sim):
        network, hosts, _ = build_hosts(sim)
        app = Application(pid=0)
        hosts[0].add_application(app)
        hosts[0].start()
        dup = Application(pid=0)
        with pytest.raises(CommandError):
            hosts[0].add_application(dup)

    def test_rejected_join_does_not_stand(self, sim):
        network, hosts, _ = build_hosts(sim)
        apps = start_group(sim, hosts)
        sim.run_until(5.0)
        second = Application(pid=100)
        hosts[0].add_application(second)
        with pytest.raises(CommandError):
            second.join(1)  # node 0 already serves group 1 for pid 0
        assert second.joined_groups == []
        assert second.group(1) is None
        # The reboot replays only the joins that stood: nothing to reject.
        network.node(0).crash()
        sim.run_until(6.0)
        network.node(0).recover()
        sim.run_until(10.0)
        assert second.bound
        assert hosts[0].service.group_runtime(1).pid == apps[0].pid


class TestServiceHost:
    def test_crash_kills_daemon_and_unbinds_apps(self, sim):
        network, hosts, trace = build_hosts(sim)
        apps = start_group(sim, hosts)
        sim.run_until(5.0)
        network.node(0).crash()
        assert hosts[0].service is None
        assert not apps[0].bound
        assert any(e.kind == "crash" and e.node == 0 for e in trace.events)

    def test_recovery_restarts_daemon_and_rejoins(self, sim):
        network, hosts, trace = build_hosts(sim)
        apps = start_group(sim, hosts)
        sim.run_until(5.0)
        network.node(0).crash()
        sim.run_until(6.0)
        network.node(0).recover()
        sim.run_until(8.0)
        assert hosts[0].service is not None
        assert hosts[0].restarts == 1
        assert apps[0].bound
        # The standing join was replayed: we are a member again.
        assert hosts[0].service.group_runtime(1) is not None
        # And converge back onto the group's leader.
        sim.run_until(12.0)
        assert apps[0].group(1).leader() == apps[1].group(1).leader()

    def test_double_crash_before_restart(self, sim):
        network, hosts, _ = build_hosts(sim)
        start_group(sim, hosts)
        sim.run_until(5.0)
        network.node(0).crash()
        network.node(0).recover()
        network.node(0).crash()  # crashes again before the restart delay
        sim.run_until(10.0)
        assert hosts[0].service is None
        network.node(0).recover()
        sim.run_until(15.0)
        assert hosts[0].service is not None

    def test_rejoining_process_keeps_pid(self, sim):
        """The paper's churn model: the same process identity rejoins after
        recovery (S1's demotion-by-rejoin depends on this)."""
        network, hosts, trace = build_hosts(sim)
        start_group(sim, hosts)
        sim.run_until(5.0)
        network.node(2).crash()
        sim.run_until(6.0)
        network.node(2).recover()
        sim.run_until(10.0)
        joins = [e for e in trace.events if e.kind == "join" and e.pid == 2]
        assert len(joins) == 2  # initial + rejoin, same pid

    def test_incarnation_grows_across_restarts(self, sim):
        network, hosts, _ = build_hosts(sim)
        start_group(sim, hosts)
        sim.run_until(5.0)
        first = hosts[1].service.group_runtime(1).view.record(1).incarnation
        network.node(1).crash()
        sim.run_until(6.0)
        network.node(1).recover()
        sim.run_until(10.0)
        second = hosts[1].service.group_runtime(1).view.record(1).incarnation
        assert second > first


class TestRestartAfterRecoveryRace:
    """Both branches of the ``_restart_after_recovery`` guard, exercised
    directly: the scheduled restart callback races node state."""

    def test_restart_is_a_noop_while_the_node_is_down(self, sim):
        network, hosts, _ = build_hosts(sim)
        start_group(sim, hosts)
        sim.run_until(5.0)
        host = hosts[0]
        network.node(0).crash()
        assert host.service is None
        # The node crashed again before the queued restart fired: the
        # callback must see node.up False and refuse to boot a daemon on
        # a dead node.
        host._restart_after_recovery()
        assert host.service is None
        assert host.restarts == 0

    def test_restart_is_a_noop_when_the_daemon_is_already_up(self, sim):
        network, hosts, _ = build_hosts(sim)
        start_group(sim, hosts)
        sim.run_until(5.0)
        host = hosts[0]
        service = host.service
        assert service is not None
        # crash -> recover -> crash -> recover queues two restart
        # callbacks; the one that fires second must not double-boot.  The
        # direct call models exactly that stale second callback.
        host._restart_after_recovery()
        assert host.service is service  # same daemon, not a reboot
        assert host.restarts == 0

    def test_queued_double_restart_boots_exactly_once(self, sim):
        network, hosts, _ = build_hosts(sim)
        start_group(sim, hosts)
        sim.run_until(5.0)
        node = network.node(0)
        # Two full crash/recover cycles inside one restart-delay window:
        # two callbacks are queued, both eventually fire, one boot happens.
        node.crash()
        node.recover()
        node.crash()
        node.recover()
        sim.run_until(10.0)
        assert hosts[0].service is not None
        assert hosts[0].restarts == 1


class TestGroupHandle:
    def test_join_returns_a_stable_handle(self, sim):
        network, hosts, _ = build_hosts(sim)
        app = Application(pid=0)
        handle = app.join(1)
        assert handle.group == 1
        assert app.join(1) is handle  # re-join hands back the same object
        assert app.group(1) is handle
        assert app.group(2) is None

    def test_handle_leader_matches_query_mode(self, sim):
        network, hosts, _ = build_hosts(sim)
        apps, handles = [], []
        for host in hosts:
            app = Application(pid=host.node.node_id)
            handles.append(app.join(1))
            host.add_application(app)
            host.start()
            apps.append(app)
        sim.run_until(5.0)
        assert handles[0].leader() is not None
        assert handles[0].leader() == hosts[0].service.leader_of(1)

    def test_watch_leader_fires_and_unsubscribes(self, sim):
        network, hosts, _ = build_hosts(sim)
        seen = []
        app = Application(pid=0)
        handle = app.join(1)
        unsubscribe = handle.watch_leader(lambda g, leader: seen.append(leader))
        hosts[0].add_application(app)
        for host in hosts:
            if host.node.node_id != 0:
                host.add_application(Application(pid=host.node.node_id))
                host.start()
        hosts[0].start()
        sim.run_until(5.0)
        assert seen, "watcher never fired"
        assert seen[-1] == handle.leader()
        count = len(seen)
        unsubscribe()
        unsubscribe()  # double-unsubscribe is harmless
        network.node(1).crash()  # force a leader change somewhere
        sim.run_until(15.0)
        assert len(seen) == count

    def test_multiple_watchers_all_fire(self, sim):
        network, hosts, _ = build_hosts(sim)
        first, second = [], []
        app = Application(pid=0)
        handle = app.join(1)
        handle.watch_leader(lambda g, leader: first.append(leader))
        handle.watch_leader(lambda g, leader: second.append(leader))
        hosts[0].add_application(app)
        for host in hosts[1:]:
            host.add_application(Application(pid=host.node.node_id))
        for host in hosts:
            host.start()
        sim.run_until(5.0)
        assert first and first == second

    def test_leave_via_handle_clears_everything(self, sim):
        network, hosts, _ = build_hosts(sim)
        apps = start_group(sim, hosts)
        sim.run_until(5.0)
        handle = apps[0].group(1)
        handle.leave()
        assert apps[0].joined_groups == []
        assert apps[0].group(1) is None
        assert hosts[0].service.group_runtime(1) is None

    def test_leave_closes_every_lease_client_and_drops_watchers(self, sim):
        network, hosts, _ = build_hosts(sim)
        apps = start_group(sim, hosts)
        handle = apps[0].group(1)
        seen = []
        handle.watch_leader(lambda g, leader: seen.append(leader))
        sim.run_until(12.0)  # election + takeover grace
        clients = [handle.lease_client(), handle.lease_client(client_id=500)]
        for client, name in zip(clients, ("a", "b")):
            client.acquire(name, 3.0)
        sim.run_until(sim.now + 5.0)
        assert all(c.grant(n) is not None for c, n in zip(clients, ("a", "b")))
        handle.leave()
        assert all(c.grant(n) is None for c, n in zip(clients, ("a", "b")))
        # The left handle's watcher hears nothing of a later re-join.
        count = len(seen)
        apps[0].join(1)
        sim.run_until(sim.now + 5.0)
        assert len(seen) == count

    def test_lease_client_requires_an_attached_host(self, sim):
        app = Application(pid=0)
        handle = app.join(1)
        with pytest.raises(RuntimeError):
            handle.lease_client()


class TestLeaseOverGroupHandle:
    def test_acquire_hold_release_through_the_public_api(self, sim):
        network, hosts, _ = build_hosts(sim)
        apps = start_group(sim, hosts)
        sim.run_until(12.0)  # election + takeover grace
        lock = apps[0].group(1).lease_client()
        results = []
        lock.acquire("config-writer", 3.0, results.append)
        sim.run_until(sim.now + 5.0)
        assert [r.status for r in results] == ["granted"]
        assert lock.grant("config-writer").token is not None
        assert lock.grant("config-writer").name == "config-writer"

        # A second app contends and is denied while we hold it.
        other = apps[1].group(1).lease_client()
        denied = []
        other.acquire("config-writer", 3.0, denied.append, wait=False)
        sim.run_until(sim.now + 2.0)
        assert [r.status for r in denied] == ["denied"]

        # Release; the contender can now take it with a larger token.
        ours = lock.grant("config-writer").token
        assert lock.release("config-writer") is True
        granted = []
        sim.run_until(sim.now + 1.0)
        other.acquire("config-writer", 3.0, granted.append)
        sim.run_until(sim.now + 3.0)
        assert [r.status for r in granted] == ["granted"]
        assert granted[0].token > ours
