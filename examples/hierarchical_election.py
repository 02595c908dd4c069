#!/usr/bin/env python
"""Hierarchical elections over dynamic groups (the paper's §7 design).

The paper sketches how to scale the service to very large networks: "arrange
for hierarchical elections ... the groups semantics can be used to elect a
leader at each level of the election hierarchy by mapping groups to levels
(group of local leaders, group of regional leaders, etc.)".

This example builds exactly that, with the already-supported primitives:

* 9 workstations in 3 regions; each region elects a *regional leader* in its
  own group (Ω_l — cheap, only the leader speaks);
* whoever leads a region joins the *top-level* group as a candidate, and
  leaves it when demoted — dynamic membership driven by leader-change
  interrupts;
* the top-level group elects the *global leader* among the regional leaders.

Crash a region's leader and watch both levels re-elect.

Run:  python examples/hierarchical_election.py
"""

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
from repro.fd.configurator import ConfiguratorCache
from repro.metrics.trace import TraceRecorder

REGIONS = {0: [0, 1, 2], 1: [3, 4, 5], 2: [6, 7, 8]}
TOP_GROUP = 100


def region_group(region: int) -> int:
    return 10 + region


def region_of(node_id: int) -> int:
    return node_id // 3


class HierarchyCoordinator:
    """Per-node glue: promotes/demotes this node in the top-level group."""

    def __init__(self, sim, app: Application):
        self.sim = sim
        self.app = app
        self.in_top = False

    def on_regional_change(self, group: int, leader):
        my_pid = self.app.pid
        should_be_in_top = leader == my_pid
        if should_be_in_top and not self.in_top:
            self.in_top = True
            self.app.join(TOP_GROUP, candidate=True)
            print(
                f"  [{self.sim.now:8.3f}s] node {my_pid}: became leader of "
                f"region {region_of(my_pid)}, joining top-level group"
            )
        elif not should_be_in_top and self.in_top:
            self.in_top = False
            if self.app.bound:
                self.app.group(TOP_GROUP).leave()
            print(
                f"  [{self.sim.now:8.3f}s] node {my_pid}: no longer regional "
                "leader, leaving top-level group"
            )


def build(seed=21):
    sim = Simulator()
    rng = RngRegistry(seed)
    n = sum(len(nodes) for nodes in REGIONS.values())
    network = Network(sim, NetworkConfig(n_nodes=n, default_link=LinkConfig()), rng)
    trace = TraceRecorder()
    cache = ConfiguratorCache()
    config = ServiceConfig(algorithm="omega_l")
    apps = []
    for node_id in range(n):
        host = ServiceHost(
            scheduler=sim,
            transport=network,
            node=network.node(node_id),
            peer_nodes=tuple(range(n)),
            config=config,
            rng=rng,
            trace=trace,
            configurator_cache=cache,
        )
        app = Application(pid=node_id)
        coordinator = HierarchyCoordinator(sim, app)
        handle = app.join(region_group(region_of(node_id)), candidate=True)
        handle.watch_leader(coordinator.on_regional_change)
        host.add_application(app)
        host.start()
        apps.append(app)
    return sim, network, apps


def show_state(sim, apps):
    print(f"\nState at t={sim.now:.1f}s:")
    for region, nodes in REGIONS.items():
        views = {
            apps[n].group(region_group(region)).leader() for n in nodes if apps[n].bound
        }
        views.discard(None)
        print(f"  region {region}: leader = {sorted(views)}")
    top_views = {
        apps[n].group(TOP_GROUP).leader()
        for n in range(len(apps))
        if apps[n].bound and TOP_GROUP in apps[n].joined_groups
    }
    top_views.discard(None)
    print(f"  top level: global leader = {sorted(top_views)}")
    return top_views


def main():
    print("Hierarchical election: 3 regions x 3 nodes, Ω_l at both levels\n")
    sim, network, apps = build()
    sim.run_until(5.0)
    top = show_state(sim, apps)
    assert len(top) == 1
    global_leader = top.pop()

    print(f"\n--- crashing the global leader (node {global_leader}) at t=10s ---")
    sim.schedule_at(10.0, lambda: network.node(global_leader).crash())
    sim.run_until(20.0)
    top = show_state(sim, apps)
    assert len(top) == 1
    new_global = top.pop()
    assert new_global != global_leader
    print(
        f"\nBoth levels re-elected: region {region_of(global_leader)} chose a new "
        f"regional leader, and the top level now follows node {new_global}."
    )

    print(f"\n--- node {global_leader} recovers at t=25s ---")
    sim.schedule_at(25.0, lambda: network.node(global_leader).recover())
    sim.run_until(40.0)
    top = show_state(sim, apps)
    assert top == {new_global}, "stability: the rejoiner must not take over"
    print("\nThe recovered node rejoined its region as a follower — no demotions.")


if __name__ == "__main__":
    main()
