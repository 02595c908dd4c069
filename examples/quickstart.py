#!/usr/bin/env python
"""Quickstart: elect a leader, crash it, watch the service recover.

Builds a five-workstation deployment of the leader election service (the
paper's architecture: one daemon per node, one application process each),
elects a leader with the Ω_lc algorithm (service S2), then kills the
leader's workstation and prints the recovery timeline.

Run:  python examples/quickstart.py
"""

from repro import (
    Application,
    FDQoS,
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

N_NODES = 5
GROUP = 1


def build_cluster(algorithm="omega_lc", seed=42):
    """Wire up a small LAN deployment and return its moving parts."""
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, NetworkConfig(n_nodes=N_NODES, default_link=LinkConfig()), rng)
    trace = TraceRecorder()
    cache = ConfiguratorCache()
    config = ServiceConfig(algorithm=algorithm, default_qos=FDQoS(detection_time=1.0))

    hosts, apps = [], []
    for node_id in range(N_NODES):
        host = ServiceHost(
            scheduler=sim,
            transport=network,
            node=network.node(node_id),
            peer_nodes=tuple(range(N_NODES)),
            config=config,
            rng=rng,
            trace=trace,
            configurator_cache=cache,
        )
        app = Application(pid=node_id, name=f"worker-{node_id}")
        # join() returns a first-class handle for the group; subscribe to
        # interrupt-style notifications through it.
        handle = app.join(GROUP, candidate=True)
        handle.watch_leader(
            lambda g, leader, pid=node_id: print(
                f"  [{sim.now:8.3f}s] worker-{pid}: leader of group {g} -> {leader}"
            )
        )
        host.add_application(app)
        host.start()
        hosts.append(host)
        apps.append(app)
    return sim, network, hosts, apps


def main():
    print(f"Starting {N_NODES} workstations running the leader election service (Ω_lc)")
    sim, network, hosts, apps = build_cluster()

    print("\n--- group formation ---")
    sim.run_until(3.0)
    leader = apps[1].group(GROUP).leader()
    print(f"\nAt t={sim.now:.1f}s every process agrees: leader = worker-{leader}")

    print(f"\n--- crashing the leader's workstation (node {leader}) at t=10s ---")
    sim.schedule_at(10.0, lambda: network.node(leader).crash())
    sim.run_until(15.0)

    survivors = [a for a in apps if a.pid != leader]
    new_leader = survivors[0].group(GROUP).leader()
    print(f"\nAt t={sim.now:.1f}s the group recovered: new leader = worker-{new_leader}")
    assert all(a.group(GROUP).leader() == new_leader for a in survivors)

    print("\n--- old leader's workstation recovers at t=20s ---")
    sim.schedule_at(20.0, lambda: network.node(leader).recover())
    sim.run_until(30.0)
    final = {a.group(GROUP).leader() for a in apps}
    print(
        f"\nAt t={sim.now:.1f}s: leader is still worker-{final.pop()} — "
        "the rejoined process did NOT demote the incumbent (stability!)"
    )


if __name__ == "__main__":
    main()
