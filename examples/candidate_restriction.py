#!/usr/bin/env python
"""Restricting the election to a few candidates (paper §1 and §7).

"The cost of a leader election is typically proportional to the number of
candidates that concurrently compete ... a large group may want to restrict
the election to a small number of candidates (e.g., among t+1 candidates, t
of which may fail)" — and §7 proposes exactly this to scale the service:
passive members just listen to the election's outcome.

This example runs a 12-workstation group twice with Ω_lc (whose ALIVE load
is quadratic in the number of *active* processes): once with every process a
candidate, once with only 3 candidates, and compares measured traffic.  It
then kills candidates one by one to show the group survives t = 2 failures.

Run:  python examples/candidate_restriction.py
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

N_NODES = 12
GROUP = 1
CANDIDATES = (0, 1, 2)  # t+1 = 3 candidates, tolerating t = 2 failures


def build(candidate_pids, seed=31):
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(
        sim, NetworkConfig(n_nodes=N_NODES, default_link=LinkConfig()), rng
    )
    trace = TraceRecorder()
    cache = ConfiguratorCache()
    config = ServiceConfig(algorithm="omega_lc")
    handles = []
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
        app = Application(pid=node_id)
        handle = app.join(GROUP, candidate=node_id in candidate_pids)
        host.add_application(app)
        host.start()
        handles.append(handle)
    return sim, network, handles


def measure_traffic(candidate_pids, seconds=60.0):
    sim, network, handles = build(candidate_pids)
    sim.run_until(30.0)  # warm up, then reset the meters
    for node in network.nodes.values():
        node.meter.bytes_sent = node.meter.bytes_received = 0
    sim.run_until(30.0 + seconds)
    total_kb_s = sum(
        (n.meter.bytes_sent + n.meter.bytes_received) for n in network.nodes.values()
    ) / (seconds * 1000.0)
    leader = handles[-1].leader()
    return total_kb_s, leader


def main():
    print(f"Ω_lc on {N_NODES} workstations, measuring total group traffic\n")
    all_kb, _ = measure_traffic(candidate_pids=set(range(N_NODES)))
    few_kb, leader = measure_traffic(candidate_pids=set(CANDIDATES))
    print(f"  every process a candidate : {all_kb:7.1f} KB/s total")
    print(f"  only 3 candidates         : {few_kb:7.1f} KB/s total")
    print(f"  reduction                 : {all_kb / few_kb:.1f}x")
    # Headers dominate both runs (a changed cell rides only until it is
    # acknowledged), and passive members still gossip: ≈ 1.9x here.
    assert few_kb < all_kb / 1.5

    print(f"\nWith 3 candidates the leader is {leader} and 9 passive listeners follow.")
    print("Now killing candidates one by one (t = 2 failures tolerated):\n")

    sim, network, handles = build(set(CANDIDATES))
    sim.run_until(10.0)
    passive_observer = handles[-1]
    for round_number, victim in enumerate(CANDIDATES[:2], start=1):
        leader_before = passive_observer.leader()
        network.node(victim).crash()
        sim.run_until(sim.now + 5.0)
        leader_after = passive_observer.leader()
        print(
            f"  round {round_number}: killed candidate {victim}; leader "
            f"{leader_before} -> {leader_after}"
        )
        assert leader_after is not None
        assert leader_after in CANDIDATES
    surviving = [c for c in CANDIDATES if network.nodes[c].up]
    final = passive_observer.leader()
    print(f"\nSurviving candidate set: {surviving}; final leader: {final}")
    assert final in surviving
    views = {h.leader() for h in handles if h.app.bound}
    assert views == {final}
    print("All passive listeners agree on the last standing candidate.")


if __name__ == "__main__":
    main()
