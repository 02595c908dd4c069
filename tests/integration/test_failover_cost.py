"""A leader change costs each node O(1) full leader recomputes, not O(n).

Counts only, no wall clock: ``OmegaLc.full_recomputes`` summed over every
node, from the crash of the agreed leader until it has rejoined and all n
nodes agree again.  Each survivor rescans when it suspects the dead leader
itself and when the last forward naming it goes (≈ 2), the rejoin moves the
membership version (≈ 1–2): ≈ 4 n in all.  Rescanning on every re-forward
that *ties* the dead leader — n − 2 of them per survivor — made it ≈ n².
"""

import pytest

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig

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
