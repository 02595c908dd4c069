"""The per-message Python call budget of the heartbeat datapath.

Host time on the all-pairs plane is almost all per-frame work, and the
number of Python calls a delivered frame makes is its deterministic proxy:
a count, not a timing, so it reads the same on a busy box.  Only frames
whose code lives in the ``repro`` package are counted, which keeps the
figure equal across Python versions (interpreter and numpy internals are
not counted).  The datapath this budget guards made 26.1 calls per
received message before the meters became counters and the receive path
lost its hops, 14.5 before a link drew from an active block inline and
pushed its own arrival and a header-only frame came sized, 10.6 while
arrivals waited in a second heap beside the engine's; it makes about 10.5
now.  The same cell over (10 ms, 1 %) links, ``failover_lossy``'s
datapath, adds the loss coin: 16.5 calls while the coin and the delay were
two façade draws, 10.8 as one, about 10.6 with one heap.  A lossy cell
with lease clients guards the other half of the datapath — frames with
cells and ledger segments, loss repair, lease traffic — at about 14.0
calls per received message, down from 20.2 and then 14.3.
"""

import sys
from pathlib import Path

import repro
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig

PACKAGE = str(Path(repro.__file__).resolve().parent) + "/"

#: Calls per received message the heartbeat datapath may make (12-node LAN).
CALL_BUDGET = 11.0

#: Calls per received message on the same cell over (10 ms, 1 %) links.
LOSSY_CALL_BUDGET = 11.0

#: Calls per received message on a lossy cell with 40 lease clients.
LEASE_CALL_BUDGET = 15.0

LAN_CELL = ExperimentConfig(name="call-budget", duration=30.0, warmup=10.0, seed=3)
LOSSY_CELL = LAN_CELL.with_(name="call-budget-lossy", link_delay_mean=0.010, link_loss_prob=0.01)
LEASE_CELL = ExperimentConfig(
    name="call-budget-lease",
    duration=60.0,
    warmup=10.0,
    seed=3,
    link_delay_mean=0.010,
    link_loss_prob=0.01,
    n_lease_clients=40,
    node_churn=False,
)


def calls_per_received_message(
    config: ExperimentConfig = LAN_CELL, start: float = 20.0, stop: float = 25.0
) -> float:
    system = build_system(config)
    system.sim.run_until(start)
    nodes = list(system.network.nodes.values())
    received = -sum(node.meter.messages_received for node in nodes)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        system.sim.run_until(stop)
    finally:
        sys.setprofile(None)
    received += sum(node.meter.messages_received for node in nodes)
    assert received > 1000  # 12 nodes, all pairs, five virtual seconds or more
    return calls[0] / received


def test_a_received_message_stays_inside_the_call_budget():
    assert calls_per_received_message() <= CALL_BUDGET


def test_a_message_on_lossy_links_stays_inside_its_call_budget():
    assert calls_per_received_message(LOSSY_CELL) <= LOSSY_CALL_BUDGET


def test_a_message_on_the_lease_cell_stays_inside_its_call_budget():
    assert calls_per_received_message(LEASE_CELL, 30.0, 40.0) <= LEASE_CALL_BUDGET
