"""The per-message Python call budget of the heartbeat datapath.

Host time on the all-pairs plane is almost all per-frame work, and the
number of Python calls a delivered frame makes is its deterministic proxy:
a count, not a timing, so it reads the same on a busy box.  Only frames
whose code lives in the ``repro`` package are counted, which keeps the
figure equal across Python versions (interpreter and numpy internals are
not counted).  The datapath this budget guards made 26.1 calls per
received message before the meters became counters and the receive path
lost its hops; it makes about 15 now.
"""

import sys
from pathlib import Path

import repro
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig

PACKAGE = str(Path(repro.__file__).resolve().parent) + "/"

#: Calls per received message the datapath may make.
CALL_BUDGET = 16.0


def calls_per_received_message(start: float = 20.0, stop: float = 25.0) -> float:
    config = ExperimentConfig(name="call-budget", duration=30.0, warmup=10.0, seed=3)
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
    assert received > 1000  # 12 nodes, all pairs, five virtual seconds
    return calls[0] / received


def test_a_received_message_stays_inside_the_call_budget():
    assert calls_per_received_message() <= CALL_BUDGET
