#!/usr/bin/env python
"""Trading detection speed against cost with the FD QoS knob (paper §6.6).

The application controls the leader election QoS through the underlying
failure detector's QoS triple — most importantly T_D^U, the bound on crash
detection time.  The paper's Figure 8 shows that the leader recovery time
tracks T_D^U almost proportionally, while its §6.6 footnote shows the cost
of a tight bound (at T_D^U = 0.1 s, S2's traffic grows ~10x).

This example sweeps T_D^U for Ω_l on a small LAN group, kills the leader
once per setting, and prints recovery time and steady-state traffic.

Run:  python examples/qos_tuning.py
"""

from repro import FDQoS
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.metrics.leadership import analyze_leadership


def run_one(detection_time: float, seed: int = 17):
    config = ExperimentConfig(
        name=f"qos-{detection_time}",
        algorithm="omega_l",
        n_nodes=6,
        duration=90.0,
        warmup=20.0,
        seed=seed,
        node_churn=False,
        qos=FDQoS(detection_time=detection_time),
    )
    system = build_system(config)
    sim = system.sim
    sim.run_until(30.0)
    for node in system.network.nodes.values():
        node.meter.bytes_sent = node.meter.bytes_received = 0
    leader = system.hosts[0].service.leader_of(1)
    sim.schedule_at(60.0, lambda: system.network.node(leader).crash())
    sim.run_until(config.duration)
    metrics = analyze_leadership(
        system.trace.events, 1, config.duration, measure_from=config.warmup
    )
    recovery = metrics.recovery_samples[0].duration if metrics.recovery_samples else None
    kb_s = sum(
        n.meter.bytes_sent + n.meter.bytes_received
        for n in system.network.nodes.values()
    ) / ((config.duration - 30.0) * 1000.0)
    return recovery, kb_s


def main():
    print("Sweeping the FD detection bound T_D^U for Ω_l (6 nodes, LAN):\n")
    print(f"{'T_D^U (s)':>10} | {'leader recovery (s)':>20} | {'group traffic (KB/s)':>21}")
    print("-" * 58)
    for t_d in (1.0, 0.75, 0.5, 0.25, 0.1):
        recovery, kb_s = run_one(t_d)
        recovery_text = f"{recovery:.3f}" if recovery is not None else "n/a"
        print(f"{t_d:>10.2f} | {recovery_text:>20} | {kb_s:>21.1f}")
        if recovery is not None:
            assert recovery < 2.5 * t_d, "recovery must track the detection bound"
    print(
        "\nAs in the paper's Figure 8: recovery time tracks T_D^U nearly "
        "proportionally,\nand (as in their §6.6 footnote) tighter bounds cost "
        "proportionally more traffic."
    )


if __name__ == "__main__":
    main()
