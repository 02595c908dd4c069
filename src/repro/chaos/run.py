"""Build and run one scripted chaos scenario in the simulator.

``run_scripted`` is the chaos twin of
:func:`repro.experiments.runner.run_experiment`: it assembles the same
simulated deployment through :func:`~repro.experiments.runner.build_system`,
but with the two chaos hooks engaged — every daemon sees a per-node
:class:`~repro.sim.engine.DriftingScheduler` clock view, and all traffic
flows through a :class:`~repro.chaos.transport.ChaosTransport`.  The §6.1
exponential churn injectors stay off: the script *is* the fault schedule,
which is what makes a run replayable bit-for-bit from its seed.

After the run the trace is folded into an invariant report
(:func:`repro.chaos.invariants.check_invariants`) and hashed into the
replay digest (:func:`repro.metrics.trace.trace_digest`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List

from repro.chaos.controller import ChaosController
from repro.chaos.invariants import (
    InvariantReport,
    check_cross_group_isolation,
    check_invariants,
)
from repro.chaos.script import ChaosScript
from repro.chaos.transport import ChaosTransport
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.metrics.trace import trace_digest
from repro.net.network import Network
from repro.sim.engine import DriftingScheduler, Simulator

__all__ = ["ChaosRunConfig", "ChaosRunResult", "SimFaultPlane", "run_scripted"]


@dataclass(frozen=True)
class ChaosRunConfig:
    """Everything needed to reproduce one chaos run bit-for-bit."""

    script: ChaosScript
    #: The deployment under attack (its name and seed name the run).  Every
    #: hosted group's invariants are checked, plus cross-group isolation;
    #: lease clients feed the ``no-double-grant`` checker.
    system: ExperimentConfig
    #: Seconds an agreed leader must hold to count as stable.
    hold: float = 15.0

    def __post_init__(self) -> None:
        if self.script.heal_time is None:
            raise ValueError("chaos scripts must end with a heal() step")
        if self.script.heal_time >= self.script.duration:
            raise ValueError("the script needs a settle window after its heal()")

    def with_script(self, script: ChaosScript) -> "ChaosRunConfig":
        """A copy running a different script (the shrinker's move)."""
        return replace(self, script=script)

    def experiment_config(self) -> ExperimentConfig:
        """The system build: the script is the whole run and the only fault
        schedule, so no warm-up and no §6.1 churn."""
        return replace(
            self.system, duration=self.script.duration, warmup=0.0, node_churn=False
        )


@dataclass
class ChaosRunResult:
    """One scripted run: the verdicts, plus everything needed to debug it."""

    config: ChaosRunConfig
    report: InvariantReport
    trace_digest: str
    events_executed: int
    chaos_steps_applied: int
    transport_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe record (the fuzz artifact's per-case payload)."""
        system = self.config.system
        return {
            "kind": "chaos-run",
            **{
                name: getattr(system, name)
                for name in (
                    "name", "seed", "n_nodes", "n_groups", "n_lease_clients",
                    "lease_transfer_ratio", "algorithm", "fd_plane",
                )
            },
            "detection_time": system.qos.detection_time,
            "ok": self.ok,
            "report": self.report.to_dict(),
            "trace_digest": self.trace_digest,
            "events_executed": self.events_executed,
            "chaos_steps_applied": self.chaos_steps_applied,
            "transport_stats": dict(self.transport_stats),
            "script": self.config.script.to_dict(),
        }


class SimFaultPlane:
    """Host-level fault injection against the simulated deployment."""

    def __init__(
        self,
        network: Network,
        node_schedulers: Dict[int, DriftingScheduler],
    ) -> None:
        self.network = network
        self.node_schedulers = node_schedulers

    def node_ids(self) -> List[int]:
        return sorted(self.network.nodes)

    def up_node_ids(self) -> List[int]:
        return [
            node_id
            for node_id in sorted(self.network.nodes)
            if self.network.nodes[node_id].up
        ]

    def crash_node(self, node_id: int) -> None:
        self.network.node(node_id).crash()

    def recover_node(self, node_id: int) -> None:
        self.network.node(node_id).recover()

    def set_clock_rate(self, node_id: int, rate: float) -> None:
        self.node_schedulers[node_id].set_rate(rate)

    def resync_clocks(self) -> None:
        for scheduler in self.node_schedulers.values():
            scheduler.resync()


def build_chaos_system(config: ChaosRunConfig) -> tuple:
    """Wire the simulated deployment plus its chaos layer.

    Returns ``(system, controller)``; the controller is not started, so
    tests can inspect or perturb the world first.
    """
    captured: Dict[str, ChaosTransport] = {}

    def wrap_transport(network: Network, sim: Simulator, rng) -> ChaosTransport:
        transport = ChaosTransport(network, sim, rng.stream("chaos.transport"))
        captured["transport"] = transport
        return transport

    def node_scheduler(node_id: int, sim: Simulator) -> DriftingScheduler:
        return DriftingScheduler(sim)

    system = build_system(
        config.experiment_config(),
        transport_wrapper=wrap_transport,
        node_scheduler_factory=node_scheduler,
    )
    plane = SimFaultPlane(system.network, system.node_schedulers)
    controller = ChaosController(
        script=config.script,
        scheduler=system.sim,
        transport=captured["transport"],
        rng=system.rng.stream("chaos.script"),
        plane=plane,
        trace=system.trace,
    )
    return system, controller


def run_scripted(config: ChaosRunConfig) -> ChaosRunResult:
    """Run one scripted scenario and check every invariant.

    Every hosted group is held to the full invariant set (the per-group
    checkers are pure trace folds, so checking 2+ groups costs nothing),
    and multi-group runs additionally check cross-group isolation: a
    ``group_fault`` window must not flip any *other* group's stable
    leader.  Violations of non-primary groups are folded into the primary
    report, tagged with their group id.
    """
    system, controller = build_chaos_system(config)
    controller.start()
    system.sim.run_until(config.script.duration)

    groups = config.system.groups
    reports = {
        group: check_invariants(
            system.trace.events,
            group=group,
            end_time=config.script.duration,
            heal_time=config.script.heal_time,
            qos=config.system.qos,
            hold=config.hold,
        )
        for group in groups
    }
    report = reports[groups[0]]
    for group in groups[1:]:
        for violation in reports[group].violations:
            report.violations.append(
                replace(violation, detail=f"[group {group}] {violation.detail}")
            )
    if len(groups) > 1:
        report.violations.extend(
            check_cross_group_isolation(
                system.trace.events,
                intervals={group: reports[group].intervals for group in groups},
                end_time=config.script.duration,
            )
        )
    report.violations.sort(key=lambda v: (v.time, v.invariant))
    transport = system.transport
    stats = transport.stats if isinstance(transport, ChaosTransport) else None
    return ChaosRunResult(
        config=config,
        report=report,
        trace_digest=trace_digest(system.trace.events),
        events_executed=system.sim.events_executed,
        chaos_steps_applied=controller.steps_applied,
        transport_stats=asdict(stats) if stats is not None else {},
    )
