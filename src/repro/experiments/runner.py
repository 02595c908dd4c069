"""Build, run and measure one experiment.

The runner assembles the full system the paper deploys on its cluster: a
simulated network with the configured link behaviour, one node per
workstation each running a :class:`~repro.core.api.ServiceHost` with one
application process (pid = node id, as in the paper's single-group setup),
the workstation churn injector, and — for the Figure 7 experiments — one
link churn injector per directed link.  After the run it folds the trace
into the paper's §5 metrics and the usage meters into Figure 6's
per-workstation averages.

Usage meters are reset at the end of the warm-up so CPU/bandwidth numbers
reflect the steady state (the paper measures long steady-state runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.api import Application, ServiceHost
from repro.experiments.scenario import ExperimentConfig
from repro.fd.configurator import ConfiguratorCache
from repro.lease.workload import LeaseWorkload
from repro.metrics.leadership import LeadershipMetrics, analyze_leadership
from repro.metrics.trace import TraceRecorder
from repro.metrics.usage import UsageReport
from repro.net.faults import LinkChurnInjector, NodeChurnInjector
from repro.net.network import Network, NetworkConfig
from repro.runtime.base import Scheduler, Transport
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["ExperimentResult", "run_experiment", "build_system", "System"]

#: Hook signatures for chaos builds (see :func:`build_system`).
TransportWrapper = Callable[[Network, Simulator, RngRegistry], Transport]
NodeSchedulerFactory = Callable[[int, Simulator], Scheduler]


@dataclass
class System:
    """A fully-wired simulated deployment, ready to run."""

    config: ExperimentConfig
    sim: Simulator
    rng: RngRegistry
    network: Network
    trace: TraceRecorder
    hosts: List[ServiceHost]
    apps: List[Application]
    node_injectors: List[NodeChurnInjector]
    link_injectors: List[LinkChurnInjector]
    #: What the daemons actually send through — the bare network, or a
    #: chaos wrapper around it (see ``transport_wrapper`` in build_system).
    transport: Optional[Transport] = None
    #: The scheduler each daemon sees — the shared simulator, or a
    #: per-node drifting clock view in chaos builds.
    node_schedulers: Dict[int, Scheduler] = field(default_factory=dict)
    #: The lease-client population (None unless ``config.n_lease_clients``).
    lease_workload: Optional[LeaseWorkload] = None


@dataclass
class ExperimentResult:
    """Everything the paper reports for one experimental cell."""

    config: ExperimentConfig
    leadership: LeadershipMetrics
    usage: UsageReport
    node_crashes: int
    link_crashes: int
    #: Simulator event count — a cheap proxy for run cost, used in tests.
    events_executed: int
    #: Lease-workload counters (all zero unless ``config.n_lease_clients``).
    lease_grants: int = 0
    lease_releases: int = 0
    lease_losses: int = 0
    lease_transfers: int = 0

    @property
    def availability(self) -> float:
        return self.leadership.availability

    @property
    def mistake_rate(self) -> float:
        return self.leadership.mistake_rate


def build_system(
    config: ExperimentConfig,
    *,
    transport_wrapper: Optional[TransportWrapper] = None,
    node_scheduler_factory: Optional[NodeSchedulerFactory] = None,
) -> System:
    """Wire up the simulated deployment described by ``config``.

    The two hooks exist for the chaos harness (and stay None for the
    paper's experiments):

    * ``transport_wrapper(network, sim, rng)`` — returns the Transport the
      daemons send through (e.g. a fault-injecting
      :class:`~repro.chaos.transport.ChaosTransport` around the network);
    * ``node_scheduler_factory(node_id, sim)`` — returns the Scheduler each
      daemon sees (e.g. a per-node
      :class:`~repro.sim.engine.DriftingScheduler` clock view).
    """
    sim = Simulator()
    rng = RngRegistry(config.seed)
    network = Network(
        sim,
        NetworkConfig(n_nodes=config.n_nodes, default_link=config.link_config()),
        rng,
    )
    transport: Transport = (
        transport_wrapper(network, sim, rng) if transport_wrapper is not None else network
    )
    node_schedulers: Dict[int, Scheduler] = {
        node_id: (
            node_scheduler_factory(node_id, sim)
            if node_scheduler_factory is not None
            else sim
        )
        for node_id in range(config.n_nodes)
    }
    trace = TraceRecorder()
    cache = ConfiguratorCache()
    service_config = config.service_config()
    peer_nodes = tuple(range(config.n_nodes))

    hosts: List[ServiceHost] = []
    apps: List[Application] = []
    start_stream = rng.stream("experiment.start_stagger")
    for node_id in range(config.n_nodes):
        host = ServiceHost(
            scheduler=node_schedulers[node_id],
            transport=transport,
            node=network.node(node_id),
            peer_nodes=peer_nodes,
            config=service_config,
            rng=rng,
            trace=trace,
            configurator_cache=cache,
        )
        app = Application(pid=node_id)
        for group in config.groups:
            app.join(group, candidate=True, qos=config.qos)
        host.add_application(app)
        hosts.append(host)
        apps.append(app)
        # Stagger daemon start-up slightly, as real deployments would.
        sim.schedule(float(start_stream.uniform(0.0, 0.2)), host.start)

    lease_workload: Optional[LeaseWorkload] = None
    if config.n_lease_clients > 0:
        lease_workload = LeaseWorkload(
            hosts,
            rng,
            group=config.group,
            n_clients=config.n_lease_clients,
            transfer_ratio=config.lease_transfer_ratio,
        )
        lease_workload.start()

    node_injectors: List[NodeChurnInjector] = []
    if config.node_churn:
        for node_id in range(config.n_nodes):
            injector = NodeChurnInjector(
                scheduler=sim,
                node=network.node(node_id),
                rng=rng.stream(f"churn.node.{node_id}"),
                mean_uptime=config.node_mttf,
                mean_downtime=config.node_mttr,
            )
            injector.start()
            node_injectors.append(injector)

    link_injectors: List[LinkChurnInjector] = []
    if config.link_mttf is not None:
        for link in network.links():
            injector = LinkChurnInjector(
                scheduler=sim,
                link=link,
                rng=rng.stream(f"churn.link.{link.src}.{link.dst}"),
                mean_uptime=config.link_mttf,
                mean_downtime=config.link_mttr,
            )
            injector.start()
            link_injectors.append(injector)

    return System(
        config=config,
        sim=sim,
        rng=rng,
        network=network,
        trace=trace,
        hosts=hosts,
        apps=apps,
        node_injectors=node_injectors,
        link_injectors=link_injectors,
        transport=transport,
        node_schedulers=node_schedulers,
        lease_workload=lease_workload,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experimental cell and compute its metrics."""
    system = build_system(config)
    sim = system.sim

    # Warm up (group formation, estimator convergence), then reset the usage
    # meters (totals and per-group ledgers) so overhead numbers are
    # steady-state.
    sim.run_until(config.warmup)
    for node in system.network.nodes.values():
        node.meter.reset_counters()

    sim.run_until(config.duration)

    workload = system.lease_workload
    if workload is not None:
        workload.stop()
    leadership = analyze_leadership(
        system.trace.events,
        group=config.group,
        end_time=config.duration,
        measure_from=config.warmup,
    )
    measured = config.measured_duration
    usage = UsageReport.average(
        [node.meter.report(measured) for node in system.network.nodes.values()]
    )
    return ExperimentResult(
        config=config,
        leadership=leadership,
        usage=usage,
        node_crashes=sum(i.crashes_injected for i in system.node_injectors),
        link_crashes=sum(i.crashes_injected for i in system.link_injectors),
        events_executed=sim.events_executed,
        lease_grants=workload.grants if workload is not None else 0,
        lease_releases=workload.releases if workload is not None else 0,
        lease_losses=workload.losses if workload is not None else 0,
        lease_transfers=workload.transfers if workload is not None else 0,
    )
