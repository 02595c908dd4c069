"""The four simulator workloads.

Every workload has the same three-part timeline, in virtual seconds:

    [0, warmup)            set-up: join wave, estimator convergence
    [warmup, steady_end)   steady phase: no faults; open-loop lease probes
    [steady_end, horizon)  failover phase: the agreed leader's workstation
                           is crashed once per slot; probes are silent

so that every workload yields every end-to-end metric; what differs is
size, plane, links and how the horizon splits between the two phases.
``--seconds`` scales both phases linearly (``*_per_second`` below are
virtual seconds per requested run-second, sized so the timed phase takes
about ``--seconds`` of host time on the 2-core reference box).

Only the program's public surface is used: ``build_system``,
``Simulator.run_until/schedule_at``, ``Node.crash/recover``,
``GroupHandle.leader/lease_client``, ``LeaseClient``, the trace and the
usage meters.  The fault schedule and probe phases come from a
benchmark-owned numpy generator; the program sees only the values.
"""

from __future__ import annotations

import gc
import resource
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.chaos.invariants import check_no_double_grant
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.metrics.leadership import analyze_leadership
from repro.metrics.usage import UsageReport

from probes import PROBE_ID_BASE, WATCHER_ID_BASE, Probe, Watcher
from spec import REFERENCE_KOPS, calibration_kops, pct
from tracing import CountingTransport, LayerSampler, fold_episodes, lease_events

GROUP = 1
PROBE_PERIOD = 2.0
SLICES = 10
SETUP_SLICES = 4


@dataclass(frozen=True)
class SimSpec:
    name: str
    n_nodes: int
    fd_plane: str = "all_pairs"
    link_delay: float = 0.025e-3
    link_loss: float = 0.0
    warmup: float = 30.0
    #: Virtual seconds of steady / failover phase per run-second.
    steady_per_second: float = 10.0
    failover_per_second: float = 10.0
    #: One leader kill per slot of this many virtual seconds.
    kill_slot: float = 30.0
    n_lease_clients: int = 0
    n_probes: int = 48
    #: False: probes send read-only queries (see probes.py for why).
    probes_mutate: bool = True
    n_watchers: int = 0
    #: Set-ups timed per run (median reported); 1 where one costs ~10 s.
    setup_repeats: int = 3


SIM_SPECS = {
    spec.name: spec
    for spec in (
        # The paper's cell.  ~50 kills per 10 run-seconds give T_r a stable
        # median; fd + election + link draws do the work.
        SimSpec(
            "failover_lossy", n_nodes=12, link_delay=0.010, link_loss=0.01,
            warmup=60.0, steady_per_second=10.0, failover_per_second=150.0,
            kill_slot=30.0,
        ),
        # Same FD plane used the other way: quiet-window fast paths,
        # DeadlinePool, DeliveryBatch, metering.  Two kills at the end so
        # T_r exists; a 100-node failover costs ~1 host-s per virtual s,
        # so more kills would turn the workload into a failover one.
        # Warm-up is 11 s because rate renegotiation keeps the plane busy
        # (2x steady cost) until ~t=10.
        SimSpec(
            "steady_wide", n_nodes=100, warmup=11.0,
            steady_per_second=1.2, failover_per_second=0.6,
            kill_slot=3.0, setup_repeats=1, n_probes=96, probes_mutate=False,
        ),
        # 50 nodes, not 100: one swim failover costs host time ~ n^2
        # (0.15 s at n=32, 0.33 at 50, 0.70 at 64, 1.4 at 100 — view-change
        # gossip in core, not fd/swim.py), and at 100 only ~10 kills fit a
        # run, which left T_r's p90 spread across seeds at 0.12-0.23.
        SimSpec(
            "swim_failover", n_nodes=50, fd_plane="swim", warmup=10.0,
            steady_per_second=1.5, failover_per_second=18.0,
            kill_slot=6.0, n_probes=96, probes_mutate=False,
        ),
        # 400 closed-loop background writers (LeaseWorkload) beside the
        # probes and 24 push watchers; lease + the lease server take the
        # largest share of host time here and almost none elsewhere.
        SimSpec(
            "lease_failover", n_nodes=12, link_delay=0.010, link_loss=0.01,
            warmup=30.0, steady_per_second=10.0, failover_per_second=24.0,
            kill_slot=24.0, n_lease_clients=400,
            n_watchers=24,
        ),
    )
}


@dataclass
class Plan:
    """Everything the generator decided; the program receives only this."""

    steady_end: float
    horizon: float
    kill_due: List[float]
    recover_due: List[float]
    probe_phase: List[float]


def make_plan(spec: SimSpec, seed: int, seconds: float) -> Plan:
    gen = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    steady_end = spec.warmup + spec.steady_per_second * seconds
    n_kills = max(1, round(spec.failover_per_second * seconds / spec.kill_slot))
    horizon = steady_end + n_kills * spec.kill_slot
    # Stratified: exactly one kill per slot, so the kill count is the same
    # for every seed.  The kill falls in the slot's first quarter and the
    # victim comes back in its last third: a victim that reboots before it
    # was even detected simply resumes leading, and the "recovery time"
    # sampled is then its downtime, not a failover.
    slot_start = [steady_end + k * spec.kill_slot for k in range(n_kills)]
    kill_due = [t + float(gen.uniform(0.0, 0.25)) * spec.kill_slot for t in slot_start]
    recover_due = [t + float(gen.uniform(0.7, 0.85)) * spec.kill_slot for t in slot_start]
    probe_phase = [float(p) for p in gen.uniform(0.0, PROBE_PERIOD, spec.n_probes)]
    return Plan(steady_end, horizon, kill_due, recover_due, probe_phase)


def _run_normalised(sim, start, until, slices, kops_seen, sampler=None):
    """Advance ``sim`` over [start, until]; (raw wall, normalised wall,
    CPU seconds spent calibrating).

    The interval is cut into equal virtual-time slices with the calibration
    loop run between them (``kops_seen[-1]`` is the reading before the
    first), and each slice's wall is scaled by the mean of the readings
    around it — so a box that slows down mid-run rescales only the slices
    it slowed.  The sampler, if any, is live only inside the slices.
    """
    raw = norm = calibrating = 0.0
    for index in range(1, slices + 1):
        wall0 = time.perf_counter()
        if sampler is not None:
            sampler.active = True
        # The last slice ends on ``until`` itself, not on a rounded sum.
        sim.run_until(until if index == slices else start + (until - start) * index / slices)
        if sampler is not None:
            sampler.active = False
        wall = time.perf_counter() - wall0
        cpu0 = time.process_time()
        kops_seen.append(calibration_kops())
        calibrating += time.process_time() - cpu0
        raw += wall
        norm += wall * (kops_seen[-2] + kops_seen[-1]) / 2.0 / REFERENCE_KOPS
    return raw, norm, calibrating


class _Kills:
    """Crash the agreed leader's workstation at each due time."""

    def __init__(self, system, spec: SimSpec, plan: Plan) -> None:
        self.system = system
        self.spec = spec
        self.plan = plan
        self.executed = 0
        for index, due in enumerate(plan.kill_due):
            system.sim.schedule_at(due, self._kill, index)

    def _kill(self, index: int) -> None:
        sim = self.system.sim
        leader = agreed_leader(self.system)
        if leader is None:
            # Previous victim still rejoining: wait for agreement, but not
            # past mid-slot (the kill then counts as failed).
            mid_slot = self.plan.steady_end + (index + 0.5) * self.spec.kill_slot
            if sim.now + 0.25 < mid_slot:
                sim.schedule_at(sim.now + 0.25, self._kill, index)
            return
        node = self.system.network.node(leader)  # pid == node id in build_system
        node.crash()
        self.executed += 1
        # The last victim stays down: it could not rejoin before the end,
        # and the end-of-run agreement check is about alive nodes.
        if index + 1 < len(self.plan.kill_due):
            sim.schedule_at(self.plan.recover_due[index], node.recover)


def alive_views(system) -> Dict[int, Optional[int]]:
    return {
        app.pid: app.group(GROUP).leader()
        for app, host in zip(system.apps, system.hosts)
        if host.node.up and app.bound
    }


def agreed_leader(system) -> Optional[int]:
    views = set(alive_views(system).values())
    if len(views) != 1:
        return None
    leader = views.pop()
    if leader is None or not system.network.node(leader).up:
        return None
    return leader


def _build(spec: SimSpec, seed: int, plan: Plan, traced: bool):
    config = ExperimentConfig(
        name=spec.name, n_nodes=spec.n_nodes, seed=seed, node_churn=False,
        duration=plan.horizon, warmup=spec.warmup, fd_plane=spec.fd_plane,
        link_delay_mean=spec.link_delay, link_loss_prob=spec.link_loss,
        n_lease_clients=spec.n_lease_clients,
        lease_transfer_ratio=0.25 if spec.n_lease_clients else 0.0,
    )
    wrapper = None
    if traced:
        def wrapper(network, sim, rng):
            return CountingTransport(network, network.nodes)
    system = build_system(config, transport_wrapper=wrapper)
    sim = system.sim
    probes = []
    for i, phase in enumerate(plan.probe_phase):
        handle = system.apps[i % spec.n_nodes].group(GROUP)
        client = handle.lease_client(client_id=PROBE_ID_BASE + i)
        probe = Probe(sim, client, f"probe-{i}", PROBE_PERIOD, spec.probes_mutate)
        probe.start(
            spec.warmup - PROBE_PERIOD + phase, spec.warmup, plan.steady_end - 0.5
        )
        probes.append(probe)
    watchers = []
    n_locks = max(1, spec.n_lease_clients // 4)
    for i in range(spec.n_watchers):
        handle = system.apps[i % spec.n_nodes].group(GROUP)
        client = handle.lease_client(client_id=WATCHER_ID_BASE + i)
        # Created (and subscribed) once the daemons are up.
        sim.schedule_at(
            spec.warmup / 2,
            lambda c=client, j=i: watchers.append(Watcher(sim, c, f"lock-{j % n_locks}")),
        )
    kills = _Kills(system, spec, plan)
    return system, probes, watchers, kills


def run_sim(spec: SimSpec, seed: int, seconds: float, traced: bool) -> dict:
    plan = make_plan(spec, seed, seconds)
    sampler = LayerSampler() if traced else None

    # Set-up is host work too, so it is normalised like the timed phase
    # (see _run_normalised): on this box raw wall for identical work drifts
    # by up to a third between runs, the normalised figure by a few percent.
    setup_times = []
    kops_seen = [calibration_kops()]
    for _ in range(spec.setup_repeats):
        # Drop the previous set-up first: two 100-node systems alive at
        # once would be what peak_rss_mb reports.
        system = probes = watchers = kills = None
        gc.collect()
        start = time.perf_counter()
        system, probes, watchers, kills = _build(spec, seed, plan, traced)
        build_wall = time.perf_counter() - start
        _, norm, _ = _run_normalised(system.sim, 0.0, spec.warmup, SETUP_SLICES, kops_seen)
        setup_times.append(build_wall * kops_seen[-1] / REFERENCE_KOPS + norm)
    sim = system.sim
    nodes = list(system.network.nodes.values())

    # Steady-state accounting starts here (as run_experiment does).
    for node in nodes:
        node.meter.reset_counters()
    counter = system.transport if traced else None  # the CountingTransport
    if counter is not None:
        counter.reset()
    events_before = sim.events_executed
    trace_before = len(system.trace.events)

    span = plan.horizon - spec.warmup
    if sampler is not None:
        sampler.start()
    cpu_before = time.process_time()
    raw_wall, norm_wall, calibrating = _run_normalised(
        sim, spec.warmup, plan.horizon, SLICES, kops_seen, sampler
    )
    cpu = time.process_time() - cpu_before - calibrating
    if sampler is not None:
        sampler.stop()
    if system.lease_workload is not None:
        system.lease_workload.stop()
    for watcher in watchers:
        watcher.close()

    # ---- fold the outputs -------------------------------------------------
    events = system.trace.events
    leadership = analyze_leadership(
        events, group=GROUP, end_time=plan.horizon, measure_from=spec.warmup
    )
    detection_time = system.config.qos.detection_time
    recoveries = leadership.recovery_samples
    tr = [sample.duration for sample in recoveries]
    late_recoveries = sum(1 for d in tr if d > 10.0 * detection_time)
    kills_failed = (
        (len(plan.kill_due) - kills.executed)
        + leadership.censored_recoveries
        + late_recoveries
    )
    views = alive_views(system)
    final_leader = agreed_leader(system)
    disagreeing = 0
    if final_leader is None:
        # One operation per alive node: it agrees with the most widely
        # held alive leader, or it fails.
        held = [v for v in views.values() if v in views]
        best = max(set(held), key=held.count) if held else None
        disagreeing = sum(1 for v in views.values() if v != best or best is None)
    latencies = [x for probe in probes for x in probe.latencies]
    attempted = len(plan.kill_due) + len(views) + sum(p.attempted for p in probes)
    failed = kills_failed + disagreeing + sum(p.failed for p in probes)

    usage = UsageReport.average([node.meter.report(span) for node in nodes])
    bytes_sent = sum(node.meter.bytes_sent for node in nodes)
    checks = {
        "alive_nodes_agree_on_alive_leader": final_leader is not None,
        "every_kill_hit_a_leader": len(recoveries) + leadership.censored_recoveries
        == kills.executed == len(plan.kill_due),
        "no_double_grant": not check_no_double_grant(events, group=GROUP),
        "probe_tokens_strictly_increase": all(p.tokens_increase for p in probes),
    }
    metrics = {
        "setup_s": pct(setup_times, 50),
        "norm_host_ms_per_virtual_s": norm_wall / span * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tr_p75_s": pct(tr, 75),
        "leader_availability": leadership.availability,
        "wire_kb_per_node_s": usage.kb_per_second,
        "lease_rtt_p50_ms": pct(latencies, 50, 1e3),
        "lease_rtt_p90_ms": pct(latencies, 90, 1e3),
    }
    samples = {
        "setup_s": len(setup_times),
        "tr_p75_s": len(tr),
        "lease_rtt_p50_ms": len(latencies),
        "lease_rtt_p90_ms": len(latencies),
    }
    result = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "digest": system.trace.digest(),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
        "samples": samples,
        "notes": [
            f"{spec.n_nodes} nodes, {spec.fd_plane} plane, link delay "
            f"{spec.link_delay * 1e3:g} ms (exponential), loss {spec.link_loss:g}; "
            f"steady {plan.steady_end - spec.warmup:g} + failover "
            f"{plan.horizon - plan.steady_end:g} virtual s, {len(plan.kill_due)} kills",
            f"{spec.n_probes} open-loop {'acquire' if spec.probes_mutate else 'query'} "
            f"probes, period {PROBE_PERIOD:g} s; "
            f"{spec.n_lease_clients} closed-loop background clients",
        ],
    }
    if not traced:
        return result

    # ---- per-layer view ---------------------------------------------------
    leases = lease_events(events, GROUP, spec.warmup)
    by_action = {a: sum(1 for e in leases if e[1] == a)
                 for a in ("grant", "renew", "release", "transfer")}
    spans = fold_episodes(events, GROUP, recoveries, leases)
    granted_at = {(e[2], e[3]): e[0] for e in leases if e[1] in ("grant", "transfer")}
    watch_lag = [
        seen - granted_at[key]
        for watcher in watchers
        for key, seen in watcher.seen.items()
        if key in granted_at
    ]
    self_s = sampler.self_seconds()
    timed_events = events[trace_before:]
    received = sum(node.meter.messages_received for node in nodes)
    workload = system.lease_workload
    layer = {f"{name}.self_s": value for name, value in self_s.items()}
    layer.update(counter.metrics())
    layer.update({
        "sim.events": float(sim.events_executed - events_before),
        "sim.events_per_host_s": (sim.events_executed - events_before) / raw_wall,
        "net.msgs_lost": float(counter.total_msgs - received),
        "election.view_changes": float(sum(1 for e in timed_events if e.kind == "view")),
        "election.disruptions": float(leadership.disruptions),
        "election.mistakes_per_hour": leadership.mistake_rate,
        "election.tr_p50_s": pct(tr, 50),
        "election.tr_p90_s": pct(tr, 90),
        "election.leaderless_frac": 1.0 - leadership.availability,
        "lease.grants": float(by_action["grant"]),
        "lease.renews": float(by_action["renew"]),
        "lease.releases": float(by_action["release"]),
        "lease.transfers": float(by_action["transfer"]),
        "lease.losses": float(workload.losses) if workload is not None else 0.0,
        "lease.req_per_grant": (
            counter.count("LeaseRequestMessage") / by_action["grant"]
            if by_action["grant"] else 0.0
        ),
        "lease.ledger_records": float(len({e[2] for e in leases})),
        "lease.outage_p50_s": pct(spans["outage"], 50),
        "lease.takeover_wait_p50_s": pct(spans["takeover_wait"], 50),
        "lease.watch_lag_p50_ms": pct(watch_lag, 50, 1e3),
        "fd.detect_p50_s": pct(spans["detect"], 50),
        "election.converge_p50_s": pct(spans["converge"], 50),
        "metrics.trace_events": float(len(timed_events)),
        "metrics.model_cpu_pct_per_node": usage.cpu_percent,
        "harness.cpu_wall_ratio": cpu / raw_wall,
        "harness.calibration_kops": pct(kops_seen, 50),
        "harness.raw_host_ms_per_virtual_s": raw_wall / span * 1e3,
    })
    checks["carrier_bytes_sum_to_meter_total"] = counter.total_bytes == bytes_sent
    sampled = sum(self_s.values())
    checks["harness_self_time_under_5pct"] = self_s["harness"] < 0.05 * sampled
    checks["layer_self_times_sum_to_cpu_time"] = abs(sampled - cpu) <= 0.02 * cpu
    result["layer_metrics"] = layer
    result["samples"].update({
        "election.tr_p50_s": len(tr),
        "lease.watch_lag_p50_ms": len(watch_lag),
        "lease.outage_p50_s": len(spans["outage"]),
    })
    return result
