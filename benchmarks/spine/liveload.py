"""``live_loopback``: real daemons, real UDP, one asyncio loop.

Five daemons x 16 groups are wired exactly as
``repro.runtime.cluster.run_node`` wires one (``RealtimeScheduler``,
``UdpTransport`` with no datapath argument, ``LeaderElectionService``,
one ``Application`` per node), all in this process, talking over the
host's **loopback interface** — datagrams cross the kernel's UDP stack,
not a real link.  The load generator shares the loop and owns a single
client socket; it is the one thread of the one process.

Timeline (real seconds):

    set-up         boot -> every group agrees on a leader -> the first
                   lease is granted (i.e. the takeover grace has elapsed)
    steady phase   96 open-loop probe client ids multiplexed over ONE
                   client ``UdpTransport``; one acquire -> release cycle
                   per 2 s each, timed from the due time
    failover phase leader of group 1 killed (crash + shutdown + close),
                   re-election timed per affected group through
                   ``watch_leader`` callbacks, daemon re-booted on the
                   same port; probes silent (the 6.2 s takeover grace
                   would otherwise be all they measure)
    epilogue       (untimed) re-acquire four probe locks: fencing tokens
                   must have advanced across the kills

Agreement is observed through ``watch_leader`` callbacks and an
``asyncio.Event``, never by polling: a 2 ms poll doubled measured CPU.
"""

from __future__ import annotations

import asyncio
import resource
import socket
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.api import Application
from repro.core.commands import CommandHandler
from repro.core.service import LeaderElectionService, ServiceConfig
from repro.fd.qos import FDQoS
from repro.lease.client import LeaseClient
from repro.lease.live import CLIENT_WIRE_BASE
from repro.net.message import LeaseEventMessage, LeaseReplyMessage
from repro.net.node import Node
from repro.runtime.codec import decode_message, encode_message, encode_message_into
from repro.runtime.realtime import RealtimeScheduler, UdpTransport
from repro.sim.rng import RngRegistry

from probes import PROBE_ID_BASE, Probe
from spec import REFERENCE_KOPS, calibration_kops, pct
from tracing import CountingTransport, LayerSampler

HOST = "127.0.0.1"
LEASE_GROUP = 1
PROBE_PERIOD = 2.0
CAPTURE_LIMIT = 2000
STAT_FIELDS = (
    "frames_sent", "bytes_sent", "frames_received", "bytes_received",
    "frames_rejected", "unroutable", "batch_syscalls",
)


@dataclass(frozen=True)
class LiveSpec:
    name: str = "live_loopback"
    n_nodes: int = 5
    n_groups: int = 16
    detection_time: float = 0.4
    n_probes: int = 96
    #: Steady-phase real seconds, and leader kills, per run-second.
    steady_per_second: float = 0.5
    kills_per_second: float = 0.6


LIVE_SPEC = LiveSpec()


def free_ports(count: int) -> List[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((HOST, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class ClientPort:
    """One client socket carrying many lease clients (the channel duck
    type of ``repro.lease.client``: ``node_id``, ``submit``, ``on_event``)."""

    def __init__(self, wire_node: int, daemon_addresses: Dict[int, tuple]) -> None:
        self.wire_node = wire_node
        book = dict(daemon_addresses)
        book[wire_node] = (HOST, 0)  # ephemeral; daemons learn it from our datagrams
        self.transport = UdpTransport(wire_node, book, self._deliver)
        self._channels: Dict[int, "_PortChannel"] = {}

    def channel(self, client_id: int, contact_node: int) -> "_PortChannel":
        channel = self._channels[client_id] = _PortChannel(self, contact_node)
        return channel

    def _deliver(self, message) -> None:
        channel = self._channels.get(getattr(message, "client", None))
        if channel is None:
            return
        if isinstance(message, LeaseReplyMessage):
            if channel.reply_to is not None:
                channel.reply_to(message)
        elif isinstance(message, LeaseEventMessage) and channel.on_event is not None:
            channel.on_event(message)


class _PortChannel:
    def __init__(self, port: ClientPort, contact_node: int) -> None:
        self._port = port
        self.node_id = contact_node
        self.reply_to: Optional[Callable] = None
        self.on_event: Optional[Callable] = None

    def submit(self, message, reply_to) -> None:
        self.reply_to = reply_to
        message.sender_node = self._port.wire_node
        self._port.transport.send(message)


class Daemon:
    """One live daemon: boot, kill, re-boot on the same port."""

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.up = False
        self.boots = 0
        self.views: Dict[int, Optional[int]] = {}
        self.transport: Optional[UdpTransport] = None
        self.service: Optional[LeaderElectionService] = None
        self.counter: Optional[CountingTransport] = None

    async def boot(self) -> None:
        cluster, spec = self.cluster, self.cluster.spec
        scheduler = RealtimeScheduler(asyncio.get_running_loop())
        self.node = Node(scheduler, self.node_id)
        deliver = self.node.deliver
        if cluster.captured is not None:
            deliver = self._capturing_deliver
        self.transport = UdpTransport(self.node_id, cluster.addresses, deliver)
        await self.transport.open()
        send_through = self.transport
        if cluster.traced:
            send_through = self.counter = CountingTransport(self.transport)
        qos = FDQoS(detection_time=spec.detection_time)
        self.service = LeaderElectionService(
            scheduler=scheduler,
            transport=send_through,
            node=self.node,
            peer_nodes=tuple(range(spec.n_nodes)),
            config=ServiceConfig(default_qos=qos),
            # Distinct per (seed, node, boot): emission phases must differ.
            rng=RngRegistry(seed=(cluster.seed * 64 + self.node_id) * 64 + self.boots),
        )
        self.boots += 1
        self.views = {}
        app = Application(pid=self.node_id)
        for group in cluster.groups:
            app.join(group, candidate=True, qos=qos).watch_leader(self._on_leader)
        app.bind(CommandHandler(self.service))
        self.up = True

    def _capturing_deliver(self, message) -> None:
        captured = self.cluster.captured
        if len(captured) < CAPTURE_LIMIT:
            captured.append(message)
        self.node.deliver(message)

    def _on_leader(self, group: int, leader: Optional[int]) -> None:
        self.views[group] = leader
        self.cluster.on_view_change(group)

    def kill(self) -> None:
        """A workstation crash: no goodbye messages."""
        self.up = False
        self.node.crash()
        self.service.shutdown()
        self.transport.close()
        self.cluster.retire(self)
        self.views = {}


class Cluster:
    def __init__(self, spec: LiveSpec, seed: int, traced: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.traced = traced
        self.groups = tuple(range(1, spec.n_groups + 1))
        self.addresses = {i: (HOST, port) for i, port in enumerate(free_ports(spec.n_nodes))}
        self.daemons = [Daemon(self, i) for i in range(spec.n_nodes)]
        self.captured: Optional[list] = [] if traced else None
        self.changed = asyncio.Event()
        #: group -> loop time of the kill whose re-election is being timed.
        self.pending: Dict[int, float] = {}
        self.tr_samples: List[float] = []
        #: Counters of transports (and traced counters) already closed.
        self.retired_stats = dict.fromkeys(STAT_FIELDS, 0)
        self.retired_counters: List[CountingTransport] = []

    def agreed(self, group: int) -> Optional[int]:
        leader = None
        for daemon in self.daemons:
            if not daemon.up:
                continue
            view = daemon.views.get(group)
            if view is None or (leader is not None and view != leader):
                return None
            leader = view
        if leader is None or not self.daemons[leader].up:
            return None
        return leader

    def all_agreed(self) -> bool:
        return all(self.agreed(group) is not None for group in self.groups)

    def on_view_change(self, group: int) -> None:
        killed_at = self.pending.get(group)
        if killed_at is not None and self.agreed(group) is not None:
            self.tr_samples.append(asyncio.get_running_loop().time() - killed_at)
            del self.pending[group]
        self.changed.set()

    async def wait_for(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Event-driven wait: re-test only when some leader view changed."""
        deadline = asyncio.get_running_loop().time() + timeout
        while not predicate():
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                return False
            self.changed.clear()
            try:
                await asyncio.wait_for(self.changed.wait(), remaining)
            except asyncio.TimeoutError:
                return predicate()
        return True

    def retire(self, daemon: Daemon) -> None:
        for name in STAT_FIELDS:
            self.retired_stats[name] += getattr(daemon.transport.stats, name)
        if daemon.counter is not None:
            self.retired_counters.append(daemon.counter)

    def stats(self) -> Dict[str, int]:
        total = dict(self.retired_stats)
        for daemon in self.daemons:
            if daemon.up:
                for name in STAT_FIELDS:
                    total[name] += getattr(daemon.transport.stats, name)
        return total

    def counters(self) -> List[CountingTransport]:
        return self.retired_counters + [d.counter for d in self.daemons if d.up]


class _HostTime:
    """Process CPU time, calibration-normalised segment by segment.

    The calibration loop blocks the event loop, so a lap runs a short one
    (~5 ms): long enough to read the box's speed, short enough that a
    probe due meanwhile fires at most that late.
    """

    def __init__(self, sampler: Optional[LayerSampler]) -> None:
        self.sampler = sampler
        self.raw = self.norm = 0.0
        self.kops: List[float] = []

    def _calibrate(self) -> None:
        if self.sampler is not None:
            self.sampler.active = False
        self.kops.append(calibration_kops(50_000))
        self._mark = time.process_time()
        if self.sampler is not None:
            self.sampler.active = True

    def start(self) -> None:
        self._calibrate()

    def lap(self) -> None:
        cpu = time.process_time() - self._mark
        self._calibrate()
        self.raw += cpu
        self.norm += cpu * (self.kops[-2] + self.kops[-1]) / 2.0 / REFERENCE_KOPS


async def _acquire_once(client: LeaseClient, name: str, timeout: float):
    """Acquire ``name`` and release it; the granted reply, or None."""
    done = asyncio.get_running_loop().create_future()
    client.acquire(name, 0.0, lambda reply: done.done() or done.set_result(reply))
    try:
        reply = await asyncio.wait_for(done, timeout)
    except asyncio.TimeoutError:
        return None
    client.release(name)
    return reply


def _codec_us(captured: list) -> Dict[str, float]:
    """Median µs per message of the three public codec calls, over the
    workload's own message mix."""
    scratch = bytearray(65536)
    timings: Dict[str, List[float]] = {"encode": [], "encode_into": [], "decode": []}
    clock = time.perf_counter_ns
    for message in captured:
        t0 = clock()
        data = encode_message(message)
        t1 = clock()
        encode_message_into(message, scratch)
        t2 = clock()
        decode_message(data)
        t3 = clock()
        timings["encode"].append((t1 - t0) / 1e3)
        timings["encode_into"].append((t2 - t1) / 1e3)
        timings["decode"].append((t3 - t2) / 1e3)
    return {f"runtime.{name}_us": pct(values, 50) for name, values in timings.items()}


async def _run(spec: LiveSpec, seed: int, seconds: float, traced: bool) -> dict:
    cluster = Cluster(spec, seed, traced)
    port = ClientPort(CLIENT_WIRE_BASE + seed % 1000, cluster.addresses)
    try:
        return await _measure(cluster, port, seconds)
    finally:
        port.transport.close()
        for daemon in cluster.daemons:
            if daemon.up:
                daemon.kill()


async def _measure(cluster: Cluster, port: ClientPort, seconds: float) -> dict:
    """Set-up, steady phase, failover phase, epilogue, then the folding."""
    spec, seed, traced = cluster.spec, cluster.seed, cluster.traced
    loop = asyncio.get_running_loop()
    gen = np.random.default_rng([seed, 0x11FE])
    sampler = LayerSampler() if traced else None
    scheduler = RealtimeScheduler(loop)
    failure_limit = 10.0 * spec.detection_time
    checks: Dict[str, bool] = {}
    attempted = failed = 0

    # ---- set-up -----------------------------------------------------------
    setup_start = time.perf_counter()
    for daemon in cluster.daemons:
        await daemon.boot()
    await port.transport.open()

    clients = [
        LeaseClient(
            port.channel(PROBE_ID_BASE + i, i % spec.n_nodes),
            scheduler,
            RngRegistry(seed=seed).stream(f"spine.live.{i}"),
            group=LEASE_GROUP,
            client_id=PROBE_ID_BASE + i,
        )
        for i in range(spec.n_probes)
    ]
    probes = [
        Probe(scheduler, client, f"probe-{i}", PROBE_PERIOD)
        for i, client in enumerate(clients)
    ]
    elected = await cluster.wait_for(cluster.all_agreed, 30.0)
    ready = await _acquire_once(clients[0], "ready", 30.0) if elected else None
    checks["cluster_elected_and_serving"] = ready is not None
    # One unmeasured cycle per probe (see Probe.start), still set-up.
    steady = spec.steady_per_second * seconds
    epoch = scheduler.now + PROBE_PERIOD
    for probe, phase in zip(probes, gen.uniform(0.0, PROBE_PERIOD, spec.n_probes)):
        probe.start(epoch - PROBE_PERIOD + float(phase), epoch, epoch + steady - 0.25)
    await asyncio.sleep(epoch - scheduler.now)
    setup_s = time.perf_counter() - setup_start

    # ---- steady phase: open-loop probes -----------------------------------
    if sampler is not None:
        sampler.start()
    host = _HostTime(sampler)
    stats_before = cluster.stats()
    for counter in cluster.counters() if traced else ():
        counter.reset()
    timed_start = loop.time()
    host.start()
    while scheduler.now < epoch + steady:
        await asyncio.sleep(min(0.5, epoch + steady + 0.1 - scheduler.now))
        host.lap()

    # ---- failover phase ---------------------------------------------------
    n_kills = max(2, round(spec.kills_per_second * seconds))
    for _ in range(n_kills):
        attempted += 1
        if not await cluster.wait_for(cluster.all_agreed, failure_limit):
            failed += 1
            continue
        # De-phase the kill from the heartbeat schedule.
        await asyncio.sleep(float(gen.uniform(0.05, 0.25)))
        victim = cluster.agreed(LEASE_GROUP)
        if victim is None:
            failed += 1
            continue
        now = loop.time()
        cluster.pending = {g: now for g in cluster.groups if cluster.agreed(g) == victim}
        cluster.daemons[victim].kill()
        if not await cluster.wait_for(lambda: not cluster.pending, failure_limit):
            failed += 1
            cluster.pending = {}
        await cluster.daemons[victim].boot()
        host.lap()  # between episodes: never inside a timed re-election
    settled = await cluster.wait_for(cluster.all_agreed, failure_limit)
    host.lap()
    if sampler is not None:
        sampler.stop()
    timed_wall = loop.time() - timed_start
    stats = {k: v - stats_before[k] for k, v in cluster.stats().items()}
    # Modelled carrier bytes (Message.wire_bytes), summed over daemons now:
    # the counters keep running through the epilogue.
    carrier: Dict[str, float] = {}
    for counter in cluster.counters() if traced else ():
        for name, value in counter.metrics().items():
            carrier[name] = carrier.get(name, 0.0) + value

    # One operation per daemon: it ends agreeing on one alive leader.
    attempted += spec.n_nodes
    if not settled:
        failed += sum(
            1 for d in cluster.daemons
            if any(d.views.get(g) is None or d.views.get(g) != cluster.agreed(g)
                   for g in cluster.groups)
        )
    checks["alive_nodes_agree_on_alive_leader"] = settled

    # ---- epilogue: fencing tokens across the kills -------------------------
    served = True
    for probe, client in zip(probes[:4], clients):
        reply = await _acquire_once(client, probe.name, 30.0)
        if reply is None:
            served = False
        else:
            probe.tokens.append(reply.token)
    checks["lease_served_after_kills"] = served
    checks["probe_tokens_strictly_increase"] = all(p.tokens_increase for p in probes)

    # ---- fold --------------------------------------------------------------
    latencies = [x for probe in probes for x in probe.latencies]
    attempted += sum(p.attempted for p in probes)
    failed += sum(p.failed for p in probes)
    cpu, norm_cpu, kops = host.raw, host.norm, host.kops
    tr = cluster.tr_samples
    metrics = {
        "setup_s": setup_s,
        # Virtual time is real time here, and host time is process CPU time
        # (all five daemons plus the load generator): the loop mostly sleeps.
        "norm_host_ms_per_virtual_s": norm_cpu / timed_wall * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tr_p75_s": pct(tr, 75),
        # Averaged over the groups: each is leaderless for its own T_r.
        "leader_availability": 1.0 - sum(tr) / (spec.n_groups * timed_wall),
        "wire_kb_per_node_s": (stats["bytes_sent"] + stats["bytes_received"])
        / spec.n_nodes / timed_wall / 1000.0,
        "lease_rtt_p50_ms": pct(latencies, 50, 1e3),
        "lease_rtt_p90_ms": pct(latencies, 90, 1e3),
    }
    result = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        # No simulator, no trace digest: a live run does not repeat bit-exactly.
        "digest": "",
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
        "samples": {
            "setup_s": 1,
            "tr_p75_s": len(tr),
            "lease_rtt_p50_ms": len(latencies),
            "lease_rtt_p90_ms": len(latencies),
        },
        "notes": [
            f"{spec.n_nodes} daemons x {spec.n_groups} groups in one process; traffic "
            f"crossed the host's loopback interface (no injected delay or loss); "
            f"detection time {spec.detection_time:g} s",
            f"steady {steady:g} s with {spec.n_probes} open-loop probes over one client "
            f"socket, period {PROBE_PERIOD:g} s; then {n_kills} leader kills; "
            f"host time is process CPU time",
        ],
    }
    if not traced:
        return result

    self_s = sampler.self_seconds()
    layer = {f"{name}.self_s": value for name, value in self_s.items()}
    layer.update(carrier)
    layer["swim.indirect_frac"] = 0.0
    layer["core.bytes_per_hello"] = (
        layer["core.wire_bytes"] / layer["core.hellos"] if layer["core.hellos"] else 0.0
    )
    lateness = [x for probe in probes for x in probe.lateness]
    rtts = [x for probe in probes for x in probe.rtts]
    layer.update(_codec_us(cluster.captured))
    layer.update({
        "runtime.dgrams_sent": float(stats["frames_sent"]),
        "runtime.dgrams_recv": float(stats["frames_received"]),
        "runtime.bytes_sent": float(stats["bytes_sent"]),
        "runtime.rejected": float(stats["frames_rejected"]),
        "runtime.unroutable": float(stats["unroutable"]),
        "runtime.batch_syscalls": float(stats["batch_syscalls"]),
        # Request sent -> grant: the latency metrics minus generator lateness.
        "runtime.rtt_p50_ms": pct(rtts, 50, 1e3),
        "runtime.rtt_p90_ms": pct(rtts, 90, 1e3),
        "runtime.cpu_ms_per_node_s": norm_cpu / timed_wall * 1e3 / spec.n_nodes,
        "election.tr_p50_s": pct(tr, 50),
        "election.tr_p90_s": pct(tr, 90),
        "election.leaderless_frac": sum(tr) / (spec.n_groups * timed_wall),
        "harness.cpu_wall_ratio": cpu / timed_wall,
        "harness.calibration_kops": pct(kops, 50),
        "harness.raw_host_ms_per_virtual_s": cpu / timed_wall * 1e3,
        "harness.late_ms_p99": pct(lateness, 99, 1e3),
    })
    result["layer_metrics"] = layer
    result["samples"]["election.tr_p50_s"] = len(tr)
    result["samples"]["runtime.encode_us"] = len(cluster.captured)
    return result


def run_live(spec: LiveSpec, seed: int, seconds: float, traced: bool) -> dict:
    return asyncio.run(_run(spec, seed, seconds, traced))
