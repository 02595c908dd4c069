"""Boot live daemons: one asyncio/UDP node, or an N-process cluster.

Two layers:

* :func:`run_node` / :func:`node_main` — run ONE daemon in the current
  process: realtime scheduler, UDP transport, the unchanged
  :class:`~repro.core.service.LeaderElectionService`, one application
  process (pid = node id, the paper's single-group deployment).  Leader
  changes are printed as machine-parsable lines on stdout.
* :func:`run_cluster` — the orchestrator behind ``python -m repro.cli
  live``: spawns N ``repro.cli node`` subprocesses on localhost ports,
  waits for them to agree on one leader, kills the leader's process
  (SIGKILL — a workstation crash, no goodbye messages), waits for the
  survivors to re-elect, and verifies the new leader is stable.  Per-node
  output is teed into log files for post-mortems (CI uploads them as
  artifacts).

The line protocol children speak (one event per line, ``key=value``)::

    READY node=2 port=47012
    LEADER node=2 group=1 leader=0 t=1721901758.482911
    DONE node=2

``leader=none`` means the node currently sees no leader for that group.
Since the multi-group scale-out a daemon hosts ``--groups N`` groups over
one shared FD plane; every group elects (and re-elects) independently and
the orchestrator tracks one leader board per group.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, Queue
from typing import Dict, IO, List, Optional, Tuple

from repro.core.api import Application
from repro.core.commands import CommandHandler
from repro.core.service import LeaderElectionService, ServiceConfig
from repro.flags import NODE_FLAGS, flag_argv
from repro.net.node import Node
from repro.runtime.realtime import RealtimeScheduler, UdpTransport
from repro.sim.rng import RngRegistry

__all__ = ["LiveNodeConfig", "ClusterReport", "run_node", "node_main", "run_cluster"]


# ----------------------------------------------------------------------
# One live node
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveNodeConfig:
    """Everything one daemon process needs to join a localhost cluster."""

    node_id: int
    #: UDP port of every node, indexed by node id (len == cluster size).
    ports: Tuple[int, ...]
    host: str = "127.0.0.1"
    #: Group ids this daemon hosts (all served by one shared FD plane).
    groups: Tuple[int, ...] = (1,)
    #: The daemon's settings; every hosted group joins with its default QoS.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Seconds to serve before exiting voluntarily (None: until killed).
    duration: Optional[float] = None
    #: Optional ChaosScript JSON file applied to this node's transport.
    #: Only the transport-level subset (partition, asym_link, drop,
    #: duplicate, reorder, heal) is supported live — host-level steps
    #: need the simulator's fault plane and are rejected at load time.
    chaos_script: Optional[Path] = None

    def __post_init__(self) -> None:
        if not 0 <= self.node_id < len(self.ports):
            raise ValueError(
                f"node_id {self.node_id} out of range for {len(self.ports)} ports"
            )
        if not self.groups:
            raise ValueError("need at least one group")
        if len(set(self.groups)) != len(self.groups):
            raise ValueError(f"duplicate group ids in {self.groups}")


def _emit(line: str) -> None:
    """One protocol line; flushed so parent pipes see it immediately."""
    print(line, flush=True)


async def run_node(config: LiveNodeConfig) -> None:
    """Serve one daemon until ``duration`` elapses or the process dies.

    The wiring is the realtime twin of
    :func:`repro.experiments.runner.build_system`: same daemon, same
    failure detector, same election algorithm — only the engine differs.
    """
    script = None
    if config.chaos_script is not None:
        # Imported lazily: plain clusters should not pay for (or depend
        # on) the chaos machinery.  Parsed and validated before any
        # socket is bound so an unsupported script fails cleanly.
        import json

        from repro.chaos.script import ChaosScript

        try:
            raw = config.chaos_script.read_text()
        except OSError as exc:
            # Distinct from a socket-bind OSError: a missing script file
            # must not be diagnosed as "cannot serve on <port>".
            raise ValueError(
                f"cannot read chaos script {config.chaos_script}: {exc}"
            ) from exc
        try:
            script = ChaosScript.from_dict(json.loads(raw))
        except (json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
            raise ValueError(
                f"invalid chaos script {config.chaos_script}: {exc}"
            ) from exc
        if not script.live_supported:
            unsupported = sorted(
                {step.name for step in script.steps if step.requires_fault_plane}
            )
            raise ValueError(
                "chaos script uses host-level steps not supported on a live "
                f"node ({', '.join(unsupported)}); only transport-level steps "
                "(partition, asym_link, drop, duplicate, reorder, heal) run live"
            )

    loop = asyncio.get_running_loop()
    scheduler = RealtimeScheduler(loop)
    node = Node(scheduler, config.node_id)
    addresses = {i: (config.host, port) for i, port in enumerate(config.ports)}
    transport = UdpTransport(config.node_id, addresses, node.deliver)
    await transport.open()

    chaos_controller = None
    send_transport = transport
    if script is not None:
        import numpy as np

        from repro.chaos.controller import ChaosController
        from repro.chaos.transport import ChaosTransport

        send_transport = ChaosTransport(
            transport,
            scheduler,
            np.random.default_rng(
                np.random.SeedSequence(entropy=config.node_id + 1)
            ),
        )
        chaos_controller = ChaosController(
            script=script,
            scheduler=scheduler,
            transport=send_transport,
            rng=np.random.default_rng(
                np.random.SeedSequence(entropy=1000 + config.node_id)
            ),
        )

    service = LeaderElectionService(
        scheduler=scheduler,
        transport=send_transport,
        node=node,
        peer_nodes=tuple(range(len(config.ports))),
        config=config.service,
        # Distinct per-node seeds: emission phases must desynchronize.
        rng=RngRegistry(seed=config.node_id + 1),
    )

    def on_leader_change(group: int, leader: Optional[int]) -> None:
        shown = "none" if leader is None else leader
        _emit(
            f"LEADER node={config.node_id} group={group} leader={shown} "
            f"t={scheduler.now:.6f}"
        )

    # One application process per node (pid = node id), driving the daemon
    # through the public handle API — the same surface simulated code uses.
    app = Application(pid=config.node_id)
    for group in config.groups:
        handle = app.join(group, candidate=True, qos=config.service.default_qos)
        handle.watch_leader(on_leader_change)
    app.bind(CommandHandler(service))
    _emit(f"READY node={config.node_id} port={config.ports[config.node_id]}")
    if chaos_controller is not None:
        chaos_controller.start()
        _emit(
            f"CHAOS node={config.node_id} "
            f"steps={len(chaos_controller.script.steps)}"
        )

    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):  # non-unix platforms
            loop.add_signal_handler(signum, stop.set)
    if config.duration is not None:
        loop.call_later(config.duration, stop.set)
    await stop.wait()

    if chaos_controller is not None:
        chaos_controller.stop()
    service.shutdown()
    transport.close()
    _emit(f"DONE node={config.node_id}")


def node_main(config: LiveNodeConfig) -> int:
    """Synchronous entry point for ``repro.cli node``.

    Environment failures — an unbindable UDP port, an unreadable or
    live-unsupported chaos script — exit with status 2 and one stderr
    line instead of a traceback: the parent orchestrator (and any human
    driving ``repro.cli node`` by hand) needs the reason, not the stack.
    """
    try:
        asyncio.run(run_node(config))
    except OSError as exc:
        print(
            f"node {config.node_id}: cannot serve on "
            f"{config.host}:{config.ports[config.node_id]}: {exc}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"node {config.node_id}: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# The N-process orchestrator
# ----------------------------------------------------------------------
@dataclass
class ClusterReport:
    """What ``repro.cli live`` observed, for humans and for CI assertions."""

    ok: bool = False
    reason: str = ""
    n_nodes: int = 0
    n_groups: int = 1
    first_leader: Optional[int] = None
    #: Per-group outcomes (the scalar fields mirror the primary group).
    first_leaders: Dict[int, int] = field(default_factory=dict)
    new_leaders: Dict[int, int] = field(default_factory=dict)
    #: Seconds from cluster start to the first whole-cluster agreement.
    election_seconds: Optional[float] = None
    killed_leader: Optional[int] = None
    new_leader: Optional[int] = None
    #: Seconds from the leader kill to the survivors' agreement on one
    #: new leader — the live counterpart of the paper's Tr.
    reelection_seconds: Optional[float] = None
    #: Fencing tokens granted by the lease smoke (before / after the kill).
    #: Monotonicity (second > first) is the cross-failover safety check.
    lease_first_token: Optional[int] = None
    lease_new_token: Optional[int] = None
    #: Fencing tokens around the transfer smoke (grant / post-handoff).
    #: Monotonicity (second > first) is the cross-handoff safety check.
    lease_transfer_first_token: Optional[int] = None
    lease_transfer_token: Optional[int] = None
    #: Token the kill-spanning watcher saw in its ``via=push`` HOLDER line
    #: for the post-kill grant — proof the change arrived as a server-push
    #: notification, not a poll.
    lease_watch_push_token: Optional[int] = None
    log_dir: Optional[Path] = None
    timeline: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if not self.ok:
            return f"FAILED: {self.reason}"
        shown = (
            f"leaders {self.first_leaders}"
            if self.n_groups > 1
            else f"leader {self.first_leader}"
        )
        parts = [
            f"{self.n_nodes} nodes x {self.n_groups} group(s) elected "
            f"{shown} in {self.election_seconds:.2f}s"
        ]
        if self.killed_leader is not None:
            shown = (
                f"leaders {self.new_leaders}"
                if self.n_groups > 1
                else f"leader {self.new_leader}"
            )
            parts.append(
                f"killed node {self.killed_leader}; survivors re-elected "
                f"{shown} in {self.reelection_seconds:.2f}s"
            )
        if self.lease_new_token is not None:
            parts.append(
                f"lease fencing token advanced {self.lease_first_token} -> "
                f"{self.lease_new_token} across the kill"
            )
        elif self.lease_first_token is not None:
            parts.append(f"lease granted with token {self.lease_first_token}")
        if self.lease_transfer_token is not None:
            parts.append(
                f"transfer advanced token {self.lease_transfer_first_token} "
                f"-> {self.lease_transfer_token}"
            )
        if self.lease_watch_push_token is not None:
            parts.append(
                "watcher saw the post-kill holder via push "
                f"(token {self.lease_watch_push_token})"
            )
        return "; ".join(parts)


def _reserve_udp_ports(host: str, count: int) -> List[int]:
    """Pick ``count`` currently-free UDP ports by binding and releasing.

    Mildly racy (another process could grab a port between release and the
    child's bind), which is fine for a dev/CI convenience; pass explicit
    ports to avoid the race entirely.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _child_env() -> Dict[str, str]:
    """Environment for child processes: make ``repro`` importable."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn_node(
    node_id: int,
    ports: List[int],
    host: str,
    service: ServiceConfig,
    duration: float,
    groups: int,
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro.cli", "node",
        "--node-id", str(node_id),
        "--ports", ",".join(map(str, ports)),
        "--host", host,
        "--groups", str(groups),
        *flag_argv(service, NODE_FLAGS),
        "--duration", str(duration),
    ]
    return subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_child_env(),
        text=True,
    )


def _lease_cli(
    op: str,
    name: str,
    ports: List[int],
    host: str,
    contact_node: int,
    client_id: int,
    *extra: str,
) -> List[str]:
    """The ``python -m repro.cli lease <op> ...`` command line — the same
    code path a user's ``repro lease`` takes, real UDP included."""
    return [
        sys.executable, "-m", "repro.cli", "lease", op,
        "--ports", ",".join(map(str, ports)),
        "--host", host,
        "--name", name,
        "--contact-node", str(contact_node),
        "--client-id", str(client_id),
        *extra,
    ]


def _run_logged(command: List[str], timeout: float, log_path: Path) -> str:
    """Run a lease client to completion; its full output is returned and
    lands in ``log_path`` for post-mortems."""
    try:
        result = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=timeout + 10.0,
            env=_child_env(),
        )
        output = result.stdout + result.stderr
    except subprocess.TimeoutExpired as exc:
        output = f"{exc.stdout or ''}{exc.stderr or ''}\n(killed: wedged client)"
    log_path.write_text(output)
    return output


_GRANTED_RE = re.compile(r"^GRANTED lease=\S+ token=(\d+) ", re.MULTILINE)
_TRANSFERRED_RE = re.compile(
    r"^TRANSFERRED lease=\S+ successor=\d+ token=(\d+)", re.MULTILINE
)


def _lease_acquire(
    ports: List[int],
    host: str,
    contact_node: int,
    client_id: int,
    timeout: float,
    log_path: Path,
) -> Optional[int]:
    """Run one ``repro lease acquire`` round trip; return its fencing token.

    This exercises the learned sender address plumbing, the redirect
    dance, and (after a kill) the new leader's takeover grace.  None means
    no grant within ``timeout``.
    """
    command = _lease_cli(
        "acquire", "smoke-lock", ports, host, contact_node, client_id,
        "--ttl", "2.0", "--timeout", str(timeout),
    )
    match = _GRANTED_RE.search(_run_logged(command, timeout, log_path))
    return int(match.group(1)) if match else None


def _lease_transfer(
    ports: List[int],
    host: str,
    contact_node: int,
    client_id: int,
    successor: int,
    timeout: float,
    log_path: Path,
) -> Optional[Tuple[int, int]]:
    """Run one ``repro lease transfer`` round trip; return (grant, handoff)
    fencing tokens, or None if either line never appeared.

    The client acquires ``handoff-lock`` and immediately hands it to
    ``successor``; the handoff must mint a strictly larger token than the
    grant (checked by the caller) — the same fencing contract the kill
    smoke asserts, but across a voluntary transfer instead of a failover.
    """
    command = _lease_cli(
        "transfer", "handoff-lock", ports, host, contact_node, client_id,
        "--successor", str(successor), "--ttl", "2.0", "--timeout", str(timeout),
    )
    output = _run_logged(command, timeout, log_path)
    granted = _GRANTED_RE.search(output)
    transferred = _TRANSFERRED_RE.search(output)
    if granted is None or transferred is None:
        return None
    return int(granted.group(1)), int(transferred.group(1))


def _pump_output(
    node_id: int, stream: IO[str], queue: "Queue[Tuple[int, str]]", log: IO[str]
) -> None:
    for line in stream:
        line = line.rstrip("\n")
        log.write(f"{time.time():.6f} {line}\n")
        log.flush()
        queue.put((node_id, line))


def _parse_leader(line: str) -> Optional[Tuple[int, int, Optional[int]]]:
    """``LEADER node=2 group=1 leader=0 t=...`` → (2, 1, 0); else None."""
    if not line.startswith("LEADER "):
        return None
    fields = dict(
        part.split("=", 1) for part in line.split()[1:] if "=" in part
    )
    try:
        node = int(fields["node"])
        group = int(fields["group"])
        leader = None if fields["leader"] == "none" else int(fields["leader"])
    except (KeyError, ValueError):
        return None
    return node, group, leader


class _LeaderBoard:
    """Tracks every node's last announced leader view, per group."""

    def __init__(self) -> None:
        self.views: Dict[Tuple[int, int], Optional[int]] = {}  # (group, node)

    def record(self, node: int, group: int, leader: Optional[int]) -> None:
        self.views[(group, node)] = leader

    def agreed_leader(self, group: int, alive: List[int]) -> Optional[int]:
        """The single leader all ``alive`` nodes agree on for ``group``."""
        views = {self.views.get((group, node), None) for node in alive}
        if len(views) == 1:
            (leader,) = views
            if leader is not None and leader in alive:
                return leader
        return None

    def drop_node(self, node: int) -> None:
        """Forget a dead node's views (they must not satisfy agreement)."""
        for key in [key for key in self.views if key[1] == node]:
            del self.views[key]


def run_cluster(
    n_nodes: int = 3,
    *,
    groups: int = 1,
    host: str = "127.0.0.1",
    ports: Optional[List[int]] = None,
    service: ServiceConfig = ServiceConfig(),
    kill_leader: bool = True,
    lease_smoke: bool = False,
    stable_seconds: float = 1.5,
    timeout: float = 20.0,
    log_dir: Optional[Path] = None,
    echo: bool = True,
) -> ClusterReport:
    """Boot an N-process localhost cluster and exercise a leader crash.

    Each daemon hosts ``groups`` groups (ids 1..groups) over one shared FD
    plane and runs ``service`` — the settings ``repro node`` takes a flag
    for (algorithm, T_D^U, FD variant) reach it.  Phases: elect (for every
    group, all nodes agree on one leader and hold it for
    ``stable_seconds``) → kill (SIGKILL the process of
    group 1's leader — a workstation crash that hits every group hosted
    there) → re-elect (for every group, all survivors agree on one alive
    leader and hold it; group 1's must be *new*).  ``timeout`` bounds each
    agreement phase.  Returns a :class:`ClusterReport`; ``report.ok`` is
    the CI assertion.

    With ``lease_smoke`` a real lease-client subprocess acquires (and
    releases) a lock after each election; the second grant must carry a
    strictly larger fencing token than the first — the lease tier's
    cross-failover safety contract, checked over real UDP.  The smoke also
    (a) runs a transfer client that acquires ``handoff-lock`` and hands it
    to a successor, asserting the handoff minted a strictly larger token,
    and (b) — when the kill phase runs — keeps a push watcher subscribed
    to ``smoke-lock`` across the kill and asserts it observed the
    post-kill holder change ``via=push``, i.e. as a server notification
    rather than a poll.
    """
    if n_nodes < 2:
        raise ValueError(f"a cluster needs at least 2 nodes (got {n_nodes})")
    if groups < 1:
        raise ValueError(f"need at least 1 group (got {groups})")
    if ports is None:
        ports = _reserve_udp_ports(host, n_nodes)
    if len(ports) != n_nodes:
        raise ValueError(f"need {n_nodes} ports, got {len(ports)}")
    log_dir = Path(log_dir) if log_dir is not None else Path("live-cluster-logs")
    log_dir.mkdir(parents=True, exist_ok=True)

    report = ClusterReport(n_nodes=n_nodes, n_groups=groups, log_dir=log_dir)
    group_ids = list(range(1, groups + 1))
    # Children outlive every phase timeout, then exit on their own even if
    # this orchestrator dies mid-run.  The lease smoke adds the acquire and
    # transfer round trips, a post-kill acquire that rides out the takeover
    # grace, and the wait for the watcher's push line.
    child_duration = timeout * 3 + 30.0 + (4 * timeout if lease_smoke else 0.0)

    def note(line: str) -> None:
        report.timeline.append(f"{time.time():.3f} {line}")
        if echo:
            print(line, flush=True)

    queue: "Queue[Tuple[int, str]]" = Queue()
    children: Dict[int, subprocess.Popen] = {}
    logs: Dict[int, IO[str]] = {}
    threads: List[threading.Thread] = []
    board = _LeaderBoard()
    watch_child: Optional[subprocess.Popen] = None
    watch_log: Optional[IO[str]] = None
    watch_log_path = log_dir / "lease-watch.log"

    def drain(deadline: float) -> None:
        """Feed queued child lines into the leader board until ``deadline``."""
        budget = max(0.0, deadline - time.time())
        try:
            node, line = queue.get(timeout=min(budget, 0.2) or 0.01)
        except Empty:
            return
        parsed = _parse_leader(line)
        if parsed is not None:
            board.record(*parsed)
            note(f"  [{node}] {line}")

    def dead_children(alive: List[int]) -> List[Tuple[int, int]]:
        """(node, exit code) for alive-set members whose process died."""
        return [
            (node, children[node].poll())
            for node in alive
            if node in children and children[node].poll() is not None
        ]

    def await_agreement(
        group: int, alive: List[int], deadline: float, label: str
    ) -> Optional[int]:
        """Wait for one leader all ``alive`` nodes agree on, held stably.

        Fails fast (rather than burning the whole timeout) when any node
        that should be participating has exited — e.g. a lost port-reserve
        race at startup; the real cause is in its node-N.log.
        """
        agreed_since: Optional[float] = None
        agreed: Optional[int] = None
        while time.time() < deadline:
            dead = dead_children(alive)
            if dead:
                losses = ", ".join(f"node {n} (exit {code})" for n, code in dead)
                note(f"daemon process died during {label}: {losses}")
                report.reason = f"daemon exited early during {label}: {losses}"
                return None
            drain(deadline)
            current = board.agreed_leader(group, alive)
            if current is None:
                agreed_since, agreed = None, None
                continue
            if current != agreed:
                agreed, agreed_since = current, time.time()
            elif agreed_since is not None and time.time() - agreed_since >= stable_seconds:
                return agreed
        note(f"timeout waiting for {label}; views={board.views}")
        return None

    try:
        note(
            f"starting {n_nodes} daemons x {groups} group(s) on {host} "
            f"ports {ports}"
        )
        start_time = time.time()
        for node_id in range(n_nodes):
            child = _spawn_node(node_id, ports, host, service, child_duration, groups)
            children[node_id] = child
            log = open(log_dir / f"node-{node_id}.log", "w")
            logs[node_id] = log
            thread = threading.Thread(
                target=_pump_output,
                args=(node_id, child.stdout, queue, log),
                daemon=True,
            )
            thread.start()
            threads.append(thread)

        alive = list(range(n_nodes))
        deadline = start_time + timeout
        for group in group_ids:
            leader = await_agreement(
                group, alive, deadline, f"first election (group {group})"
            )
            if leader is None:
                report.reason = report.reason or (
                    f"no whole-cluster leader agreement for group {group} "
                    "within timeout"
                )
                return report
            report.first_leaders[group] = leader
        report.first_leader = report.first_leaders[group_ids[0]]
        report.election_seconds = time.time() - start_time
        note(
            f"cluster agreed on leader(s) {report.first_leaders} after "
            f"{report.election_seconds:.2f}s"
        )

        if lease_smoke:
            note("lease smoke: acquiring smoke-lock via a client subprocess")
            token = _lease_acquire(
                ports, host, report.first_leader, 1000, timeout,
                log_dir / "lease-before-kill.log",
            )
            if token is None:
                report.reason = (
                    "lease smoke: no grant before the kill (see "
                    "lease-before-kill.log)"
                )
                return report
            report.lease_first_token = token
            note(f"lease smoke: granted token {token}")

            note("lease smoke: transferring handoff-lock to a successor")
            tokens = _lease_transfer(
                ports, host, report.first_leader, 1003, 1004, timeout,
                log_dir / "lease-transfer.log",
            )
            if tokens is None:
                report.reason = (
                    "lease smoke: transfer did not complete (see "
                    "lease-transfer.log)"
                )
                return report
            report.lease_transfer_first_token = tokens[0]
            report.lease_transfer_token = tokens[1]
            if tokens[1] <= tokens[0]:
                report.reason = (
                    "lease smoke: fencing token did not advance across the "
                    f"transfer ({tokens[0]} -> {tokens[1]})"
                )
                return report
            note(
                f"lease smoke: transfer advanced token {tokens[0]} -> "
                f"{tokens[1]}"
            )

            if kill_leader:
                # Subscribe a watcher that spans the kill.  Its contact
                # node must survive the kill so the resubscribe after the
                # failover (deadman poll → redirect) can reach the new
                # leader; the first leader is the node about to die.
                contact = next(
                    node for node in alive if node != report.first_leader
                )
                watch_log = open(watch_log_path, "w")
                watch_child = subprocess.Popen(
                    _lease_cli(
                        "watch", "smoke-lock", ports, host, contact, 1002,
                        "--period", "1.0", "--duration", str(4 * timeout + 30.0),
                    ),
                    stdout=watch_log,  # HOLDER ... via=push|poll lines
                    stderr=subprocess.STDOUT,
                    env=_child_env(),
                    text=True,
                )
                note(
                    "lease smoke: watcher (client 1002) subscribed via "
                    f"node {contact}, spanning the kill"
                )

        if kill_leader:
            leader = report.first_leader
            note(f"killing group-1 leader process (node {leader}) with SIGKILL")
            children[leader].kill()
            children[leader].wait()
            report.killed_leader = leader
            kill_time = time.time()
            alive = [node for node in alive if node != leader]
            # The dead node's stale views must not satisfy any agreement.
            board.drop_node(leader)
            deadline = kill_time + timeout
            for group in group_ids:
                new_leader = await_agreement(
                    group, alive, deadline, f"re-election (group {group})"
                )
                if new_leader is None:
                    report.reason = report.reason or (
                        f"survivors did not re-elect group {group} within "
                        "timeout"
                    )
                    return report
                # agreed_leader only returns members of `alive`, and the
                # killed node was removed from it, so every group ends on
                # an alive leader — for group 1 necessarily a *new* one.
                report.new_leaders[group] = new_leader
            report.new_leader = report.new_leaders[group_ids[0]]
            report.reelection_seconds = time.time() - kill_time
            note(
                f"survivors re-elected leader(s) {report.new_leaders} after "
                f"{report.reelection_seconds:.2f}s"
            )

            if lease_smoke:
                # The new leader holds grants until its takeover grace
                # runs out, so this client may retry for several seconds.
                note("lease smoke: re-acquiring smoke-lock from a survivor")
                token = _lease_acquire(
                    ports, host, report.new_leader, 1001, 2 * timeout,
                    log_dir / "lease-after-kill.log",
                )
                if token is None:
                    report.reason = (
                        "lease smoke: no grant after the kill (see "
                        "lease-after-kill.log)"
                    )
                    return report
                report.lease_new_token = token
                note(f"lease smoke: re-granted token {token}")
                if token <= report.lease_first_token:
                    report.reason = (
                        "lease smoke: fencing token did not advance across "
                        f"the kill ({report.lease_first_token} -> {token})"
                    )
                    return report

                # The post-kill grant just changed smoke-lock's holder;
                # the spanning watcher must have seen that change arrive
                # as a push notification from the *new* leader.
                push_re = re.compile(
                    r"^HOLDER lease=smoke-lock holder=1001 token=(\d+) "
                    r"via=push",
                    re.MULTILINE,
                )
                push_deadline = time.time() + timeout
                push_token = None
                while time.time() < push_deadline:
                    if watch_log_path.exists():
                        match = push_re.search(watch_log_path.read_text())
                        if match is not None:
                            push_token = int(match.group(1))
                            break
                    time.sleep(0.2)
                if push_token is None:
                    report.reason = (
                        "lease smoke: watcher never saw the post-kill "
                        "holder change via push (see lease-watch.log)"
                    )
                    return report
                report.lease_watch_push_token = push_token
                note(
                    "lease smoke: watcher saw post-kill holder 1001 via "
                    f"push (token {push_token})"
                )

        report.ok = True
        return report
    finally:
        if watch_child is not None and watch_child.poll() is None:
            watch_child.terminate()
            with contextlib.suppress(subprocess.TimeoutExpired):
                watch_child.wait(timeout=5.0)
        if watch_log is not None:
            watch_log.close()
        for child in children.values():
            if child.poll() is None:
                child.terminate()
        for child in children.values():
            with contextlib.suppress(subprocess.TimeoutExpired):
                child.wait(timeout=5.0)
        for thread in threads:
            thread.join(timeout=2.0)
        for log in logs.values():
            log.close()
        (log_dir / "timeline.log").write_text(
            "\n".join(report.timeline) + "\n"
        )
