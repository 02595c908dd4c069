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
  survivors to re-elect, and verifies the new leader is stable.  Per-child
  output is teed into log files for post-mortems (CI uploads them as
  artifacts).

Every child — daemon or ``repro lease`` client — speaks one line protocol,
one event per line, ``KIND key=value ...``, written by :func:`emit_line`
and read back by ``_parse_line``::

    READY node=2 port=47012
    LEADER node=2 group=1 leader=0 t=1721901758.482911
    DONE node=2
    GRANTED lease=smoke-lock token=268435713 expiry=1721901760.482911
    TRANSFERRED lease=handoff-lock successor=1004 token=536871169
    HOLDER lease=smoke-lock holder=1001 token=805306625 via=push

``leader=none`` means the node currently sees no leader for that group.
Since the multi-group scale-out a daemon hosts ``--groups N`` groups over
one shared FD plane; every group elects (and re-elects) independently.  The
orchestrator turns the ``LEADER`` lines into ``view`` trace events
(:attr:`ClusterReport.trace`) and waits on each group's
:class:`~repro.metrics.leadership.LeaderReplay`, the predicate the
simulator's metrics fold.  The lease clients'
lines are documented in :mod:`repro.lease.live`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
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
from repro.metrics.leadership import LeaderReplay
from repro.metrics.trace import TraceEvent
from repro.net.node import Node
from repro.runtime.realtime import RealtimeScheduler, UdpTransport
from repro.sim.rng import RngRegistry

__all__ = [
    "LiveNodeConfig", "ClusterReport", "emit_line", "run_node", "node_main", "run_cluster",
]


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


def emit_line(kind: str, **fields: object) -> None:
    """One protocol line, ``KIND key=value ...``; flushed so parent pipes
    see it immediately."""
    print(" ".join([kind, *(f"{key}={value}" for key, value in fields.items())]), flush=True)


def _parse_line(line: str) -> Tuple[str, Dict[str, str]]:
    """``KIND key=value ...`` → (KIND, {key: value}); words without ``=``
    are dropped, and a blank line is ("", {})."""
    kind, *words = line.split() or [""]
    return kind, dict(word.split("=", 1) for word in words if "=" in word)


def _view_event(kind: str, fields: Dict[str, str], now: float) -> Optional[TraceEvent]:
    """A parsed ``LEADER`` line as the ``view`` trace event it reports
    (pid = node id); None for any other or malformed line."""
    if kind == "LEADER":
        with contextlib.suppress(KeyError, ValueError):
            leader = fields["leader"]
            return TraceEvent(
                time=now, kind="view", group=int(fields["group"]), pid=int(fields["node"]),
                leader=None if leader == "none" else int(leader),
            )
    return None


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
        emit_line(
            "LEADER", node=config.node_id, group=group,
            leader="none" if leader is None else leader, t=f"{scheduler.now:.6f}",
        )

    # One application process per node (pid = node id), driving the daemon
    # through the public handle API — the same surface simulated code uses.
    app = Application(pid=config.node_id)
    for group in config.groups:
        handle = app.join(group, candidate=True, qos=config.service.default_qos)
        handle.watch_leader(on_leader_change)
    app.bind(CommandHandler(service))
    emit_line("READY", node=config.node_id, port=config.ports[config.node_id])
    if chaos_controller is not None:
        chaos_controller.start()
        emit_line("CHAOS", node=config.node_id, steps=len(chaos_controller.script.steps))

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
    emit_line("DONE", node=config.node_id)


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
    #: Per-group outcomes; group 1's leader is the one killed.
    first_leaders: Dict[int, int] = field(default_factory=dict)
    new_leaders: Dict[int, int] = field(default_factory=dict)
    #: Seconds from cluster start to the first whole-cluster agreement.
    election_seconds: Optional[float] = None
    killed_leader: Optional[int] = None
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
    #: The run as a trace of the daemons' processes (pid = node id, stamped
    #: with the orchestrator's clock): a ``join`` per hosted group at spawn,
    #: every ``LEADER`` line as a ``view``, a ``crash`` at the SIGKILL.
    trace: List[TraceEvent] = field(default_factory=list)

    @property
    def first_leader(self) -> Optional[int]:
        return self.first_leaders.get(1)

    @property
    def new_leader(self) -> Optional[int]:
        return self.new_leaders.get(1)

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


class _Abort(Exception):
    """A failed phase; its message becomes :attr:`ClusterReport.reason`."""


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


def _pump_output(
    label: str, stream: IO[str], queue: "Queue[Tuple[str, str]]", log: IO[str]
) -> None:
    for line in stream:
        line = line.rstrip("\n")
        log.write(f"{time.time():.6f} {line}\n")
        log.flush()
        queue.put((label, line))


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
    port_list = ",".join(map(str, ports))
    # Children outlive every phase timeout, then exit on their own even if
    # this orchestrator dies mid-run.  The lease smoke adds the acquire and
    # transfer round trips, a post-kill acquire that rides out the takeover
    # grace, and the wait for the watcher's push line.
    child_duration = timeout * 3 + 30.0 + (4 * timeout if lease_smoke else 0.0)

    def note(line: str) -> None:
        report.timeline.append(f"{time.time():.3f} {line}")
        if echo:
            print(line, flush=True)

    queue: "Queue[Tuple[str, str]]" = Queue()
    children: Dict[str, subprocess.Popen] = {}  # by label, which names the log
    pumps: Dict[str, threading.Thread] = {}
    logs: List[IO[str]] = []
    heard: List[Tuple[str, str, Dict[str, str]]] = []  # (label, kind, fields)
    # Each group's agreement is its replay's common leader.
    replays = {group: LeaderReplay() for group in group_ids}

    def record(event: TraceEvent) -> None:
        report.trace.append(event)
        for group, replay in replays.items():
            if event.group is None or event.group == group:
                replay.apply(event)

    def spawn(label: str, *argv: str) -> None:
        """Start ``repro.cli <argv>``; its lines reach ``drain`` and
        ``<label>.log``."""
        child = children[label] = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_child_env(),
            text=True,
        )
        logs.append(open(log_dir / f"{label}.log", "w"))
        pumps[label] = threading.Thread(
            target=_pump_output, args=(label, child.stdout, queue, logs[-1]), daemon=True
        )
        pumps[label].start()

    def lease_client(label: str, op: str, name: str, contact: int, client: int,
                     *extra: str) -> None:
        """Start a ``repro lease <op>`` client: the code path a user's
        ``repro lease`` takes, real UDP included."""
        spawn(label, "lease", op, "--ports", port_list, "--host", host, "--name", name,
              "--contact-node", str(contact), "--client-id", str(client), *extra)

    def drain(deadline: float) -> None:
        """Take one queued child line, if one comes before ``deadline``."""
        budget = max(0.0, deadline - time.time())
        try:
            label, line = queue.get(timeout=min(budget, 0.2) or 0.01)
        except Empty:
            return
        kind, fields = _parse_line(line)
        view = _view_event(kind, fields, time.time())
        if view is not None:
            record(view)
        heard.append((label, kind, fields))
        note(f"  [{label}] {line}")

    def await_line(label: str, kind: str, seconds: float, **want: str) -> Dict[str, str]:
        """The fields of the first ``kind`` line ``label`` printed that has
        ``want``, waiting up to ``seconds`` (+10 s to start a process)."""
        deadline = time.time() + seconds + 10.0
        while True:
            for source, said, fields in heard:
                if source == label and said == kind and want.items() <= fields.items():
                    return fields
            # Its pump ends after queueing the child's last line.
            if time.time() >= deadline or (not pumps[label].is_alive() and queue.empty()):
                raise _Abort(f"lease smoke: no {kind} line from {label} (see {label}.log)")
            drain(deadline)

    def await_agreement(group: int, deadline: float, label: str) -> int:
        """Wait for the group's common leader, held stably.

        Fails fast (rather than burning the whole timeout) when any node
        the replay holds alive has exited — e.g. a lost port-reserve
        race at startup; the real cause is in its node-N.log.
        """
        agreed: Optional[int] = None
        agreed_since = 0.0
        while time.time() < deadline:
            dead = [
                f"node {n} (exit {code})"
                for n in sorted(replays[group].alive)
                if (code := children[f"node-{n}"].poll()) is not None
            ]
            if dead:
                losses = ", ".join(dead)
                note(f"daemon process died during {label}: {losses}")
                raise _Abort(f"daemon exited early during {label}: {losses}")
            drain(deadline)
            current = replays[group].common_leader()
            if current != agreed:
                agreed, agreed_since = current, time.time()
            elif agreed is not None and time.time() - agreed_since >= stable_seconds:
                return agreed
        note(f"timeout waiting for {label}; views={replays[group].views}")
        raise _Abort(f"no whole-cluster leader agreement within timeout ({label})")

    try:
        note(
            f"starting {n_nodes} daemons x {groups} group(s) on {host} "
            f"ports {ports}"
        )
        start_time = time.time()
        for node_id in range(n_nodes):
            spawn(
                f"node-{node_id}", "node", "--node-id", str(node_id), "--ports", port_list,
                "--host", host, "--groups", str(groups), *flag_argv(service, NODE_FLAGS),
                "--duration", str(child_duration),
            )
            for group in group_ids:
                record(TraceEvent(
                    time=time.time(), kind="join", group=group, pid=node_id, node=node_id,
                ))

        for group in group_ids:
            report.first_leaders[group] = await_agreement(
                group, start_time + timeout, f"first election (group {group})",
            )
        report.election_seconds = time.time() - start_time
        note(
            f"cluster agreed on leader(s) {report.first_leaders} after "
            f"{report.election_seconds:.2f}s"
        )

        first = report.first_leader
        if lease_smoke:
            note("lease smoke: acquiring smoke-lock via a client subprocess")
            lease_client("lease-before-kill", "acquire", "smoke-lock", first, 1000,
                         "--ttl", "2.0", "--timeout", str(timeout))
            token = int(await_line("lease-before-kill", "GRANTED", timeout)["token"])
            report.lease_first_token = token
            note(f"lease smoke: granted token {token}")

            # The client acquires handoff-lock and at once hands it to a
            # successor: the same fencing contract as across the kill.
            note("lease smoke: transferring handoff-lock to a successor")
            lease_client("lease-transfer", "transfer", "handoff-lock", first, 1003,
                         "--successor", "1004", "--ttl", "2.0", "--timeout", str(timeout))
            before = int(await_line("lease-transfer", "GRANTED", timeout)["token"])
            after = int(await_line("lease-transfer", "TRANSFERRED", timeout)["token"])
            report.lease_transfer_first_token, report.lease_transfer_token = before, after
            if after <= before:
                raise _Abort(
                    "lease smoke: fencing token did not advance across the "
                    f"transfer ({before} -> {after})"
                )
            note(f"lease smoke: transfer advanced token {before} -> {after}")

            if kill_leader:
                # Subscribe a watcher that spans the kill.  Its contact
                # node must survive the kill so the resubscribe after the
                # failover (deadman poll → redirect) can reach the new
                # leader; the first leader is the node about to die.
                contact = next(node for node in range(n_nodes) if node != first)
                lease_client("lease-watch", "watch", "smoke-lock", contact, 1002,
                             "--period", "1.0", "--duration", str(4 * timeout + 30.0))
                note(
                    "lease smoke: watcher (client 1002) subscribed via "
                    f"node {contact}, spanning the kill"
                )

        if kill_leader:
            note(f"killing group-1 leader process (node {first}) with SIGKILL")
            children[f"node-{first}"].kill()
            children[f"node-{first}"].wait()
            report.killed_leader = first
            kill_time = time.time()
            # The crash takes the node's processes, its stale views and its
            # candidacy out of every group's replay, so every group ends on
            # an alive leader — for group 1 necessarily a *new* one.
            record(TraceEvent(time=kill_time, kind="crash", node=first))
            for group in group_ids:
                report.new_leaders[group] = await_agreement(
                    group, kill_time + timeout, f"re-election (group {group})",
                )
            report.reelection_seconds = time.time() - kill_time
            note(
                f"survivors re-elected leader(s) {report.new_leaders} after "
                f"{report.reelection_seconds:.2f}s"
            )

            if lease_smoke:
                # The new leader holds grants until its takeover grace
                # runs out, so this client may retry for several seconds.
                note("lease smoke: re-acquiring smoke-lock from a survivor")
                lease_client("lease-after-kill", "acquire", "smoke-lock", report.new_leader,
                             1001, "--ttl", "2.0", "--timeout", str(2 * timeout))
                token = int(await_line("lease-after-kill", "GRANTED", 2 * timeout)["token"])
                report.lease_new_token = token
                note(f"lease smoke: re-granted token {token}")
                if token <= report.lease_first_token:
                    raise _Abort(
                        "lease smoke: fencing token did not advance across "
                        f"the kill ({report.lease_first_token} -> {token})"
                    )
                # The post-kill grant just changed smoke-lock's holder;
                # the spanning watcher must have seen that change arrive
                # as a push notification from the *new* leader.
                push = await_line("lease-watch", "HOLDER", timeout, holder="1001", via="push")
                report.lease_watch_push_token = int(push["token"])
                note(
                    "lease smoke: watcher saw post-kill holder 1001 via "
                    f"push (token {report.lease_watch_push_token})"
                )

        report.ok = True
    except _Abort as exc:
        report.reason = str(exc)
    finally:
        for child in children.values():
            if child.poll() is None:
                child.terminate()
        for child in children.values():
            with contextlib.suppress(subprocess.TimeoutExpired):
                child.wait(timeout=5.0)
        for thread in pumps.values():
            thread.join(timeout=2.0)
        for log in logs:
            log.close()
        (log_dir / "timeline.log").write_text(
            "\n".join(report.timeline) + "\n"
        )
    return report
