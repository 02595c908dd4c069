"""Top-level CLI: live asyncio/UDP clusters and the experiment runner.

Subcommands::

    python -m repro.cli live --nodes 3            # N-process localhost
                                                  # cluster; kills the leader
                                                  # and watches re-election
    python -m repro.cli node --node-id 0 \\
        --ports 47001,47002,47003                 # one daemon (used by live)
    python -m repro.cli experiment ...            # forwarded verbatim to
                                                  # repro.experiments.cli
    python -m repro.cli chaos fuzz --runs 50      # forwarded verbatim to
                                                  # repro.chaos.cli

``live`` is the quickest way to see the paper's service as a *service*:
real daemons, real UDP datagrams, a real ``kill -9`` of the leader, and a
measured live re-election time (the wall-clock counterpart of the paper's
Tr).  Exit status is 0 only if the cluster elected exactly one stable
leader both before and after the kill.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.service import ServiceConfig
from repro.flags import LIVE_FLAGS, NODE_FLAGS, add_flags, apply_flags

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stable leader election service — live clusters and "
        "simulated experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    live = sub.add_parser(
        "live",
        help="boot an N-process localhost UDP cluster, kill the leader, "
        "verify re-election",
    )
    add_flags(live, LIVE_FLAGS, ServiceConfig)
    # A laptop-sized cluster by default, not the paper's twelve workstations.
    live.set_defaults(nodes=3, groups=1)
    live.add_argument("--host", default="127.0.0.1")
    live.add_argument(
        "--base-port",
        type=int,
        default=None,
        help="first UDP port (node i uses base+i); default: pick free ports",
    )
    live.add_argument(
        "--no-kill",
        action="store_true",
        help="only elect; skip the leader kill + re-election phase",
    )
    live.add_argument(
        "--lease-smoke",
        action="store_true",
        help="also run a lease client before/after the kill and require the "
        "fencing token to advance",
    )
    live.add_argument(
        "--stable-seconds",
        type=float,
        default=1.5,
        help="how long an agreed leader must hold to count as stable",
    )
    live.add_argument(
        "--timeout", type=float, default=20.0, help="per-phase agreement timeout, s"
    )
    live.add_argument(
        "--log-dir",
        type=Path,
        default=Path("live-cluster-logs"),
        help="per-node logs land here (CI uploads them as artifacts)",
    )

    node = sub.add_parser("node", help="run one live daemon (spawned by `live`)")
    node.add_argument("--node-id", type=int, required=True)
    node.add_argument(
        "--ports",
        required=True,
        help="comma-separated UDP port of every node, indexed by node id",
    )
    node.add_argument("--host", default="127.0.0.1")
    node.add_argument(
        "--group", type=int, default=1, help="first hosted group id"
    )
    add_flags(node, NODE_FLAGS, ServiceConfig)
    node.set_defaults(groups=1)
    node.add_argument(
        "--duration",
        type=float,
        default=None,
        help="exit voluntarily after this many seconds (default: run forever)",
    )
    node.add_argument(
        "--chaos-script",
        type=Path,
        default=None,
        help="ChaosScript JSON applied to this node's transport "
        "(transport-level steps only)",
    )

    lease = sub.add_parser(
        "lease",
        help="lease/lock client against a live cluster "
        "(acquire | watch | transfer)",
    )
    lease_sub = lease.add_subparsers(dest="lease_command", required=True)

    def lease_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--ports",
            required=True,
            help="comma-separated UDP port of every daemon, indexed by node id",
        )
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument("--name", required=True, help="lease/lock name")
        sub_parser.add_argument("--group", type=int, default=1)
        sub_parser.add_argument(
            "--contact-node",
            type=int,
            default=0,
            help="daemon to send requests to until a redirect teaches better",
        )

    acquire = lease_sub.add_parser(
        "acquire", help="acquire, hold (auto-renewing), release, exit"
    )
    lease_common(acquire)
    acquire.add_argument("--client-id", type=int, default=1000)
    acquire.add_argument(
        "--ttl", type=float, default=0.0, help="requested validity s (0: server max)"
    )
    acquire.add_argument(
        "--hold", type=float, default=0.0, help="seconds to hold before releasing"
    )
    acquire.add_argument(
        "--timeout", type=float, default=30.0, help="give up if no grant by then"
    )

    watch = lease_sub.add_parser(
        "watch",
        help="print HOLDER lines on every ownership change (push "
        "notifications; each line says via=push or via=poll)",
    )
    lease_common(watch)
    watch.add_argument("--client-id", type=int, default=1001)
    watch.add_argument(
        "--period",
        type=float,
        default=1.0,
        help="deadman re-subscribe cadence s (the polling fallback)",
    )
    watch.add_argument("--duration", type=float, default=10.0, help="watch this long")

    transfer = lease_sub.add_parser(
        "transfer",
        help="acquire the lease, then hand it off to --successor "
        "(prints GRANTED then TRANSFERRED with the advanced token)",
    )
    lease_common(transfer)
    transfer.add_argument("--client-id", type=int, default=1003)
    transfer.add_argument(
        "--successor", type=int, required=True, help="client id to hand the lease to"
    )
    transfer.add_argument(
        "--ttl", type=float, default=0.0, help="requested validity s (0: server max)"
    )
    transfer.add_argument(
        "--timeout", type=float, default=30.0, help="give up if not granted by then"
    )

    sub.add_parser(
        "experiment",
        help="simulated experiments (all further args go to repro.experiments.cli)",
        add_help=False,
    )
    sub.add_parser(
        "chaos",
        help="chaos harness: scripted scenarios, invariant checks, "
        "seed-replayable fuzzing (all further args go to repro.chaos.cli)",
        add_help=False,
    )
    return parser


def _run_live(args: argparse.Namespace, service: ServiceConfig) -> int:
    from repro.runtime.cluster import run_cluster

    ports = None
    if args.base_port is not None:
        ports = [args.base_port + i for i in range(args.nodes)]
    report = run_cluster(
        args.nodes,
        groups=args.groups,
        host=args.host,
        ports=ports,
        service=service,
        kill_leader=not args.no_kill,
        lease_smoke=args.lease_smoke,
        stable_seconds=args.stable_seconds,
        timeout=args.timeout,
        log_dir=args.log_dir,
    )
    print(report.summary(), flush=True)
    return 0 if report.ok else 1


def _run_node(args: argparse.Namespace) -> int:
    from repro.runtime.cluster import LiveNodeConfig, node_main

    try:
        ports = tuple(int(port) for port in args.ports.split(","))
    except ValueError:
        print(f"--ports must be comma-separated integers (got {args.ports!r})",
              file=sys.stderr)
        return 2
    try:
        config = LiveNodeConfig(
            node_id=args.node_id,
            ports=ports,
            host=args.host,
            groups=tuple(range(args.group, args.group + args.groups)),
            service=apply_flags(args, ServiceConfig()),
            duration=args.duration,
            chaos_script=args.chaos_script,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return node_main(config)


def _run_lease(args: argparse.Namespace) -> int:
    import asyncio

    from repro.lease.live import acquire_main, transfer_main, watch_main

    try:
        ports = tuple(int(port) for port in args.ports.split(","))
    except ValueError:
        print(f"--ports must be comma-separated integers (got {args.ports!r})",
              file=sys.stderr)
        return 2
    if not 0 <= args.contact_node < len(ports):
        print(f"--contact-node {args.contact_node} out of range for "
              f"{len(ports)} ports", file=sys.stderr)
        return 2
    if args.lease_command == "transfer" and args.successor == args.client_id:
        print(f"--successor {args.successor} is this client's own --client-id; "
              "a lease cannot be transferred to its holder", file=sys.stderr)
        return 2
    if args.lease_command == "acquire":
        return asyncio.run(acquire_main(
            name=args.name,
            host=args.host,
            ports=ports,
            group=args.group,
            client_id=args.client_id,
            ttl=args.ttl,
            hold=args.hold,
            timeout=args.timeout,
            contact_node=args.contact_node,
        ))
    if args.lease_command == "transfer":
        return asyncio.run(transfer_main(
            name=args.name,
            host=args.host,
            ports=ports,
            successor=args.successor,
            group=args.group,
            client_id=args.client_id,
            ttl=args.ttl,
            timeout=args.timeout,
            contact_node=args.contact_node,
        ))
    return asyncio.run(watch_main(
        name=args.name,
        host=args.host,
        ports=ports,
        group=args.group,
        client_id=args.client_id,
        period=args.period,
        duration=args.duration,
        contact_node=args.contact_node,
    ))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `experiment` and `chaos` forward everything (including --help) verbatim.
    if argv and argv[0] == "experiment":
        from repro.experiments.cli import main as experiment_main

        return experiment_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.chaos.cli import main as chaos_main

        return chaos_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "live":
        if args.nodes < 2:
            parser.error(f"--nodes must be >= 2 (got {args.nodes})")
        if args.groups < 1:
            parser.error(f"--groups must be >= 1 (got {args.groups})")
        try:
            service = apply_flags(args, ServiceConfig())
        except ValueError as exc:
            parser.error(str(exc))
        return _run_live(args, service)
    if args.command == "lease":
        return _run_lease(args)
    return _run_node(args)


if __name__ == "__main__":
    raise SystemExit(main())
