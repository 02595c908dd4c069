"""Cluster orchestration helpers and the `repro.cli` surface.

The full N-process election (spawn, kill the leader, re-elect) runs as a
dedicated CI smoke job (`python -m repro.cli live`); here we cover the
pure pieces — config validation, line-protocol parsing, agreement logic,
port reservation — and the argument parser, so failures localize.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.core.service import ServiceConfig
from repro.fd.qos import FDQoS
from repro.flags import NODE_FLAGS, apply_flags, flag_argv
from repro.lease import live
from repro.metrics.leadership import replay
from repro.metrics.trace import TraceEvent
from repro.net.message import LeaseReplyMessage
from repro.runtime.cluster import (
    LiveNodeConfig,
    _parse_line,
    _reserve_udp_ports,
    _view_event,
    run_node,
)


class TestLiveNodeConfig:
    def test_valid(self):
        config = LiveNodeConfig(node_id=1, ports=(9001, 9002, 9003))
        assert config.ports[config.node_id] == 9002

    @pytest.mark.parametrize("node_id", [-1, 3, 99])
    def test_node_id_must_index_ports(self, node_id):
        with pytest.raises(ValueError, match="out of range"):
            LiveNodeConfig(node_id=node_id, ports=(9001, 9002, 9003))

    def test_detection_time_must_be_positive(self):
        with pytest.raises(ValueError, match="detection_time"):
            LiveNodeConfig(
                node_id=0,
                ports=(9001,),
                service=ServiceConfig(default_qos=FDQoS(detection_time=0.0)),
            )


def _spawned(nodes, groups=(1,)):
    """The orchestrator's spawn record: one join per (node, group), pid =
    node id."""
    return [
        TraceEvent(time=0.0, kind="join", group=group, pid=node, node=node)
        for node in nodes
        for group in groups
    ]


def _views(*lines):
    """The view events the orchestrator makes of child lines."""
    events = [_view_event(*_parse_line(line), 1.0) for line in lines]
    return [event for event in events if event is not None]


def _killed(node):
    return [TraceEvent(time=2.0, kind="crash", node=node)]


def _agreed(events, group=1):
    """What ``run_cluster`` waits on: the group's replay's common leader."""
    leader = None
    for _, state in replay(events, group, float("inf")):
        leader = state.common_leader()
    return leader


class TestLineProtocol:
    """Every child line is ``KIND key=value ...``: ``emit_line`` writes it,
    ``_parse_line`` reads it, and each LEADER one becomes a ``view`` event."""

    def test_parse_leader_line(self):
        line = "LEADER node=2 group=3 leader=0 t=17.5"
        assert _parse_line(line) == (
            "LEADER", {"node": "2", "group": "3", "leader": "0", "t": "17.5"}
        )
        assert _views(line) == [
            TraceEvent(time=1.0, kind="view", group=3, pid=2, leader=0)
        ]

    def test_parse_none_leader(self):
        assert _views("LEADER node=1 group=2 leader=none t=3.25") == [
            TraceEvent(time=1.0, kind="view", group=2, pid=1, leader=None)
        ]

    @pytest.mark.parametrize(
        "line",
        [
            "READY node=0 port=9000",
            "DONE node=0",
            "",
            "LEADER gibberish",
            "LEADER node=x leader=0",
            "noise LEADER node=0 leader=1",
            pytest.param("LEADER node=2 leader=0 t=17.5", id="groupless LEADER"),
        ],
    )
    def test_non_leader_lines_are_ignored(self, line):
        assert _views(line) == []

    def test_a_daemons_lines_round_trip(self, capsys):
        """A lone daemon elects itself: its real LEADER line makes it the
        replay's common leader."""
        ports = tuple(_reserve_udp_ports("127.0.0.1", 1))
        asyncio.run(run_node(LiveNodeConfig(node_id=0, ports=ports, duration=0.3)))
        out = capsys.readouterr().out.splitlines()
        parsed = [_parse_line(line) for line in out]
        assert sorted(kind for kind, _ in parsed) == ["DONE", "LEADER", "READY"]
        assert ("READY", {"node": "0", "port": str(ports[0])}) in parsed
        assert _agreed(_spawned([0]) + _views(*out)) == 0


class TestLeaderBoard:
    """The live agreement: spawn joins, LEADER views and the SIGKILL's
    crash, folded by the same replay as the simulator's metrics."""

    def test_agreement_requires_every_alive_node(self):
        events = _spawned([0, 1, 2]) + _views(
            "LEADER node=0 group=1 leader=2", "LEADER node=1 group=1 leader=2"
        )
        assert _agreed(events) is None  # node 2 silent
        assert _agreed(events + _views("LEADER node=2 group=1 leader=2")) == 2

    def test_split_views_are_not_agreement(self):
        events = _spawned([0, 1]) + _views(
            "LEADER node=0 group=1 leader=0", "LEADER node=1 group=1 leader=1"
        )
        assert _agreed(events) is None

    def test_agreeing_on_none_is_not_agreement(self):
        events = _spawned([0, 1]) + _views(
            "LEADER node=0 group=1 leader=none", "LEADER node=1 group=1 leader=none"
        )
        assert _agreed(events) is None

    def test_agreeing_on_a_dead_node_is_not_agreement(self):
        """Survivors still pointing at the killed leader must not count."""
        events = _spawned([0, 1, 2]) + _views(
            "LEADER node=0 group=1 leader=2", "LEADER node=1 group=1 leader=2"
        )
        assert _agreed(events + _killed(2)) is None  # 2 is not alive

    def test_groups_are_tracked_independently(self):
        events = _spawned([0, 1, 2], groups=(1, 2)) + _views(
            *(f"LEADER node={node} group=1 leader=2" for node in (0, 1, 2)),
            *(f"LEADER node={node} group=2 leader=0" for node in (0, 1, 2)),
        )
        assert _agreed(events, group=1) == 2
        assert _agreed(events, group=2) == 0

    def test_drop_node_forgets_all_its_views(self):
        """A killed node's views count in no group: its stale self-view
        neither makes it leader nor blocks the survivors' agreement."""
        events = _spawned([0, 1], groups=(1, 2)) + _views(
            "LEADER node=0 group=1 leader=0",
            "LEADER node=0 group=2 leader=0",
            "LEADER node=1 group=1 leader=0",
        )
        assert _agreed(events + _killed(0)) is None  # 0 is not alive anyway
        survivors = _views("LEADER node=1 group=1 leader=1", "LEADER node=1 group=2 leader=1")
        assert _agreed(events + _killed(0) + survivors, group=1) == 1
        assert _agreed(events + _killed(0) + survivors, group=2) == 1


class TestPortReservation:
    def test_reserves_distinct_free_ports(self):
        ports = _reserve_udp_ports("127.0.0.1", 5)
        assert len(ports) == 5
        assert len(set(ports)) == 5
        assert all(1024 <= port <= 65535 for port in ports)


class TestCli:
    def test_live_defaults(self):
        args = build_parser().parse_args(["live"])
        assert args.command == "live"
        assert args.nodes == 3
        assert args.detection_time == 1.0
        assert not args.no_kill

    def test_node_requires_identity_and_ports(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node"])

    def test_node_parses_ports(self):
        args = build_parser().parse_args(
            ["node", "--node-id", "1", "--ports", "9001,9002"]
        )
        assert args.node_id == 1
        assert args.ports == "9001,9002"

    def test_spawned_daemon_argv_carries_the_service(self):
        service = ServiceConfig(
            algorithm="omega_l", default_qos=FDQoS(detection_time=0.5), fd_variant="nfde"
        )
        argv = flag_argv(service, NODE_FLAGS)
        args = build_parser().parse_args(["node", "--node-id", "0", "--ports", "1,2", *argv])
        assert apply_flags(args, ServiceConfig()) == service

    def test_bad_ports_string_is_a_usage_error(self):
        exit_code = main(["node", "--node-id", "0", "--ports", "9001,abc"])
        assert exit_code == 2

    def test_experiment_forwards_to_experiments_cli(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        out = capsys.readouterr().out
        assert "repro-experiment" in out  # the experiments parser answered

    def test_self_transfer_is_a_usage_error(self, capsys):
        exit_code = main([
            "lease", "transfer", "--ports", "1,2", "--name", "x",
            "--client-id", "7", "--successor", "7", "--timeout", "1",
        ])
        assert exit_code == 2
        assert "--successor" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class _AnsweringClient:
    """A lease client that answers at once: a grant (token 5), a transfer
    (token 9) unless told to refuse it, and two holder changes — one from
    a (re-)subscribe poll, then one pushed."""

    on_lost = None

    def __init__(self, transfers=True):
        self.transfers = transfers

    def acquire(self, name, ttl, callback):
        callback(LeaseReplyMessage(0, 0, status="granted", token=5, expiry=2.5))

    def transfer(self, name, successor, callback):
        if self.transfers:
            callback(LeaseReplyMessage(0, 0, status="granted", token=9, holder=successor))
        return self.transfers

    def watch(self, name, callback, period):
        callback(LeaseReplyMessage(0, 0, holder=1000, token=5, nonce=4))
        callback(LeaseReplyMessage(0, 0, holder=1001, token=7, nonce=0))
        return lambda: None

    def release(self, name):
        return False

    def close(self):
        pass


class TestLeaseSmokeLineProtocol:
    """The lease clients' real lines, read back by the orchestrator's parser
    with the fields ``run_cluster`` asks for."""

    @staticmethod
    def _run(monkeypatch, capsys, entry, client=None, **kwargs):
        async def open_client(**_):
            return SimpleNamespace(close=lambda: None), client or _AnsweringClient()

        monkeypatch.setattr(live, "_open_client", open_client)
        code = asyncio.run(entry(name="smoke-lock", host="127.0.0.1", ports=(1,), **kwargs))
        return code, [_parse_line(line) for line in capsys.readouterr().out.splitlines()]

    def test_granted_line_parses(self, monkeypatch, capsys):
        code, lines = self._run(monkeypatch, capsys, live.acquire_main)
        assert code == 0
        assert lines == [("GRANTED", {"lease": "smoke-lock", "token": "5", "expiry": "2.500000"})]

    def test_transferred_line_parses(self, monkeypatch, capsys):
        code, lines = self._run(monkeypatch, capsys, live.transfer_main, successor=1004)
        assert code == 0
        assert [kind for kind, _ in lines] == ["GRANTED", "TRANSFERRED"]
        assert lines[1][1] == {"lease": "smoke-lock", "successor": "1004", "token": "9"}

    def test_only_a_transferred_line_is_transferred(self):
        for line in (
            "GRANTED lease=handoff-lock token=42 expiry=17.5",
            "DENIED lease=handoff-lock",
            "noise TRANSFERRED lease=x successor=1 token=2",
        ):
            assert _parse_line(line)[0] != "TRANSFERRED"

    def test_push_holder_line_shape(self, monkeypatch, capsys):
        code, lines = self._run(monkeypatch, capsys, live.watch_main, duration=0.0)
        assert code == 0
        wanted = {"holder": "1001", "via": "push"}.items()  # what run_cluster awaits
        assert [fields["token"] for kind, fields in lines
                if kind == "HOLDER" and wanted <= fields.items()] == ["7"]
        assert ("HOLDER", {"lease": "smoke-lock", "holder": "1000", "token": "5",
                           "via": "poll"}) in lines

    def test_a_transfer_the_client_will_not_send_is_refused(self, monkeypatch, capsys):
        client = _AnsweringClient(transfers=False)
        code, lines = self._run(
            monkeypatch, capsys, live.transfer_main, client=client, successor=1004
        )
        assert code == 1
        assert [kind for kind, _ in lines] == ["GRANTED", "REFUSED"]
