"""Cluster orchestration helpers and the `repro.cli` surface.

The full N-process election (spawn, kill the leader, re-elect) runs as a
dedicated CI smoke job (`python -m repro.cli live`); here we cover the
pure pieces — config validation, line-protocol parsing, agreement logic,
port reservation — and the argument parser, so failures localize.
"""

import re

import pytest

from repro.cli import build_parser, main
from repro.core.service import ServiceConfig
from repro.fd.qos import FDQoS
from repro.flags import NODE_FLAGS, apply_flags, flag_argv
from repro.runtime.cluster import (
    LiveNodeConfig,
    _LeaderBoard,
    _parse_leader,
    _reserve_udp_ports,
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


class TestLineProtocol:
    def test_parse_leader_line(self):
        assert _parse_leader("LEADER node=2 group=3 leader=0 t=17.5") == (2, 3, 0)

    def test_parse_none_leader(self):
        assert _parse_leader("LEADER node=1 group=2 leader=none t=3.25") == (
            1,
            2,
            None,
        )

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
        assert _parse_leader(line) is None


class TestLeaderBoard:
    def test_agreement_requires_every_alive_node(self):
        board = _LeaderBoard()
        board.record(0, 1, 2)
        board.record(1, 1, 2)
        assert board.agreed_leader(1, [0, 1, 2]) is None  # node 2 silent
        board.record(2, 1, 2)
        assert board.agreed_leader(1, [0, 1, 2]) == 2

    def test_split_views_are_not_agreement(self):
        board = _LeaderBoard()
        board.record(0, 1, 0)
        board.record(1, 1, 1)
        assert board.agreed_leader(1, [0, 1]) is None

    def test_agreeing_on_none_is_not_agreement(self):
        board = _LeaderBoard()
        board.record(0, 1, None)
        board.record(1, 1, None)
        assert board.agreed_leader(1, [0, 1]) is None

    def test_agreeing_on_a_dead_node_is_not_agreement(self):
        """Survivors still pointing at the killed leader must not count."""
        board = _LeaderBoard()
        board.record(0, 1, 2)
        board.record(1, 1, 2)
        assert board.agreed_leader(1, [0, 1]) is None  # 2 is not alive

    def test_groups_are_tracked_independently(self):
        board = _LeaderBoard()
        board.record(0, 1, 2)
        board.record(1, 1, 2)
        board.record(2, 1, 2)
        board.record(0, 2, 0)
        board.record(1, 2, 0)
        board.record(2, 2, 0)
        assert board.agreed_leader(1, [0, 1, 2]) == 2
        assert board.agreed_leader(2, [0, 1, 2]) == 0

    def test_drop_node_forgets_all_its_views(self):
        board = _LeaderBoard()
        board.record(0, 1, 0)
        board.record(0, 2, 0)
        board.record(1, 1, 0)
        board.drop_node(0)
        assert board.agreed_leader(1, [1]) is None  # 0 is not alive anyway
        assert (1, 0) not in board.views and (2, 0) not in board.views


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

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class TestLeaseSmokeLineProtocol:
    def test_granted_line_parses(self):
        from repro.runtime.cluster import _GRANTED_RE

        match = _GRANTED_RE.search("GRANTED lease=smoke-lock token=42 expiry=17.5\n")
        assert match and int(match.group(1)) == 42

    def test_transferred_line_parses(self):
        from repro.runtime.cluster import _TRANSFERRED_RE

        line = "TRANSFERRED lease=handoff-lock successor=1004 token=99\n"
        match = _TRANSFERRED_RE.search(line)
        assert match and int(match.group(1)) == 99

    def test_transferred_regex_ignores_other_lines(self):
        from repro.runtime.cluster import _TRANSFERRED_RE

        for line in (
            "GRANTED lease=handoff-lock token=42 expiry=17.5",
            "DENIED lease=handoff-lock",
            "noise TRANSFERRED lease=x successor=1 token=2",
        ):
            assert _TRANSFERRED_RE.search(line) is None

    def test_push_holder_line_shape(self):
        # The watcher assertion in run_cluster keys on via=push; pin the
        # exact line the CLI emits so the two sides cannot drift apart.
        pattern = re.compile(
            r"^HOLDER lease=smoke-lock holder=1001 token=(\d+) via=push",
            re.MULTILINE,
        )
        assert pattern.search(
            "HOLDER lease=smoke-lock holder=1001 token=7 via=push\n"
        )
        assert not pattern.search(
            "HOLDER lease=smoke-lock holder=1001 token=7 via=poll\n"
        )
