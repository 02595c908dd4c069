"""Error paths of the top-level ``repro`` CLI.

The happy paths (live clusters, forwarded experiment sweeps) are covered
by tests/runtime/test_cluster.py and tests/experiments/test_cli.py; this
file pins the *failure* contract: bad input exits with status 2 and one
human-readable stderr line, never a traceback.
"""

import socket

import pytest

from repro import cli


class TestArgumentErrors:
    def test_bad_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_live_rejects_too_few_nodes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["live", "--nodes", "1"])
        assert exc.value.code == 2
        assert "--nodes must be >= 2" in capsys.readouterr().err

    def test_node_rejects_malformed_ports(self, capsys):
        rc = cli.main(["node", "--node-id", "0", "--ports", "47001,banana"])
        assert rc == 2
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chaos", "replay", "--seed", "0", "--detection-time", "0"],
             "detection_time must be > 0"),
            (["chaos", "replay", "--seed", "0", "--qos", "-1"],
             "detection_time must be > 0"),
            (["live", "--nodes", "2", "--qos", "0"], "detection_time must be > 0"),
        ],
    )
    def test_bad_values_are_usage_errors(self, argv, message, capsys):
        # Refused where the config is built: no traceback, no daemon spawned.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_node_rejects_bad_qos(self, capsys):
        rc = cli.main(["node", "--node-id", "0", "--ports", "0,0", "--qos", "0"])
        assert rc == 2
        assert "detection_time must be > 0" in capsys.readouterr().err

    def test_node_rejects_out_of_range_node_id(self, capsys):
        rc = cli.main(["node", "--node-id", "5", "--ports", "47001,47002"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


class TestNodeEnvironmentErrors:
    def test_unreachable_port_exits_2_with_reason(self, capsys):
        # Occupy a UDP port, then ask a daemon to bind it: the node must
        # report the OS error and exit 2, not die with a traceback.
        blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            rc = cli.main(
                [
                    "node",
                    "--node-id", "0",
                    "--ports", f"{port},{port + 1}",
                    "--duration", "0.1",
                ]
            )
        finally:
            blocker.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot serve on" in err
        assert str(port) in err

    def test_live_unsupported_chaos_script_exits_2(self, tmp_path, capsys):
        # Host-level steps need the simulator's fault plane; a live node
        # must refuse them at startup.
        import json

        script = tmp_path / "burst.json"
        script.write_text(
            json.dumps(
                {
                    "duration": 5.0,
                    "steps": [
                        {"step": "churn_burst", "at": 0.5, "k": 1, "downtime": 1.0},
                        {"step": "heal", "at": 1.0},
                    ],
                }
            )
        )
        rc = cli.main(
            [
                "node",
                "--node-id", "0",
                "--ports", "0,0",
                "--duration", "0.1",
                "--chaos-script", str(script),
            ]
        )
        assert rc == 2
        assert "churn_burst" in capsys.readouterr().err

    def test_missing_chaos_script_names_the_file_not_the_port(
        self, tmp_path, capsys
    ):
        rc = cli.main(
            [
                "node",
                "--node-id", "0",
                "--ports", "0,0",
                "--duration", "0.1",
                "--chaos-script", str(tmp_path / "nope.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot read chaos script" in err
        assert "cannot serve on" not in err

    def test_malformed_chaos_script_exits_2(self, tmp_path, capsys):
        # An unexpected step key raises TypeError inside the step
        # constructor; the node must map it to the same clean exit.
        import json

        script = tmp_path / "bad.json"
        script.write_text(
            json.dumps(
                {
                    "duration": 5.0,
                    "steps": [{"step": "drop", "at": 0.5, "rate": 0.2, "bogus": 1}],
                }
            )
        )
        rc = cli.main(
            [
                "node",
                "--node-id", "0",
                "--ports", "0,0",
                "--duration", "0.1",
                "--chaos-script", str(script),
            ]
        )
        assert rc == 2
        assert "invalid chaos script" in capsys.readouterr().err


class TestForwarding:
    def test_experiment_forwards_to_experiments_cli(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiment", "--help"])
        assert exc.value.code == 0
        assert "figure" in capsys.readouterr().out

    def test_chaos_forwards_to_chaos_cli(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chaos", "--help"])
        assert exc.value.code == 0
        assert "fuzz" in capsys.readouterr().out

    def test_chaos_bad_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chaos", "explode"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["replay", "--seed", "0"], ["fuzz"]])
    def test_chaos_profile_errors_are_usage_errors(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chaos", *command, "--lease-clients", "-1"])
        assert exc.value.code == 2
        assert "n_lease_clients must be >= 0" in capsys.readouterr().err
