"""Tests for the command-line entry point."""

import pytest

from repro.experiments.cli import build_parser, config_from_args, main


class TestParser:
    def test_defaults_are_paper_settings(self):
        args = build_parser().parse_args([])
        config = config_from_args(args)
        assert config.algorithm == "omega_lc"
        assert config.n_nodes == 12
        assert config.node_mttf == 600.0
        assert config.qos.detection_time == 1.0

    def test_lossy_network_flags(self):
        args = build_parser().parse_args(
            ["--delay", "0.1", "--loss", "0.1", "--algorithm", "omega_l"]
        )
        config = config_from_args(args)
        assert config.link_delay_mean == 0.1
        assert config.link_loss_prob == 0.1
        assert config.algorithm == "omega_l"

    def test_link_crash_flags(self):
        args = build_parser().parse_args(["--link-mttf", "60", "--link-mttr", "3"])
        config = config_from_args(args)
        assert config.link_mttf == 60.0
        assert config.link_mttr == 3.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--algorithm", "raft"])

    def test_transfer_ratio_alias(self):
        for spelling in ("--lease-transfer-ratio", "--transfer-ratio"):
            args = build_parser().parse_args([spelling, "0.5"])
            assert config_from_args(args).lease_transfer_ratio == 0.5


class TestMain:
    def test_end_to_end_run(self, capsys):
        code = main(
            [
                "--nodes", "3",
                "--duration", "90",
                "--warmup", "10",
                "--no-churn",
                "--seed", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pleader : 1.00000" in out
        assert "mistake rate" in out
        assert "KB/s" in out


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--duration", "20", "--warmup", "30"], "must exceed warmup"),
            (["--nodes", "1"], "at least 2 nodes"),
            (["--lease-transfer-ratio", "2"], "lease_transfer_ratio"),
            (["--figure", "fig8", "--duration", "20", "--warmup", "30"], "must exceed warmup"),
            (["--loss", "1.5"], "loss_prob must be in [0, 1)"),
            (["--delay", "-1"], "delay_mean must be >= 0"),
        ],
    )
    def test_config_errors_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestSweepSurface:
    def test_sweep_flags_parse(self):
        args = build_parser().parse_args(["--figure", "fig3", "--workers", "4"])
        assert args.figure == "fig3"
        assert args.workers == 4

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--figure", "fig99"])

    def test_figure_sweep_end_to_end(self, capsys):
        code = main(
            [
                "--figure", "fig8",
                "--duration", "90",
                "--warmup", "10",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep — fig8" in out
        assert "swept 10 cells" in out
        assert "989,930 events" in out  # the same total on any worker count
