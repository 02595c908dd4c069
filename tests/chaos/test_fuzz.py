"""The scenario fuzzer: grammar, seed-replay contract, shrinking, CLI.

The grammar and replay checks run real (small) simulations; the profile
used here shrinks the cluster and the windows so one case costs well
under a second.
"""

import json
from unittest import mock

import pytest

from repro.chaos import cli as chaos_cli
from repro.chaos.fuzz import (
    FUZZ_SYSTEM,
    FuzzProfile,
    case_seed,
    config_for_case,
    generate_script,
    replay_command,
    run_fuzz,
    shrink_failure,
)
from repro.chaos.run import run_scripted
from repro.chaos.script import ChaosScript, Heal
from repro.core.election.omega_lc import OmegaLc
from repro.fd.qos import FDQoS
from repro.flags import SIMULATOR_FLAGS, FLAGS

#: Small, fast grammar for tests (one case ≈ 0.3 s of wall clock).
FAST = FuzzProfile(
    system=FUZZ_SYSTEM.with_(n_nodes=4),
    chaos_start=15.0,
    chaos_window=20.0,
    settle=60.0,
    hold=10.0,
    max_steps=3,
)

#: A value off the fuzz default for every chaos flag.
OFF_DEFAULT = {
    "nodes": 4,
    "groups": 3,
    "algorithm": "omega_l",
    "detection_time": 0.5,
    "lease_clients": 7,
    "lease_transfer_ratio": 0.6,
    "fd_plane": "swim",
}

#: Like FAST but with a chaos window wide enough that a sustained leader
#: crash outlives the leader-validity bound (~20 s) before the heal
#: revives it — the window the regression test needs.
WIDE = FuzzProfile(
    system=FUZZ_SYSTEM.with_(n_nodes=4),
    chaos_start=15.0,
    chaos_window=45.0,
    settle=60.0,
    hold=10.0,
    max_steps=3,
)


class TestGrammar:
    def test_same_seed_same_script(self):
        assert generate_script(42, FAST) == generate_script(42, FAST)
        assert (
            generate_script(42, FAST).to_dict() == generate_script(42, FAST).to_dict()
        )

    def test_different_seeds_differ(self):
        scripts = {json.dumps(generate_script(s, FAST).to_dict()) for s in range(10)}
        assert len(scripts) > 1

    def test_scripts_are_well_formed(self):
        for seed in range(30):
            script = generate_script(seed, FAST)
            assert isinstance(script, ChaosScript)  # validation ran
            assert isinstance(script.steps[-1], Heal)
            assert script.heal_time == FAST.chaos_start + FAST.chaos_window
            assert script.duration == script.heal_time + FAST.settle
            # Round-trips through JSON (what the artifact stores).
            assert ChaosScript.from_dict(
                json.loads(json.dumps(script.to_dict()))
            ) == script

    def test_case_seeds_are_stable_and_independent(self):
        seeds = [case_seed(0, i) for i in range(20)]
        assert len(set(seeds)) == 20
        assert seeds == [case_seed(0, i) for i in range(20)]
        assert case_seed(1, 0) != case_seed(0, 0)


class TestSeedReplayContract:
    def test_replay_is_bit_identical(self):
        seed = case_seed(0, 0)
        first = run_scripted(config_for_case(seed, FAST))
        second = run_scripted(config_for_case(seed, FAST))
        assert first.trace_digest == second.trace_digest
        assert first.events_executed == second.events_executed

    def test_cell_runner_matches_direct_run(self):
        # The worker path and the in-process path must agree bit-for-bit,
        # or --workers would change fuzz verdicts.
        seed = case_seed(0, 1)
        profile = FuzzProfile()
        from repro.chaos.fuzz import _case_record

        record = _case_record((seed, profile))
        direct = run_scripted(config_for_case(seed, profile))
        assert record["trace_digest"] == direct.trace_digest
        assert record["ok"] == direct.ok
        assert record["case_seed"] == seed

    def test_replay_command_names_the_case_seed(self):
        assert replay_command(123) == "python -m repro chaos replay --seed 123"

    def test_replay_command_carries_non_default_profile_flags(self):
        profile = FuzzProfile(
            system=FUZZ_SYSTEM.with_(
                n_nodes=8, qos=FDQoS(detection_time=2.0), n_lease_clients=7
            )
        )
        command = replay_command(123, profile)
        assert "--nodes 8" in command
        assert "--qos 2.0" in command
        assert "--lease-clients 7" in command
        assert "--algorithm" not in command  # default stays implicit
        assert replay_command(123, FuzzProfile()) == replay_command(123)

    @pytest.mark.parametrize("flag", SIMULATOR_FLAGS)
    def test_replay_command_parses_back_to_the_same_profile(self, flag):
        """Every chaos flag set off its default survives the round trip
        replay_command → chaos CLI → FuzzProfile."""
        field, value = FLAGS[flag].field(FUZZ_SYSTEM), OFF_DEFAULT[flag]
        if field == "qos":
            value = FDQoS(detection_time=value)
        profile = FuzzProfile(system=FUZZ_SYSTEM.with_(**{field: value}))
        assert profile != FuzzProfile()
        argv = replay_command(99, profile).split()[4:]  # from "replay" on
        args = chaos_cli.build_parser().parse_args(argv)
        assert chaos_cli._profile_from_args(args) == profile


class TestRunFuzz:
    def test_small_batch_passes_and_reports(self):
        result = run_fuzz(3, 0, profile=FAST, workers=1)
        assert result.ok
        assert result.cases_passed == 3
        assert len(result.records) == 3
        record = result.to_dict()
        assert record["kind"] == "chaos-fuzz"
        assert record["runs"] == 3
        assert record["failures"] == []

    def test_progress_callback_sees_every_case(self):
        seen = []
        run_fuzz(3, 0, profile=FAST, workers=1, progress=lambda d, t, o: seen.append(d))
        assert seen == [1, 2, 3]

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_fuzz(0, 0, profile=FAST)

    def test_workers_give_the_in_process_records(self):
        # Workers get (case_seed, profile), custom grammar included: a
        # batch across processes fuzzes the very cases the parent would
        # run, shrink and replay.
        serial = run_fuzz(3, 0, profile=FAST, workers=1)
        parallel = run_fuzz(3, 0, profile=FAST, workers=2)
        assert [json.dumps(record, sort_keys=True) for record in parallel.records] == [
            json.dumps(record, sort_keys=True) for record in serial.records
        ]

    def test_injected_regression_is_caught_and_shrunk(self):
        # Master seed 2's first WIDE case carries a sustained churn burst
        # that kills the leader; with demotion disabled the fuzzer must
        # fail it and shrink the script.
        with mock.patch.object(OmegaLc, "on_suspect", lambda self, pid: None):
            result = run_fuzz(2, 2, profile=WIDE, workers=1)
        assert not result.ok
        failure = result.failures[0]
        assert failure.minimal_steps <= failure.original_steps
        minimal = ChaosScript.from_dict(failure.minimal_script)
        assert isinstance(minimal.steps[-1], Heal)
        assert any(step.name == "churn_burst" for step in minimal.steps)
        assert failure.replay == replay_command(failure.case_seed, WIDE)
        assert "--nodes 4" in failure.replay  # WIDE's non-default knob
        assert any(
            violation["invariant"] == "leader-validity"
            for violation in failure.violations
        )
        # The minimal script still reproduces the failure under the
        # regression, and passes on the healthy service.
        config = config_for_case(failure.case_seed, WIDE).with_script(minimal)
        with mock.patch.object(OmegaLc, "on_suspect", lambda self, pid: None):
            assert not run_scripted(config).ok
        assert run_scripted(config).ok


class TestShrinking:
    def test_shrink_respects_the_run_budget(self):
        config = config_for_case(case_seed(0, 0), FAST)
        calls = []

        class FailingRunner:
            def __call__(self, cfg):
                calls.append(cfg)
                return mock.Mock(ok=False)

        minimal, runs_used = shrink_failure(config, runner=FailingRunner(), max_runs=5)
        assert runs_used <= 5
        assert len(calls) == runs_used

    def test_shrink_keeps_failure_inducing_steps(self):
        config = config_for_case(case_seed(0, 0), FAST)

        def runner(cfg):
            # "Fails" iff a drop step survives in the script.
            failing = any(step.name == "drop" for step in cfg.script.steps)
            return mock.Mock(ok=not failing)

        from repro.chaos.script import drop

        seeded = config.with_script(
            ChaosScript(
                steps=(
                    *(s for s in config.script.steps if s.name != "heal"),
                    drop(config.script.heal_time - 1.0, 0.5),
                    Heal(at=config.script.heal_time),
                ),
                duration=config.script.duration,
            )
        )
        minimal, _ = shrink_failure(seeded, runner=runner)
        assert [step.name for step in minimal.steps] == ["drop", "heal"]


class TestChaosCli:
    def test_fuzz_cli_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "fuzz.json"
        with mock.patch(
            "repro.chaos.cli.FuzzProfile", lambda: FAST
        ):
            rc = chaos_cli.main(
                ["fuzz", "--runs", "2", "--seed", "0", "--artifact", str(artifact)]
            )
        assert rc == 0
        record = json.loads(artifact.read_text())
        assert record["runs"] == 2 and record["ok"] is True
        out = capsys.readouterr().out
        assert "2 passed" in out

    def test_replay_cli_verifies_digest(self, capsys):
        seed = case_seed(0, 0)
        with mock.patch("repro.chaos.cli.FuzzProfile", lambda: FAST):
            assert chaos_cli.main(["replay", "--seed", str(seed)]) == 0
            digest = [
                line
                for line in capsys.readouterr().out.splitlines()
                if "trace digest" in line
            ][0].split(":")[1].strip()
            assert (
                chaos_cli.main(["replay", "--seed", str(seed), "--digest", digest])
                == 0
            )
            assert (
                chaos_cli.main(["replay", "--seed", str(seed), "--digest", "bogus"])
                == 1
            )

    def test_replay_banner_command_reproduces_the_same_case(self, capsys):
        """The command the banner prints must carry the profile flags: run
        as printed, it replays the same case (same digest), not the default
        profile's."""

        def replay(argv):
            assert chaos_cli.main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            command = lines[0][lines[0].index("(python") + 1 : -1]
            (digest,) = [line.split(":")[1].strip() for line in lines if "digest" in line]
            return command, digest

        flags = ["--nodes", "4", "--fd-plane", "swim", "--lease-clients", "5"]
        command, digest = replay(["replay", "--seed", "3", *flags])
        prefix = "python -m repro chaos "
        assert command.startswith(prefix) and all(flag in command for flag in flags)
        assert replay(command[len(prefix) :].split()) == (command, digest)
        # ... and it *is* a different case from the bare-seed command.
        assert replay(["replay", "--seed", "3", "--nodes", "4"])[1] != digest

    def test_run_cli_executes_script_file(self, tmp_path):
        from repro.chaos.script import drop, heal

        script = ChaosScript(
            steps=(drop(15.0, 0.2), heal(25.0)), duration=85.0
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(script.to_dict()))
        with mock.patch("repro.chaos.cli.FuzzProfile", lambda: FAST):
            assert chaos_cli.main(["run", "--script", str(path)]) == 0

    def test_run_cli_runs_the_script_on_the_plane_it_was_given(self, tmp_path, capsys):
        from repro.chaos.script import drop, heal

        path = tmp_path / "scenario.json"
        script = ChaosScript(steps=(drop(15.0, 0.2), heal(25.0)), duration=85.0)
        path.write_text(json.dumps(script.to_dict()))

        def run(*flags):
            with mock.patch("repro.chaos.cli.FuzzProfile", lambda: FAST):
                assert chaos_cli.main(["run", "--script", str(path), *flags]) == 0
            fields = (line.partition(":") for line in capsys.readouterr().out.splitlines())
            return {key.strip(): value.strip() for key, _, value in fields}

        default, swim = run(), run("--fd-plane", "swim")
        assert default["fd plane"] == "all_pairs" and swim["fd plane"] == "swim"
        # Not just the label: a different plane is a different run.
        assert default["trace digest"] != swim["trace digest"]

    def test_run_cli_rejects_bad_files(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert chaos_cli.main(["run", "--script", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert chaos_cli.main(["run", "--script", str(bad)]) == 2
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"duration": 10.0, "steps": [{"step": "warp"}]}))
        assert chaos_cli.main(["run", "--script", str(invalid)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err or "invalid" in err
