"""End-to-end scripted chaos scenarios against the real service stack.

Scenarios are deliberately small (4-6 nodes, ~2 minutes of virtual time)
so the whole file stays in test-suite territory; the CI chaos-fuzz job
covers the broad randomized sweep.
"""

from unittest import mock

import pytest

from repro.chaos.controller import ChaosController
from repro.chaos.run import ChaosRunConfig, build_chaos_system, run_scripted
from repro.chaos.script import (
    ChaosScript,
    asym_link,
    churn_burst,
    clock_drift,
    drop,
    duplicate,
    heal,
    partition,
    reorder,
)
from repro.core.election.omega_lc import OmegaLc
from repro.experiments.scenario import ExperimentConfig


def config_with(steps, duration=120.0, heal_at=40.0, **system) -> ChaosRunConfig:
    script = ChaosScript(steps=(*steps, heal(heal_at)), duration=duration)
    return ChaosRunConfig(
        script=script,
        system=ExperimentConfig(name="test", **{"n_nodes": 4, "seed": 5, **system}),
    )


class TestConfigValidation:
    def test_script_must_heal(self):
        script = ChaosScript(steps=(drop(1.0, 0.5),), duration=60.0)
        with pytest.raises(ValueError, match="heal"):
            ChaosRunConfig(script=script, system=ExperimentConfig(name="x"))

    def test_script_needs_a_settle_window(self):
        script = ChaosScript(steps=(heal(60.0),), duration=60.0)
        with pytest.raises(ValueError, match="settle"):
            ChaosRunConfig(script=script, system=ExperimentConfig(name="x"))

    def test_controller_rejects_host_steps_without_plane(self, sim, rng):
        from repro.chaos.transport import ChaosTransport

        script = ChaosScript(steps=(churn_burst(1.0, 1), heal(5.0)), duration=10.0)
        transport = ChaosTransport(
            inner=mock.Mock(), scheduler=sim, rng=rng.stream("x")
        )
        with pytest.raises(ValueError, match="churn_burst"):
            ChaosController(
                script=script, scheduler=sim, transport=transport,
                rng=rng.stream("y"),
            )


class TestScenarios:
    def test_partition_and_heal_converges(self):
        result = run_scripted(
            config_with([partition(20.0, [[0, 1]])])
        )
        assert result.ok, result.report.violations
        assert result.chaos_steps_applied == 2
        assert result.transport_stats["dropped_partition"] > 0

    def test_lossy_duplicating_reordering_network(self):
        result = run_scripted(
            config_with(
                [
                    drop(20.0, 0.3),
                    duplicate(22.0, 0.5),
                    reorder(24.0, 0.3),
                    asym_link(26.0, 0, 1),
                ]
            )
        )
        assert result.ok, result.report.violations
        assert result.transport_stats["dropped_rate"] > 0
        assert result.transport_stats["duplicated"] > 0
        assert result.transport_stats["delayed"] > 0

    def test_sustained_leader_crash_reelects(self):
        # Crash 3 of 4 nodes (the leader among them) until the heal: the
        # survivor must elect itself, then the group must restabilize.
        result = run_scripted(
            config_with([churn_burst(20.0, 3, downtime=100.0)])
        )
        assert result.ok, result.report.violations

    def test_clock_drift_survives(self):
        result = run_scripted(
            config_with([clock_drift(20.0, 0, 0.01), clock_drift(21.0, 1, -0.01)])
        )
        assert result.ok, result.report.violations

    def test_chaos_steps_recorded_in_trace(self):
        config = config_with([drop(20.0, 0.5)])
        system, controller = build_chaos_system(config)
        controller.start()
        system.sim.run_until(config.script.duration)
        chaos_events = [e for e in system.trace.events if e.kind == "chaos"]
        assert [e.label for e in chaos_events] == ["drop(rate=0.5)", "heal()"]

    def test_per_node_clocks_really_drift(self):
        config = config_with([clock_drift(20.0, 0, 0.05)])
        system, controller = build_chaos_system(config)
        controller.start()
        system.sim.run_until(39.0)  # drifting since t=20, heal comes at 40
        assert system.node_schedulers[0].offset == pytest.approx(0.95, abs=0.01)
        assert system.node_schedulers[1].offset == pytest.approx(0.0)
        system.sim.run_until(60.0)  # the heal at t=40 resynced node 0
        assert system.node_schedulers[0].rate == 1.0
        assert system.node_schedulers[0].offset == pytest.approx(0.0)


class TestDeterminism:
    def test_same_config_same_digest(self):
        config = config_with([partition(20.0, [[0, 1]]), drop(25.0, 0.4)])
        first = run_scripted(config)
        second = run_scripted(config)
        assert first.trace_digest == second.trace_digest
        assert first.events_executed == second.events_executed

    def test_different_seed_different_digest(self):
        base = config_with([drop(20.0, 0.4)])
        other = ChaosRunConfig(script=base.script, system=base.system.with_(seed=99))
        assert run_scripted(base).trace_digest != run_scripted(other).trace_digest


class TestPlaneEquivalence:
    """The fd_plane selection seam's contract, checked end to end: the
    election layer cannot tell which plane fired its trust/suspect events,
    so the same chaos script must end with the same single stable leader
    under ``all_pairs`` and ``swim``.

    Scripts are chosen so the surviving leader is determined by *which*
    nodes were suspected (crashes, benign decoration), not by the precise
    suspicion timestamps — those legitimately differ between planes.
    """

    @pytest.mark.parametrize(
        "steps",
        [
            pytest.param([churn_burst(20.0, 1, downtime=100.0)], id="leader-crash"),
            pytest.param(
                [churn_burst(20.0, 3, downtime=100.0)], id="triple-crash"
            ),
            pytest.param([duplicate(20.0, 0.5)], id="duplicating-network"),
        ],
    )
    def test_both_planes_elect_the_same_stable_leader(self, steps):
        leaders = {}
        for plane in ("all_pairs", "swim"):
            result = run_scripted(config_with(steps, fd_plane=plane))
            assert result.ok, (plane, result.report.violations)
            leaders[plane] = result.report.final_leader
        assert leaders["all_pairs"] is not None
        assert leaders["all_pairs"] == leaders["swim"]


class TestRegressionCatching:
    def test_disabled_demotion_is_caught_and_shrunk(self):
        from repro.chaos.fuzz import shrink_failure

        config = config_with(
            [reorder(18.0, 0.2), churn_burst(20.0, 3, downtime=100.0)]
        )
        with mock.patch.object(OmegaLc, "on_suspect", lambda self, pid: None):
            broken = run_scripted(config)
            assert not broken.ok
            assert any(
                v.invariant == "leader-validity"
                for v in broken.report.violations
            )
            minimal, runs_used = shrink_failure(config)
        # The reorder decoration shrinks away; the burst (and the heal)
        # must remain — they alone reproduce the failure.
        assert [step.name for step in minimal.steps] == ["churn_burst", "heal"]
        assert runs_used >= 1
        # And the healthy service passes the very same minimal script.
        assert run_scripted(config.with_script(minimal)).ok
