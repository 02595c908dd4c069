"""Tests for the experiment runner (system assembly and measurement)."""

import pytest

from repro.experiments.runner import build_system, run_experiment
from repro.experiments.scenario import ExperimentConfig


def small_config(**kw):
    defaults = dict(
        name="runner-test",
        algorithm="omega_lc",
        n_nodes=3,
        duration=60.0,
        warmup=10.0,
        seed=2,
        node_churn=False,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestBuildSystem:
    def test_system_shape(self):
        system = build_system(small_config())
        assert len(system.hosts) == 3
        assert len(system.apps) == 3
        assert len(list(system.network.links())) == 6
        assert system.node_injectors == []
        assert system.link_injectors == []

    def test_churn_injectors_created(self):
        system = build_system(small_config(node_churn=True))
        assert len(system.node_injectors) == 3

    def test_link_injectors_created_per_directed_link(self):
        system = build_system(small_config(link_mttf=60.0))
        assert len(system.link_injectors) == 6

    def test_apps_join_the_group(self):
        system = build_system(small_config(group=7))
        system.sim.run_until(1.0)
        assert all(h.service.group_runtime(7) is not None for h in system.hosts)


class TestRunExperiment:
    def test_result_fields(self):
        result = run_experiment(small_config())
        assert result.availability == pytest.approx(1.0)
        assert result.mistake_rate == 0.0
        assert result.node_crashes == 0
        assert result.link_crashes == 0
        assert result.events_executed > 0
        assert result.usage.kb_per_second > 0.0
        assert result.usage.cpu_percent > 0.0

    def test_usage_measured_after_warmup_only(self):
        """Meters reset at warmup: a long warmup must not inflate rates."""
        short = run_experiment(small_config(duration=60.0, warmup=10.0))
        long = run_experiment(small_config(duration=100.0, warmup=50.0))
        assert long.usage.kb_per_second == pytest.approx(
            short.usage.kb_per_second, rel=0.25
        )

    def test_reproducible_by_seed(self):
        a = run_experiment(small_config(node_churn=True, duration=120.0))
        b = run_experiment(small_config(node_churn=True, duration=120.0))
        assert a.availability == b.availability
        assert a.node_crashes == b.node_crashes
        assert a.events_executed == b.events_executed

    def test_different_seeds_differ(self):
        a = run_experiment(small_config(node_churn=True, duration=120.0, seed=2))
        b = run_experiment(small_config(node_churn=True, duration=120.0, seed=3))
        assert a.events_executed != b.events_executed
