"""Tests for :func:`run_cells`, the grid runner behind ``--figure`` sweeps.

The property it must never lose is determinism: a cell's result depends
only on its config, so the results are equal whatever the worker count and
come back in input order.
"""

import pytest

from repro.experiments.orchestrator import run_cells
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import ExperimentConfig


def grid(n_cells=4, **kw):
    """A small sweep grid that runs in well under a second per cell."""
    defaults = dict(n_nodes=3, duration=40.0, warmup=5.0, node_churn=False)
    defaults.update(kw)
    return [
        ExperimentConfig(name=f"orch-test/{i}", seed=10 + i, **defaults)
        for i in range(n_cells)
    ]


class TestDeterminism:
    def test_metrics_byte_identical_across_worker_counts(self):
        cells = grid()
        assert run_cells(cells, workers=1) == run_cells(cells, workers=4)

    def test_outcomes_keep_input_order(self):
        cells = grid(5)
        results = run_cells(cells, workers=3)
        assert [r.config for r in results] == cells

    def test_rehydrated_results_match_direct_run(self):
        cells = grid(2)
        for config, result in zip(cells, run_cells(cells, workers=2)):
            assert result == run_experiment(config)

    def test_workers_return_lease_counters(self):
        # A lease cell and a lease-free one: the workers hand back the
        # whole result, lease counters included.
        cells = [
            ExperimentConfig(
                name="orch-test/lease", n_nodes=4, duration=40.0, warmup=10.0,
                seed=3, n_lease_clients=8,
            ),
            grid(1)[0],
        ]
        results = run_cells(cells, workers=2)
        assert results == [run_experiment(config) for config in cells]
        assert results[0].lease_grants > 0
        assert results[1].lease_grants == 0


class TestProgress:
    def test_progress_called_once_per_cell(self):
        calls = []
        run_cells(
            grid(3),
            workers=2,
            progress=lambda done, total, result: calls.append(
                (done, total, result.config.name)
            ),
        )
        assert [c[0] for c in calls] == [1, 2, 3]
        assert all(c[1] == 3 for c in calls)
        assert sorted(c[2] for c in calls) == [c.name for c in grid(3)]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_cells(grid(1), workers=0)
