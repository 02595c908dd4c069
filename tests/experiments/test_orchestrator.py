"""Tests for the parallel sweep orchestrator.

The three properties the orchestration layer must never lose:

* **Determinism** — per-cell metrics are byte-identical whatever the worker
  count (1 vs several processes), because a cell's outcome depends only on
  its config.
* **Resumability** — a re-run against the same cache serves every completed
  cell from disk without re-simulating.
* **Robustness** — corrupted cache entries are quarantined and re-run, never
  crashing the sweep or poisoning its results.
"""

import json

import pytest

from repro.experiments.cache import CACHE_SCHEMA, ResultCache
from repro.experiments.orchestrator import (
    SWEEP_SCHEMA,
    derive_cell_seeds,
    run_sweep,
)
from repro.experiments.scenario import ExperimentConfig
from repro.experiments.serialize import canonical_json, config_hash
from repro.sim.rng import RngRegistry


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
        serial = run_sweep(cells, workers=1)
        parallel = run_sweep(cells, workers=4)
        assert [canonical_json(o.record) for o in serial.outcomes] == [
            canonical_json(o.record) for o in parallel.outcomes
        ]

    def test_outcomes_keep_input_order(self):
        cells = grid(5)
        sweep = run_sweep(cells, workers=3)
        assert [o.config.name for o in sweep.outcomes] == [c.name for c in cells]
        assert [o.index for o in sweep.outcomes] == list(range(5))

    def test_rehydrated_results_match_direct_run(self):
        from repro.experiments.runner import run_experiment

        cells = grid(2)
        sweep = run_sweep(cells, workers=2)
        for config, result in zip(cells, sweep.experiment_results()):
            direct = run_experiment(config)
            assert result.availability == direct.availability
            assert result.events_executed == direct.events_executed
            assert result.usage == direct.usage


class TestSeedDerivation:
    def test_derive_seed_is_pure(self):
        a = RngRegistry.derive_seed(42, "fig3/S1/(10ms, 0.01)")
        b = RngRegistry.derive_seed(42, "fig3/S1/(10ms, 0.01)")
        assert a == b
        assert a >= 0

    def test_derive_seed_varies_with_both_inputs(self):
        base = RngRegistry.derive_seed(42, "cell-a")
        assert base != RngRegistry.derive_seed(43, "cell-a")
        assert base != RngRegistry.derive_seed(42, "cell-b")

    def test_derive_cell_seeds_keyed_by_name_not_position(self):
        cells = grid(3)
        reseeded = derive_cell_seeds(cells, sweep_seed=7)
        # Dropping the first cell must not change the others' seeds.
        reseeded_tail = derive_cell_seeds(cells[1:], sweep_seed=7)
        assert [c.seed for c in reseeded[1:]] == [c.seed for c in reseeded_tail]
        # And all derived seeds are distinct.
        assert len({c.seed for c in reseeded}) == 3

    def test_sweep_seed_flows_through_run_sweep(self):
        cells = grid(2)
        sweep = run_sweep(cells, workers=1, sweep_seed=99)
        expected = [RngRegistry.derive_seed(99, c.name) for c in cells]
        assert [o.config.seed for o in sweep.outcomes] == expected


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        cells = grid()
        first = run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert all(not o.cached for o in first.outcomes)

        second = run_sweep(cells, workers=2, resume=True, cache_dir=tmp_path)
        assert all(o.cached for o in second.outcomes)
        assert [canonical_json(o.record) for o in second.outcomes] == [
            canonical_json(o.record) for o in first.outcomes
        ]

    def test_partial_resume_runs_only_missing_cells(self, tmp_path):
        cells = grid(4)
        run_sweep(cells[:2], workers=1, cache_dir=tmp_path)
        sweep = run_sweep(cells, workers=1, resume=True, cache_dir=tmp_path)
        assert [o.cached for o in sweep.outcomes] == [True, True, False, False]

    def test_changed_config_is_a_cache_miss(self, tmp_path):
        cells = grid(1)
        run_sweep(cells, workers=1, cache_dir=tmp_path)
        changed = [cells[0].with_(seed=777)]
        sweep = run_sweep(changed, workers=1, resume=True, cache_dir=tmp_path)
        assert not sweep.outcomes[0].cached

    def test_resume_without_cache_dir_rejected(self):
        with pytest.raises(ValueError, match="cache_dir"):
            run_sweep(grid(1), resume=True)

    def test_corrupted_cache_entry_is_quarantined_and_rerun(self, tmp_path):
        cells = grid(2)
        first = run_sweep(cells, workers=1, cache_dir=tmp_path)

        victim = tmp_path / f"{config_hash(cells[0])}.json"
        victim.write_text("{ this is not JSON")
        sweep = run_sweep(cells, workers=1, resume=True, cache_dir=tmp_path)

        assert [o.cached for o in sweep.outcomes] == [False, True]
        # The re-run reproduced the original result bit-for-bit...
        assert canonical_json(sweep.outcomes[0].record) == canonical_json(
            first.outcomes[0].record
        )
        # ...the bad entry was kept for inspection, and the repaired entry
        # serves the next resume.
        assert victim.with_suffix(".json.corrupt").exists()
        third = run_sweep(cells, workers=1, resume=True, cache_dir=tmp_path)
        assert all(o.cached for o in third.outcomes)

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        cells = grid(1)
        run_sweep(cells, workers=1, cache_dir=tmp_path)
        key = config_hash(cells[0])
        record = json.loads((tmp_path / f"{key}.json").read_text())
        record["schema"] = "repro.cell/0"
        (tmp_path / f"{key}.json").write_text(json.dumps(record))
        sweep = run_sweep(cells, workers=1, resume=True, cache_dir=tmp_path)
        assert not sweep.outcomes[0].cached


class TestCache:
    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {
            "schema": CACHE_SCHEMA,
            "cache_key": "k" * 64,
            "config_hash": "k" * 64,
            "seed": 1,
            "result": {"x": 1.5},
        }
        cache.store("k" * 64, record)
        assert cache.load("k" * 64) == record

    def test_missing_key_is_none(self, tmp_path):
        assert ResultCache(tmp_path).load("absent") is None

    def test_missing_required_keys_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "deadbeef.json").write_text(json.dumps({"schema": CACHE_SCHEMA}))
        assert cache.load("deadbeef") is None


class TestArtifact:
    def test_artifact_shape(self, tmp_path):
        cells = grid(3)
        artifact_path = tmp_path / "sweep.json"
        sweep = run_sweep(
            cells, name="artifact-test", workers=2, artifact_path=artifact_path
        )
        assert sweep.artifact_path == artifact_path
        artifact = json.loads(artifact_path.read_text())

        assert artifact["schema"] == SWEEP_SCHEMA
        assert artifact["sweep"] == "artifact-test"
        assert artifact["workers"] == 2
        assert artifact["totals"]["cells"] == 3
        assert artifact["totals"]["events_executed"] > 0
        assert artifact["totals"]["events_per_sec"] > 0
        assert len(artifact["cells"]) == 3
        for entry, config in zip(artifact["cells"], cells):
            assert entry["name"] == config.name
            assert entry["seed"] == config.seed
            assert entry["config_hash"] == config_hash(config)
            assert entry["events_executed"] > 0
            assert entry["events_per_sec"] > 0
            assert entry["wall_seconds"] > 0
            assert entry["result"]["leadership"]["availability"] >= 0.0

    def test_artifact_records_git_sha_when_available(self, tmp_path):
        artifact_path = tmp_path / "sweep.json"
        run_sweep(grid(1), workers=1, artifact_path=artifact_path)
        artifact = json.loads(artifact_path.read_text())
        # In this repo a SHA must be resolvable (CI exports GITHUB_SHA).
        assert artifact["git_sha"] is None or len(artifact["git_sha"]) >= 7


class TestProgress:
    def test_progress_called_once_per_cell(self):
        calls = []
        run_sweep(
            grid(3),
            workers=2,
            progress=lambda done, total, outcome: calls.append(
                (done, total, outcome.config.name, outcome.cached)
            ),
        )
        assert len(calls) == 3
        assert [c[0] for c in calls] == [1, 2, 3]
        assert all(c[1] == 3 for c in calls)
        assert not any(c[3] for c in calls)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(grid(1), workers=0)
