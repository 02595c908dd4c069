"""Unit tests for the core-bench regression check (benchmarks/bench_core.py).

The comparison logic is what gates CI (perf-smoke), so it gets direct unit
coverage against synthetic baselines: calibration-normalized throughput,
digest pinning, allocation growth, and the failure modes of a malformed
baseline.  One small integration test actually measures a (shrunken) cell.
"""

import pytest

from benchmarks import bench_core
from benchmarks.bench_core import (
    BenchResult,
    CellResult,
    compare_results,
    run_cell,
)


def make_current(events_per_sec=100_000.0, calibration=10_000.0, digest="d1",
                 blocks=5_000, peak_kib=1000.0):
    result = BenchResult(mode="quick", calibration_kops=calibration)
    result.cells["heartbeat"] = CellResult(
        name="heartbeat",
        duration=120.0,
        events=120_000,
        wall_seconds=1.2,
        events_per_sec=events_per_sec,
        digest=digest,
        alloc_peak_kib=peak_kib,
        alloc_live_blocks=blocks,
    )
    return result


def make_baseline(events_per_sec=100_000.0, calibration=10_000.0, digest="d1",
                  blocks=5_000, peak_kib=1000.0):
    return {
        "modes": {
            "quick": {
                "calibration_kops": calibration,
                "cells": {
                    "heartbeat": {
                        "events": 120_000,
                        "events_per_sec": events_per_sec,
                        "digest": digest,
                        "alloc_live_blocks": blocks,
                        "alloc_peak_kib": peak_kib,
                    }
                },
            }
        }
    }


class TestCompareResults:
    def test_identical_results_pass(self):
        assert compare_results(make_baseline(), make_current()) == []

    def test_small_regression_within_tolerance_passes(self):
        current = make_current(events_per_sec=85_000.0)
        assert compare_results(make_baseline(), current, tolerance=0.20) == []

    def test_large_regression_fails(self):
        current = make_current(events_per_sec=75_000.0)
        failures = compare_results(make_baseline(), current, tolerance=0.20)
        assert len(failures) == 1
        assert "normalized throughput regressed" in failures[0]

    def test_calibration_normalizes_slow_hardware(self):
        """A machine half as fast as the baseline's (half the calibration,
        half the throughput) must NOT fail the check."""
        current = make_current(events_per_sec=50_000.0, calibration=5_000.0)
        assert compare_results(make_baseline(), current, tolerance=0.20) == []

    def test_calibration_exposes_true_regression_on_fast_hardware(self):
        """Twice the hardware speed but the same events/sec IS a regression."""
        current = make_current(events_per_sec=100_000.0, calibration=20_000.0)
        failures = compare_results(make_baseline(), current, tolerance=0.20)
        assert len(failures) == 1

    def test_digest_change_fails_regardless_of_speed(self):
        current = make_current(events_per_sec=500_000.0, digest="d2")
        failures = compare_results(make_baseline(), current)
        assert any("digest changed" in failure for failure in failures)

    def test_event_count_change_fails_even_with_same_digest(self):
        """Traces are sparse: a steady-state perturbation can keep the
        digest while moving the event count — the gate checks both."""
        current = make_current()
        current.cells["heartbeat"].events = 120_001
        failures = compare_results(make_baseline(), current)
        assert any("event count changed" in failure for failure in failures)

    def test_allocation_growth_fails(self):
        current = make_current(blocks=7_000)
        failures = compare_results(make_baseline(blocks=5_000), current)
        assert any("allocation blocks grew" in failure for failure in failures)

    def test_peak_memory_growth_fails(self):
        """Peak matters independently of live blocks: a transiently-held
        quadratic buffer is freed by teardown but shows up here."""
        current = make_current(peak_kib=2000.0)
        failures = compare_results(make_baseline(peak_kib=1000.0), current)
        assert any("peak traced memory grew" in failure for failure in failures)

    def test_sharded_cell_exempt_from_throughput_gate(self):
        """Sharded makespan depends on the core count, which calibration
        cannot normalize — only the exact pins (digest/events/wire) hold."""
        current = make_current(events_per_sec=10_000.0)  # 10x "regression"
        current.cells["heartbeat"].shards = 4
        current.cells["heartbeat"].workers = 1
        baseline = make_baseline()
        baseline["modes"]["quick"]["cells"]["heartbeat"]["shards"] = 4
        assert compare_results(baseline, current) == []

    def test_sharded_cell_digest_still_pinned(self):
        current = make_current(digest="d2")
        current.cells["heartbeat"].shards = 4
        baseline = make_baseline()
        baseline["modes"]["quick"]["cells"]["heartbeat"]["shards"] = 4
        failures = compare_results(baseline, current)
        assert any("digest changed" in failure for failure in failures)

    def test_absolute_alloc_budget_enforced(self, monkeypatch):
        monkeypatch.setitem(bench_core.ALLOC_BUDGETS, "heartbeat", 6_000)
        ok = compare_results(make_baseline(), make_current(blocks=5_000))
        assert ok == []
        failures = compare_results(
            make_baseline(blocks=7_000), make_current(blocks=7_000)
        )
        assert any("absolute budget" in failure for failure in failures)

    def test_missing_mode_reported(self):
        failures = compare_results({"modes": {}}, make_current())
        assert failures == ["baseline has no 'quick' mode section"]

    def test_missing_cell_reported(self):
        baseline = make_baseline()
        del baseline["modes"]["quick"]["cells"]["heartbeat"]
        failures = compare_results(baseline, make_current())
        assert failures == ["heartbeat: not present in baseline"]


class TestRunCell:
    def test_measures_a_tiny_cell(self, monkeypatch):
        monkeypatch.setitem(bench_core.DURATIONS, "quick", 10.0)
        result = run_cell("heartbeat", mode="quick", repeats=1,
                          measure_allocations=False)
        assert result.events > 0
        assert result.events_per_sec > 0
        assert len(result.digest) == 64
        assert result.alloc_live_blocks is None

    def test_fixed_seed_cell_is_deterministic(self, monkeypatch):
        monkeypatch.setitem(bench_core.DURATIONS, "quick", 10.0)
        first = run_cell("heartbeat", mode="quick", repeats=1,
                         measure_allocations=False)
        second = run_cell("heartbeat", mode="quick", repeats=1,
                          measure_allocations=False)
        assert first.digest == second.digest
        assert first.events == second.events

    def test_repeats_must_agree(self, monkeypatch):
        """run_cell cross-checks repeats: a nondeterministic cell must fail
        loudly instead of silently recording the last repeat's digest."""
        monkeypatch.setitem(bench_core.DURATIONS, "quick", 10.0)
        seeds = iter([1, 2])
        real_build = bench_core.build_system

        def nondeterministic_build(config):
            from dataclasses import replace

            return real_build(replace(config, seed=next(seeds)))

        monkeypatch.setattr(bench_core, "build_system", nondeterministic_build)
        with pytest.raises(AssertionError, match="nondeterministic"):
            run_cell("heartbeat", mode="quick", repeats=2,
                     measure_allocations=False)

    def test_agreeing_repeats_pass(self, monkeypatch):
        monkeypatch.setitem(bench_core.DURATIONS, "quick", 10.0)
        result = run_cell("heartbeat", mode="quick", repeats=2,
                          measure_allocations=False)
        assert result.events > 0

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            run_cell("nope", mode="quick")


def _load_bench_cli():
    """tools/bench.py is a script, not a package module — load it by path."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("tools_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchCliProfileCompose:
    """--profile-out must compose with --check/--cells (one invocation both
    gates the perf run and captures where its time went), and keep its old
    standalone behaviour with bare --profile."""

    def test_profile_out_composes_with_check_and_cells(self, tmp_path, monkeypatch):
        import json
        import pstats

        bench = _load_bench_cli()
        monkeypatch.setitem(bench_core.DURATIONS, "quick", 10.0)
        baseline = tmp_path / "baseline.json"
        dump = tmp_path / "gate.pstats"
        common = [
            "--quick", "--cells", "heartbeat", "--no-allocations",
            "--baseline", str(baseline),
        ]
        assert bench.main(common + ["--update"]) == 0
        assert "heartbeat" in json.loads(baseline.read_text())["modes"]["quick"]["cells"]
        # Tolerance is huge on purpose: this test pins the *composition*
        # (check ran, profile dumped, digest still gated), not throughput.
        code = bench.main(
            common
            + ["--check", "--tolerance", "50.0", "--profile-out", str(dump)]
        )
        assert code == 0
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0

    def test_bare_profile_still_short_circuits(self, tmp_path, monkeypatch):
        import pstats

        bench = _load_bench_cli()
        monkeypatch.setitem(bench_core.DURATIONS, "quick", 10.0)
        dump = tmp_path / "cell.pstats"
        assert bench.main(
            ["--quick", "--profile", "heartbeat", "--profile-out", str(dump)]
        ) == 0
        assert pstats.Stats(str(dump)).total_calls > 0

    def test_profile_runs_the_cells_own_horizon(self, monkeypatch):
        bench = _load_bench_cli()
        monkeypatch.setitem(
            bench_core.CELL_DURATIONS, "lease_load", {"full": 60.0, "quick": 2.0}
        )
        horizons = []
        build = bench.build_system

        def spy(config):
            horizons.append(config.duration)
            return build(config)

        monkeypatch.setattr(bench, "build_system", spy)
        assert bench.main(["--quick", "--profile", "lease_load"]) == 0
        assert horizons == [2.0]  # not DURATIONS["quick"]
