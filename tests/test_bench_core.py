"""Unit tests for the pin checker behind ``BENCH_core.json``.

The comparison gates CI (the ``pins`` job), so it is covered against
synthetic baselines; the run and the file handling against a shrunken
``heartbeat`` cell.
"""

import json

import pytest

from benchmarks import bench_core
from benchmarks.bench_core import compare_results, main, run_cell


def make_cell(**changes):
    cell = {
        "duration_virtual_s": 300.0,
        "events": 120_000,
        "digest": "d1",
        "wire_bytes": 9_000,
        "alloc_peak_kib": 1000.0,
        "alloc_live_blocks": 5_000,
        "calls_per_virtual_s": {"sim": 1000.0, "net": 1000.0, "metrics": 80.0},
    }
    cell.update(changes)
    return {"heartbeat": cell}


@pytest.fixture
def tiny_heartbeat(monkeypatch):
    config = bench_core.CORE_CELLS["heartbeat"].with_(duration=10.0, warmup=2.5)
    monkeypatch.setitem(bench_core.CORE_CELLS, "heartbeat", config)


class TestCompareResults:
    def test_identical_results_pass(self):
        assert compare_results(make_cell(), make_cell()) == []

    def test_digest_change_fails_regardless_of_speed(self):
        failures = compare_results(make_cell(), make_cell(digest="d2"))
        assert len(failures) == 1
        assert "heartbeat: digest changed (d1 -> d2)" in failures[0]

    def test_event_count_change_fails_even_with_same_digest(self):
        """Traces are sparse: a steady-state perturbation can keep the
        digest while moving the event count — the gate checks both."""
        failures = compare_results(make_cell(), make_cell(events=120_001))
        assert len(failures) == 1
        assert "heartbeat: events changed (120000 -> 120001)" in failures[0]

    def test_wire_bytes_change_fails(self):
        failures = compare_results(make_cell(), make_cell(wire_bytes=9_001))
        assert len(failures) == 1
        assert "heartbeat: wire_bytes changed (9000 -> 9001)" in failures[0]

    def test_allocation_growth_fails(self):
        assert compare_results(make_cell(), make_cell(alloc_live_blocks=6_000)) == []
        failures = compare_results(make_cell(), make_cell(alloc_live_blocks=7_000))
        assert any("allocation blocks grew" in failure for failure in failures)

    def test_peak_memory_growth_fails(self):
        """Peak matters independently of live blocks: a transiently-held
        quadratic buffer is freed by teardown but shows up here."""
        failures = compare_results(make_cell(), make_cell(alloc_peak_kib=2000.0))
        assert any("peak traced KiB grew" in failure for failure in failures)

    def test_absolute_alloc_budget_enforced(self, monkeypatch):
        monkeypatch.setitem(bench_core.ALLOC_BUDGETS, "heartbeat", 6_000)
        assert compare_results(make_cell(), make_cell()) == []
        failures = compare_results(
            make_cell(alloc_live_blocks=7_000), make_cell(alloc_live_blocks=7_000)
        )
        assert any("absolute budget" in failure for failure in failures)

    def test_unmeasured_allocations_are_not_compared(self):
        exempt = make_cell(alloc_peak_kib=None, alloc_live_blocks=None)
        assert compare_results(exempt, exempt) == []

    def test_a_layer_whose_calls_rise_past_the_margin_fails_by_name(self):
        rates = make_cell()["heartbeat"]["calls_per_virtual_s"]
        inside = {**rates, "metrics": 80.0 * (1 + bench_core.CALL_MARGIN)}
        assert compare_results(make_cell(), make_cell(calls_per_virtual_s=inside)) == []
        risen = {**rates, "metrics": 400.0}
        failures = compare_results(make_cell(), make_cell(calls_per_virtual_s=risen))
        assert failures == [
            "heartbeat: metrics calls per virtual s rose 80.0 -> 400.0 (margin 5%)"
        ]

    def test_fewer_calls_pass(self):
        fewer = {"sim": 700.0, "net": 650.0}
        assert compare_results(make_cell(), make_cell(calls_per_virtual_s=fewer)) == []

    def test_a_layer_the_record_lacks_counts_as_zero(self):
        rates = {**make_cell()["heartbeat"]["calls_per_virtual_s"], "lease": 1.0}
        failures = compare_results(make_cell(), make_cell(calls_per_virtual_s=rates))
        assert failures == ["heartbeat: lease calls per virtual s rose 0.0 -> 1.0 (margin 5%)"]

    def test_uncounted_calls_are_not_compared(self):
        uncounted = make_cell(calls_per_virtual_s=None)
        assert compare_results(uncounted, make_cell()) == []
        assert compare_results(make_cell(), uncounted) == []

    def test_missing_cell_reported(self):
        assert compare_results({}, make_cell()) == ["heartbeat: not present in baseline"]


class TestRunCell:
    def test_measures_a_tiny_cell(self, tiny_heartbeat):
        cell = run_cell("heartbeat")
        assert cell["duration_virtual_s"] == 10.0
        assert cell["events"] > 0
        assert cell["wire_bytes"] > 0
        assert len(cell["digest"]) == 64
        assert cell["alloc_live_blocks"] > 0
        assert cell["alloc_peak_kib"] > 0
        calls = cell["calls_per_virtual_s"]
        assert set(calls) <= set(bench_core.LAYERS) and calls["net"] > 0

    def test_fixed_seed_cell_is_deterministic(self, tiny_heartbeat):
        first, second = run_cell("heartbeat"), run_cell("heartbeat")
        assert [first[pin] for pin in bench_core.EXACT_PINS] == [
            second[pin] for pin in bench_core.EXACT_PINS
        ]
        assert first["calls_per_virtual_s"] == second["calls_per_virtual_s"]

    def test_repeats_must_agree(self, tiny_heartbeat, monkeypatch):
        """The traced run is the cell's repeat: one that disagrees with the
        untraced run fails loudly instead of recording either digest."""
        seeds = iter([1, 2])
        real_build = bench_core.build_system
        monkeypatch.setattr(
            bench_core,
            "build_system",
            lambda config: real_build(config.with_(seed=next(seeds))),
        )
        with pytest.raises(AssertionError, match="nondeterministic"):
            run_cell("heartbeat")

    def test_agreeing_repeats_pass(self, tiny_heartbeat, monkeypatch):
        traced = run_cell("heartbeat")
        monkeypatch.setattr(bench_core, "NO_TRACE_CELLS", frozenset({"heartbeat"}))
        exempt = run_cell("heartbeat")
        assert exempt["alloc_live_blocks"] is None
        assert exempt["calls_per_virtual_s"] is None
        assert exempt["digest"] == traced["digest"]

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            run_cell("nope")


class TestMain:
    def test_update_then_check_round_trips(self, tiny_heartbeat, tmp_path, capsys):
        path = tmp_path / "pins.json"
        common = ["--cells", "heartbeat", "--baseline", str(path)]
        assert main(common + ["--update"]) == 0
        assert main(common + ["--check"]) == 0
        blob = json.loads(path.read_text())
        blob["cells"]["heartbeat"]["events"] += 1
        path.write_text(json.dumps(blob))
        capsys.readouterr()
        assert main(common + ["--check"]) == 1
        assert "FAIL heartbeat: events changed" in capsys.readouterr().out
        blob["cells"]["heartbeat"]["events"] -= 1
        blob["cells"]["heartbeat"]["calls_per_virtual_s"]["net"] /= 2
        path.write_text(json.dumps(blob))
        assert main(common + ["--check"]) == 1
        assert "FAIL heartbeat: net calls per virtual s rose" in capsys.readouterr().out

    def test_update_cells_keeps_the_other_cells_pins(self, tiny_heartbeat, tmp_path):
        path = tmp_path / "pins.json"
        lossy = make_cell()["heartbeat"]
        path.write_text(json.dumps({"schema": 2, "cells": {"lossy": lossy}}))
        assert main(["--cells", "heartbeat", "--baseline", str(path), "--update"]) == 0
        cells = json.loads(path.read_text())["cells"]
        assert cells["lossy"] == lossy
        assert list(cells) == ["heartbeat", "lossy"]  # CORE_CELLS order

    def test_schema_1_baseline_refused(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "modes": {"full": {"cells": {}}}}))
        with pytest.raises(SystemExit) as exit_info:
            main(["--cells", "heartbeat", "--baseline", str(path), "--check"])
        assert exit_info.value.code == 2
        assert "schema 1" in (err := capsys.readouterr().err) and "--update" in err
