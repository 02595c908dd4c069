"""Self-checks of the spine benchmark (``pytest benchmarks/spine -q``).

Not part of the tier-1 ``testpaths``: these run every workload end to end
(at 1/20 of the declared horizon) and take about a minute and a half.
"""

from __future__ import annotations

import re

import pytest

import run
from simload import SIM_SPECS, make_plan
from spec import load_declaration, workload_names

DECLARATION = load_declaration()
SECONDS = DECLARATION["run_seconds"] / 20.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_declaration_stays_inside_the_contract():
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    names = [
        entry["name"]
        for family in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARATION[family]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    assert set(workload_names(DECLARATION)) == set(SIM_SPECS) | {"live_loopback"}


@pytest.mark.parametrize("workload", workload_names(DECLARATION))
def test_plain_run_emits_exactly_the_declared_metrics(workload):
    result = run.measure(DECLARATION, workload, seed=3, seconds=SECONDS, traced=False)
    assert list(result["metrics"]) == [m["name"] for m in DECLARATION["end_to_end"]]
    assert result["correct"], result["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", ["failover_lossy", "live_loopback"])
def test_traced_run_emits_exactly_the_declared_metrics(workload):
    result = run.measure(DECLARATION, workload, seed=3, seconds=SECONDS, traced=True)
    assert list(result["metrics"]) == [m["name"] for m in DECLARATION["per_layer"]]
    assert result["correct"], result["checks"]
    if workload == "failover_lossy":
        assert result["checks"]["traced_digest_equals_plain"]
        assert result["checks"]["carrier_bytes_sum_to_meter_total"]


def test_same_seed_repeats_bit_exactly_and_seeds_differ():
    first = run.run_child("failover_lossy", 5, SECONDS, traced=False)
    again = run.run_child("failover_lossy", 5, SECONDS, traced=False)
    assert first["digest"] == again["digest"]
    for name in ("tr_p75_s", "leader_availability", "wire_kb_per_node_s", "lease_rtt_p50_ms"):
        assert first["metrics"][name] == again["metrics"][name]
    spec = SIM_SPECS["failover_lossy"]
    assert make_plan(spec, 5, 10.0) == make_plan(spec, 5, 10.0)
    assert make_plan(spec, 5, 10.0).kill_due != make_plan(spec, 6, 10.0).kill_due


def test_compare_flags_a_regression(tmp_path, capsys):
    import json

    import compare

    def result_file(name, host_ms):
        runs = [
            {
                "workload": "failover_lossy", "trace": 0, "correct": True,
                "attempted": 10, "failed": 0,
                "metrics": {"norm_host_ms_per_virtual_s": {"value": v, "unit": "ms/s"}},
            }
            for v in host_ms
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = result_file("a.json", [10.0, 10.1, 9.9])
    same = result_file("b.json", [10.05, 10.0, 10.1])
    slow = result_file("c.json", [14.0, 14.1, 13.9])
    assert compare.main(DECLARATION, base, same) == 0
    assert compare.main(DECLARATION, base, slow) == 1
    assert "worse" in capsys.readouterr().out
