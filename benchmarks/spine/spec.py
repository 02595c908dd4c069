"""Shared ground for the spine benchmark: paths, declarations, statistics.

``BENCHMARK.json`` at the repository root is the single declaration of the
metric names, units and bounds; everything here reads it instead of
restating it, so the command and the declaration cannot drift apart.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"

#: Host time is reported as if the box scored this on :func:`calibration_kops`.
REFERENCE_KOPS = 10_000.0


def bootstrap_src() -> None:
    """Make ``repro`` importable from a bare checkout (no PYTHONPATH).

    Exits 2 without printing a result when the program is not there, which
    is what the driver expects of a directory that holds only the benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"spine: no program to measure under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_declaration() -> dict:
    with DECLARATION.open() as handle:
        return json.load(handle)


def workload_names(declaration: dict) -> List[str]:
    return [w["name"] for w in declaration["workloads"]]


def declared(declaration: dict, traced: bool) -> Dict[str, dict]:
    """name -> declaration entry for the metric family a run must emit."""
    family = "per_layer" if traced else "end_to_end"
    return {m["name"]: m for m in declaration[family]}


def calibration_kops(iterations: int = 300_000) -> float:
    """Machine-speed score, kilo-iterations/s of a simulator-shaped loop.

    A frozen copy of ``benchmarks/bench_core.py::calibration_kops`` (dict
    lookups, float arithmetic, small-list churn).  Copied, not imported:
    the normalisation must not move when that file is edited.
    """
    table = {i: float(i) for i in range(97)}
    acc = 0.0
    items: List[float] = []
    append = items.append
    start = time.perf_counter()
    for i in range(iterations):
        acc += table[i % 97] * 1.0000001
        append(acc)
        if len(items) > 32:
            items.clear()
    wall = time.perf_counter() - start
    return iterations / wall / 1000.0


def pct(values: Sequence[float], q: float, scale: float = 1.0) -> float:
    """``q``-th percentile (linear interpolation) times ``scale``; 0.0 when
    there are no samples — a run without them has already failed a check."""
    if not len(values):
        return 0.0
    return float(np.percentile(values, q)) * scale


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf
