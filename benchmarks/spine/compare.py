"""``run.py --compare A.json B.json``: judge B against A.

Both files come from ``run.py --json``.  One row per (workload,
end-to-end metric): each side's median over its runs, the ratio with its
base, the declared bound, and a verdict by the rule of the
choosing-metrics guide:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — A's own run-to-run spread (inter-quartile distance
  over the median) is wider than the bound, so a difference inside it
  means nothing — unless every run of B reads better than every run of A;
* ``ok``         — otherwise.

Exit status 1 on any ``worse``, or when B failed a larger share of its
operations than A.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

from statistics import median

from spec import spread


def _load(path: str) -> Tuple[Dict[Tuple[str, str], List[float]], Dict[str, float]]:
    with open(path) as handle:
        runs = [run for run in json.load(handle)["runs"] if run["trace"] == 0]
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    attempted: Dict[str, int] = defaultdict(int)
    failed: Dict[str, int] = defaultdict(int)
    for run in runs:
        attempted[run["workload"]] += run["attempted"]
        failed[run["workload"]] += run["failed"] + (0 if run["correct"] else run["attempted"])
        for name, entry in run["metrics"].items():
            values[(run["workload"], name)].append(entry["value"])
    failed_frac = {w: failed[w] / attempted[w] for w in attempted}
    return values, failed_frac


def judge(base: List[float], new: List[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    a, b = median(base), median(new)
    if sign * (b - a) > bound * abs(a):
        return "worse"
    if spread(base) > bound:
        all_better = max(sign * x for x in new) < min(sign * x for x in base)
        return "ok" if all_better else "unresolved"
    return "ok"


def main(declaration: dict, path_a: str, path_b: str) -> int:
    a_values, a_failed = _load(path_a)
    b_values, b_failed = _load(path_b)
    status = 0
    print(f"{'workload':<16} {'metric':<28} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6} {'A spread':>9}  verdict")
    for workload in [w["name"] for w in declaration["workloads"]]:
        for metric in declaration["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            base, new = a_values[key], b_values[key]
            verdict = judge(base, new, metric["bound"], metric["better"] == "lower")
            if verdict == "worse":
                status = 1
            print(
                f"{workload:<16} {metric['name']:<28} {median(base):>12.6g} "
                f"{median(new):>12.6g} {median(new) / median(base):>7.3f} "
                f"{metric['bound']:>6.2f} {spread(base):>9.3f}  {verdict}"
                f"  (n={len(base)}/{len(new)}, base {median(base):.6g} {metric['unit']})"
            )
        if workload in a_failed and workload in b_failed:
            higher = b_failed[workload] > a_failed[workload]
            if higher:
                status = 1
            print(
                f"{workload:<16} {'failed_frac':<28} {a_failed[workload]:>12.6g} "
                f"{b_failed[workload]:>12.6g} {'':>7} {'':>6} {'':>9}  "
                f"{'worse' if higher else 'ok'}"
            )
    return status
