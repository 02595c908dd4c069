#!/usr/bin/env python3
"""The measurement spine: one command for every end-to-end and per-layer number.

    python3 benchmarks/spine/run.py                       # all workloads, plain
    python3 benchmarks/spine/run.py --workload steady_wide --seed 7 --trace 1
    python3 benchmarks/spine/run.py --seed 1 --seed 2 --seed 3 --json A.json
    python3 benchmarks/spine/run.py --compare A.json B.json

Each (workload, seed) runs in its own child process — one process, one
thread, its own ``ru_maxrss``.  ``--trace 0`` reports the end-to-end
metrics from an uninstrumented run; ``--trace 1`` runs the plain pass
again plus an instrumented pass (stack sampler, counting transport,
message capture), requires both to produce the same trace digest, and
reports the per-layer metrics.  The last stdout line of a single
(workload, seed) invocation is the result object the driver reads.

Exit status: 0 when every output check passed, 1 otherwise (or when
``--compare`` finds a regression), 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List

import compare
from spec import (
    bootstrap_src, declared, load_declaration, workload_names,
)


def run_child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One pass in a fresh interpreter; returns its result object."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"spine: {workload} seed {seed} child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(workload: str, seed: int, seconds: float, traced: bool) -> None:
    bootstrap_src()
    from liveload import LIVE_SPEC, run_live
    from simload import SIM_SPECS, run_sim

    if workload in SIM_SPECS:
        result = run_sim(SIM_SPECS[workload], seed, seconds, traced)
    elif workload == LIVE_SPEC.name:
        result = run_live(LIVE_SPEC, seed, seconds, traced)
    else:
        raise SystemExit(f"spine: unknown workload {workload!r}")
    print(json.dumps(result))


def measure(declaration: dict, workload: str, seed: int, seconds: float,
            traced: bool) -> dict:
    """Run one (workload, seed) and shape it to the declared metric set."""
    plain = run_child(workload, seed, seconds, traced=False)
    run = plain
    if traced:
        run = run_child(workload, seed, seconds, traced=True)
        layer = run.pop("layer_metrics")
        layer["harness.trace_overhead_x"] = (
            run["metrics"]["norm_host_ms_per_virtual_s"]
            / plain["metrics"]["norm_host_ms_per_virtual_s"]
        )
        run["checks"]["traced_digest_equals_plain"] = run["digest"] == plain["digest"]
        run["metrics"] = layer
    units = declared(declaration, traced)
    values = run["metrics"]
    if traced:
        # A per-layer metric a workload has no work for reads 0.
        values = {name: values.get(name, 0.0) for name in units}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise SystemExit(
            f"spine: {workload} metrics disagree with BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    run["metrics"] = {
        name: {"value": values[name], "unit": units[name]["unit"]} for name in units
    }
    run["trace"] = int(traced)
    run["correct"] = all(run["checks"].values())
    return run


def show(run: dict) -> None:
    status = "ok" if run["correct"] else "INCORRECT"
    print(
        f"== {run['workload']}  seed {run['seed']}  seconds {run['seconds']:g}  "
        f"trace {run['trace']}  [{status}]  attempted {run['attempted']} "
        f"failed {run['failed']}  digest {run['digest'][:16]}"
    )
    for note in run["notes"]:
        print(f"   {note}")
    for name, entry in run["metrics"].items():
        count = run["samples"].get(name)
        tail = f"   n={count}" if count is not None else ""
        print(f"   {name:<34} {entry['value']:>14.6g} {entry['unit']}{tail}")
    for name, passed in run["checks"].items():
        if not passed:
            print(f"   CHECK FAILED: {name}")


def box_description() -> dict:
    import numpy

    from spec import calibration_kops

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "calibration_kops": calibration_kops(1_500_000),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="workload seed (repeatable: one run per seed; default 1)")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--json", metavar="OUT", help="write every run to OUT")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge B against A with the declared bounds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    declaration = load_declaration()
    if args.compare:
        return compare.main(declaration, *args.compare)
    seconds = args.seconds if args.seconds is not None else float(declaration["run_seconds"])
    if args.child:
        child_main(args.workload[0], args.seed[0], seconds, bool(args.trace))
        return 0

    bootstrap_src()
    workloads = args.workload or workload_names(declaration)
    unknown = sorted(set(workloads) - set(workload_names(declaration)))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {workload_names(declaration)}")
    runs: List[Dict] = []
    for seed in args.seed or [1]:
        for workload in workloads:
            run = measure(declaration, workload, seed, seconds, bool(args.trace))
            show(run)
            runs.append(run)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"box": box_description(), "runs": runs}, handle, indent=1)
    correct = all(run["correct"] for run in runs)
    if len(runs) == 1:
        run = runs[0]
        print(json.dumps({
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": run["metrics"],
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
