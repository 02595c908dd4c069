#!/usr/bin/env python
"""Run the core hot-path benchmark and maintain ``BENCH_core.json``.

The committed ``BENCH_core.json`` at the repo root is the performance
baseline: per-cell events/sec, fixed-seed trace digests, allocation
profiles and a machine-calibration score, for both the ``full`` and the
``quick`` (CI-sized) modes.  Typical invocations:

    # Re-measure and print; writes nothing.
    PYTHONPATH=src python tools/bench.py

    # CI-sized run, regression-checked against the committed baseline
    # (exit 1 on >20% normalized-throughput or allocation regression, or
    # on any digest change).  This is what the perf-smoke CI job runs.
    PYTHONPATH=src python tools/bench.py --quick --check

    # Refresh the committed baseline after an intentional change
    # (records both the mode you ran and leaves the other mode intact).
    PYTHONPATH=src python tools/bench.py --update
    PYTHONPATH=src python tools/bench.py --quick --update

    # Where is the time going?  cProfile of the heartbeat cell.
    PYTHONPATH=src python tools/bench.py --profile

    # How does membership wire cost scale with cluster size?  Runs the
    # LAN cell at n ∈ {25, 50, 100} under both membership planes and
    # prints wire bytes per node per virtual second.
    PYTHONPATH=src python tools/bench.py --scaling

See :mod:`benchmarks.bench_core` for what the cells and measurements mean.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.bench_core import (  # noqa: E402
    CELL_DURATIONS,
    CORE_CELLS,
    DURATIONS,
    build_system,
    compare_results,
    run_core_bench,
    run_scaling_report,
)

BASELINE_PATH = ROOT / "BENCH_core.json"


def _git_state() -> tuple:
    """(HEAD sha, dirty?) — the provenance pair recorded at --update time.

    A baseline refresh normally runs with the perf change still
    uncommitted, so HEAD is the *parent* of the commit that will carry the
    new baseline; the dirty flag records whether the working tree had
    uncommitted changes when the numbers were measured.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        )
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def _profile(cell: str, mode: str, out: Path = None) -> int:
    import cProfile
    import pstats

    make = CORE_CELLS[cell]
    # The cell's own horizon for this mode: the run that is measured.
    duration = CELL_DURATIONS.get(cell, DURATIONS)[mode]
    system = build_system(make(duration))
    profiler = cProfile.Profile()
    profiler.enable()
    system.sim.run_until(duration)
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(30)
    if out is not None:
        # Raw pstats dump, loadable with pstats.Stats(str(out)) or snakeviz;
        # CI uploads this as an artifact when the perf gate trips.
        profiler.dump_stats(out)
        print(f"wrote pstats dump to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized horizons/repeats (the perf-smoke job's mode)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write this run into the committed baseline file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative regression for --check (default 0.20)",
    )
    parser.add_argument(
        "--cells",
        default=None,
        help="comma-separated subset of cells (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"baseline file for --check/--update (default {BASELINE_PATH.name})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write this run's results (with metadata) to PATH",
    )
    parser.add_argument(
        "--no-allocations",
        action="store_true",
        help="skip the (slow) tracemalloc pass",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="heartbeat",
        metavar="CELL",
        help="cProfile one cell (default: heartbeat) and exit",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="wire-bytes-per-node-per-second at n in {25,50,100} for both "
        "membership planes (all_pairs vs swim), then exit",
    )
    parser.add_argument(
        "--scaling-duration",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="virtual-seconds horizon per --scaling run (default 30)",
    )
    parser.add_argument(
        "--profile-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="dump raw pstats data to FILE; composes with --check/--update "
        "(profiles the measured run) or with --profile (profiles that "
        "cell); alone it implies a measured run",
    )
    args = parser.parse_args(argv)

    if args.scaling:
        print(
            f"membership wire scaling, {args.scaling_duration:.0f} virtual s "
            "per point (bytes/node/s):"
        )
        report = run_scaling_report(
            duration=args.scaling_duration,
            progress=lambda line: print(line, flush=True),
        )
        sizes = sorted(next(iter(report.values())))
        if "all_pairs" in report and "swim" in report:
            for n in sizes:
                ratio = report["swim"][n] / report["all_pairs"][n]
                print(f"n={n}: swim costs {ratio * 100:.1f}% of all_pairs per node")
        return 0

    mode = "quick" if args.quick else "full"
    if args.profile and not (args.check or args.update):
        return _profile(args.profile, mode, args.profile_out)

    cells = args.cells.split(",") if args.cells else None
    profiler = None
    if args.profile_out is not None:
        # Composes with --check: CI can capture *where the time went* in
        # the very run that trips (or passes) the perf gate, instead of
        # needing a second, separately-profiled invocation.
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = run_core_bench(
        mode=mode,
        cells=cells,
        measure_allocations=not args.no_allocations,
        progress=lambda line: print(line, flush=True),
    )
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile_out)
        print(f"wrote pstats dump to {args.profile_out}")

    import numpy

    git_sha, git_dirty = _git_state()
    blob = {
        "schema": 1,
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "modes": {mode: result.to_json()},
    }

    if args.output:
        args.output.write_text(json.dumps(blob, indent=1) + "\n")
        print(f"wrote {args.output}")

    exit_code = 0
    if args.check:
        if not args.baseline.exists():
            print(f"error: no baseline at {args.baseline}", file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text())
        failures = compare_results(baseline, result, tolerance=args.tolerance)
        if failures:
            print(f"\nperf-smoke: {len(failures)} regression(s) vs {args.baseline.name}:")
            for failure in failures:
                print(f"  FAIL {failure}")
            exit_code = 1
        else:
            print(f"\nperf-smoke: OK within {args.tolerance * 100:.0f}% of baseline")

    if args.update:
        merged = blob
        if args.baseline.exists():
            merged = json.loads(args.baseline.read_text())
            merged.update(
                {
                    k: blob[k]
                    for k in ("schema", "git_sha", "git_dirty", "python", "numpy")
                }
            )
            merged.setdefault("modes", {})[mode] = blob["modes"][mode]
        args.baseline.write_text(json.dumps(merged, indent=1) + "\n")
        print(f"updated {args.baseline}")

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
