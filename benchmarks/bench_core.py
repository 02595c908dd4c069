#!/usr/bin/env python
"""Fixed-seed determinism pins: check or re-record ``BENCH_core.json``.

Performance is measured by ``BENCHMARK.json`` / ``benchmarks/spine/``.
This file keeps only what the spine does not: eight fixed-seed cells no
spine workload covers, each run once and compared **exactly** on trace
digest, executed event count and bytes on the wire, plus a tracemalloc
pass bounding what a run keeps allocated, and Python calls per layer per
virtual second over a window of the run, which may not rise by more than
:data:`CALL_MARGIN` in any layer.  A call count is the deterministic view
of host time: it reads the same on a busy box, so a layer whose work grew
is named without timing anything.  It does not see C work (numpy, heapq),
which is why the spine's ``--trace 1`` sampler stays the other view.

    python benchmarks/bench_core.py --check    # CI's ``pins`` job; exit 1 on any moved pin
    python benchmarks/bench_core.py --update   # after an intentional behaviour change
    python benchmarks/bench_core.py --update --cells swim_lan,swim_wide

The cells:

* ``heartbeat`` — the paper's 12-workstation LAN deployment, no churn;
* ``lossy`` — 8 nodes over (10 ms, 1 %) links: the loss-coin + delay-draw
  interleaving on every link stream;
* ``churn`` — 8 nodes with workstation churn: monitor teardown,
  re-election, the engine's cancellation/compaction machinery;
* ``many_groups`` — 12 nodes each hosting **64 groups** over one shared
  node-level FD plane; its ``wire_bytes`` pin is what holds the multi-group
  scale-out's near-flat wire cost;
* ``lease_load`` — the paper's 12-node group with **1000 lease clients**
  on the leader's grant/renew/release path;
* ``wide_lan`` — **100 nodes** all-to-all, 9 900 directed node pairs;
* ``swim_lan`` — the same deployment and seed on the SWIM plane, so the
  two cells' ``wire_bytes`` read as the all-pairs vs swim wire cost;
* ``swim_wide`` — **1000 nodes** on the SWIM plane, which the all-pairs
  plane cannot run at all.  No allocation pass and no call count:
  tracemalloc and the profile hook multiply the heaviest cell several-fold,
  and ``swim_lan`` pins swim's profile.

The tracemalloc pass is a second run of the same cell, so its digest and
event count must equal the first run's: a cell that does not repeat is
reported as the regression it is, never recorded.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path
from typing import Dict, List

import numpy

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

if str(ROOT / "benchmarks" / "spine") not in sys.path:
    sys.path.append(str(ROOT / "benchmarks" / "spine"))

from repro.experiments.runner import build_system  # noqa: E402
from repro.experiments.scenario import ExperimentConfig  # noqa: E402
from tracing import LAYERS, layer_of  # noqa: E402  (the spine's layer map, read-only)

__all__ = ["CORE_CELLS", "run_cell", "compare_results", "load_baseline", "main"]

BASELINE_PATH = ROOT / "BENCH_core.json"
SCHEMA = 2

#: The pins compared exactly.  Traces are sparse (view changes, crashes),
#: so a steady-state perturbation can leave the digest untouched while the
#: event count or the bytes on the wire move: all three must hold.
EXACT_PINS = ("digest", "events", "wire_bytes")

#: Allowed growth of ``alloc_live_blocks`` / ``alloc_peak_kib`` over the
#: recorded value; tracemalloc readings move a little with the interpreter.
ALLOC_TOLERANCE = 0.20

#: Cells that skip the tracemalloc pass and the call count (see the
#: module docstring).
NO_TRACE_CELLS = frozenset({"swim_wide"})

#: Virtual seconds whose Python calls are counted, from the cell's warm-up
#: on (less where the run ends sooner).
CALL_WINDOW = 5.0

#: Allowed rise of one layer's calls per virtual second over the recorded
#: value.  Counts are exact for one tree on one Python version; the margin
#: absorbs interpreter versions (comprehensions, which Python 3.12 inlines,
#: are not counted at all), not noise.  A drop always passes.
CALL_MARGIN = 0.05

#: Code objects that are frames on Python 3.11 and inlined on 3.12 (PEP 709).
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: Absolute live-block budgets on top of the relative tolerance, which only
#: catches drift per PR; the budget stops the slow creep.  many_groups
#: retains ~150.6k blocks: ~110k genuinely-live per-(group, destination)
#: protocol state plus the fd-plane seam's fixed per-group overhead
#: (duration-flat, so structure, not a leak).  The budget sits ~8 % above.
ALLOC_BUDGETS = {"many_groups": 163_000}


def _cell(name: str, duration: float, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        duration=duration,
        warmup=min(30.0, duration / 4),
        algorithm="omega_lc",
        **kw,
    )


#: Fixed seeds and horizons: the digests are part of the committed file.
#: The short horizons are the expensive cells — 64 cells per delivered
#: frame, 1000 clients cycling every few virtual seconds, 9 900 node
#: pairs, a ~1.7M-event join wave — each still far past convergence.
CORE_CELLS: Dict[str, ExperimentConfig] = {
    "heartbeat": _cell("heartbeat", 300.0, n_nodes=12, seed=42, node_churn=False),
    "lossy": _cell(
        "lossy",
        300.0,
        n_nodes=8,
        seed=7,
        node_churn=False,
        link_delay_mean=0.010,
        link_loss_prob=0.01,
    ),
    "churn": _cell("churn", 300.0, n_nodes=8, seed=11, node_churn=True),
    "many_groups": _cell(
        "many_groups", 60.0, n_nodes=12, n_groups=64, seed=202, node_churn=False
    ),
    "lease_load": _cell(
        "lease_load", 60.0, n_nodes=12, seed=303, node_churn=False, n_lease_clients=1000
    ),
    "wide_lan": _cell("wide_lan", 10.0, n_nodes=100, seed=505, node_churn=False),
    # Same seed and horizon as wide_lan on purpose: the only knob that
    # differs is the membership plane.
    "swim_lan": _cell(
        "swim_lan", 10.0, n_nodes=100, seed=505, node_churn=False, fd_plane="swim"
    ),
    "swim_wide": _cell(
        "swim_wide", 2.0, n_nodes=1000, seed=707, node_churn=False, fd_plane="swim"
    ),
}


def _pins(system) -> dict:
    return {
        "events": system.sim.events_executed,
        "digest": system.trace.digest(),
        "wire_bytes": sum(
            node.meter.bytes_sent for node in system.network.nodes.values()
        ),
    }


def _count_calls(system, start: float, stop: float) -> Dict[str, float]:
    """Run ``system`` from ``start`` to ``stop``, counting the Python calls
    each layer makes; returns calls per virtual second, in layer order."""
    system.sim.run_until(start)
    layers: Dict[object, str] = {}  # code object -> layer, "" for none
    counts: Dict[str, int] = dict.fromkeys(LAYERS, 0)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            layer = layers.get(code)
            if layer is None:
                layer = layers[code] = (
                    "" if code.co_name in _COMPREHENSIONS
                    else layer_of(code.co_filename) or ""
                )
            if layer:
                counts[layer] += 1

    sys.setprofile(profile)
    try:
        system.sim.run_until(stop)
    finally:
        sys.setprofile(None)
    return {
        layer: round(count / (stop - start), 1) for layer, count in counts.items() if count
    }


def run_cell(name: str) -> dict:
    """Run one cell and return its ``BENCH_core.json`` entry."""
    config = CORE_CELLS[name]
    system = build_system(config)
    calls = None
    if name not in NO_TRACE_CELLS:
        # The profile hook only watches: the run stays bit-identical.
        start = config.warmup
        calls = _count_calls(system, start, min(start + CALL_WINDOW, config.duration))
    system.sim.run_until(config.duration)
    cell = {
        "duration_virtual_s": config.duration,
        **_pins(system),
        "alloc_peak_kib": None,
        "alloc_live_blocks": None,
        "calls_per_virtual_s": calls,
    }
    if name in NO_TRACE_CELLS:
        return cell
    # tracemalloc counts a block only when the allocator is asked for it; a
    # tuple, float or dict handed back by one of the interpreter's free
    # lists is invisible.  Garbage of an earlier run that the collector
    # gets to *during* this one refills those lists, so the same cell read
    # 138k or 152k live blocks depending on the cells run before it.
    # Collecting first leaves nothing to free mid-run: one reading per tree.
    traced = build_system(config)
    gc.collect()
    tracemalloc.start()
    traced.sim.run_until(config.duration)
    peak = tracemalloc.get_traced_memory()[1]
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    again = _pins(traced)
    if (again["events"], again["digest"]) != (cell["events"], cell["digest"]):
        raise AssertionError(
            f"cell '{name}' is nondeterministic across its two runs: "
            f"{cell['events']}/{cell['digest'][:12]}… then "
            f"{again['events']}/{again['digest'][:12]}…"
        )
    cell["alloc_peak_kib"] = round(peak / 1024.0, 1)
    cell["alloc_live_blocks"] = sum(
        stat.count for stat in snapshot.statistics("filename")
    )
    return cell


def load_baseline(path: Path) -> Dict[str, dict]:
    """The recorded cells of a schema-2 file; ``ValueError`` for any other."""
    blob = json.loads(path.read_text())
    if blob.get("schema") != SCHEMA:
        raise ValueError(
            f"{path.name} is schema {blob.get('schema')}, this checker reads "
            f"schema {SCHEMA}: re-record it with benchmarks/bench_core.py --update"
        )
    return blob["cells"]


def compare_results(baseline: Dict[str, dict], current: Dict[str, dict]) -> List[str]:
    """Human-readable failures of ``current`` against the recorded cells.

    ``digest`` / ``events`` / ``wire_bytes`` must be equal; the allocation
    readings may not grow past :data:`ALLOC_TOLERANCE` or the cell's entry
    in :data:`ALLOC_BUDGETS`; no layer's calls per virtual second may rise
    past :data:`CALL_MARGIN` (a layer the record lacks counts as 0).  A
    side without call counts compares none.  Empty list = pass.
    """
    failures: List[str] = []
    for name, cell in current.items():
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: not present in baseline")
            continue
        for pin in EXACT_PINS:
            if base[pin] != cell[pin]:
                failures.append(
                    f"{name}: {pin} changed ({base[pin]} -> {cell[pin]}); the "
                    "fixed-seed cell no longer reproduces the committed file — "
                    "if intentional, re-run benchmarks/bench_core.py --update"
                )
        for reading, label in (
            ("alloc_live_blocks", "live allocation blocks"),
            ("alloc_peak_kib", "peak traced KiB"),
        ):
            limit = (1.0 + ALLOC_TOLERANCE) * (base.get(reading) or 0)
            if limit and cell[reading] and cell[reading] > limit:
                failures.append(
                    f"{name}: {label} grew {base[reading]} -> {cell[reading]} "
                    f"(tolerance {ALLOC_TOLERANCE * 100:.0f}%)"
                )
        recorded = base.get("calls_per_virtual_s")
        if recorded and cell.get("calls_per_virtual_s"):
            for layer, rate in cell["calls_per_virtual_s"].items():
                was = recorded.get(layer, 0.0)
                if rate > (1.0 + CALL_MARGIN) * was:
                    failures.append(
                        f"{name}: {layer} calls per virtual s rose {was} -> {rate} "
                        f"(margin {CALL_MARGIN * 100:.0f}%)"
                    )
        budget = ALLOC_BUDGETS.get(name)
        if budget and cell["alloc_live_blocks"] and cell["alloc_live_blocks"] > budget:
            failures.append(
                f"{name}: live allocation blocks exceed the absolute budget "
                f"({cell['alloc_live_blocks']} > {budget})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed file; exit 1 on any moved pin",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="record the cells run into the committed file, keeping the others",
    )
    parser.add_argument(
        "--cells",
        default=None,
        help=f"comma-separated subset of {', '.join(CORE_CELLS)} (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"file for --check/--update (default {BASELINE_PATH.name})",
    )
    args = parser.parse_args(argv)

    names = args.cells.split(",") if args.cells else list(CORE_CELLS)
    unknown = [name for name in names if name not in CORE_CELLS]
    if unknown:
        parser.error(f"unknown cell(s): {', '.join(unknown)}")
    baseline: Dict[str, dict] = {}
    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        # --update may start a file over; --check has nothing to check.
        if args.check:
            parser.error(str(exc))

    current: Dict[str, dict] = {}
    for name in names:
        current[name] = cell = run_cell(name)
        print(
            f"{name}: {cell['events']} events, {cell['wire_bytes']} wire bytes, "
            f"digest {cell['digest'][:12]}…, {cell['alloc_live_blocks']} live "
            f"blocks, {cell['alloc_peak_kib']} KiB peak",
            flush=True,
        )
        if cell["calls_per_virtual_s"]:
            rates = ", ".join(f"{k} {v:.0f}" for k, v in cell["calls_per_virtual_s"].items())
            print(f"  calls per virtual s: {rates}", flush=True)

    exit_code = 0
    if args.check:
        failures = compare_results(baseline, current)
        if failures:
            print(f"\npins: {len(failures)} failure(s) vs {args.baseline.name}:")
            for failure in failures:
                print(f"  FAIL {failure}")
            exit_code = 1
        else:
            print(f"\npins: OK, {len(current)} cell(s) match {args.baseline.name}")

    if args.update:
        baseline.update(current)
        blob = {
            "schema": SCHEMA,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "cells": {name: baseline[name] for name in CORE_CELLS if name in baseline},
        }
        args.baseline.write_text(json.dumps(blob, indent=1) + "\n")
        print(f"updated {args.baseline}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
