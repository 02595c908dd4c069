"""Core hot-path benchmark: the cells, measurements and regression checks.

This module is the library behind ``tools/bench.py`` (and the CI
``perf-smoke`` job).  It measures the simulator's raw single-process
throughput on three *headline cells* that bracket the hot paths:

* ``heartbeat`` — the paper's 12-workstation LAN deployment, no churn:
  pure heartbeat/election traffic, the cell the tentpole optimizations
  target (buffered RNG, lazy timers, allocation-light delivery, memoized
  leader choice);
* ``lossy`` — 8 nodes over (10 ms, 1%) links: exercises the loss-coin +
  delay-draw interleaving on every link stream (the buffered RNG's
  adaptive passthrough path);
* ``churn`` — 8 nodes with workstation churn: exercises monitor teardown,
  re-election and the engine's cancellation/compaction machinery;
* ``many_groups`` — the multi-group scale-out's headline: 12 nodes each
  hosting **64 groups** over one shared node-level FD plane.  Wire
  bytes/sec must stay near-flat in the group count (batched frames +
  change-triggered cells + delta gossip), which is what the cell's
  wire-bytes metric pins against the committed baseline.
* ``lease_load`` — the lease tier under load: the paper's 12-node group
  with **1000 lease clients** contending on 250 locks through the
  leader's grant/renew/release path.  Pins the cost of the service tier
  (request routing, fencing-token issue, ledger gossip) and its on-wire
  footprint against the baseline.
* ``wide_lan`` — **100 nodes**, all-to-all: 9 900 directed node pairs,
  the deadline-pool's showcase (one batched sentinel wake per δ for the
  whole population instead of one timer event per monitor per η — the
  scalar path executes ~50 k more engine events on this cell).
* ``swim_lan`` — the same 100-node deployment on the **SWIM membership
  plane** (``fd_plane="swim"``): liveness from the O(k·n) probe ring,
  membership from bounded rumour piggyback + hello gossip, heartbeat
  cells stretched to pure anti-entropy.  Pinned next to ``wide_lan`` so
  the committed baseline *is* the headline wire-cost comparison — swim's
  steady-state bytes/sec must stay a small fraction of the all-pairs
  cell at equal node count.
* ``swim_wide`` — **1000 nodes** on the SWIM plane, the internet-scale
  cell the all-pairs plane cannot run at all (10⁶ directed pairs).  A
  short horizon past the join wave; digest/wire pinned like every cell.
  No allocation pass: tracemalloc multiplies the heaviest cell several-
  fold, and swim's allocation profile is pinned by ``swim_lan``.
* ``many_groups_sharded`` / ``lease_load_sharded`` — the same workloads
  split into **4 shards** (16 groups / 250 clients each, deterministic
  per-shard seeds) and run through
  :func:`repro.experiments.orchestrator.run_sharded`, one worker process
  per available core.  Pins the merged-trace digest (worker-count
  independent) and the summed events/wire bytes; wall clock is the
  *makespan*, so events/sec depends on the core count and is exempt from
  the normalized-throughput gate.  The allocation pass runs the shards
  sequentially in-process: live blocks are summed (total residency of
  the workload) and peak is the worst single shard (each shard is its
  own process in a real run, so per-process peak is what matters).

Four measurements per cell:

* **events/sec** — wall-clock throughput, best of ``repeats`` runs (best,
  not mean: scheduler noise only ever slows a run down);
* **trace digest** — the cell is fixed-seed, so its digest doubles as a
  determinism regression check (hardware-independent);
* **allocation profile** — tracemalloc peak KiB and live blocks after the
  run (hardware-independent, catches "accidentally quadratic memory" and
  per-event allocation regressions that wall clock may hide on fast
  machines);
* **wire bytes** — total on-wire bytes sent across all nodes, and the
  per-second rate.  Deterministic for a fixed-seed cell, so it is compared
  *exactly* against the baseline: any protocol change that moves bytes on
  the wire must re-record intentionally.

Cross-machine comparability: raw events/sec on a CI runner says little
against a baseline recorded elsewhere, so the file also records a
*calibration* score — a fixed pure-Python workload shaped like the
simulator's hot path — and the regression check compares events/sec
*normalized by calibration* (with digests and allocations compared
directly).  See :func:`compare_results`.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig

__all__ = [
    "CORE_CELLS",
    "SHARDED_CELLS",
    "SCALING_SIZES",
    "CellResult",
    "BenchResult",
    "calibration_kops",
    "run_cell",
    "run_core_bench",
    "run_scaling_report",
    "compare_results",
]

#: Virtual-seconds horizon per mode; quick keeps the CI job under a minute.
DURATIONS = {"full": 300.0, "quick": 120.0}
REPEATS = {"full": 5, "quick": 3}

#: Per-cell horizon overrides: the 64-group cell processes ~64 cells per
#: delivered frame, so a shorter horizon keeps its wall clock in line with
#: the other cells while still covering hundreds of emission periods.
CELL_DURATIONS = {
    "many_groups": {"full": 60.0, "quick": 30.0},
    # 1000 clients cycle acquire→hold→release every few virtual seconds,
    # so even a short horizon covers tens of thousands of grants.
    "lease_load": {"full": 60.0, "quick": 30.0},
    # 9 900 node pairs make every virtual second expensive; a few seconds
    # past convergence already covers dozens of FD deadline horizons.
    "wide_lan": {"full": 10.0, "quick": 5.0},
    # Same deployment, swim plane: matched horizon so the two cells'
    # wire_kb_per_virtual_sec are directly comparable in the baseline.
    "swim_lan": {"full": 10.0, "quick": 5.0},
    # 1000 nodes: the join wave alone is ~1.7M engine events; one virtual
    # second past it already exercises the probe ring, rumour piggyback
    # and gossip converge-and-quiesce behaviour at full scale.
    "swim_wide": {"full": 2.0, "quick": 1.0},
    "many_groups_sharded": {"full": 60.0, "quick": 30.0},
    "lease_load_sharded": {"full": 60.0, "quick": 30.0},
}
CELL_REPEATS = {
    "many_groups": {"full": 3, "quick": 2},
    "lease_load": {"full": 3, "quick": 2},
    "wide_lan": {"full": 2, "quick": 1},
    "swim_lan": {"full": 2, "quick": 1},
    "swim_wide": {"full": 1, "quick": 1},
    "many_groups_sharded": {"full": 2, "quick": 1},
    "lease_load_sharded": {"full": 2, "quick": 1},
}

#: Cells that skip the tracemalloc pass (see the module docstring).
NO_ALLOC_CELLS = frozenset({"swim_wide"})

#: Absolute live-block budgets, asserted by :func:`compare_results` on top
#: of the relative baseline tolerance.  The relative check only catches
#: *drift per PR*; the absolute budget stops the slow creep.  many_groups
#: retains ~150.6k blocks as :func:`_traced_run` counts them (the 138k
#: this budget was first sized from was the same state read while an
#: earlier run's garbage refilled the interpreter's free lists): ~110k
#: genuinely-live per-(group, destination) protocol state plus the
#: fd-plane seam's fixed per-group overhead (duration-flat — full and
#: quick within 0.2% — so it is structure, not a leak).  The budget sits
#: ~8% above that floor.
ALLOC_BUDGETS = {"many_groups": 163_000}


def _cell(name: str, **kw) -> Callable[[float], ExperimentConfig]:
    def make(duration: float) -> ExperimentConfig:
        return ExperimentConfig(
            name=name, duration=duration, warmup=min(30.0, duration / 4), **kw
        )

    return make


#: name -> duration -> ExperimentConfig.  Fixed seeds: the digests are part
#: of the committed baseline.
CORE_CELLS: Dict[str, Callable[[float], ExperimentConfig]] = {
    "heartbeat": _cell(
        "heartbeat", algorithm="omega_lc", n_nodes=12, seed=42, node_churn=False
    ),
    "lossy": _cell(
        "lossy",
        algorithm="omega_lc",
        n_nodes=8,
        seed=7,
        node_churn=False,
        link_delay_mean=0.010,
        link_loss_prob=0.01,
    ),
    "churn": _cell(
        "churn", algorithm="omega_lc", n_nodes=8, seed=11, node_churn=True
    ),
    "many_groups": _cell(
        "many_groups",
        algorithm="omega_lc",
        n_nodes=12,
        n_groups=64,
        seed=202,
        node_churn=False,
    ),
    "lease_load": _cell(
        "lease_load",
        algorithm="omega_lc",
        n_nodes=12,
        seed=303,
        node_churn=False,
        n_lease_clients=1000,
    ),
    "wide_lan": _cell(
        "wide_lan",
        algorithm="omega_lc",
        n_nodes=100,
        seed=505,
        node_churn=False,
    ),
    # Same seed as wide_lan on purpose: the only knob that differs is the
    # membership plane, so the baseline's wire columns read as a direct
    # all-pairs vs swim comparison.
    "swim_lan": _cell(
        "swim_lan",
        algorithm="omega_lc",
        n_nodes=100,
        seed=505,
        node_churn=False,
        fd_plane="swim",
    ),
    "swim_wide": _cell(
        "swim_wide",
        algorithm="omega_lc",
        n_nodes=1000,
        seed=707,
        node_churn=False,
        fd_plane="swim",
    ),
}

#: Sharded cells: name -> (base cell, shard count).  The base cell's config
#: is partitioned by :func:`repro.experiments.orchestrator.shard_config`
#: (contiguous group ranges / near-equal client splits, per-shard seeds
#: derived from the base seed) and run via ``run_sharded``.
SHARDED_CELLS = {
    "many_groups_sharded": ("many_groups", 4),
    "lease_load_sharded": ("lease_load", 4),
}


@dataclass
class CellResult:
    """One cell's measurements (see module docstring)."""

    name: str
    duration: float
    events: int
    wall_seconds: float  # best run
    events_per_sec: float
    digest: str
    #: Total on-wire bytes sent across all nodes (deterministic).
    wire_bytes: int = 0
    alloc_peak_kib: Optional[float] = None
    alloc_live_blocks: Optional[int] = None
    #: Sharded cells only: shard count (pinned) and the worker-process
    #: count the makespan was measured with (machine-dependent, not
    #: compared).
    shards: Optional[int] = None
    workers: Optional[int] = None

    @property
    def wire_kb_per_virtual_sec(self) -> float:
        return self.wire_bytes / self.duration / 1000.0

    def to_json(self) -> dict:
        blob = {
            "duration_virtual_s": self.duration,
            "events": self.events,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "digest": self.digest,
            "wire_bytes": self.wire_bytes,
            "wire_kb_per_virtual_sec": round(self.wire_kb_per_virtual_sec, 2),
            "alloc_peak_kib": self.alloc_peak_kib,
            "alloc_live_blocks": self.alloc_live_blocks,
        }
        if self.shards is not None:
            blob["shards"] = self.shards
            blob["workers"] = self.workers
        return blob


@dataclass
class BenchResult:
    """One full bench run (one mode)."""

    mode: str
    calibration_kops: float
    cells: Dict[str, CellResult] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "calibration_kops": round(self.calibration_kops, 1),
            "cells": {name: cell.to_json() for name, cell in self.cells.items()},
        }


def calibration_kops(iterations: int = 1_500_000) -> float:
    """Machine-speed score in kilo-iterations/sec of a hot-path-shaped loop.

    Dict lookups, float arithmetic, method calls and small-list churn — the
    same mix the simulator's per-event work is made of.  Normalizing
    events/sec by this score makes the committed baseline comparable across
    machines (a CI runner ~40% slower than the laptop that wrote the
    baseline scores ~40% lower here too, cancelling out).
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


def _traced_run(config: "ExperimentConfig") -> tuple:
    """(peak bytes, live blocks) of one run of ``config`` under tracemalloc.

    tracemalloc counts a block only when the allocator is asked for it; a
    tuple, float or dict handed back by one of the interpreter's free lists
    is invisible.  Garbage of an earlier run that the collector gets to
    *during* this one refills those lists, so the same cell read 138k or
    152k live blocks depending on the cells run before it.  Collecting
    first leaves nothing to free mid-run: one reading per tree.
    """
    system = build_system(config)
    gc.collect()
    tracemalloc.start()
    system.sim.run_until(config.duration)
    peak = tracemalloc.get_traced_memory()[1]
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    return peak, sum(stat.count for stat in snapshot.statistics("filename"))


def _measure_sharded_allocations(
    config: "ExperimentConfig", shards: int
) -> tuple:
    """(peak_kib, live_blocks) for a sharded cell's allocation profile.

    Runs the shards sequentially in-process — tracemalloc cannot see
    worker processes.  Live blocks sum across shards (the workload's total
    residency); peak is the worst single shard, because in a real run each
    shard is its own process and per-process peak is what an operator
    provisions for.  tracemalloc restarts between shards so one shard's
    freed transients don't inflate the next shard's peak.
    """
    from repro.experiments.orchestrator import shard_config

    worst_peak = 0
    live_blocks = 0
    for shard in shard_config(config, shards):
        peak, blocks = _traced_run(shard)
        worst_peak = max(worst_peak, peak)
        live_blocks += blocks
    return round(worst_peak / 1024.0, 1), live_blocks


def _run_sharded_cell(
    name: str, duration: float, repeats: int, measure_allocations: bool = True
) -> CellResult:
    """Measure one sharded cell (makespan wall, merged digest, summed
    events/wire; see the module docstring)."""
    from repro.experiments.orchestrator import run_sharded

    base, shards = SHARDED_CELLS[name]
    config = CORE_CELLS[base](duration)
    best: Optional[object] = None
    for repeat in range(repeats):
        sharded = run_sharded(config, shards=shards)
        if best is not None and (
            sharded.digest != best.digest
            or sharded.events_executed != best.events_executed
        ):
            raise AssertionError(
                f"sharded cell '{name}' is nondeterministic across repeats: "
                f"{best.events_executed}/{best.digest[:12]}… then "
                f"{sharded.events_executed}/{sharded.digest[:12]}…"
            )
        if best is None or sharded.wall_seconds < best.wall_seconds:
            best = sharded
    result = CellResult(
        name=name,
        duration=duration,
        events=best.events_executed,
        wall_seconds=best.wall_seconds,
        events_per_sec=best.events_per_sec,
        digest=best.digest,
        wire_bytes=best.wire_bytes,
        shards=shards,
        workers=best.workers,
    )
    if measure_allocations and name not in NO_ALLOC_CELLS:
        peak_kib, live_blocks = _measure_sharded_allocations(config, shards)
        result.alloc_peak_kib = peak_kib
        result.alloc_live_blocks = live_blocks
    return result


def run_cell(
    name: str,
    mode: str = "full",
    repeats: Optional[int] = None,
    measure_allocations: bool = True,
) -> CellResult:
    """Measure one core cell; see the module docstring for what and why."""
    duration = CELL_DURATIONS.get(name, DURATIONS)[mode]
    if repeats is None:
        repeats = CELL_REPEATS.get(name, REPEATS)[mode]
    if name in SHARDED_CELLS:
        return _run_sharded_cell(
            name, duration, repeats, measure_allocations=measure_allocations
        )
    make = CORE_CELLS[name]
    best_wall = float("inf")
    events = 0
    digest = ""
    wire_bytes = 0
    for repeat in range(repeats):
        system = build_system(make(duration))
        start = time.perf_counter()
        system.sim.run_until(duration)
        wall = time.perf_counter() - start
        best_wall = min(best_wall, wall)
        if repeat and (
            digest != system.trace.digest()
            or events != system.sim.events_executed
        ):
            # The digests double as determinism checks; repeats of a
            # fixed-seed cell disagreeing is itself the regression.
            raise AssertionError(
                f"cell '{name}' is nondeterministic across repeats: "
                f"{events}/{digest[:12]}… then "
                f"{system.sim.events_executed}/{system.trace.digest()[:12]}…"
            )
        events = system.sim.events_executed
        digest = system.trace.digest()
        wire_bytes = sum(
            node.meter.bytes_sent for node in system.network.nodes.values()
        )
    result = CellResult(
        name=name,
        duration=duration,
        events=events,
        wall_seconds=best_wall,
        events_per_sec=events / best_wall,
        digest=digest,
        wire_bytes=wire_bytes,
    )
    if measure_allocations and name not in NO_ALLOC_CELLS:
        # Separate pass: tracemalloc slows execution several-fold, so it
        # must never share a run with the timing measurement.
        peak, result.alloc_live_blocks = _traced_run(make(duration))
        result.alloc_peak_kib = round(peak / 1024.0, 1)
    return result


def run_core_bench(
    mode: str = "full",
    cells: Optional[List[str]] = None,
    measure_allocations: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchResult:
    """Run the core bench in ``mode`` over ``cells`` (default: all)."""
    names = (
        list(CORE_CELLS) + list(SHARDED_CELLS) if cells is None else cells
    )
    result = BenchResult(mode=mode, calibration_kops=calibration_kops())
    if progress:
        progress(f"calibration: {result.calibration_kops:,.0f} kops")
    for name in names:
        cell = run_cell(name, mode=mode, measure_allocations=measure_allocations)
        result.cells[name] = cell
        if progress:
            progress(
                f"{name}: {cell.events_per_sec:,.0f} events/s "
                f"({cell.events} events in {cell.wall_seconds:.2f}s, "
                f"{cell.wire_kb_per_virtual_sec:,.1f} KB/s on wire)"
            )
    return result


#: Node counts for the :func:`run_scaling_report` sweep.
SCALING_SIZES = (25, 50, 100)


def run_scaling_report(
    duration: float = 30.0,
    sizes: tuple = SCALING_SIZES,
    planes: tuple = ("all_pairs", "swim"),
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[int, float]]:
    """How membership wire cost scales with cluster size, per plane.

    Runs the plain LAN deployment at each ``n`` in ``sizes`` under each
    membership plane and reports **wire bytes per node per virtual
    second** — the per-participant cost an operator actually pays.  On the
    all-pairs plane that number grows linearly in n (each node heartbeats
    every other: O(n²) total), while on the swim plane it stays near-flat
    (k probes + bounded piggyback per period: O(k·n) total).  The returned
    mapping is ``plane -> {n: bytes_per_node_per_sec}``.
    """
    report: Dict[str, Dict[int, float]] = {}
    for plane in planes:
        report[plane] = {}
        for n in sizes:
            config = ExperimentConfig(
                name=f"scaling_{plane}_{n}",
                duration=duration,
                warmup=min(30.0, duration / 4),
                algorithm="omega_lc",
                n_nodes=n,
                seed=505,
                node_churn=False,
                fd_plane=plane,
            )
            system = build_system(config)
            start = time.perf_counter()
            system.sim.run_until(duration)
            wall = time.perf_counter() - start
            wire_bytes = sum(
                node.meter.bytes_sent for node in system.network.nodes.values()
            )
            per_node = wire_bytes / n / duration
            report[plane][n] = per_node
            if progress:
                progress(
                    f"{plane:>9} n={n:<4} {per_node:>10,.0f} B/node/s "
                    f"({wire_bytes:,} wire bytes over {duration:.0f} virtual s, "
                    f"{wall:.1f}s wall)"
                )
    return report


def compare_results(
    baseline: dict, current: BenchResult, tolerance: float = 0.20
) -> List[str]:
    """Regression check of ``current`` against a committed ``baseline`` blob.

    Returns a list of human-readable failures (empty = pass):

    * digest mismatch — the cell no longer reproduces the baseline trace
      (determinism regression; not subject to tolerance);
    * normalized events/sec below ``(1 - tolerance) ×`` baseline —
      throughput regression, where *normalized* means divided by each
      machine's calibration score;
    * live allocation blocks above ``(1 + tolerance) ×`` baseline —
      allocation regression (hardware-independent).
    """
    failures: List[str] = []
    base_mode = baseline.get("modes", {}).get(current.mode)
    if base_mode is None:
        return [f"baseline has no '{current.mode}' mode section"]
    base_calibration = base_mode.get("calibration_kops") or 1.0
    for name, cell in current.cells.items():
        base_cell = base_mode.get("cells", {}).get(name)
        if base_cell is None:
            failures.append(f"{name}: not present in baseline")
            continue
        if base_cell["digest"] != cell.digest:
            failures.append(
                f"{name}: trace digest changed "
                f"({base_cell['digest'][:12]}… -> {cell.digest[:12]}…); "
                "simulation behaviour is no longer bit-identical to the "
                "committed baseline — if intentional, re-run "
                "tools/bench.py --update"
            )
        base_events = base_cell.get("events")
        if base_events is not None and base_events != cell.events:
            # Exact, like the digest: traces are sparse (view changes,
            # crashes), so a steady-state perturbation can leave the digest
            # untouched while the event count moves.  Both must hold.
            failures.append(
                f"{name}: executed event count changed "
                f"({base_events} -> {cell.events}); the fixed-seed cell no "
                "longer reproduces the committed baseline — if intentional, "
                "re-run tools/bench.py --update"
            )
        base_wire = base_cell.get("wire_bytes")
        if base_wire is not None and base_wire != cell.wire_bytes:
            # Exact, like the digest: bytes on the wire are deterministic
            # for a fixed seed, and this is the metric the multi-group
            # scale-out exists to hold down.
            failures.append(
                f"{name}: wire bytes changed ({base_wire} -> {cell.wire_bytes}); "
                "the protocol's on-wire footprint moved — if intentional, "
                "re-run tools/bench.py --update"
            )
        if cell.shards is not None or base_cell.get("shards"):
            # Sharded makespan depends on the worker/core count, which the
            # calibration score cannot normalize away; the digest, event
            # and wire-byte pins above still hold exactly.
            continue
        base_norm = base_cell["events_per_sec"] / base_calibration
        norm = cell.events_per_sec / current.calibration_kops
        if norm < (1.0 - tolerance) * base_norm:
            failures.append(
                f"{name}: normalized throughput regressed "
                f"{(1.0 - norm / base_norm) * 100:.1f}% "
                f"(baseline {base_cell['events_per_sec']:,.0f} ev/s @ "
                f"{base_calibration:,.0f} kops, "
                f"current {cell.events_per_sec:,.0f} ev/s @ "
                f"{current.calibration_kops:,.0f} kops, "
                f"tolerance {tolerance * 100:.0f}%)"
            )
        base_blocks = base_cell.get("alloc_live_blocks")
        if base_blocks and cell.alloc_live_blocks:
            if cell.alloc_live_blocks > (1.0 + tolerance) * base_blocks:
                failures.append(
                    f"{name}: live allocation blocks grew "
                    f"{base_blocks} -> {cell.alloc_live_blocks} "
                    f"(tolerance {tolerance * 100:.0f}%)"
                )
        base_peak = base_cell.get("alloc_peak_kib")
        if base_peak and cell.alloc_peak_kib:
            if cell.alloc_peak_kib > (1.0 + tolerance) * base_peak:
                failures.append(
                    f"{name}: peak traced memory grew "
                    f"{base_peak:.0f} -> {cell.alloc_peak_kib:.0f} KiB "
                    f"(tolerance {tolerance * 100:.0f}%)"
                )
        budget = ALLOC_BUDGETS.get(name)
        if budget and cell.alloc_live_blocks and cell.alloc_live_blocks > budget:
            failures.append(
                f"{name}: live allocation blocks exceed the absolute budget "
                f"({cell.alloc_live_blocks} > {budget})"
            )
    return failures
