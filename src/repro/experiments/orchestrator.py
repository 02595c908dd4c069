"""Parallel experiment orchestration: shard a sweep across processes.

The paper's figures come from grids of (network, QoS, churn) cells, each an
independent simulation — an embarrassingly parallel workload that the serial
:func:`~repro.experiments.runner.run_experiment` loop leaves on the table.
This module turns a sequence of :class:`ExperimentConfig` cells into a
*sweep*:

* cells are sharded across worker processes via
  :class:`concurrent.futures.ProcessPoolExecutor` (near-linear speedup on
  multicore; ``workers=1`` stays fully in-process for debuggability),
* per-cell seeds can be derived deterministically from one sweep-level seed
  via :meth:`RngRegistry.derive_seed`, keyed by cell name so the grid can
  grow without perturbing existing cells,
* results are persisted twice: per-cell in a :class:`ResultCache` (the
  ``--resume`` layer skips cells whose ``(config-hash, seed)`` record already
  exists and survives corrupted entries), and per-sweep in one structured
  JSON artifact carrying schema version, git SHA, per-cell timings and
  events/sec — the perf trajectory CI tracks,
* progress is reported through a callback as cells complete.

Determinism: a cell's result depends only on its config (which includes the
seed) — never on worker count, shard order or scheduling — so per-cell
metrics are byte-identical (see :func:`~repro.experiments.serialize.canonical_json`)
whether a sweep runs with 1 worker or 16.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.cache import CACHE_SCHEMA, ResultCache
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenario import ExperimentConfig
from repro.experiments.serialize import (
    config_hash,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "SWEEP_SCHEMA",
    "CellOutcome",
    "SweepResult",
    "run_sweep",
    "derive_cell_seeds",
    "map_in_pool",
    "format_progress",
    "git_sha",
]

#: Bump when the sweep artifact layout changes.
SWEEP_SCHEMA = "repro.sweep/1"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _worker_init(parent_sys_path: List[str]) -> None:
    """Mirror the parent's import paths (needed under the spawn method).

    Missing entries are *prepended* so the parent's source tree wins over any
    installed copy of the package — otherwise workers could import a
    different ``repro`` than the parent, silently breaking the guarantee
    that results are identical across worker counts.
    """
    sys.path[:0] = [entry for entry in parent_sys_path if entry not in sys.path]


def map_in_pool(
    function: Callable[[Any], Any], payloads: Sequence[Any], workers: int
) -> Iterator[Tuple[int, Any]]:
    """``(index, function(payloads[index]))`` for every payload, in
    completion order.

    ``workers=1`` runs everything in the calling process, in order;
    otherwise the payloads are sharded across up to ``workers`` processes,
    so ``function`` and every payload must pickle.
    """
    if workers == 1 or not payloads:
        yield from enumerate(map(function, payloads))
        return
    with ProcessPoolExecutor(
        max_workers=min(workers, len(payloads)),
        initializer=_worker_init,
        initargs=(list(sys.path),),
    ) as pool:
        futures = {
            pool.submit(function, payload): index
            for index, payload in enumerate(payloads)
        }
        for future in as_completed(futures):
            yield futures[future], future.result()


def _run_cell(config: ExperimentConfig) -> Tuple[float, Dict[str, Any]]:
    """Top-level (hence picklable) worker entry: one cell's wall time and
    JSON-safe result payload."""
    started = time.perf_counter()
    record = result_to_dict(run_experiment(config))
    return time.perf_counter() - started, record


# ---------------------------------------------------------------------------
# Orchestrator side
# ---------------------------------------------------------------------------
@dataclass
class CellOutcome:
    """One cell of a completed sweep."""

    index: int
    config: ExperimentConfig
    config_hash: str
    cached: bool
    wall_seconds: float
    events_executed: int
    record: Dict[str, Any]

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_executed / self.wall_seconds

    def experiment_result(self) -> ExperimentResult:
        """Rehydrate the full result."""
        return result_from_dict(self.record)


@dataclass
class SweepResult:
    """Everything one orchestrated sweep produced."""

    name: str
    workers: int
    wall_seconds: float
    outcomes: List[CellOutcome] = field(default_factory=list)
    artifact_path: Optional[Path] = None

    @property
    def cells_cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def events_executed(self) -> int:
        return sum(outcome.events_executed for outcome in self.outcomes)

    @property
    def events_per_sec(self) -> float:
        """Aggregate *fresh* simulation throughput over the sweep's wall time.

        Cache hits contribute no events here: a fully-resumed sweep reports
        0.0 rather than an absurd rate, keeping the perf trajectory honest.
        """
        fresh = sum(
            outcome.events_executed
            for outcome in self.outcomes
            if not outcome.cached
        )
        if self.wall_seconds <= 0 or fresh == 0:
            return 0.0
        return fresh / self.wall_seconds

    def experiment_results(self) -> List[ExperimentResult]:
        """Rehydrated per-cell results, in input order."""
        return [outcome.experiment_result() for outcome in self.outcomes]


def git_sha() -> Optional[str]:
    """The current commit SHA, for artifact provenance (None outside git)."""
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def derive_cell_seeds(
    configs: Sequence[ExperimentConfig], sweep_seed: int
) -> List[ExperimentConfig]:
    """Reseed every cell deterministically from one sweep-level seed.

    Seeds are keyed by cell name (:meth:`RngRegistry.derive_seed`), so
    growing or reordering the grid never changes the seed of an existing
    cell — and therefore never invalidates its cache entry.
    """
    return [
        config.with_(seed=RngRegistry.derive_seed(sweep_seed, config.name))
        for config in configs
    ]


ProgressCallback = Callable[[int, int, CellOutcome], None]


def format_progress(done: int, total: int, outcome: CellOutcome) -> str:
    """The one-line per-cell progress rendering the CLI front-ends share."""
    tag = "cache" if outcome.cached else f"{outcome.wall_seconds:6.2f}s"
    return (
        f"[{done}/{total}] {outcome.config.name:<30} {tag}  "
        f"{outcome.events_per_sec:>10,.0f} ev/s"
    )


def run_sweep(
    configs: Sequence[ExperimentConfig],
    *,
    name: str = "sweep",
    workers: int = 1,
    resume: bool = False,
    cache_dir: Optional[Path] = None,
    artifact_path: Optional[Path] = None,
    sweep_seed: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Run a sweep of experiment cells, possibly in parallel.

    ``workers`` — processes to shard across; 1 runs in-process (no executor).
    ``resume``/``cache_dir`` — skip cells whose ``(config-hash, seed)``
    record already exists under ``cache_dir``; newly-run cells are stored
    there for the next resume.  ``resume`` without a ``cache_dir`` is an
    error (there is nothing to resume from).
    ``artifact_path`` — where to write the sweep's JSON artifact (optional).
    ``sweep_seed`` — reseed cells via :func:`derive_cell_seeds` first.
    ``progress`` — called as ``progress(done, total, outcome)`` after every
    cell, in completion order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    if resume and cache_dir is None:
        raise ValueError("resume=True requires a cache_dir")

    cells = list(configs)
    if sweep_seed is not None:
        cells = derive_cell_seeds(cells, sweep_seed)
    hashes = [config_hash(config) for config in cells]
    total = len(cells)

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    started = time.perf_counter()
    outcomes: List[Optional[CellOutcome]] = [None] * total
    done = 0

    def finish(outcome: CellOutcome) -> None:
        nonlocal done
        outcomes[outcome.index] = outcome
        done += 1
        if progress is not None:
            progress(done, total, outcome)

    # ------------------------------------------------------------------
    # Resume: serve cells straight from the cache.
    # ------------------------------------------------------------------
    pending: List[int] = []
    for index, key in enumerate(hashes):
        cached_record = cache.load(key) if (resume and cache is not None) else None
        if cached_record is not None:
            finish(
                CellOutcome(
                    index=index,
                    config=cells[index],
                    config_hash=key,
                    cached=True,
                    wall_seconds=float(cached_record.get("wall_seconds", 0.0)),
                    events_executed=int(cached_record.get("events_executed", 0)),
                    record=cached_record["result"],
                )
            )
        else:
            pending.append(index)

    # ------------------------------------------------------------------
    # Execute what remains, sharded across workers.
    # ------------------------------------------------------------------
    configs_to_run = [cells[index] for index in pending]
    for position, (wall, record) in map_in_pool(_run_cell, configs_to_run, workers):
        index = pending[position]
        outcome = CellOutcome(
            index=index,
            config=cells[index],
            config_hash=hashes[index],
            cached=False,
            wall_seconds=wall,
            events_executed=int(record["events_executed"]),
            record=record,
        )
        if cache is not None:
            cache.store(
                outcome.config_hash,
                {
                    "schema": CACHE_SCHEMA,
                    "cache_key": outcome.config_hash,
                    "config_hash": outcome.config_hash,
                    "seed": outcome.config.seed,
                    "wall_seconds": outcome.wall_seconds,
                    "events_executed": outcome.events_executed,
                    "result": outcome.record,
                },
            )
        finish(outcome)

    wall = time.perf_counter() - started
    sweep = SweepResult(
        name=name,
        workers=workers,
        wall_seconds=wall,
        outcomes=[outcome for outcome in outcomes if outcome is not None],
    )
    if artifact_path is not None:
        sweep.artifact_path = write_artifact(sweep, Path(artifact_path))
    return sweep


def write_artifact(sweep: SweepResult, path: Path) -> Path:
    """Persist one structured JSON artifact describing a completed sweep."""
    artifact = {
        "schema": SWEEP_SCHEMA,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "sweep": sweep.name,
        "workers": sweep.workers,
        "totals": {
            "cells": len(sweep.outcomes),
            "cells_cached": sweep.cells_cached,
            "wall_seconds": round(sweep.wall_seconds, 6),
            "events_executed": sweep.events_executed,
            "events_per_sec": round(sweep.events_per_sec, 3),
        },
        "cells": [
            {
                "name": outcome.config.name,
                "config_hash": outcome.config_hash,
                "seed": outcome.config.seed,
                "cached": outcome.cached,
                "wall_seconds": round(outcome.wall_seconds, 6),
                "events_executed": outcome.events_executed,
                "events_per_sec": round(outcome.events_per_sec, 3),
                "config": config_to_dict(outcome.config),
                "result": outcome.record,
            }
            for outcome in sweep.outcomes
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path
