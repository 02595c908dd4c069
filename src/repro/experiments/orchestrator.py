"""Run a grid of experiment cells, possibly across worker processes.

The paper's figures come from grids of (network, QoS, churn) cells, each an
independent simulation.  :func:`run_cells` shards them across processes
(``workers=1`` stays in-process, for debuggability) and returns every
:class:`ExperimentResult` in input order.  A cell's result depends only on
its config, seed included, so it is equal whatever the worker count.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenario import ExperimentConfig

__all__ = ["map_in_pool", "run_cells"]


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


def run_cells(
    configs: Sequence[ExperimentConfig],
    workers: int = 1,
    progress: Optional[Callable[[int, int, ExperimentResult], None]] = None,
) -> List[ExperimentResult]:
    """Run every cell and return the results in input order.

    ``progress(done, total, result)`` is called after each cell, in
    completion order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    for done, (index, result) in enumerate(
        map_in_pool(run_experiment, configs, workers), start=1
    ):
        results[index] = result
        if progress is not None:
            progress(done, len(configs), result)
    return results  # type: ignore[return-value]
