"""The Failure Detector Configurator (paper §3, Figure 1).

Given an application QoS requirement (T_D^U, T_MR^L, P_A^L) and the current
link estimate (pL, Ed, Sd), compute NFD-S parameters (η, δ):

1. NFD-S's worst-case detection time is η + δ, so the full detection budget
   is spent: δ = T_D^U − η.
2. Among the candidate periods, take the **largest** η (fewest heartbeats,
   i.e. the cheapest configuration) whose mistake recurrence and query
   accuracy still meet the requirement, using the closed-form model in
   :mod:`repro.fd.qos`.
3. If no candidate is feasible — hostile links relative to the requested
   QoS — fall back to the most accurate candidate (max E[T_MR]) and flag the
   result as degraded.

The search is vectorized over a geometric grid of candidate periods.  Because
the service runs one configurator instance per monitored link and link
estimates across an experiment are statistically identical, results are
memoized in :class:`ConfiguratorCache` under a quantized estimate key; in
practice one experiment performs only a handful of distinct grid searches.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.fd.qos import (
    FDParams,
    FDQoS,
    LinkEstimate,
    delay_survival,
    expected_mistake_duration,
)

__all__ = ["configure", "ConfiguratorCache", "bootstrap_params", "eta_range"]

#: Candidate η values span [T_D^U / MAX_PERIODS_IN_BUDGET, 0.96·T_D^U].
_MAX_PERIODS_IN_BUDGET = 48
_GRID_POINTS = 256


def eta_range(budget: float) -> Tuple[float, float]:
    """The least and the greatest η the configurator may choose for ``budget``."""
    return budget / _MAX_PERIODS_IN_BUDGET, budget * 0.96


def bootstrap_params(qos: FDQoS) -> FDParams:
    """Parameters used before the estimator has warmed up.

    A conservative split of the detection budget: η = T_D^U/4, δ = 3·T_D^U/4.
    """
    return FDParams(eta=qos.detection_time / 4.0, delta=qos.detection_time * 0.75)


#: budget -> (etas, deltas, x-plane, clipped x-plane); the candidate grid
#: and the (k, η) freshness-lag plane depend only on T_D^U, so they are
#: computed once per distinct budget instead of once per grid search.
_GRID_CACHE: Dict[float, Tuple] = {}


def _grid(budget: float) -> Tuple:
    grid = _GRID_CACHE.get(budget)
    if grid is None:
        etas = np.geomspace(*eta_range(budget), _GRID_POINTS)
        deltas = budget - etas
        k_max = int(np.floor((deltas / etas).max()))
        ks = np.arange(k_max + 1, dtype=float)[:, np.newaxis]
        x = deltas[np.newaxis, :] - ks * etas[np.newaxis, :]
        grid = _GRID_CACHE[budget] = (etas, deltas, x, np.maximum(x, 0.0))
    return grid


def configure(qos: FDQoS, estimate: LinkEstimate) -> FDParams:
    """Solve for (η, δ) meeting ``qos`` under ``estimate`` (see module doc)."""
    budget = qos.detection_time
    etas, deltas, x, x_clipped = _grid(budget)

    # log Pr[mistake at a freshness point], vectorized over the η grid:
    # for each η, the product over k = 0..⌊δ/η⌋ of (pL + (1-pL)·Pr[D > δ-kη]).
    # The whole (k, η) plane is evaluated as one matrix (one delay_survival
    # and one log call instead of one per k); the accumulation over k stays
    # a sequential row loop so the floating-point sum order — and therefore
    # the chosen (η, δ) and every digest downstream — matches the scalar
    # formulation bit-for-bit.
    p_l = estimate.loss_prob
    log_p = np.zeros_like(etas)
    terms = p_l + (1.0 - p_l) * delay_survival(x_clipped, estimate)
    contributions = np.where(x >= 0.0, np.log(np.maximum(terms, 1e-300)), 0.0)
    for row in contributions:
        log_p += row

    with np.errstate(over="ignore"):
        recurrence = etas / np.exp(log_p)
    mistake_durations = (
        etas / 2.0 + etas * p_l / (1.0 - p_l) + estimate.delay_mean
    )
    accuracy = 1.0 - mistake_durations / np.maximum(recurrence, mistake_durations)

    feasible = (recurrence >= qos.mistake_recurrence) & (
        accuracy >= qos.query_accuracy
    )
    if feasible.any():
        index = int(np.max(np.nonzero(feasible)))
        return FDParams(eta=float(etas[index]), delta=float(deltas[index]))
    # Degraded mode: most accurate configuration within the budget.
    index = int(np.argmax(recurrence))
    return FDParams(
        eta=float(etas[index]), delta=float(deltas[index]), degraded=True
    )


class ConfiguratorCache:
    """Memoizes :func:`configure` under a quantized estimate key.

    Quantization buckets: ~7% geometric buckets for pL and Ed, 25% buckets
    for the Sd/Ed ratio.  Within a bucket the configurator output is
    insensitive to the exact estimate, so sharing results across links (and
    across reconfiguration rounds) is safe and keeps the configurator's CPU
    cost negligible, mirroring the shared-service design of the paper's
    architecture (§4).
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple, FDParams] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(qos: FDQoS, estimate: LinkEstimate) -> Tuple:
        def bucket(value: float, resolution: float) -> int:
            return int(round(math.log(max(value, 1e-12)) / resolution))

        return (
            qos,
            bucket(estimate.loss_prob, 0.07),
            bucket(estimate.delay_mean, 0.07),
            bucket(max(estimate.delay_std / estimate.delay_mean, 1e-6), 0.25),
        )

    def configure(self, qos: FDQoS, estimate: LinkEstimate) -> FDParams:
        """Cached equivalent of :func:`configure`."""
        key = self._key(qos, estimate)
        params = self._cache.get(key)
        if params is None:
            self.misses += 1
            params = configure(qos, estimate)
            self._cache[key] = params
        else:
            self.hits += 1
        return params

    def __len__(self) -> int:
        return len(self._cache)
