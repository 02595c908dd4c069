"""Statistics helpers: means, confidence intervals, rate intervals.

The paper reports the average leader recovery time and the average mistake
rate with 95% confidence intervals (its footnote 3).  Recovery times are
i.i.d. samples → Student-t interval; demotion counts are (approximately)
Poisson → a normal-approximation interval on the rate, with the rule of
three for zero counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from scipy import special

__all__ = [
    "Summary",
    "mean_confidence_interval",
    "rate_confidence_interval",
    "summarize",
]


@dataclass(frozen=True)
class Summary:
    """Sample summary: count, mean, and a symmetric confidence half-width."""

    n: int
    mean: float
    ci_half_width: float
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def high(self) -> float:
        return self.mean + self.ci_half_width

    def __str__(self) -> str:
        if self.n == 0:
            return "n=0"
        return f"{self.mean:.3f} ± {self.ci_half_width:.3f} (n={self.n})"


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """(mean, half-width) of a Student-t interval; half-width 0 for n < 2."""
    n = len(samples)
    if n == 0:
        return (math.nan, 0.0)
    mean = sum(samples) / n
    if n < 2:
        return (mean, 0.0)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(variance / n)
    t_crit = float(special.stdtrit(n - 1, 0.5 + confidence / 2.0))
    return (mean, t_crit * sem)


def summarize(samples: Sequence[float], confidence: float = 0.95) -> Summary:
    """Package :func:`mean_confidence_interval` into a :class:`Summary`."""
    mean, half = mean_confidence_interval(samples, confidence)
    return Summary(n=len(samples), mean=mean, ci_half_width=half, confidence=confidence)


def rate_confidence_interval(
    count: int, exposure_hours: float, confidence: float = 0.95
) -> Tuple[float, float]:
    """(rate/hour, half-width) for a Poisson count over an exposure.

    Uses the normal approximation rate ± z·√count/exposure; for count = 0 the
    half-width is the rule-of-three upper bound 3/exposure.
    """
    if exposure_hours <= 0:
        raise ValueError(f"exposure must be positive (got {exposure_hours})")
    rate = count / exposure_hours
    if count == 0:
        return (0.0, 3.0 / exposure_hours)
    z = float(special.ndtri(0.5 + confidence / 2.0))
    return (rate, z * math.sqrt(count) / exposure_hours)
