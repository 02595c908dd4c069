"""Unit tests for statistics helpers."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metrics.stats import (
    Summary,
    mean_confidence_interval,
    rate_confidence_interval,
    summarize,
)


class TestMeanCI:
    def test_empty_sample(self):
        mean, half = mean_confidence_interval([])
        assert math.isnan(mean)
        assert half == 0.0

    def test_single_sample(self):
        mean, half = mean_confidence_interval([5.0])
        assert mean == 5.0
        assert half == 0.0

    def test_constant_samples_zero_width(self):
        mean, half = mean_confidence_interval([2.0] * 10)
        assert mean == 2.0
        assert half == pytest.approx(0.0)

    def test_known_interval(self):
        # n=4, mean=2.5, s=~1.29, sem=0.645, t(0.975, 3)=3.182
        samples = [1.0, 2.0, 3.0, 4.0]
        mean, half = mean_confidence_interval(samples)
        assert mean == pytest.approx(2.5)
        assert half == pytest.approx(3.182 * math.sqrt(5.0 / 3.0 / 4.0), rel=1e-3)

    def test_wider_confidence_wider_interval(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        _, half95 = mean_confidence_interval(samples, 0.95)
        _, half99 = mean_confidence_interval(samples, 0.99)
        assert half99 > half95

    def test_summary_accessors(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.n == 3
        assert summary.low < summary.mean < summary.high
        assert "n=3" in str(summary)
        assert str(Summary(n=0, mean=math.nan, ci_half_width=0.0)) == "n=0"


class TestRateCI:
    def test_zero_count_rule_of_three(self):
        rate, half = rate_confidence_interval(0, exposure_hours=10.0)
        assert rate == 0.0
        assert half == pytest.approx(0.3)

    def test_poisson_normal_approx(self):
        rate, half = rate_confidence_interval(100, exposure_hours=10.0)
        assert rate == pytest.approx(10.0)
        assert half == pytest.approx(1.96 * 10.0 / 10.0, rel=1e-2)

    def test_rejects_zero_exposure(self):
        with pytest.raises(ValueError):
            rate_confidence_interval(1, 0.0)


def test_the_entry_points_do_not_import_scipy_stats():
    """The quantiles come from ``scipy.special``: ``scipy.stats`` alone
    costs ~45 MB of resident memory in every process that imports it."""
    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import repro, repro.cli, repro.chaos.cli, repro.runtime.cluster; "
        "print('scipy.stats' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "False"
