"""Unit tests for the CPU/bandwidth cost model."""

import pytest

from repro.metrics.usage import (
    US_PER_RECONFIG,
    US_PER_RECV,
    US_PER_SEND,
    US_PER_TIMER,
    UsageMeter,
    UsageReport,
)


class TestUsageMeter:
    def test_counters_accumulate(self):
        meter = UsageMeter(messages_sent=2, messages_received=1, bytes_sent=150, bytes_received=200)
        meter.on_timer()
        meter.on_reconfig()
        assert (meter.timers, meter.reconfigs) == (1, 1)
        assert meter.cpu_us == pytest.approx(
            2 * US_PER_SEND + US_PER_RECV + US_PER_TIMER + US_PER_RECONFIG
        )
        meter.reset_counters()
        assert meter == UsageMeter()
        assert meter.cpu_us == 0.0

    def test_report_units(self):
        meter = UsageMeter(
            messages_sent=1000, messages_received=1000, bytes_sent=500_000, bytes_received=500_000
        )
        report = meter.report(duration=10.0)
        # 1 MB total over 10 s = 100 KB/s (KB = 1000 B).
        assert report.kb_per_second == pytest.approx(100.0)
        # 2000 messages at 13 us each = 26000 us of CPU over 10 s = 0.26% of one core.
        assert report.cpu_percent == pytest.approx(0.26)

    def test_report_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            UsageMeter().report(0.0)

    def test_average_of_reports(self):
        a = UsageReport(cpu_percent=0.1, kb_per_second=10.0)
        b = UsageReport(cpu_percent=0.3, kb_per_second=30.0)
        avg = UsageReport.average([a, b])
        assert avg.cpu_percent == pytest.approx(0.2)
        assert avg.kb_per_second == pytest.approx(20.0)

    def test_average_rejects_empty(self):
        with pytest.raises(ValueError):
            UsageReport.average([])
