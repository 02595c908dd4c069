"""Unit tests for the CPU/bandwidth cost model."""

import pytest

from repro.metrics.usage import SHARED_USAGE_KEY, CostModel, UsageMeter, UsageReport


class TestUsageMeter:
    def test_counters_accumulate(self):
        meter = UsageMeter()
        meter.on_send(100)
        meter.on_send(50)
        meter.on_receive(200)
        meter.on_timer()
        meter.on_reconfig()
        assert meter.messages_sent == 2
        assert meter.messages_received == 1
        assert meter.bytes_sent == 150
        assert meter.bytes_received == 200
        cm = meter.cost_model
        assert meter.cpu_us == pytest.approx(
            2 * cm.us_per_send + cm.us_per_recv + cm.us_per_timer + cm.us_per_reconfig
        )

    def test_only_group_traffic_is_charged_and_shared_is_the_remainder(self):
        meter = UsageMeter()
        meter.on_send(100, {7: 60, SHARED_USAGE_KEY: 40})
        meter.on_receive(50)  # a header-only frame: counted, not charged
        meter.on_timer(7)
        meter.on_timer()
        meter.on_reconfig()
        assert (meter.timers, meter.reconfigs) == (2, 1)
        assert meter.group_bytes == {7: 60}
        cm = meter.cost_model
        assert meter.group_cpu_us == {7: 0.6 * cm.us_per_send + cm.us_per_timer}
        per_group = meter.report(1.0).per_group
        assert list(per_group) == ["shared", "7"]
        assert per_group["shared"]["kb_per_second"] == pytest.approx(0.09)
        shared_us = 0.4 * cm.us_per_send + cm.us_per_recv + cm.us_per_timer + cm.us_per_reconfig
        assert per_group["shared"]["cpu_percent"] == pytest.approx(shared_us / 1e4)

    def test_report_units(self):
        meter = UsageMeter(cost_model=CostModel(us_per_send=10.0, us_per_recv=10.0))
        for _ in range(1000):
            meter.on_send(500)
            meter.on_receive(500)
        report = meter.report(duration=10.0)
        # 1 MB total over 10 s = 100 KB/s (KB = 1000 B).
        assert report.kb_per_second == pytest.approx(100.0)
        # 20000 us of CPU over 10 s = 0.2% of one core.
        assert report.cpu_percent == pytest.approx(0.2)
        assert report.messages_per_second == pytest.approx(200.0)

    def test_report_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            UsageMeter().report(0.0)

    def test_average_of_reports(self):
        a = UsageReport(cpu_percent=0.1, kb_per_second=10.0, messages_per_second=5.0)
        b = UsageReport(cpu_percent=0.3, kb_per_second=30.0, messages_per_second=15.0)
        avg = UsageReport.average([a, b])
        assert avg.cpu_percent == pytest.approx(0.2)
        assert avg.kb_per_second == pytest.approx(20.0)

    def test_average_rejects_empty(self):
        with pytest.raises(ValueError):
            UsageReport.average([])
