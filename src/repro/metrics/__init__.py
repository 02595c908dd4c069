"""Metrics: leadership QoS (Tr, λu, Pleader), usage accounting, statistics.

The paper evaluates the service with three leader-election QoS metrics (its
§5) plus CPU and bandwidth overhead (its §6.5).  We split the machinery into:

* :mod:`repro.metrics.trace` — an event trace recorded during a simulation
  (view changes, crashes, recoveries, joins, leaves);
* :mod:`repro.metrics.leadership` — pure functions turning a trace into
  leader-recovery-time samples, unjustified-demotion counts and availability,
  all read off one incremental replay of the paper's "the group has a
  leader" predicate (:class:`LeaderReplay`, walked by :func:`replay`);
* :mod:`repro.metrics.usage` — the per-workstation CPU/bandwidth cost model;
* :mod:`repro.metrics.stats` — means and confidence intervals (the paper
  reports 95% CIs for Tr and λu).
"""

from repro.metrics.leadership import (
    DemotionEvent,
    LeaderInterval,
    LeaderReplay,
    LeadershipMetrics,
    RecoverySample,
    analyze_leadership,
    leader_intervals,
    replay,
)
from repro.metrics.stats import Summary, mean_confidence_interval, summarize
from repro.metrics.trace import TraceEvent, TraceRecorder, trace_digest
from repro.metrics.usage import UsageMeter, UsageReport

__all__ = [
    "DemotionEvent",
    "LeaderInterval",
    "LeaderReplay",
    "LeadershipMetrics",
    "RecoverySample",
    "Summary",
    "TraceEvent",
    "TraceRecorder",
    "UsageMeter",
    "UsageReport",
    "analyze_leadership",
    "leader_intervals",
    "mean_confidence_interval",
    "replay",
    "summarize",
    "trace_digest",
]
