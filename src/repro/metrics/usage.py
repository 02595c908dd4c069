"""CPU and network-bandwidth accounting per workstation.

The paper measures real CPU% and KB/s on P4 workstations (its Figure 6).  In
a virtual-time simulation there is no CPU to measure, so we *model* it: every
message send/receive and every failure-detector event charges a fixed cost in
microseconds of simulated CPU.  The constants below were calibrated once so
that the paper's worst case (S2 on 12 workstations over (100 ms, 0.1) links,
roughly 110 ALIVEs/s sent + 99 received per workstation) lands near the
reported 0.3% CPU.  Everything else — the quadratic-vs-linear growth with
group size, the increase under worse links, the S2/S3 gap — emerges from the
actual number and size of messages the protocols exchange, not from the
calibration.

A meter *counts*: messages and bytes each way, timer dispatches and
configurator runs.  CPU is derived — :attr:`UsageMeter.cpu_us` applies the
cost model to the counts when read, exactly, as every :class:`CostModel`
default is a multiple of 0.5 µs.  Bytes are modelled too: the network counts
:meth:`repro.net.message.Message.wire_bytes`, not the bytes the codec writes.

Meters also keep a **per-group ledger**.  Only a message that carries a group
— a frame with cells, or a group-scoped message — is charged to it, through
:meth:`UsageMeter.on_send` / :meth:`~UsageMeter.on_receive`: its bytes split
by :meth:`~repro.net.message.Message.wire_shares` (the shared FD plane's
envelope amortized across the groups riding in it), its CPU following the
byte shares; group-owned timers charge their group.  ``"shared"`` is the
remainder of the totals — header-only frames (which the network counts
inline, with no call), node-level messages, plane-wide timers and
configurator runs — so the ledger always sums to the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "CostModel",
    "UsageMeter",
    "UsageReport",
    "SHARED_GROUP_LABEL",
    "SHARED_USAGE_KEY",
]

#: Ledger key for bytes/CPU no single group owns (the shared FD plane).
#: Canonical home of the constant; :mod:`repro.net.message` re-exports it
#: (the message layer cannot be imported from here without a cycle).
SHARED_USAGE_KEY = -1

#: Per-group ledger key for costs no single group owns.
SHARED_GROUP_LABEL = "shared"


def _group_label(key: int) -> str:
    return SHARED_GROUP_LABEL if key == SHARED_USAGE_KEY else str(key)


@dataclass(frozen=True)
class CostModel:
    """Simulated CPU cost constants, in microseconds.

    ``us_per_send``/``us_per_recv`` cover syscall + UDP stack + (de)serialize;
    ``us_per_timer`` covers one timer dispatch (heartbeat emission bookkeeping,
    freshness-point checks); ``us_per_reconfig`` covers one run of the FD
    configurator (amortized: results are cached across links).
    """

    us_per_send: float = 13.0
    us_per_recv: float = 13.0
    us_per_timer: float = 1.5
    us_per_reconfig: float = 40.0


@dataclass
class UsageMeter:
    """Per-workstation counters, charged as the simulation runs."""

    cost_model: CostModel = field(default_factory=CostModel)
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    timers: int = 0
    reconfigs: int = 0
    #: Per-group ledgers, keyed by group id; the remainder of the totals is
    #: the ``"shared"`` bucket.
    group_bytes: Dict[int, int] = field(default_factory=dict)
    group_cpu_us: Dict[int, float] = field(default_factory=dict)

    @property
    def cpu_us(self) -> float:
        """Modelled CPU: the cost model applied to the counts."""
        model = self.cost_model
        return (
            model.us_per_send * self.messages_sent
            + model.us_per_recv * self.messages_received
            + model.us_per_timer * self.timers
            + model.us_per_reconfig * self.reconfigs
        )

    def on_send(self, wire_bytes: int, shares: Optional[Dict[int, int]] = None) -> None:
        self.messages_sent += 1
        self.bytes_sent += wire_bytes
        if shares is not None:
            self._charge(shares, wire_bytes, self.cost_model.us_per_send)

    def on_receive(self, wire_bytes: int, shares: Optional[Dict[int, int]] = None) -> None:
        self.messages_received += 1
        self.bytes_received += wire_bytes
        if shares is not None:
            self._charge(shares, wire_bytes, self.cost_model.us_per_recv)

    def _charge(self, shares: Dict[int, int], wire_bytes: int, cost: float) -> None:
        group_bytes, group_cpu = self.group_bytes, self.group_cpu_us
        for key, share in shares.items():
            if key != SHARED_USAGE_KEY:
                group_bytes[key] = group_bytes.get(key, 0) + share
                group_cpu[key] = group_cpu.get(key, 0.0) + cost * (share / wire_bytes)

    def on_timer(self, group: Optional[int] = None) -> None:
        """One timer dispatch; ``group`` attributes group-owned timers."""
        self.timers += 1
        if group is not None:
            cpu = self.group_cpu_us
            cpu[group] = cpu.get(group, 0.0) + self.cost_model.us_per_timer

    def on_reconfig(self) -> None:
        self.reconfigs += 1

    def reset_counters(self) -> None:
        """Zero every counter (steady-state measurement after warm-up)."""
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.timers = 0
        self.reconfigs = 0
        self.group_bytes.clear()
        self.group_cpu_us.clear()

    def report(self, duration: float) -> "UsageReport":
        """Summarize over ``duration`` seconds of (virtual) run time."""
        if duration <= 0:
            raise ValueError(f"duration must be positive (got {duration})")
        cpu_us = self.cpu_us
        total_bytes = self.bytes_sent + self.bytes_received
        group_bytes, group_cpu = self.group_bytes, self.group_cpu_us
        shared = (total_bytes - sum(group_bytes.values()), cpu_us - sum(group_cpu.values()))
        rows = {SHARED_USAGE_KEY: shared}
        for key in sorted(set(group_bytes) | set(group_cpu)):
            rows[key] = (group_bytes.get(key, 0), group_cpu.get(key, 0.0))
        per_group = {
            _group_label(key): {
                "kb_per_second": size / (duration * 1000.0),
                "cpu_percent": 100.0 * cpu / (duration * 1e6),
            }
            for key, (size, cpu) in rows.items()
        }
        return UsageReport(
            cpu_percent=100.0 * cpu_us / (duration * 1e6),
            kb_per_second=total_bytes / (duration * 1000.0),
            messages_per_second=(self.messages_sent + self.messages_received)
            / duration,
            per_group=per_group,
        )


@dataclass(frozen=True)
class UsageReport:
    """Per-workstation averages, in the paper's Figure 6 units.

    ``kb_per_second`` counts both directions (sent + received) in kilobytes
    (1 KB = 1000 B) per second; ``cpu_percent`` is the share of one CPU.
    ``per_group`` splits both by group id (string keys for JSON fidelity;
    ``"shared"`` is the FD plane's unamortizable remainder).
    """

    cpu_percent: float
    kb_per_second: float
    messages_per_second: float
    per_group: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @staticmethod
    def average(reports: "list[UsageReport]") -> "UsageReport":
        """The across-workstations average the paper plots."""
        if not reports:
            raise ValueError("cannot average zero reports")
        n = len(reports)
        groups: Dict[str, Dict[str, float]] = {}
        for report in reports:
            for label, values in report.per_group.items():
                bucket = groups.setdefault(
                    label, {"kb_per_second": 0.0, "cpu_percent": 0.0}
                )
                for key, value in values.items():
                    bucket[key] = bucket.get(key, 0.0) + value
        per_group = {
            label: {key: value / n for key, value in values.items()}
            for label, values in sorted(groups.items())
        }
        return UsageReport(
            cpu_percent=sum(r.cpu_percent for r in reports) / n,
            kb_per_second=sum(r.kb_per_second for r in reports) / n,
            messages_per_second=sum(r.messages_per_second for r in reports) / n,
            per_group=per_group,
        )
