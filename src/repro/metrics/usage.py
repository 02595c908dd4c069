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
configurator runs.  The network and the node bump the message and byte
counters inline, the same way for every message.  CPU is derived —
:attr:`UsageMeter.cpu_us` applies the cost constants below to the counts
when read, exactly, as each is a multiple of 0.5 µs.  Bytes are modelled
too: the network counts :meth:`repro.net.message.Message.wire_bytes`, not
the bytes the codec writes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "UsageMeter",
    "UsageReport",
    "SHARED_USAGE_KEY",
]

#: Share key for the bytes of a packet no single group owns (the shared FD
#: plane's envelope), in :meth:`repro.net.message.Message.wire_shares`.
#: Canonical home of the constant; :mod:`repro.net.message` re-exports it
#: (the message layer cannot be imported from here without a cycle).
SHARED_USAGE_KEY = -1

#: Simulated CPU costs, in microseconds.  A send or a receive covers
#: syscall + UDP stack + (de)serialize; a timer covers one dispatch
#: (heartbeat emission bookkeeping, freshness-point checks); a reconfig
#: covers one run of the FD configurator (amortized: results are cached
#: across links).
US_PER_SEND = 13.0
US_PER_RECV = 13.0
US_PER_TIMER = 1.5
US_PER_RECONFIG = 40.0


@dataclass
class UsageMeter:
    """Per-workstation counters, bumped as the simulation runs."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    timers: int = 0
    reconfigs: int = 0

    @property
    def cpu_us(self) -> float:
        """Modelled CPU: the cost constants applied to the counts."""
        return (
            US_PER_SEND * self.messages_sent
            + US_PER_RECV * self.messages_received
            + US_PER_TIMER * self.timers
            + US_PER_RECONFIG * self.reconfigs
        )

    def on_timer(self) -> None:
        self.timers += 1

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

    def report(self, duration: float) -> "UsageReport":
        """Summarize over ``duration`` seconds of (virtual) run time."""
        if duration <= 0:
            raise ValueError(f"duration must be positive (got {duration})")
        return UsageReport(
            cpu_percent=100.0 * self.cpu_us / (duration * 1e6),
            kb_per_second=(self.bytes_sent + self.bytes_received) / (duration * 1000.0),
        )


@dataclass(frozen=True)
class UsageReport:
    """Per-workstation averages, in the paper's Figure 6 units.

    ``kb_per_second`` counts both directions (sent + received) in kilobytes
    (1 KB = 1000 B) per second; ``cpu_percent`` is the share of one CPU.
    """

    cpu_percent: float
    kb_per_second: float

    @staticmethod
    def average(reports: "list[UsageReport]") -> "UsageReport":
        """The across-workstations average the paper plots."""
        if not reports:
            raise ValueError("cannot average zero reports")
        n = len(reports)
        return UsageReport(
            cpu_percent=sum(r.cpu_percent for r in reports) / n,
            kb_per_second=sum(r.kb_per_second for r in reports) / n,
        )
