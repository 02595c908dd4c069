"""Benchmark-owned lease load: open-loop probes and push watchers.

A probe is one lease client with a private lock.  One cycle falls due
every ``period`` seconds whether or not the service is keeping up (open
loop), and latency is timed **from the due time**, so a stall delays —
and is charged to — every cycle that was due during it.  A cycle still
unanswered at its next due time is a failed operation.

A cycle is acquire -> grant -> release, except on the 100-node workloads,
where it is a read-only ``query``: every ledger mutation is re-gossiped
on the n^2 periodic hellos (~1.9 KB per node per mutation at n = 100), so
48 acquiring probes multiplied those workloads' wire bytes by 5.6 and
would have turned them into lease workloads.  A query travels the same
request path (routing, redirect, throttle, reply) and mutates nothing.

The period must respect ``LeaseManager``'s per-client throttle (2
requests/s, burst 5): a cycle is two requests, so 2.0 s keeps a probe at
half the sustained limit.  At 0.5 s the probe measures the throttle, not
the service.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

#: Probe client ids start here, clear of pids and of LeaseWorkload's 1000+.
PROBE_ID_BASE = 5000
WATCHER_ID_BASE = 7000


class Probe:
    """One open-loop acquire -> release cycle generator."""

    def __init__(
        self, scheduler, client, name: str, period: float, mutate: bool = True
    ) -> None:
        self.scheduler = scheduler
        self.client = client
        self.name = name
        self.period = period
        self.mutate = mutate
        #: Due time -> grant, the end-to-end latency.
        self.latencies: List[float] = []
        #: Request sent -> grant (excludes how late the generator fired).
        self.rtts: List[float] = []
        #: How late each cycle fired against its due time (generator lag).
        self.lateness: List[float] = []
        self.tokens: List[int] = []
        self.attempted = 0
        self.failed = 0
        self._due: Optional[float] = None
        self._fired = 0.0
        self._record_from = 0.0
        self._stop_at = 0.0

    def start(self, first_due: float, record_from: float, stop_at: float) -> None:
        """Cycles due before ``record_from`` run but are not measured: the
        first one pays a redirect (the client learns where the leader
        lives) and a 20-70 ms retry pause, which is set-up, not service."""
        self._record_from = record_from
        self._stop_at = stop_at
        self.scheduler.schedule_at(first_due, self._fire, first_due)

    def _fire(self, due: float) -> None:
        now = self.scheduler.now
        if self._due is not None and self._due >= self._record_from:
            # Previous cycle never got its reply: count it and abandon it.
            self.failed += 1
        if due >= self._record_from:
            self.attempted += 1
            self.lateness.append(now - due)
        self._due = due
        self._fired = now
        if self.mutate:
            self.client.acquire(self.name, 0.0, self._on_reply)
        else:
            self.client.query(self.name, self._on_reply)
        following = due + self.period
        if following < self._stop_at:
            self.scheduler.schedule_at(following, self._fire, following)
        else:
            self.scheduler.schedule_at(following, self._finish)

    def _on_reply(self, reply) -> None:
        if self._due is None or reply.status != ("granted" if self.mutate else "info"):
            return
        now = self.scheduler.now
        if self._due >= self._record_from:
            self.latencies.append(now - self._due)
            self.rtts.append(now - self._fired)
        self._due = None
        if self.mutate:
            self.tokens.append(reply.token)
            self.client.release(self.name)

    def _finish(self) -> None:
        if self._due is not None:
            self.failed += 1
            self._due = None

    @property
    def tokens_increase(self) -> bool:
        return all(a < b for a, b in zip(self.tokens, self.tokens[1:]))


class Watcher:
    """A push watcher that timestamps every (lease, token) it is shown."""

    def __init__(self, scheduler, client, name: str) -> None:
        self.scheduler = scheduler
        self.client = client
        #: (lease id, token) -> first time this watcher saw it.
        self.seen: Dict[tuple, float] = {}
        self._stop: Callable[[], None] = client.watch(name, self._on_change)

    def _on_change(self, reply) -> None:
        if reply.holder >= 0:
            self.seen.setdefault((reply.lease, reply.token), self.scheduler.now)

    def close(self) -> None:
        self._stop()
        self.client.close()
