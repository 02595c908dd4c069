"""The experiment event trace.

During a simulation the service and the fault injectors append events to a
:class:`TraceRecorder`; after the run, :mod:`repro.metrics.leadership` folds
the trace into the paper's QoS metrics.  The ``view``/``join``/``leave``/
``crash`` events are read in one place, its
:class:`~repro.metrics.leadership.LeaderReplay`, which the chaos invariants
and the live orchestrator (whose ``LEADER`` lines become ``view`` events)
fold through as well.  Keeping the analysis offline (pure
functions over an event list) makes it unit-testable against hand-written
traces, independent of the protocol stack.

Event kinds:

* ``view``    — process ``pid``'s leader view in ``group`` became ``leader``
  (None = no leader known);
* ``join``/``leave`` — process ``pid`` (on ``node``) entered/left ``group``;
* ``crash``/``recover`` — workstation ``node`` went down/came back;
* ``chaos``   — a chaos-script step was applied (``label`` describes it);
* ``lease``   — the leader mutated the lease ledger (``label`` carries the
  grant/renew/release detail the ``no-double-grant`` invariant checks).

A trace can be folded into one :func:`trace_digest` — a SHA-256 over a
canonical rendering of every event, ``repr``-exact on the float timestamps.
Two runs whose digests match produced bit-identical event traces, which is
the replay contract the chaos fuzzer (``repro chaos replay --seed S``)
verifies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "digest_line",
    "trace_digest",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped trace record (see module docstring for kinds).

    Slotted: experiment traces hold hundreds of thousands of these, and the
    per-instance ``__dict__`` would roughly triple their memory footprint.
    """

    time: float
    kind: str
    group: Optional[int] = None
    pid: Optional[int] = None
    node: Optional[int] = None
    leader: Optional[int] = None
    #: Free-form annotation; used by ``chaos`` events to name the step.
    label: Optional[str] = None


def digest_line(event: TraceEvent) -> str:
    """The canonical one-line rendering :func:`trace_digest` hashes.

    ``repr`` round-trips floats exactly, so two lines match iff the events
    match bit-for-bit (timestamps included).
    """
    return (
        f"{event.time!r}|{event.kind}|{event.group}|{event.pid}"
        f"|{event.node}|{event.leader}|{event.label}\n"
    )


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """A SHA-256 digest over the canonical rendering of ``events``.

    Two traces share a digest iff every event matches bit-for-bit
    (timestamps included) in order.
    """
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(digest_line(event).encode("utf-8"))
    return hasher.hexdigest()


class TraceRecorder:
    """Append-only event log shared by every instrumented component."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_view(
        self, time: float, group: int, pid: int, leader: Optional[int]
    ) -> None:
        self.events.append(
            TraceEvent(time=time, kind="view", group=group, pid=pid, leader=leader)
        )

    def record_join(self, time: float, group: int, pid: int, node: int) -> None:
        self.events.append(
            TraceEvent(time=time, kind="join", group=group, pid=pid, node=node)
        )

    def record_leave(self, time: float, group: int, pid: int) -> None:
        self.events.append(TraceEvent(time=time, kind="leave", group=group, pid=pid))

    def record_accusation(self, time: float, group: int, pid: int) -> None:
        """An accusation was *applied* (pid's accusation time was bumped)."""
        self.events.append(
            TraceEvent(time=time, kind="accusation", group=group, pid=pid)
        )

    def record_crash(self, time: float, node: int) -> None:
        self.events.append(TraceEvent(time=time, kind="crash", node=node))

    def record_recover(self, time: float, node: int) -> None:
        self.events.append(TraceEvent(time=time, kind="recover", node=node))

    def record_chaos(self, time: float, label: str) -> None:
        """A chaos-script step was applied (partition, drop, heal, ...)."""
        self.events.append(TraceEvent(time=time, kind="chaos", label=label))

    def record_lease(self, time: float, group: int, pid: int, label: str) -> None:
        """A lease-ledger mutation on the leader (grant/renew/release).

        ``pid`` is the granting leader; ``label`` carries the parseable
        ``<action> lease=<id> client=<c> token=<t> expiry=<e!r>`` detail the
        ``no-double-grant`` chaos invariant folds over.
        """
        self.events.append(
            TraceEvent(time=time, kind="lease", group=group, pid=pid, label=label)
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """The :func:`trace_digest` of everything recorded so far."""
        return trace_digest(self.events)

    def __len__(self) -> int:
        return len(self.events)
