"""Computing the paper's leader-election QoS metrics from a trace (§5).

Definitions, quoted from the paper:

* "a group has a leader at time t if, at time t, there is some alive process
  ℓ such that every alive process in this group has ℓ as its leader" — we
  additionally require ℓ to be a present group member (an alive leader that
  left the group does not count, §1).
* **Leader recovery time** Tr: "the time that elapses from the time when the
  leader of a group crashes to the time when the group has a leader again".
  A sample opens when the workstation of the *current common leader* crashes
  and closes at the next instant the group has a (any) common leader.
* **Mistake rate** λu: "the demotion of a process ℓ from leadership is
  unjustified if ℓ loses the leadership of the system even though ℓ has not
  crashed"; λu is the number of unjustified demotions per hour.  We count a
  demotion when a common-leader interval of ℓ ends while ℓ is alive (and did
  not voluntarily leave) and the *next* established common leader differs
  from ℓ.  The case where the same ℓ is re-established after a gap is not a
  demotion — ℓ never lost the leadership, the group merely flickered — and
  is reported separately as a *disruption* (it still costs availability).
* **Leader availability** Pleader: the fraction of time the group has a
  (commonly agreed and alive) leader.

``measure_from`` excludes a warm-up prefix (group formation, estimator
warm-up) from availability, demotion and Tr accounting, mirroring the paper's
steady-state measurements over multi-day runs; state is still tracked from
time zero so the predicate is exact at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.metrics.stats import Summary, summarize
from repro.metrics.trace import TraceEvent

__all__ = [
    "RecoverySample",
    "DemotionEvent",
    "LeadershipMetrics",
    "LeaderInterval",
    "LeaderReplay",
    "analyze_leadership",
    "leader_intervals",
    "replay",
]


@dataclass(frozen=True)
class RecoverySample:
    """One leader-crash → leader-reestablished episode."""

    crash_time: float
    recovered_time: float
    crashed_leader: int
    new_leader: int

    @property
    def duration(self) -> float:
        return self.recovered_time - self.crash_time


@dataclass(frozen=True)
class DemotionEvent:
    """A common-leader interval that ended while the leader was alive.

    ``leader_crashed_recently`` is True when the demoted leader's node
    crashed within the analysis' ``crash_grace`` horizon before the loss; the
    paper's rule makes such demotions *justified* ("the demotion of a process
    ℓ is unjustified if ℓ loses the leadership even though ℓ has not
    crashed") — the canonical case is a leader that crashes and reboots
    faster than the detection bound, whose fresh accusation time then demotes
    it a few hundred milliseconds after it is already back up.
    """

    leader: int
    lost_at: float
    reestablished_at: float
    new_leader: int
    leader_crashed_recently: bool = False

    @property
    def unjustified(self) -> bool:
        return self.new_leader != self.leader and not self.leader_crashed_recently

    @property
    def disruption(self) -> bool:
        """Same leader re-established: a flicker, not a demotion."""
        return self.new_leader == self.leader


@dataclass
class LeadershipMetrics:
    """The paper's §5 metrics for one group over one run."""

    group: int
    measured_from: float
    measured_until: float
    availability: float
    recovery_samples: List[RecoverySample] = field(default_factory=list)
    demotions: List[DemotionEvent] = field(default_factory=list)
    leader_crashes: int = 0
    #: A leader crash whose recovery had not completed by the end of the run.
    censored_recoveries: int = 0

    @property
    def duration(self) -> float:
        return self.measured_until - self.measured_from

    @property
    def duration_hours(self) -> float:
        return self.duration / 3600.0

    @property
    def unjustified_demotions(self) -> int:
        return sum(1 for d in self.demotions if d.unjustified)

    @property
    def disruptions(self) -> int:
        return sum(1 for d in self.demotions if d.disruption)

    @property
    def mistake_rate(self) -> float:
        """λu: unjustified demotions per hour."""
        if self.duration_hours <= 0:
            return 0.0
        return self.unjustified_demotions / self.duration_hours

    def recovery_summary(self) -> Summary:
        """Mean and 95% CI of the leader recovery time Tr."""
        return summarize([s.duration for s in self.recovery_samples])


class LeaderReplay:
    """The state the paper's predicate reads, folded one event at a time.

    Every reader of "the group has a leader" — the §5 metrics, the chaos
    invariants and the live orchestrator's agreement wait — keeps its
    process bookkeeping here.  Feed it one group's events in time order
    (:func:`replay` does the filtering and the sort).

    A process dies with its node's crash and is reborn only at its next
    join: a recovered workstation whose application has not rejoined yet
    hosts no process, so its stale pre-crash view must not count.
    """

    __slots__ = ("views", "node_of", "pids_of", "up", "alive", "crashed_at")

    def __init__(self) -> None:
        #: pid -> its leader view (None = no leader known).
        self.views: Dict[int, Optional[int]] = {}
        #: pid -> the node it last joined from; node -> every pid it hosted.
        self.node_of: Dict[int, int] = {}
        self.pids_of: Dict[int, Set[int]] = {}
        #: pids whose process lives (joined since their node last crashed).
        self.up: Set[int] = set()
        #: pids that are present members with a live process.
        self.alive: Set[int] = set()
        #: node -> time of its last crash.
        self.crashed_at: Dict[int, float] = {}

    def apply(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == "view":
            self.views[event.pid] = event.leader
        elif kind == "join":
            pid = event.pid
            self.node_of[pid] = event.node
            self.pids_of.setdefault(event.node, set()).add(pid)
            self.up.add(pid)
            self.alive.add(pid)
            self.views[pid] = None  # fresh runtime: no leader view yet
        elif kind == "leave":
            self.alive.discard(event.pid)
        elif kind == "crash":
            self.crashed_at[event.node] = event.time
            for pid in self.pids_of.get(event.node, ()):
                self.up.discard(pid)
                self.alive.discard(pid)

    def common_leader(self) -> Optional[int]:
        """The alive, present ℓ every alive member views as leader, or None."""
        alive = self.alive
        if not alive:
            return None
        views = self.views
        leader = views[next(iter(alive))]
        if leader not in alive:  # None, a dead process or a departed member
            return None
        for pid in alive:
            if views[pid] != leader:
                return None
        return leader


def replay(
    events: Iterable[TraceEvent], group: int, end_time: float
) -> Iterator[Tuple[TraceEvent, LeaderReplay]]:
    """Each event of ``group`` (and each node event) up to ``end_time``, in
    time order, with the :class:`LeaderReplay` it leaves.

    The state object is the same on every step: read it before advancing.
    """
    state = LeaderReplay()
    for event in sorted(
        (e for e in events if e.group == group or e.group is None),
        key=attrgetter("time"),
    ):
        if event.time > end_time:
            return
        state.apply(event)
        yield event, state


@dataclass(frozen=True)
class LeaderInterval:
    """A maximal interval during which the group had one common leader."""

    start: float
    end: float
    leader: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def leader_intervals(
    events: Iterable[TraceEvent],
    group: int,
    end_time: float,
    watch: Optional[Callable[[TraceEvent, LeaderReplay], None]] = None,
) -> List[LeaderInterval]:
    """Maximal common-leader intervals of ``group`` over ``[0, end_time]``.

    The predicate is the paper's (the same one :func:`analyze_leadership`
    integrates for availability): at each instant either the group has one
    commonly-agreed, alive, present leader — an interval — or it has none.
    The chaos invariant checkers consume this view directly: stability,
    flapping and re-election latency are all statements about the interval
    list.  ``watch(event, state)``, if given, sees every step of the same
    replay (another fold that needs no second walk).
    """
    intervals: List[LeaderInterval] = []
    current: Optional[int] = None
    started = 0.0
    for event, state in replay(events, group, end_time):
        if watch is not None:
            watch(event, state)
        new_leader = state.common_leader()
        if new_leader == current:
            continue
        if current is not None and event.time > started:
            intervals.append(LeaderInterval(started, event.time, current))
        current = new_leader
        started = event.time

    if current is not None and end_time > started:
        intervals.append(LeaderInterval(started, end_time, current))
    return intervals


def analyze_leadership(
    events: Iterable[TraceEvent],
    group: int,
    end_time: float,
    measure_from: float = 0.0,
    crash_grace: float = 3.0,
) -> LeadershipMetrics:
    """Fold a trace into :class:`LeadershipMetrics` for ``group``.

    ``crash_grace``: a demotion of ℓ is attributed to a crash (hence
    justified) when ℓ's node crashed at most this many seconds before the
    leadership loss.  It needs to cover the fast-reboot window — a downtime
    below the detection bound plus restart and propagation delay — and is
    comfortably smaller than the time between independent demotion causes in
    every scenario of the paper (leaders are demoted at most a few times per
    minute even in the most hostile setting).
    """
    if end_time < measure_from:
        raise ValueError(
            f"end_time {end_time} precedes measure_from {measure_from}"
        )
    current: Optional[int] = None
    interval_start = 0.0
    leader_time = 0.0

    recovery_open: Optional[Tuple[float, int]] = None  # (crash_time, leader)
    demotion_open: Optional[Tuple[float, int]] = None  # (lost_at, leader)

    metrics = LeadershipMetrics(
        group=group,
        measured_from=measure_from,
        measured_until=end_time,
        availability=0.0,
    )

    def accumulate(until: float) -> None:
        nonlocal leader_time
        if current is not None:
            lo = max(interval_start, measure_from)
            hi = min(until, end_time)
            if hi > lo:
                leader_time += hi - lo

    for event, state in replay(events, group, end_time):
        accumulate(event.time)
        interval_start = event.time
        new_leader = state.common_leader()
        if new_leader == current:
            continue

        if current is not None:
            # Leadership of `current` ended at event.time: this very event
            # either left `current` alive (a demotion), killed its process
            # (a crash, which opens a Tr sample) or took it out of the group
            # (a voluntary leave: justified, no sample, no demotion).
            recovery_open = demotion_open = None
            if current in state.alive:
                demotion_open = (event.time, current)
            elif current not in state.up:
                recovery_open = (event.time, current)

        if new_leader is not None:
            if recovery_open is not None:
                crash_time, crashed = recovery_open
                if crash_time >= measure_from:
                    metrics.leader_crashes += 1
                    metrics.recovery_samples.append(
                        RecoverySample(
                            crash_time=crash_time,
                            recovered_time=event.time,
                            crashed_leader=crashed,
                            new_leader=new_leader,
                        )
                    )
                recovery_open = None
            if demotion_open is not None:
                lost_at, old_leader = demotion_open
                if lost_at >= measure_from:
                    crashed_at = state.crashed_at.get(state.node_of[old_leader])
                    crashed_recently = (
                        crashed_at is not None
                        and lost_at - crashed_at <= crash_grace
                    )
                    metrics.demotions.append(
                        DemotionEvent(
                            leader=old_leader,
                            lost_at=lost_at,
                            reestablished_at=event.time,
                            new_leader=new_leader,
                            leader_crashed_recently=crashed_recently,
                        )
                    )
                demotion_open = None

        current = new_leader

    accumulate(end_time)
    if recovery_open is not None and recovery_open[0] >= measure_from:
        metrics.leader_crashes += 1
        metrics.censored_recoveries += 1

    span = end_time - measure_from
    metrics.availability = leader_time / span if span > 0 else 0.0
    return metrics
