"""Post-run invariant checkers over the experiment trace.

Every chaos run ends with a ``heal()`` followed by a settle window; the
checkers measure what the paper's §5 properties *guarantee* once the
network is nominal again, which keeps them sound under arbitrarily
hostile mid-run conditions (during a partition "eventually one leader"
is simply not decidable, so nothing is asserted there).

Six invariants, in :data:`INVARIANTS` order.  The first three are
statements about the group's
:func:`~repro.metrics.leadership.leader_intervals`; leader-validity reads
views and liveness off :func:`~repro.metrics.leadership.replay`;
no-double-grant and the chaos windows of cross-group-isolation fold the raw
event list:

* **single-stable-leader** — by the end of the run the group has one
  commonly-agreed alive leader, held for at least ``hold`` seconds.
* **bounded-reelection** — the post-heal stabilization (start of the
  first interval that reaches ``hold``) happens within
  ``stabilize_bound`` seconds of the heal.  The default bound derives
  from the FD QoS: the detection time bounds how fast a crashed or
  partitioned-away leader is noticed, gossip spreads membership within a
  few HELLO periods, and the estimator needs a handful of reconfiguration
  rounds to wash adversarial samples out of its windows.
* **no-flapping** — once stabilized after the heal, leadership never
  changes again (a stable leader that is demoted without cause is exactly
  the paper's "unjustified demotion", λu).
* **leader-validity** — no *alive* process keeps a crashed leader in its
  view longer than ``validity_bound`` seconds past the crash.  Detecting
  a dead leader needs no connectivity at all — a crashed process sends no
  ALIVEs, so every viewer's local failure detector must fire within its
  detection budget even mid-partition — which is what lets this checker
  run against the chaos window itself, not just the settle phase.  It is
  the checker that catches a disabled-demotion regression even when the
  crashed leader later reboots and the group looks healthy again by the
  end of the run.
* **no-double-grant** — the lease tier's safety property: folded from the
  ``lease`` trace events, no lease is ever held by two different clients
  with overlapping validities, and the fencing tokens granted for one
  lease are strictly monotonic — across renewals, releases, leader kills
  and re-elections.  A small slack absorbs bounded clock drift between
  leaders (lease events are stamped with the granting leader's local
  clock, which drifts in chaos builds).
* **cross-group-isolation** — in a multi-group run, a ``group_fault``
  window must not flip any *other* group's stable leader
  (:func:`check_cross_group_isolation`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.fd.qos import FDQoS
from repro.metrics.leadership import LeaderInterval, LeaderReplay, leader_intervals
from repro.metrics.trace import TraceEvent

__all__ = [
    "Violation",
    "InvariantReport",
    "default_stabilize_bound",
    "default_validity_bound",
    "check_invariants",
    "check_cross_group_isolation",
    "check_no_double_grant",
]

#: Invariant names, in the order they are checked and reported.
INVARIANTS = (
    "single-stable-leader",
    "bounded-reelection",
    "no-flapping",
    "leader-validity",
    "no-double-grant",
    "cross-group-isolation",
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored at the time it became undeniable."""

    invariant: str
    time: float
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"invariant": self.invariant, "time": self.time, "detail": self.detail}


@dataclass
class InvariantReport:
    """The verdict of every checker over one run."""

    end_time: float
    heal_time: float
    violations: List[Violation] = field(default_factory=list)
    #: Start of the first post-heal interval that reached ``hold`` (None =
    #: the run never stabilized).
    stabilized_at: Optional[float] = None
    final_leader: Optional[int] = None
    #: The group's common-leader intervals the verdicts were folded from.
    intervals: List[LeaderInterval] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "end_time": self.end_time,
            "heal_time": self.heal_time,
            "stabilized_at": self.stabilized_at,
            "final_leader": self.final_leader,
            "violations": [violation.to_dict() for violation in self.violations],
        }


def default_stabilize_bound(qos: FDQoS, hello_period: float = 1.0) -> float:
    """How long post-heal re-stabilization may take, from the FD QoS.

    Detection of stale state takes up to one detection time; spreading the
    resulting accusations and membership repairs a few HELLO periods; and
    the link-quality estimator needs reconfiguration rounds (the service
    re-runs the configurator every 5 s) to unlearn the chaos window.  The
    constants are deliberately generous — an invariant checker used as a
    CI gate must never flake on a healthy run — while staying far below
    the settle windows the fuzzer grants (so a genuinely wedged election
    is still caught long before the run ends).
    """
    return 20.0 * qos.detection_time + 10.0 * hello_period + 15.0


def default_validity_bound(qos: FDQoS, hello_period: float = 1.0) -> float:
    """How long an alive process may keep a *crashed* leader in its view.

    The local FD suspects a silent sender within one detection time; the
    generous multiple absorbs trust-seeding grace windows (HELLO replies
    grant a rebooting monitor one extra detection budget), reorder jitter
    re-delivering pre-crash ALIVEs, and drifted local clocks."""
    return 10.0 * qos.detection_time + 5.0 * hello_period + 5.0


def check_invariants(
    events: Iterable[TraceEvent],
    *,
    group: int,
    end_time: float,
    heal_time: float,
    qos: Optional[FDQoS] = None,
    hold: float = 15.0,
    stabilize_bound: Optional[float] = None,
    validity_bound: Optional[float] = None,
    hello_period: float = 1.0,
) -> InvariantReport:
    """Run every invariant checker; returns the collected report.

    ``heal_time`` is when the scenario returned to nominal (the script's
    last heal); ``hold`` is how long an agreed leader must persist to
    count as stable.  Bounds default from the FD ``qos``.
    """
    if end_time <= heal_time:
        raise ValueError(
            f"end_time {end_time} must leave a settle window after heal {heal_time}"
        )
    qos = qos if qos is not None else FDQoS()
    if stabilize_bound is None:
        stabilize_bound = default_stabilize_bound(qos, hello_period)
    if validity_bound is None:
        validity_bound = default_validity_bound(qos, hello_period)

    events = list(events)
    validity = _LeaderValidity(validity_bound)
    intervals = leader_intervals(events, group, end_time, validity.step)
    report = InvariantReport(end_time=end_time, heal_time=heal_time, intervals=intervals)

    # --- single-stable-leader -----------------------------------------
    final = intervals[-1] if intervals else None
    if final is None or final.end < end_time:
        report.violations.append(
            Violation(
                invariant="single-stable-leader",
                time=end_time,
                detail="no commonly-agreed alive leader at the end of the run",
            )
        )
    elif final.duration < hold:
        report.violations.append(
            Violation(
                invariant="single-stable-leader",
                time=end_time,
                detail=(
                    f"final leader {final.leader} held only {final.duration:.2f}s "
                    f"(< hold {hold:.2f}s)"
                ),
            )
        )
    else:
        report.final_leader = final.leader

    # --- bounded-reelection + no-flapping ------------------------------
    # The first post-heal interval that reaches `hold` marks stabilization.
    # An interval spanning the heal counts from the heal itself (the
    # leader rode out the chaos — stabilization cost zero).
    stabilized_at: Optional[float] = None
    stable_index: Optional[int] = None
    for index, interval in enumerate(intervals):
        if interval.end <= heal_time:
            continue
        effective_start = max(interval.start, heal_time)
        if interval.end - effective_start >= hold or (
            interval.end >= end_time and index == len(intervals) - 1
        ):
            stabilized_at = effective_start
            stable_index = index
            break
    report.stabilized_at = stabilized_at

    if stabilized_at is None:
        report.violations.append(
            Violation(
                invariant="bounded-reelection",
                time=end_time,
                detail=(
                    f"no stable leader within {end_time - heal_time:.2f}s of the "
                    f"heal (bound {stabilize_bound:.2f}s)"
                ),
            )
        )
    elif stabilized_at - heal_time > stabilize_bound:
        report.violations.append(
            Violation(
                invariant="bounded-reelection",
                time=stabilized_at,
                detail=(
                    f"re-election took {stabilized_at - heal_time:.2f}s after the "
                    f"heal (bound {stabilize_bound:.2f}s from FD QoS "
                    f"T_D={qos.detection_time}s)"
                ),
            )
        )

    if stable_index is not None:
        stable_leader = intervals[stable_index].leader
        for interval in intervals[stable_index + 1 :]:
            report.violations.append(
                Violation(
                    invariant="no-flapping",
                    time=interval.start,
                    detail=(
                        f"leadership moved from {stable_leader} to "
                        f"{interval.leader} at t={interval.start:.2f} after the "
                        f"group had stabilized at t={stabilized_at:.2f}"
                    ),
                )
            )
        if intervals[stable_index].end < end_time and not intervals[
            stable_index + 1 :
        ]:
            report.violations.append(
                Violation(
                    invariant="no-flapping",
                    time=intervals[stable_index].end,
                    detail=(
                        f"stable leader {stable_leader} was lost at "
                        f"t={intervals[stable_index].end:.2f} and never replaced"
                    ),
                )
            )

    # --- leader-validity ----------------------------------------------
    validity.flush(end_time)
    report.violations.extend(validity.violations)

    # --- no-double-grant ----------------------------------------------
    report.violations.extend(check_no_double_grant(events, group=group))

    report.violations.sort(key=lambda violation: (violation.time, violation.invariant))
    return report


_GROUP_FAULT_TARGET = re.compile(r"group=(-?\d+)")

_LEASE_EVENT = re.compile(
    r"^(?P<action>grant|renew|release|transfer) lease=(?P<lease>\d+) "
    r"client=(?P<client>-?\d+) token=(?P<token>\d+) expiry=(?P<expiry>\S+)$"
)


@dataclass
class _Holding:
    """The latest known holding of one lease, folded from the trace."""

    client: int
    token: int
    expiry: float


def check_no_double_grant(
    events: Iterable[TraceEvent],
    *,
    group: int,
    slack: float = 1.0,
) -> List[Violation]:
    """The lease tier's safety property, folded from ``lease`` events.

    Two claims, per lease id:

    * **Token monotonicity** — every ``grant`` (and ``transfer``) carries
      a fencing token strictly above every token previously seen for that
      lease.  This is what lets downstream resources fence off stale
      holders, so it must hold across leader kills, re-elections and total
      gossip loss.
    * **No overlapping holders** — when a grant hands the lease to a new
      client, the previous holder's validity (as last extended by its
      renewals, or truncated by its release) must already be over, up to
      ``slack`` seconds of inter-leader clock drift (lease events are
      stamped with the *granting leader's* local clock).

    A ``transfer`` is grant-like for the token claim but exempt from the
    overlap claim: the handoff is *sanctioned* by the outgoing holder (the
    leader only honours it from the live token's owner), so the successor
    legitimately starts inside the predecessor's validity window.

    A ``renew`` that extends a token other than the lease's latest one is
    flagged too: only a superseded leader still renewing a dead tenure's
    grant can produce it, and it silently stretches a validity a newer
    grant believes has ended.
    """
    holdings: Dict[int, _Holding] = {}
    max_token: Dict[int, int] = {}
    violations: List[Violation] = []
    # Folded in recording (causal) order, not stamp order: a ``heal``
    # resyncs drifted clocks, stepping a leader's stamps back past its own
    # earlier events — sorted, a release can land after the grant it enabled.
    for event in events:
        if event.kind != "lease" or event.group != group:
            continue
        match = _LEASE_EVENT.match(event.label or "")
        if match is None:
            continue
        action = match.group("action")
        lease = int(match.group("lease"))
        client = int(match.group("client"))
        token = int(match.group("token"))
        expiry = float(match.group("expiry"))
        time = event.time
        current = holdings.get(lease)
        if action in ("grant", "transfer"):
            if token <= max_token.get(lease, 0):
                violations.append(
                    Violation(
                        invariant="no-double-grant",
                        time=time,
                        detail=(
                            f"fencing token regressed on lease {lease}: {action} "
                            f"to client {client} carried token {token} <= "
                            f"previously seen {max_token[lease]}"
                        ),
                    )
                )
            if (
                action == "grant"
                and current is not None
                and current.client != client
                and current.expiry > time + slack
            ):
                violations.append(
                    Violation(
                        invariant="no-double-grant",
                        time=time,
                        detail=(
                            f"lease {lease} granted to client {client} at "
                            f"t={time:.2f} while client {current.client} "
                            f"(token {current.token}) was still valid until "
                            f"t={current.expiry:.2f}"
                        ),
                    )
                )
            holdings[lease] = _Holding(client=client, token=token, expiry=expiry)
            max_token[lease] = max(max_token.get(lease, 0), token)
        elif action == "renew":
            if current is not None and token == current.token:
                current.expiry = max(current.expiry, expiry)
            elif (
                current is not None
                and token < current.token
                and current.client != client
                and current.expiry > time + slack
            ):
                violations.append(
                    Violation(
                        invariant="no-double-grant",
                        time=time,
                        detail=(
                            f"stale renew on lease {lease}: client {client} "
                            f"extended superseded token {token} at t={time:.2f} "
                            f"while client {current.client} held token "
                            f"{current.token}"
                        ),
                    )
                )
        elif action == "release":
            if current is not None and token == current.token:
                current.expiry = min(current.expiry, expiry)
    return violations


def check_cross_group_isolation(
    events: Sequence[TraceEvent],
    *,
    intervals: Mapping[int, Sequence[LeaderInterval]],
    end_time: float,
    pre_stability: float = 5.0,
) -> List[Violation]:
    """Group-scoped faults must not flip *other* groups' stable leaders.

    The shared node-level FD plane makes this the scale-out's key safety
    property: a ``group_fault`` step starves one group's cells, HELLOs and
    accusations, but node liveness — the input of every other group's
    election — flows on the untouched frame headers.  For every
    ``group_fault`` window during which the world is otherwise nominal (no
    global overlay active, no crash), any *other* group whose leader had
    been stable for ``pre_stability`` seconds before the fault must keep
    that leader until the window closes (the next non-group-scoped chaos
    step, heal, or the end of the run).

    Windows that overlap global faults or crashes are skipped — a flip
    there cannot be attributed to the group-scoped fault.

    ``intervals`` maps every hosted group to its :func:`leader_intervals`
    (each :class:`InvariantReport` carries its group's).
    """
    chaos: List[Tuple[float, str]] = sorted(
        ((e.time, e.label or "") for e in events if e.kind == "chaos"),
        key=lambda step: step[0],
    )
    crash_times = [e.time for e in events if e.kind == "crash"]

    # Walk the chaos timeline: a group_fault window qualifies only while no
    # global (non-group-scoped) overlay is active, closes at the *next*
    # chaos step of any kind (another step makes attribution ambiguous),
    # and excludes every group whose own fault is still active at that
    # point — overlays persist until the heal, so an earlier group_fault's
    # target must never be judged as an "other" group in a later window.
    windows: List[Tuple[float, float, frozenset]] = []  # (start, end, targets)
    global_active = False
    active_targets: set = set()
    for index, (time, label) in enumerate(chaos):
        name = label.split("(", 1)[0]
        if name == "heal":
            global_active = False
            active_targets.clear()
            continue
        if name != "group_fault":
            global_active = True
            continue
        match = _GROUP_FAULT_TARGET.search(label)
        if match is None:
            continue
        active_targets.add(int(match.group(1)))
        if global_active:
            continue
        window_end = chaos[index + 1][0] if index + 1 < len(chaos) else end_time
        windows.append((time, window_end, frozenset(active_targets)))

    violations: List[Violation] = []
    for start, window_end, targets in windows:
        target = ", ".join(str(t) for t in sorted(targets))
        for group, group_intervals in intervals.items():
            if group in targets:
                continue
            for interval in group_intervals:
                if not (interval.start <= start < interval.end):
                    continue
                if start - interval.start < pre_stability:
                    break  # not yet stable when the fault hit: inconclusive
                flip = interval.end
                if flip >= window_end:
                    break  # leader rode out the whole window
                if any(start <= crash <= flip for crash in crash_times):
                    break  # a crash explains the flip, not the fault
                violations.append(
                    Violation(
                        invariant="cross-group-isolation",
                        time=flip,
                        detail=(
                            f"group {group} lost stable leader "
                            f"{interval.leader} at t={flip:.2f} during a fault "
                            f"scoped to group(s) {target} (window "
                            f"{start:.2f}-{window_end:.2f})"
                        ),
                    )
                )
                break
    return violations


class _LeaderValidity:
    """Alive processes must drop a crashed leader from their view in time.

    A fold over the group's :func:`~repro.metrics.leadership.replay`, fed
    one step at a time.  For every (viewer, dead leader) pair a deadline is
    armed at ``crash_time + bound``.  No heal gating is needed: a dead
    leader sends nothing, so the viewer's *local* failure detector starves
    and fires regardless of partitions or cuts between the viewer and the
    rest of the group.  The deadline clears when the viewer changes its
    view, crashes itself, or the leader's process rejoins (the view became
    valid again).
    """

    def __init__(self, bound: float) -> None:
        self.bound = bound
        self.violations: List[Violation] = []
        #: viewer pid -> (deadline, dead leader).
        self._armed: Dict[int, Tuple[float, int]] = {}
        #: leader pid -> pids that have viewed it (pruned at its crash).
        self._viewers: Dict[int, Set[int]] = {}
        #: pid -> its place in the replay's view table (a crash arms the
        #: viewers in that order).
        self._rank: Dict[int, int] = {}

    def flush(self, now: float) -> None:
        for viewer, (deadline, leader) in list(self._armed.items()):
            if now > deadline:
                self.violations.append(
                    Violation(
                        invariant="leader-validity",
                        time=deadline,
                        detail=(
                            f"process {viewer} still viewed crashed leader "
                            f"{leader} at t={deadline:.2f} (bound {self.bound:.2f}s)"
                        ),
                    )
                )
                del self._armed[viewer]

    def step(self, event: TraceEvent, state: LeaderReplay) -> None:
        armed = self._armed
        self.flush(event.time)
        if event.kind in ("join", "view"):
            self._rank.setdefault(event.pid, len(self._rank))
            armed.pop(event.pid, None)
        if event.kind == "join":
            # The rejoined process is a valid leader again for its viewers.
            for viewer, (_, leader) in list(armed.items()):
                if leader == event.pid:
                    del armed[viewer]
        elif event.kind == "view" and event.leader is not None:
            self._viewers.setdefault(event.leader, set()).add(event.pid)
            if (
                event.leader in state.node_of
                and event.leader not in state.up
                and event.pid in state.up
            ):
                armed[event.pid] = (event.time + self.bound, event.leader)
        elif event.kind == "crash":
            dead_pids = state.pids_of.get(event.node, ())
            for pid in dead_pids:
                armed.pop(pid, None)  # a dead viewer owes nothing
            views = state.views
            for pid in dead_pids:
                viewers = self._viewers.get(pid)
                if not viewers:
                    continue
                viewers = self._viewers[pid] = {v for v in viewers if views[v] == pid}
                for viewer in sorted(viewers, key=self._rank.__getitem__):
                    if viewer not in dead_pids and viewer in state.up:
                        armed[viewer] = (event.time + self.bound, pid)
