"""Ω_lc — accusation times with leader forwarding; service S2 (paper §6.3).

From the paper: "Each process p keeps track of the last time it was suspected
of having crashed, called p's accusation time, and p selects its leader among
a set of processes that is constructed in two stages.  In the first stage, p
selects its local leader as the process with the earliest accusation time
among the processes that p believes to be alive.  In the second stage, p
selects its (global) leader as the local leader with the earliest accusation
time among the local leaders of the processes that p believes to be alive.
This (local) leader forwarding mechanism makes the algorithm robust in the
face of link failures."  (The underlying algorithm is Aguilera et al. [4],
which tolerates links that crash in addition to lossy links.)

Implementation notes:

* Accusation times order candidates lexicographically by
  ``(accusation_time, pid)``; a process's initial accusation time is its join
  time, so recovering processes rank behind an established leader — this is
  the stability mechanism (no demotion when a lower-id process rejoins).
* When the failure detector reports a trust→suspect transition for q, p
  sends ACCUSE(q, phase); q bumps its accusation time to "now" iff the phase
  is current.  With the paper's FD QoS (one mistake per 100 days) this
  essentially never happens over lossy links — hence λu = 0 in Figure 4 —
  but it does happen when links *crash* for longer than the detection bound,
  producing Figure 7's demotions.
* The forwarding stage lets p adopt a leader whose link to p is crashed, as
  long as some process p still hears forwards it.  It also slightly delays
  the demotion of a *really* crashed leader (its forwards last until the
  forwarders' changed cells land, η/8 later per lost cell here, up to one
  heartbeat period in the paper): the paper's reason for S2's larger Tr.
* Accusation times are **monotonic** per process (they start at the join
  time and only ever move forward to "now"), so any two reports about the
  same process can be reconciled by taking the larger value.  The
  implementation exploits this everywhere a forwarded accusation time could
  be stale: a forwarded (leader, acc) pair is evaluated with the *freshest*
  accusation time known for that leader, and forwarded pairs themselves are
  ingested as evidence.  Without this, every process would keep following a
  freshly-demoted leader until the *last* of its forwarders refreshed
  (≈ one heartbeat period), turning each of Figure 7's frequent demotions
  into a group-wide leaderless window and dragging availability far below
  the paper's 98.78%.
* Every candidate keeps sending ALIVEs forever — the quadratic message load
  that Figure 6 contrasts against Ω_l's linear load.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.election.base import ElectionAlgorithm, GroupContext
from repro.net.message import AccEntry, AliveCell, HelloMessage

__all__ = ["OmegaLc"]


class OmegaLc(ElectionAlgorithm):
    """Two-stage accusation-time election with local-leader forwarding."""

    name = "omega_lc"
    monitor_policy = "all_candidates"

    def __init__(self, ctx: GroupContext) -> None:
        super().__init__(ctx)
        #: Local accusation state.
        self.acc_time = 0.0
        self.phase = 0
        #: Last (acc_time, phase) heard directly from each process.
        self._info: Dict[int, Tuple[float, int]] = {}
        #: Last (local_leader, local_leader_acc) forwarded by each process.
        self._forwards: Dict[int, Tuple[int, float]] = {}
        self.accusations_received = 0
        self._last_broadcast_local: Optional[Tuple[float, int]] = None
        # Leader-choice memo.  The choice is a pure function of
        # (_info, _forwards, acc_time, FD trust, membership); every mutation
        # of the first three bumps _mutations, trust flips arrive through
        # on_trust/on_suspect (which bump too), and membership changes bump
        # the context's membership_version — so a (mutations, version) stamp
        # identifies the inputs exactly and steady-state ALIVEs (identical
        # piggybacked state, by far the common case) skip the O(members +
        # forwards) recomputation entirely.  Contexts that do not expose a
        # membership version (bare test fakes) disable the memo and compute
        # every time, exactly as before.
        self._mutations = 0
        self._stamp_mutations = -1  # _mutations value the memo was built at
        self._stamp_version = -1  # membership_version it was built at
        self._cached_local: Optional[Tuple[float, int]] = None
        self._cached_leader: Optional[Tuple[float, int]] = None
        #: How many stage-2 sources carry _cached_leader: the own stage-1
        #: choice plus every trusted forwarder whose forward evaluates to
        #: exactly that key.  Losing a supporter leaves the minimum standing
        #: while another remains, so after a leader crash the n − 2
        #: re-forwards that all *tie* the dead leader cost one rescan (when
        #: the last one goes), not one each.
        self._supporters = 0
        #: Full two-stage recomputes so far (read-only instrument: not
        #: hashed, not on the wire).
        self.full_recomputes = 0
        #: Ω_lc's wants_to_send is constant (is_candidate), so the sender
        #: needs syncing exactly once per start, not once per refresh.
        self._sender_synced = False
        try:
            ctx.membership_version
            self._cache_enabled = True
        except (AttributeError, NotImplementedError):
            self._cache_enabled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.acc_time = self.ctx.join_time
        self._mutations += 1
        self._sender_synced = False
        super().start()

    def stop(self) -> None:
        self._sender_synced = False
        super().stop()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_alive(self, message: AliveCell) -> None:
        pid = message.pid
        mutations = self._mutations
        self._observe(pid, message.acc_time, message.phase)
        local_leader = message.local_leader
        local_leader_acc = message.local_leader_acc
        if local_leader is not None and local_leader_acc is not None:
            forward = (local_leader, local_leader_acc)
            old = self._forwards.get(pid)
            if old != forward:
                valid = self._memo_valid()
                self._forwards[pid] = forward
                self._mutations += 1
                if valid:
                    self._repair_forward(pid, old, forward)
            # A forwarded accusation time is evidence about the forwarded
            # process too (accusation times are monotonic, max = freshest).
            self._observe_floor(local_leader, local_leader_acc)
        if self._mutations != mutations or not self._sender_synced:
            # An identical re-observation (the steady-state refresh cell)
            # mutated nothing; with unchanged inputs _refresh is a provable
            # no-op (memo hit, same leader, same broadcast state) — skip it.
            self._refresh()

    def on_trust(self, pid: int) -> None:
        valid = self._memo_valid()
        self._mutations += 1
        if valid:
            self._repair_trust(pid)
        self._refresh()

    def on_suspect(self, pid: int) -> None:
        valid = self._memo_valid()
        self._mutations += 1
        _, phase = self._info.get(pid, (0.0, 0))
        self.ctx.send_accuse(pid, phase)
        if valid:
            self._repair_suspect(pid)
        self._refresh()

    def on_accusation(self, accused_phase: int) -> bool:
        if accused_phase != self.phase:
            return False  # stale accusation: refers to an older phase
        self.accusations_received += 1
        self.acc_time = self.ctx.now
        self._mutations += 1
        self._refresh()
        # Tell the group immediately: until our bumped accusation time is
        # out, everyone else still follows us while we already stepped down.
        self.ctx.request_flush()
        return True

    def on_hello_seed(self, hello: HelloMessage) -> None:
        for entry in hello.acc_table:
            self._observe(entry.pid, entry.acc_time, entry.phase)
        if hello.leader_hint is not None:
            hint = hello.leader_hint
            self._observe(hint.pid, hint.acc_time, hint.phase)
        self._refresh()

    def _observe(self, pid: int, acc_time: float, phase: int) -> None:
        """Merge one (acc_time, phase) observation; accusation times only
        move forward within and across incarnations (time is monotonic)."""
        if pid == self.ctx.local_pid:
            return
        current = self._info.get(pid)
        if current is None or acc_time >= current[0]:
            observation = (acc_time, phase)
            if observation != current:  # identical re-observation: no-op
                valid = self._memo_valid()
                self._info[pid] = observation
                self._mutations += 1
                if valid and current is not None:
                    # Memo repair (see _repair_forward): a phase-only change
                    # touches no ranking key, and a *raised* accusation time
                    # of a process that is not a cached choice only moves
                    # already-losing keys further up — the minima stand.
                    if acc_time == current[0] or not self._is_choice_pid(pid):
                        self._stamp_mutations = self._mutations

    def _observe_floor(self, pid: int, acc_time: float) -> None:
        """Raise the known accusation time of ``pid`` from secondhand
        evidence (a forward); keeps the phase we last heard firsthand."""
        if pid == self.ctx.local_pid:
            return
        current = self._info.get(pid)
        if current is None:
            self._info[pid] = (acc_time, 0)
            self._mutations += 1
        elif acc_time > current[0]:
            valid = self._memo_valid()
            self._info[pid] = (acc_time, current[1])
            self._mutations += 1
            if valid and not self._is_choice_pid(pid):
                self._stamp_mutations = self._mutations  # memo repair

    # ------------------------------------------------------------------
    # Memo repair
    # ------------------------------------------------------------------
    def _memo_valid(self) -> bool:
        """True iff the (stage-1, stage-2) memo matches the *current* state
        — the precondition for advancing its stamps across a mutation."""
        return (
            self._cache_enabled
            and self._stamp_mutations == self._mutations
            and self._stamp_version == self.ctx.membership_version
        )

    def _is_choice_pid(self, pid: int) -> bool:
        local = self._cached_local
        if local is not None and local[1] == pid:
            return True
        leader = self._cached_leader
        return leader is not None and leader[1] == pid

    def _forward_key(self, forward: Tuple[int, float]) -> Optional[Tuple[float, int]]:
        """The stage-2 key a trusted forwarder's pair evaluates to — ranked
        by the freshest accusation time known for the forwarded process —
        or None when it names no present candidate (a stale forward)."""
        pid, acc = forward
        if not self.ctx.is_present_candidate(pid):
            return None
        known = self._acc_of(pid)
        return (acc if acc >= known else known, pid)

    def _add_source(self, key: Tuple[float, int]) -> None:
        """Stage 2 gained the source ``key``: it ranks behind the cached
        leader (which stands), ties it (one more supporter) or wins."""
        leader = self._cached_leader
        if leader is None or key < leader:
            self._cached_leader = key
            self._supporters = 1
        elif key == leader:
            self._supporters += 1

    def _repair_forward(
        self,
        forwarder: int,
        old: Optional[Tuple[int, float]],
        new: Tuple[int, float],
    ) -> None:
        """Carry the valid memo across one forward replacement, when possible.

        Forward churn dominates the mutation stream on wide cells (every
        sender re-forwards whenever *its* stage-1 choice flaps), yet almost
        never moves this process's minima.  Replacing forwarder's pair
        changes exactly one stage-2 key: the old key either was one of the
        cached minimum's supporters (a tie) or ranked behind it, the new
        key joins the supporters, wins outright or ranks behind — all O(1).
        Only when the *last* supporter goes is the minimum unknown; the
        stamps are then left stale and the next readout recomputes in full.
        Stage 1 never reads forwards, so the cached local choice is
        untouched.
        """
        if self.ctx.trusted(forwarder):  # else: contributes to neither stage
            cached = self._cached_leader
            if cached is not None and old is not None and self._forward_key(old) == cached:
                self._supporters -= 1
            key = self._forward_key(new)
            if key is not None:
                self._add_source(key)
            if cached is not None and not self._supporters:
                return  # the old forward carried the minimum alone
        self._stamp_mutations = self._mutations

    def _repair_trust(self, pid: int) -> None:
        """Carry the valid memo across one trust addition, always possible.

        Trusting ``pid`` only *adds* ranking keys: its stage-1 candidate
        key, and — as a newly live forwarder — its stage-2 forward key; the
        mirror image of :meth:`_repair_forward`, all O(1).  A stage-1 key
        reaches stage 2 only by becoming the local choice, and then it
        undercuts the old one — so a local choice that supported the cached
        leader is replaced by a new strict minimum, never a lost supporter.
        A cluster bootstrap is exactly one such transition per peer, so
        recomputing the O(n) minima on each was a quadratic term per node
        on wide cells.
        """
        if self.ctx.is_present_candidate(pid):
            key = (self._acc_of(pid), pid)
            local = self._cached_local
            if local is None or key < local:
                self._cached_local = key
                self._add_source(key)
        forward = self._forwards.get(pid)
        if forward is not None:
            key = self._forward_key(forward)
            if key is not None:
                self._add_source(key)
        self._stamp_mutations = self._mutations

    def _repair_suspect(self, pid: int) -> None:
        """Carry the valid memo across one trust withdrawal, when possible.

        Suspecting ``pid`` *removes* its stage-1 key and its stage-2
        forward key.  If ``pid`` is not a cached choice and its forward was
        not the cached leader's last supporter, the minima stand.  Anything
        else leaves the stamps stale and the next readout recomputes in
        full.
        """
        if self._is_choice_pid(pid):
            return
        cached = self._cached_leader
        forward = self._forwards.get(pid)
        if cached is not None and forward is not None and self._forward_key(forward) == cached:
            self._supporters -= 1
            if not self._supporters:
                return  # the dying forward carried the minimum alone
        self._stamp_mutations = self._mutations

    # ------------------------------------------------------------------
    # Leader computation
    # ------------------------------------------------------------------
    def _acc_of(self, pid: int) -> float:
        """Freshest known accusation time of ``pid`` (join time until heard)."""
        if pid == self.ctx.local_pid:
            return self.acc_time
        info = self._info.get(pid)
        if info is not None:
            return info[0]
        joined = self.ctx.member_joined_at(pid)
        return joined if joined is not None else 0.0

    def _current(self) -> Tuple[Optional[Tuple[float, int]], Optional[Tuple[float, int]]]:
        """The memoized (stage-1, stage-2) choice pair (see __init__)."""
        mutations = self._mutations
        # Without a context version nothing ever stamps: -1 never matches.
        version = self.ctx.membership_version if self._cache_enabled else -1
        if self._stamp_mutations == mutations and self._stamp_version == version:
            return self._cached_local, self._cached_leader
        self.full_recomputes += 1
        trusted = self.ctx.trust_checker()  # one snapshot serves both stages
        local = self._compute_local_leader(trusted)
        leader, supporters = self._compute_leader(local, trusted)
        if self._cache_enabled:
            self._cached_local = local
            self._cached_leader = leader
            self._supporters = supporters
            self._stamp_mutations = mutations
            self._stamp_version = version
        return local, leader

    def _compute_local_leader(
        self, trusted: Callable[[int], bool]
    ) -> Optional[Tuple[float, int]]:
        ctx = self.ctx
        local_pid = ctx.local_pid
        info_get = self._info.get
        best: Optional[Tuple[float, int]] = None
        for member in ctx.candidate_members():
            pid = member.pid
            if pid == local_pid:
                if not ctx.is_candidate:
                    continue
                key = (self.acc_time, pid)
            elif trusted(pid):
                entry = info_get(pid)
                if entry is not None:
                    key = (entry[0], pid)
                else:  # never heard from: ranked by its join time
                    joined = ctx.member_joined_at(pid)
                    key = (joined if joined is not None else 0.0, pid)
            else:
                continue
            if best is None or key < best:
                best = key
        return best

    def _compute_leader(
        self, local: Optional[Tuple[float, int]], trusted: Callable[[int], bool]
    ) -> Tuple[Optional[Tuple[float, int]], int]:
        """Stage 2 over ``local`` and the trusted forwards: the minimum and
        how many sources carry it (ties counted as the scan meets them)."""
        ctx = self.ctx
        is_present_candidate = ctx.is_present_candidate
        # Inline of _forward_key, with the lookup chain hoisted: this loop
        # runs once per forwarder per recompute (O(members) on wide cells).
        local_pid = ctx.local_pid
        own_acc = self.acc_time
        info_get = self._info.get
        member_joined_at = ctx.member_joined_at
        best = local
        supporters = 0 if local is None else 1
        for forwarder, (pid, acc) in self._forwards.items():
            if not trusted(forwarder):
                continue
            if not is_present_candidate(pid):
                continue  # stale forward of a process that left the group
            if pid == local_pid:
                known = own_acc
            else:
                entry = info_get(pid)
                if entry is not None:
                    known = entry[0]
                else:
                    joined = member_joined_at(pid)
                    known = joined if joined is not None else 0.0
            key = (acc if acc >= known else known, pid)
            if key == best:
                supporters += 1
            elif best is None or key < best:
                best = key
                supporters = 1
        return best, supporters

    def local_leader(self) -> Optional[Tuple[float, int]]:
        """Stage 1: earliest (acc, pid) among trusted candidates ∪ self."""
        return self._current()[0]

    def leader(self) -> Optional[int]:
        """Stage 2: earliest among own local leader and trusted forwards.

        Each forwarded pair is evaluated with the freshest accusation time we
        know for the forwarded process (monotonicity: max of the reported and
        locally-known values), so one up-to-date report immediately
        supersedes any number of stale forwards of a demoted leader.
        """
        best = self._current()[1]
        return best[1] if best is not None else None

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """One memo lookup serves both the stage-2 view-change check and the
        stage-1 broadcast check; side-effect order (sync_sender, leader view
        notification, flush request) is identical to the uncached path."""
        if not self._started:
            return
        self._pre_refresh()
        if not self._sender_synced:
            self.ctx.sync_sender()
            self._sender_synced = True
        local, best = self._current()
        leader = best[1] if best is not None else None
        if leader != self._last_leader:
            self._last_leader = leader
            self.ctx.on_leader_view(leader)
        # Broadcast stage-1 changes immediately: our forwards are inputs to
        # everyone else's stage 2, and a stale forward holds the whole group
        # on a demoted leader.
        if local != self._last_broadcast_local:
            self._last_broadcast_local = local
            self.ctx.request_flush()

    def wants_to_send(self) -> bool:
        # All alive candidates stay "active" (paper §4 / [4]).
        return self.ctx.is_candidate

    def emit_stamp(self) -> int:
        # Every input of the fill_alive payload (acc_time, phase, stage-1
        # choice) bumps _mutations when it changes; membership moves are
        # covered by the emitter's own view-version guard.
        return self._mutations

    def fill_alive(self, message: AliveCell) -> None:
        message.acc_time = self.acc_time
        message.phase = self.phase
        local = self.local_leader()
        if local is not None:
            message.local_leader = local[1]
            message.local_leader_acc = local[0]

    def acc_entries(self) -> Tuple[AccEntry, ...]:
        entries = [AccEntry(self.ctx.local_pid, self.acc_time, self.phase)]
        entries.extend(
            AccEntry(pid, acc, phase) for pid, (acc, phase) in self._info.items()
        )
        return tuple(entries)

    def leader_hint(self) -> Optional[AccEntry]:
        leader = self.leader()
        if leader is None:
            return None
        if leader == self.ctx.local_pid:
            return AccEntry(leader, self.acc_time, self.phase)
        acc, phase = self._info.get(leader, (self._acc_of(leader), 0))
        return AccEntry(leader, acc, phase)
