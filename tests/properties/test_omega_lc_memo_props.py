"""Ω_lc's leader-choice memo against its own no-memo path, step by step.

Two instances are fed the same random event sequence: one on a context
with a ``membership_version`` (memo and repair rules on — what production
runs), one on a bare context (every readout recomputes in full — the
oracle).  After every step they must agree on the two-stage choice and on
every side effect, and the memo's supporter count must equal a count made
from scratch.

The script plays the runtime by its contract: ``on_trust`` / ``on_suspect``
fire only on a real transition, and only for present members.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.election.omega_lc import OmegaLc
from repro.net.message import AccEntry, HelloMessage

from tests.core.helpers import BareFakeContext, FakeContext, alive, member

LOCAL = 2
PIDS = st.integers(min_value=0, max_value=5)
#: Forwards lean towards two pids, so several forwarders name one leader —
#: the state a failover starts from — and may also name the local process,
#: a departed one, or a pid that never joins (6): a never-heard process.
FORWARDED = st.sampled_from([None, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6])
#: Few distinct values, so ties, regressions and exact repeats are common.
ACCS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
PHASES = st.integers(min_value=0, max_value=2)

#: One step of the script; a repeated entry is a weight.
STEPS = st.one_of(
    st.tuples(st.just("alive"), PIDS, ACCS, PHASES, FORWARDED, ACCS),
    st.tuples(st.just("alive"), PIDS, ACCS, PHASES, FORWARDED, ACCS),
    st.tuples(st.just("alive"), PIDS, ACCS, PHASES, FORWARDED, ACCS),
    st.tuples(st.just("trust"), PIDS),
    st.tuples(st.just("trust"), PIDS),
    st.tuples(st.just("suspect"), PIDS),
    st.tuples(st.just("suspect"), PIDS),
    st.tuples(st.just("accuse"), PHASES),
    st.tuples(st.just("join"), PIDS, st.booleans(), st.booleans()),
    st.tuples(st.just("leave"), PIDS, st.booleans(), st.booleans()),
    st.tuples(st.just("membership_changed")),
    st.tuples(st.just("seed"), st.lists(st.tuples(PIDS, ACCS, PHASES), max_size=3)),
    st.tuples(st.just("stop")),
    st.tuples(st.just("start")),
)


def apply(step, ctx, algo):
    """Play one step on one (context, algorithm) pair."""
    kind = step[0]
    if kind == "alive":
        _, pid, acc, phase, forwarded, forwarded_acc = step
        if pid != LOCAL:
            algo.on_alive(alive(pid, acc, phase, forwarded, forwarded_acc))
    elif kind in ("trust", "suspect"):
        pid = step[1]
        trusting = kind == "trust"
        record = ctx.members.get(pid)
        if pid == LOCAL or record is None or not record.present:
            return
        if (pid in ctx.trusted_pids) == trusting:
            return  # no transition, no callback
        if trusting:
            ctx.trust(pid)
            algo.on_trust(pid)
        else:
            ctx.distrust(pid)
            algo.on_suspect(pid)
    elif kind == "accuse":
        ctx.set_time(ctx.now + 1.0)
        algo.on_accusation(step[1])
    elif kind in ("join", "leave"):
        _, pid, flag, notify = step
        if pid == LOCAL:
            return
        ctx.set_time(ctx.now + 1.0)
        if kind == "join":  # first join, rejoin (fresh join time) or re-record
            ctx.add_member(member(pid, candidate=flag, joined=ctx.now))
        elif pid not in ctx.members:
            return
        elif flag:  # tombstone, as gossip records a leave
            ctx.add_member(member(pid, present=False))
        else:
            ctx.remove_member(pid)
        if notify:  # the swim plane defers this callback; the version moved
            algo.on_membership_changed()
    elif kind == "membership_changed":
        algo.on_membership_changed()
    elif kind == "seed":
        entries = tuple(AccEntry(*entry) for entry in step[1])
        algo.on_hello_seed(
            HelloMessage(
                sender_node=0, dest_node=0, group=1, kind="reply",
                acc_table=entries, leader_hint=entries[0] if entries else None,
            )
        )
    elif kind == "stop":
        algo.stop()
    elif kind == "start":
        algo.start()


def supporters_from_scratch(ctx, algo):
    """Stage-2 sources carrying the cached leader, counted the slow way."""
    leader = algo._cached_leader
    if leader is None:
        return 0
    keys = [algo._cached_local]
    for forwarder, (pid, acc) in algo._forwards.items():
        if ctx.trusted(forwarder) and ctx.is_present_candidate(pid):
            keys.append((max(acc, algo._acc_of(pid)), pid))
    return keys.count(leader)


def observable(ctx, algo):
    return (
        algo.local_leader(), algo.leader(), ctx.views, ctx.flushes,
        ctx.accusations, ctx.sending,
    )


@given(
    st.sets(PIDS, min_size=3),
    st.sets(PIDS, min_size=3),
    st.booleans(),
    st.lists(STEPS, min_size=20, max_size=120),
)
@settings(max_examples=400, deadline=None)
def test_memo_equals_full_recompute_after_every_step(
    initial_members, initially_trusted, local_candidate, steps
):
    pairs = []
    for context_class in (FakeContext, BareFakeContext):
        ctx = context_class(local_pid=LOCAL, candidate=local_candidate, join_time=3.0)
        ctx.add_member(member(LOCAL, candidate=local_candidate, joined=3.0))
        for pid in initial_members - {LOCAL}:
            ctx.add_member(member(pid, joined=float(pid)))
        ctx.trust(*(initially_trusted & initial_members - {LOCAL}))
        algo = ctx.attach(OmegaLc(ctx))
        algo.start()
        pairs.append((ctx, algo))
    (memo_ctx, memo), (bare_ctx, bare) = pairs
    assert memo._cache_enabled and not bare._cache_enabled
    for step in steps:
        apply(step, memo_ctx, memo)
        apply(step, bare_ctx, bare)
        if memo._memo_valid():  # before the readout below can rebuild it
            assert memo._supporters == supporters_from_scratch(memo_ctx, memo), step
        assert observable(memo_ctx, memo) == observable(bare_ctx, bare), step
        # ... and after it, when a rebuilt memo carries the scan's own count.
        assert memo._supporters == supporters_from_scratch(memo_ctx, memo), step
    # The point of the memo: it answered without rescanning every time.
    assert memo.full_recomputes <= bare.full_recomputes
