"""Digest-pinning regression test for the seed-replay contract.

ROADMAP's standing contract: a fixed ``(seed, config)`` reproduces its
``metrics.trace`` digest bit-for-bit.  The chaos replay CLI *verifies* this
between two runs of the same build — but nothing so far pinned a digest
*across* builds, so a PR could silently perturb RNG draw order, stream
names, or event tie-breaking and every recorded reproduction would break at
once.  This test pins the exact digest (and event count) of one small
fixed-seed cell.

If this test fails, the change altered simulation behaviour.  That can be
legitimate (a protocol fix, a new default) — then update the constants here
*and* re-run ``python benchmarks/bench_core.py --update`` so the committed
``BENCH_core.json`` digests move in the same commit, and say so in the PR.
If the change was *not* supposed to alter behaviour (a refactor, a perf
optimization), the failure is the bug: something perturbed the RNG draw
order or the event schedule.

A numpy upgrade that changes ``Generator`` variate streams would also trip
this test; numpy's stream-compatibility policy (NEP 19) makes that a
deliberate, release-noted event.
"""

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig

#: The pinned cell: small enough to run in well under a second, but with
#: churn enabled so crash/recovery, monitor teardown and re-election paths
#: all feed the trace.
PINNED_CONFIG = dict(
    name="digest-pin",
    algorithm="omega_lc",
    n_nodes=4,
    duration=60.0,
    warmup=10.0,
    seed=123,
    node_churn=True,
)
#: PR 7 (batch tick engine): the DeadlinePool collapses per-monitor timer
#: wakes into shared sentinel wakes, removing 672 pure-bookkeeping engine
#: events.  The *digest* is unchanged — the pool fires real expirations at
#: bit-identical virtual times; only the executed-event count moved.
#: PR 24 (the estimator stops inventing loss): no loss seen is the window's
#: floor from the first reconfiguration, so this loss-free cell runs at the
#: LAN's η = 0.33 s instead of the 0.12–0.25 s the prior of 1/2 asked for,
#: same-instant flushes are one round, and covered peers get no empty
#: HELLO: 5 047 → 3 497 events, and the digest moved with the timing.
#: Survivors re-ask a peer suspected since they last asked it for a rate,
#: so a rebooted workstation leaves the bootstrap η = 0.25 s for the LAN's
#: 0.33 s instead of keeping it: 3 497 → 3 377 events, the digest unchanged.
#: Changes acknowledged, not refreshed (an 8 s refresh, echoes on frames):
#: 3 377 → 3 378 events, the digest unchanged.
#: One gossip rule on both planes (cells carry no membership delta but the
#: sender's own record on first contact, view-change reactions coalesce):
#: 3 378 → 3 375 events, and the digest moved.
PINNED_EVENTS = 3375
PINNED_DIGEST = "40a845e798d53c671c1c7e6614d1453d363caa4878f0dd4afdbf2e76d8c08597"


class TestDigestPin:
    def test_fixed_seed_cell_reproduces_pinned_digest(self):
        system = build_system(ExperimentConfig(**PINNED_CONFIG))
        system.sim.run_until(PINNED_CONFIG["duration"])
        assert system.sim.events_executed == PINNED_EVENTS
        assert system.trace.digest() == PINNED_DIGEST

    def test_pin_is_stable_within_one_build(self):
        """The pin itself must be deterministic (else the test is noise)."""
        digests = []
        for _ in range(2):
            system = build_system(ExperimentConfig(**PINNED_CONFIG))
            system.sim.run_until(PINNED_CONFIG["duration"])
            digests.append(system.trace.digest())
        assert digests[0] == digests[1] == PINNED_DIGEST
