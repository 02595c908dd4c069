"""Invariant checkers over hand-written traces.

Synthetic traces make each checker's trigger condition explicit, the same
way tests/metrics/test_leadership.py pins the paper's metric definitions.
"""

import pytest

from repro.chaos.invariants import check_invariants
from repro.metrics.trace import TraceRecorder

GROUP = 1


def build_trace(n: int = 3) -> TraceRecorder:
    """n processes join at t=0 (pid = node id)."""
    trace = TraceRecorder()
    for pid in range(n):
        trace.record_join(0.0, GROUP, pid, pid)
    return trace


def all_view(trace: TraceRecorder, time: float, leader, n: int = 3) -> None:
    for pid in range(n):
        trace.record_view(time, GROUP, pid, leader)


def check(trace: TraceRecorder, *, end_time=100.0, heal_time=40.0, **kwargs):
    return check_invariants(
        trace.events,
        group=GROUP,
        end_time=end_time,
        heal_time=heal_time,
        **kwargs,
    )


class TestSingleStableLeader:
    def test_stable_run_passes(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        report = check(trace)
        assert report.ok
        assert report.final_leader == 0
        assert report.stabilized_at == pytest.approx(40.0)  # spans the heal

    def test_no_leader_at_end_fails(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_view(95.0, GROUP, 1, None)  # disagreement at the end
        report = check(trace)
        assert not report.ok
        assert any(
            v.invariant == "single-stable-leader" for v in report.violations
        )

    def test_too_short_final_interval_fails(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_view(60.0, GROUP, 1, None)
        all_view(trace, 95.0, 2)  # re-agrees, but holds only 5 s < hold 15 s
        report = check(trace)
        assert not report.ok
        assert any(
            v.invariant == "single-stable-leader" for v in report.violations
        )


class TestBoundedReelection:
    def test_prompt_post_heal_stabilization_passes(self):
        trace = build_trace()
        trace.record_view(1.0, GROUP, 0, None)  # no agreement during chaos
        all_view(trace, 45.0, 2)  # 5 s after the heal
        report = check(trace)
        assert report.ok
        assert report.stabilized_at == pytest.approx(45.0)

    def test_slow_stabilization_breaches_the_qos_bound(self):
        trace = build_trace()
        trace.record_view(1.0, GROUP, 0, None)
        all_view(trace, 75.0, 2)  # 35 s after heal
        report = check(trace, stabilize_bound=20.0)
        assert not report.ok
        assert any(v.invariant == "bounded-reelection" for v in report.violations)

    def test_never_stabilizing_fails(self):
        trace = build_trace()
        trace.record_view(1.0, GROUP, 0, None)
        report = check(trace)
        assert not report.ok
        assert any(v.invariant == "bounded-reelection" for v in report.violations)


class TestNoFlapping:
    def test_leader_change_after_stabilization_fails(self):
        trace = build_trace()
        all_view(trace, 41.0, 0)
        all_view(trace, 70.0, 1)  # stable for 29 s, then flips
        report = check(trace)
        assert any(v.invariant == "no-flapping" for v in report.violations)

    def test_stable_leader_lost_and_never_replaced_fails(self):
        trace = build_trace()
        all_view(trace, 41.0, 0)
        trace.record_view(70.0, GROUP, 1, None)
        report = check(trace)
        flapping = [v for v in report.violations if v.invariant == "no-flapping"]
        assert flapping and "never replaced" in flapping[0].detail

    def test_flicker_before_heal_is_not_flapping(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_view(20.0, GROUP, 1, None)  # mid-chaos disagreement
        all_view(trace, 22.0, 0)
        report = check(trace)
        assert report.ok


class TestLeaderValidity:
    def test_timely_demotion_of_dead_leader_passes(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_crash(10.0, 0)
        # Survivors drop the dead leader within the bound and re-elect.
        for pid in (1, 2):
            trace.record_view(11.0, GROUP, pid, None)
        trace.record_view(12.0, GROUP, 1, 1)
        trace.record_view(12.0, GROUP, 2, 1)
        report = check(trace, validity_bound=20.0)
        assert report.ok

    def test_stale_view_of_dead_leader_fails(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_crash(10.0, 0)
        # Processes 1 and 2 never update their views.
        report = check(trace, validity_bound=20.0)
        stale = [v for v in report.violations if v.invariant == "leader-validity"]
        assert len(stale) == 2
        assert all(v.time == pytest.approx(30.0) for v in stale)

    def test_rejoin_of_the_leader_revalidates_views(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_crash(10.0, 0)
        trace.record_recover(12.0, 0)
        trace.record_join(12.1, GROUP, 0, 0)  # back before the bound expires
        report = check(trace, validity_bound=20.0)
        assert not any(
            v.invariant == "leader-validity" for v in report.violations
        )

    def test_dead_viewer_owes_nothing(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_crash(10.0, 0)
        trace.record_crash(10.5, 1)  # viewer 1 dies holding the stale view
        trace.record_view(11.0, GROUP, 2, 2)
        report = check(trace, validity_bound=20.0)
        assert not any(
            v.invariant == "leader-validity" for v in report.violations
        )

    def test_adopting_an_already_dead_leader_arms_the_deadline(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        trace.record_crash(10.0, 0)
        trace.record_view(11.0, GROUP, 1, 1)
        trace.record_view(11.0, GROUP, 2, 1)
        trace.record_view(50.0, GROUP, 2, 0)  # adopts the long-dead pid 0
        report = check(trace, validity_bound=20.0)
        stale = [v for v in report.violations if v.invariant == "leader-validity"]
        assert any(v.time == pytest.approx(70.0) for v in stale)


class TestReportShape:
    def test_requires_a_settle_window(self):
        trace = build_trace()
        with pytest.raises(ValueError):
            check(trace, end_time=40.0, heal_time=40.0)

    def test_report_serializes(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        record = check(trace).to_dict()
        assert record["ok"] is True
        assert record["violations"] == []
        assert record["final_leader"] == 0

    def test_violations_sorted_by_time(self):
        trace = build_trace()
        trace.record_view(1.0, GROUP, 0, None)
        report = check(trace)
        times = [v.time for v in report.violations]
        assert times == sorted(times)


def lease_event(trace, time, pid, action, *, lease=7, client=1000, token=1,
                expiry=0.0):
    trace.record_lease(
        time,
        GROUP,
        pid,
        f"{action} lease={lease} client={client} token={token} "
        f"expiry={expiry!r}",
    )


class TestNoDoubleGrant:
    """The lease safety checker, branch by branch, on synthetic traces."""

    def test_clean_grant_renew_release_cycle_passes(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", token=100, expiry=13.0)
        lease_event(trace, 11.5, 0, "renew", token=100, expiry=14.5)
        lease_event(trace, 12.0, 0, "release", token=100, expiry=12.0)
        lease_event(trace, 13.0, 0, "grant", client=1001, token=200,
                    expiry=16.0)
        report = check(trace)
        assert report.ok

    def test_token_regression_is_flagged(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", token=200, expiry=11.0)
        lease_event(trace, 20.0, 1, "grant", client=1001, token=150,
                    expiry=23.0)
        report = check(trace)
        assert any(
            v.invariant == "no-double-grant" and "regressed" in v.detail
            for v in report.violations
        )

    def test_overlapping_grants_to_two_clients_are_flagged(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=20.0)
        lease_event(trace, 12.0, 1, "grant", client=1001, token=300,
                    expiry=15.0)
        report = check(trace)
        assert any(
            v.invariant == "no-double-grant" and "still valid" in v.detail
            for v in report.violations
        )

    def test_expired_holder_may_be_superseded_within_slack(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=13.0)
        # Next grant lands 0.5s before the first expiry: inside the slack
        # allowance for clock skew, so not a violation.
        lease_event(trace, 12.5, 0, "grant", client=1001, token=200,
                    expiry=15.5)
        report = check(trace)
        assert report.ok

    def test_stale_renew_of_a_superseded_token_is_flagged(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=13.0)
        lease_event(trace, 13.5, 1, "grant", client=1001, token=300,
                    expiry=20.0)
        # The old holder's renewal (stale token, different client) while
        # the new grant is live: the double-grant the fuzzer caught.
        lease_event(trace, 15.0, 0, "renew", client=1000, token=100,
                    expiry=18.0)
        report = check(trace)
        assert any(
            v.invariant == "no-double-grant" and "stale renew" in v.detail
            for v in report.violations
        )

    def test_release_truncates_the_holding(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=30.0)
        lease_event(trace, 12.0, 0, "release", client=1000, token=100,
                    expiry=12.0)
        # Without the release this would overlap; after it, it's clean.
        lease_event(trace, 14.0, 0, "grant", client=1001, token=200,
                    expiry=18.0)
        report = check(trace)
        assert report.ok

    def test_events_fold_in_recording_order_not_stamp_order(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        # A leader whose clock drifted ahead grants and takes the release
        # back; a heal then resyncs its clock (a step *backwards*), so the
        # grant the release enabled is stamped before the release itself.
        # Sorted by stamp this reads grant, grant, release: a double grant.
        lease_event(trace, 79.9, 0, "grant", client=1000, token=100,
                    expiry=83.0)
        lease_event(trace, 80.242, 0, "release", client=1000, token=100,
                    expiry=80.242)
        lease_event(trace, 80.086, 0, "grant", client=1001, token=200,
                    expiry=83.086)
        report = check(trace)
        assert report.ok, report.violations

    def test_renew_extends_and_never_shrinks(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=13.0)
        lease_event(trace, 11.0, 0, "renew", client=1000, token=100,
                    expiry=14.0)
        # A same-token renew carrying an *older* expiry must not shrink
        # the tracked holding — the next overlap still counts.
        lease_event(trace, 11.5, 0, "renew", client=1000, token=100,
                    expiry=13.5)
        lease_event(trace, 12.0, 1, "grant", client=1001, token=300,
                    expiry=16.0)
        report = check(trace)
        assert any(
            v.invariant == "no-double-grant" for v in report.violations
        )

    def test_leases_are_tracked_independently(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", lease=1, client=1000, token=100,
                    expiry=20.0)
        lease_event(trace, 11.0, 0, "grant", lease=2, client=1001, token=150,
                    expiry=20.0)
        report = check(trace)
        assert report.ok


class TestTransferEvents:
    """Transfers are grant-like for token monotonicity but sanctioned
    overlaps: the outgoing holder hands off mid-validity by design."""

    def test_transfer_inside_predecessor_validity_is_not_an_overlap(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=20.0)
        # Handoff lands well inside the predecessor's validity window.
        lease_event(trace, 12.0, 0, "transfer", client=1001, token=200,
                    expiry=15.0)
        report = check(trace)
        assert report.ok

    def test_transfer_with_a_regressed_token_is_flagged(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=300,
                    expiry=20.0)
        lease_event(trace, 12.0, 0, "transfer", client=1001, token=250,
                    expiry=15.0)
        report = check(trace)
        assert any(
            v.invariant == "no-double-grant" and "regressed" in v.detail
            for v in report.violations
        )

    def test_transfer_updates_the_holding_for_overlap_checks(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=13.0)
        lease_event(trace, 11.0, 0, "transfer", client=1001, token=200,
                    expiry=20.0)
        # A later plain grant while the successor's holding is live must
        # still be flagged — the transfer extended the occupied window.
        lease_event(trace, 15.0, 1, "grant", client=1002, token=300,
                    expiry=18.0)
        report = check(trace)
        assert any(
            v.invariant == "no-double-grant" and "still valid" in v.detail
            for v in report.violations
        )

    def test_transfer_then_successor_renew_is_clean(self):
        trace = build_trace()
        all_view(trace, 1.0, 0)
        lease_event(trace, 10.0, 0, "grant", client=1000, token=100,
                    expiry=13.0)
        lease_event(trace, 11.0, 0, "transfer", client=1001, token=200,
                    expiry=14.0)
        lease_event(trace, 12.0, 0, "renew", client=1001, token=200,
                    expiry=15.0)
        lease_event(trace, 13.0, 0, "release", client=1001, token=200,
                    expiry=13.0)
        report = check(trace)
        assert report.ok
