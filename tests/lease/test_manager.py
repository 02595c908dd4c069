"""LeaseManager grant logic: grace, quorum, fencing tokens, throttling."""

from __future__ import annotations

from repro.lease.ledger import LeaseLedger
from repro.lease.manager import LeaseManager, token_epoch
from repro.net.message import LeaseRecord

LEASE = 7
CLIENT = 1000
OTHER = 1001


def manager(quorum=None, **kwargs):
    ledger = LeaseLedger(group=1)
    return LeaseManager(ledger, node_id=3, quorum=quorum, **kwargs)


def started(now=0.0, **kwargs):
    m = manager(**kwargs)
    m.on_tenure_start(now)
    return m


class TestTenure:
    def test_inactive_tenure_serves_nothing(self):
        m = manager()
        assert m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=100.0) is None

    def test_tenure_end_stops_service(self):
        m = started()
        m.on_tenure_end()
        assert m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=100.0) is None

    def test_grace_is_three_detections_plus_max_ttl(self):
        m = started(detection_time=1.0, max_ttl=5.0)
        assert m.grace == 8.0


class TestAcquire:
    def test_denied_during_takeover_grace(self):
        m = started(now=100.0)
        decision = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=101.0)
        assert decision.status == "denied"
        assert decision.retry_after == m.grace - 1.0

    def test_granted_after_grace_with_clamped_ttl(self):
        m = started(now=100.0, max_ttl=5.0)
        now = 100.0 + m.grace
        decision = m.handle("acquire", LEASE, CLIENT, 0, 99.0, now=now)
        assert decision.status == "granted"
        assert decision.expiry == now + 5.0
        assert decision.changed is True

    def test_zero_ttl_means_server_maximum(self):
        m = started(now=0.0, max_ttl=5.0)
        decision = m.handle("acquire", LEASE, CLIENT, 0, 0.0, now=m.grace)
        assert decision.expiry == m.grace + 5.0

    def test_held_lease_denied_to_another_client(self):
        m = started(now=0.0)
        now = m.grace
        granted = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=now)
        decision = m.handle("acquire", LEASE, OTHER, 0, 3.0, now=now + 1.0)
        assert decision.status == "denied"
        assert decision.holder == CLIENT
        assert decision.token == granted.token
        assert decision.retry_after == granted.expiry - (now + 1.0)

    def test_holder_may_reacquire_with_a_fresh_token(self):
        m = started(now=0.0)
        first = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        second = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace + 1.0)
        assert second.status == "granted"
        assert second.token > first.token

    def test_quorum_loss_denies_with_detection_time_backoff(self):
        m = started(now=0.0, quorum=lambda: False, detection_time=1.0)
        decision = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        assert decision.status == "denied"
        assert decision.retry_after == 1.0


class TestFencingTokens:
    def test_tokens_are_strictly_monotonic_within_a_tenure(self):
        m = started(now=0.0)
        tokens = []
        now = m.grace
        for i in range(5):
            decision = m.handle("acquire", LEASE + i, CLIENT, 0, 3.0, now=now)
            tokens.append(decision.token)
        assert tokens == sorted(tokens)
        assert len(set(tokens)) == 5

    def test_epoch_is_fixed_at_the_first_grant_not_takeover(self):
        m = started(now=100.0)
        decision = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=200.0)
        assert token_epoch(decision.token) == 200

    def test_epoch_floors_above_every_merged_token(self):
        m = started(now=0.0)
        foreign = LeaseRecord(
            lease=99, holder=OTHER, token=500 << 28, expiry=1.0,
            granted_at=0.5, released=True, seq=0,
        )
        m.ledger.merge_record(foreign)
        decision = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        assert token_epoch(decision.token) == 501

    def test_midtenure_foreign_token_forces_a_jump(self):
        m = started(now=0.0)
        first = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        foreign = LeaseRecord(
            lease=99, holder=OTHER, token=first.token + (10 << 28),
            expiry=1.0, granted_at=0.5, released=True, seq=0,
        )
        m.ledger.merge_record(foreign)
        second = m.handle("acquire", LEASE + 1, CLIENT, 0, 3.0, now=m.grace + 1)
        assert second.token > foreign.token

    def test_counter_overflow_rolls_into_the_next_epoch(self):
        m = started(now=0.0)
        first = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        m._counter = 0xFFFFF  # as if the tenure had minted 2^20 tokens
        second = m.handle("acquire", LEASE + 1, CLIENT, 0, 3.0, now=m.grace + 1)
        assert token_epoch(second.token) == token_epoch(first.token) + 1
        assert second.token > first.token

    def test_token_low_byte_is_the_node_id(self):
        m = started(now=0.0)
        decision = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        assert decision.token & 0xFF == 3


class TestRenew:
    def setup_method(self):
        self.m = started(now=0.0)
        self.now = self.m.grace
        self.grant = self.m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=self.now)

    def test_renew_extends_validity_with_the_same_token(self):
        decision = self.m.handle(
            "renew", LEASE, CLIENT, self.grant.token, 3.0, now=self.now + 1.0
        )
        assert decision.status == "granted"
        assert decision.token == self.grant.token
        assert decision.expiry == self.now + 4.0

    def test_renew_never_shrinks_validity(self):
        decision = self.m.handle(
            "renew", LEASE, CLIENT, self.grant.token, 0.5, now=self.now + 0.1
        )
        assert decision.expiry == self.grant.expiry

    def test_stale_token_denied(self):
        decision = self.m.handle(
            "renew", LEASE, CLIENT, self.grant.token - 1, 3.0, now=self.now + 1.0
        )
        assert decision.status == "denied"

    def test_wrong_client_denied(self):
        decision = self.m.handle(
            "renew", LEASE, OTHER, self.grant.token, 3.0, now=self.now + 1.0
        )
        assert decision.status == "denied"

    def test_expired_grant_cannot_be_renewed(self):
        decision = self.m.handle(
            "renew", LEASE, CLIENT, self.grant.token, 3.0, now=self.grant.expiry
        )
        assert decision.status == "denied"

    def test_renew_is_quorum_guarded(self):
        votes = {"ok": True}
        m = started(now=0.0, quorum=lambda: votes["ok"])
        grant = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        votes["ok"] = False
        decision = m.handle(
            "renew", LEASE, CLIENT, grant.token, 3.0, now=m.grace + 1.0
        )
        assert decision.status == "denied"


class TestRelease:
    def test_release_truncates_and_frees_the_lease(self):
        m = started(now=0.0)
        now = m.grace
        grant = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=now)
        decision = m.handle("release", LEASE, CLIENT, grant.token, 0.0, now=now + 1)
        assert decision.status == "granted"
        assert m.ledger.holder(LEASE, now + 1.0) is None
        regrant = m.handle("acquire", LEASE, OTHER, 0, 3.0, now=now + 1.5)
        assert regrant.status == "granted"
        assert regrant.token > grant.token

    def test_release_with_a_stale_token_is_denied(self):
        m = started(now=0.0)
        grant = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        decision = m.handle(
            "release", LEASE, CLIENT, grant.token - 1, 0.0, now=m.grace + 1
        )
        assert decision.status == "denied"
        assert m.ledger.holder(LEASE, m.grace + 1.0) is not None


class TestQuery:
    def test_query_reports_the_holder(self):
        m = started(now=0.0)
        grant = m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=m.grace)
        decision = m.handle("query", LEASE, OTHER, 0, 0.0, now=m.grace + 1)
        assert decision.status == "info"
        assert decision.holder == CLIENT
        assert decision.token == grant.token

    def test_query_of_a_free_lease_reports_nothing(self):
        m = started(now=0.0)
        decision = m.handle("query", LEASE, CLIENT, 0, 0.0, now=m.grace)
        assert decision.status == "info"
        assert decision.holder == -1


class TestThrottle:
    def test_burst_then_throttled_with_refill(self):
        m = started(now=0.0, client_rate=2.0, client_burst=5.0)
        now = m.grace
        for i in range(5):
            decision = m.handle("query", LEASE, CLIENT, 0, 0.0, now=now)
            assert decision.status == "info", f"request {i} throttled early"
        throttled = m.handle("query", LEASE, CLIENT, 0, 0.0, now=now)
        assert throttled.status == "throttled"
        assert throttled.retry_after > 0.0
        decision = m.handle("query", LEASE, CLIENT, 0, 0.0, now=now + 1.0)
        assert decision.status == "info"

    def test_buckets_are_per_client(self):
        m = started(now=0.0, client_rate=2.0, client_burst=1.0)
        now = m.grace
        assert m.handle("query", LEASE, CLIENT, 0, 0.0, now=now).status == "info"
        assert m.handle("query", LEASE, CLIENT, 0, 0.0, now=now).status == "throttled"
        assert m.handle("query", LEASE, OTHER, 0, 0.0, now=now).status == "info"


class TestTransfer:
    def granted(self, m, now):
        return m.handle("acquire", LEASE, CLIENT, 0, 3.0, now=now)

    def test_holder_transfer_mints_a_fresh_token_for_the_successor(self):
        m = started(now=0.0)
        now = m.grace
        granted = self.granted(m, now)
        decision = m.handle("transfer", LEASE, CLIENT, granted.token, 3.0,
                            now=now + 1.0, successor=OTHER)
        assert decision.status == "granted"
        assert decision.holder == OTHER
        assert decision.token > granted.token
        assert decision.changed is True
        # The ledger now shows the successor holding the lease.
        assert m.ledger.holder(LEASE, now + 1.0).holder == OTHER

    def test_transfer_by_a_non_holder_is_denied(self):
        m = started(now=0.0)
        now = m.grace
        granted = self.granted(m, now)
        decision = m.handle("transfer", LEASE, OTHER, granted.token, 3.0,
                            now=now + 1.0, successor=1002)
        assert decision.status == "denied"

    def test_transfer_with_a_stale_token_is_denied(self):
        m = started(now=0.0)
        now = m.grace
        granted = self.granted(m, now)
        decision = m.handle("transfer", LEASE, CLIENT, granted.token - 1, 3.0,
                            now=now + 1.0, successor=OTHER)
        assert decision.status == "denied"

    def test_transfer_to_self_or_nobody_is_denied(self):
        m = started(now=0.0)
        now = m.grace
        granted = self.granted(m, now)
        assert m.handle("transfer", LEASE, CLIENT, granted.token, 3.0,
                        now=now + 1.0, successor=CLIENT).status == "denied"
        assert m.handle("transfer", LEASE, CLIENT, granted.token, 3.0,
                        now=now + 1.0, successor=-1).status == "denied"

    def test_transfer_of_an_expired_grant_is_denied(self):
        m = started(now=0.0)
        now = m.grace
        granted = self.granted(m, now)
        decision = m.handle("transfer", LEASE, CLIENT, granted.token, 3.0,
                            now=now + 10.0, successor=OTHER)
        assert decision.status == "denied"

    def test_transfer_respects_quorum_loss(self):
        quorum = {"up": True}
        m = started(now=0.0, quorum=lambda: quorum["up"])
        now = m.grace
        granted = self.granted(m, now)
        quorum["up"] = False
        decision = m.handle("transfer", LEASE, CLIENT, granted.token, 3.0,
                            now=now + 1.0, successor=OTHER)
        assert decision.status == "denied"
