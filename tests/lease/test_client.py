"""LeaseClient state machine: retries, redirects, renewal, loss, push."""

from __future__ import annotations

from repro.lease.client import LeaseClient, LeaseGrant
from repro.lease.ledger import lease_id
from repro.net.message import LeaseEventMessage, LeaseReplyMessage
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

GROUP = 1
CLIENT_ID = 1000


class ScriptedChannel:
    """Records requests; the test decides when and what to reply."""

    def __init__(self, node_id=0):
        self.node_id = node_id
        self.requests = []
        self.reply_to = None
        # The client assigns its push-event handler here on construction.
        self.on_event = None

    def submit(self, message, reply_to):
        self.requests.append(message)
        self.reply_to = reply_to

    def reply(self, request, status, *, token=0, holder=-1, expiry=0.0,
              retry_after=0.0, leader_node=-1):
        self.reply_to(
            LeaseReplyMessage(
                sender_node=request.dest_node,
                dest_node=request.sender_node,
                group=request.group,
                status=status,
                lease=request.lease,
                client=request.client,
                token=token,
                holder=holder,
                expiry=expiry,
                retry_after=retry_after,
                leader_node=leader_node,
                nonce=request.nonce,
            )
        )

    def push(self, lease, *, holder, token, expiry, released=False, seq=0,
             client=CLIENT_ID):
        """Deliver one server-push lease event to the client."""
        self.on_event(
            LeaseEventMessage(
                sender_node=0,
                dest_node=99,
                group=GROUP,
                lease=lease,
                client=client,
                holder=holder,
                token=token,
                expiry=expiry,
                released=released,
                seq=seq,
            )
        )


def make_client(**kwargs):
    sim = Simulator()
    channel = ScriptedChannel()
    client = LeaseClient(
        channel,
        sim,
        RngRegistry(seed=7).stream("test.client"),
        group=GROUP,
        client_id=CLIENT_ID,
        **kwargs,
    )
    return sim, channel, client


class TestAcquire:
    def test_granted_acquire_exposes_the_fencing_token(self):
        sim, channel, client = make_client()
        replies = []
        client.acquire("lock-a", ttl=3.0, callback=replies.append)
        sim.run_until(0.01)
        request = channel.requests[-1]
        assert request.op == "acquire"
        assert request.lease == lease_id("lock-a")
        channel.reply(request, "granted", token=42, holder=CLIENT_ID,
                      expiry=sim.now + 3.0, leader_node=0)
        assert [r.status for r in replies] == ["granted"]
        grant = client.grant("lock-a")
        assert isinstance(grant, LeaseGrant)
        assert grant.token == 42

    def test_expired_grant_is_not_exposed(self):
        sim, channel, client = make_client()
        client.acquire("lock-a", ttl=3.0)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + 3.0, leader_node=0)
        client._cancel_renew(lease_id("lock-a"))  # isolate expiry behaviour
        sim.run_until(5.0)
        assert client.grant("lock-a") is None

    def test_denied_acquire_retries_until_granted_when_waiting(self):
        sim, channel, client = make_client()
        replies = []
        client.acquire("lock-a", ttl=3.0, callback=replies.append)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "denied", retry_after=0.5)
        assert replies == []
        sim.run_until(0.4)
        assert len(channel.requests) == 1  # backoff still running
        sim.run_until(2.0)
        assert len(channel.requests) >= 2  # retried after the backoff
        channel.reply(channel.requests[-1], "granted", token=7,
                      holder=CLIENT_ID, expiry=sim.now + 3.0, leader_node=0)
        assert [r.status for r in replies] == ["granted"]

    def test_denied_acquire_is_terminal_when_not_waiting(self):
        sim, channel, client = make_client()
        replies = []
        client.acquire("lock-a", ttl=3.0, callback=replies.append, wait=False)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "denied", retry_after=0.5)
        sim.run_until(5.0)
        assert [r.status for r in replies] == ["denied"]
        assert len(channel.requests) == 1


class TestRoutingAndRetry:
    def test_redirect_teaches_the_leader_location(self):
        sim, channel, client = make_client()
        client.acquire("lock-a", ttl=3.0)
        sim.run_until(0.01)
        assert channel.requests[0].dest_node == channel.node_id
        channel.reply(channel.requests[0], "redirect", leader_node=4)
        sim.run_until(1.0)
        assert channel.requests[-1].dest_node == 4

    def test_throttled_replies_back_off_by_retry_after(self):
        sim, channel, client = make_client()
        client.acquire("lock-a", ttl=3.0)
        sim.run_until(0.01)
        channel.reply(channel.requests[0], "throttled", retry_after=1.0)
        sim.run_until(0.9)
        assert len(channel.requests) == 1
        sim.run_until(1.2)
        assert len(channel.requests) == 2

    def test_lost_requests_resend_and_eventually_forget_the_leader(self):
        sim, channel, client = make_client(request_timeout=0.1)
        client.leader_node = 4
        client.acquire("lock-a", ttl=3.0)
        sim.run_until(5.0)  # nobody ever answers
        assert len(channel.requests) >= 4
        assert client.leader_node is None  # hint dropped after 3 timeouts

    def test_stale_reply_nonce_is_ignored(self):
        sim, channel, client = make_client(request_timeout=0.1)
        client.acquire("lock-a", ttl=3.0)
        sim.run_until(0.5)  # at least one timeout: nonce has moved on
        stale = channel.requests[0]
        assert stale.nonce != channel.requests[-1].nonce
        channel.reply(stale, "granted", token=9, holder=CLIENT_ID,
                      expiry=sim.now + 3.0, leader_node=0)
        assert client.grant("lock-a") is None

    def test_stale_replies_to_a_read_and_to_a_superseded_op_are_ignored(self):
        sim, channel, client = make_client(request_timeout=0.1)
        answers = []
        client.query("lock-a", answers.append)
        sim.run_until(0.15)  # one timeout: the query's nonce moved on
        first, current = channel.requests[0], channel.requests[-1]
        assert first.nonce != current.nonce
        channel.reply(first, "info", holder=1001, token=5)
        assert answers == []
        channel.reply(current, "info", holder=1001, token=5)
        assert [r.nonce for r in answers] == [current.nonce]

        client.acquire("lock-b", ttl=4.0)
        sim.run_until(sim.now + 0.01)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + 4.0, leader_node=0)
        sim.run_until(sim.now + 2.05)  # the renew goes out, unanswered
        renew = channel.requests[-1]
        assert renew.op == "renew"
        done = []
        client.transfer("lock-b", 1001, callback=done.append)
        transfer = channel.requests[-1]
        assert transfer.op == "transfer"
        channel.reply(renew, "denied")  # would drop the grant were it live
        assert done == []
        assert client.grant("lock-b").token == 42
        channel.reply(transfer, "granted", token=43, holder=1001,
                      expiry=sim.now + 4.0, leader_node=0)
        assert [r.token for r in done] == [43]


class TestRenewal:
    def granted(self, sim, channel, client, ttl=4.0):
        client.acquire("lock-a", ttl=ttl, callback=None)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + ttl, leader_node=0)

    def test_auto_renew_fires_with_the_held_token_and_original_ttl(self):
        sim, channel, client = make_client()
        self.granted(sim, channel, client, ttl=4.0)
        sim.run_until(3.0)  # renewal due at ~half validity (t ~= 2)
        renew = channel.requests[-1]
        assert renew.op == "renew"
        assert renew.token == 42
        assert renew.ttl == 4.0

    def test_denied_renewal_drops_the_grant_and_fires_on_lost(self):
        lost = []
        sim, channel, client = make_client(on_lost=lost.append)
        self.granted(sim, channel, client)
        sim.run_until(3.0)
        channel.reply(channel.requests[-1], "denied")
        assert lost == ["lock-a"]
        assert client.grant("lock-a") is None

    def test_granted_renewal_keeps_the_lease_alive(self):
        sim, channel, client = make_client()
        self.granted(sim, channel, client, ttl=4.0)
        sim.run_until(3.0)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + 4.0, leader_node=0)
        assert client.grant("lock-a").expiry == sim.now + 4.0


class TestRelease:
    def test_release_sends_the_held_token(self):
        sim, channel, client = make_client()
        client.acquire("lock-a", ttl=3.0)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + 3.0, leader_node=0)
        assert client.release("lock-a") is True
        sim.run_until(0.1)
        release = channel.requests[-1]
        assert release.op == "release"
        assert release.token == 42
        assert client.grant("lock-a") is None

    def test_release_without_a_grant_is_a_no_op(self):
        sim, channel, client = make_client()
        assert client.release("lock-a") is False
        assert channel.requests == []


class TestWatch:
    def test_watch_fires_only_on_holder_or_token_change(self):
        sim, channel, client = make_client()
        seen = []
        stop = client.watch("lock-a", seen.append, period=1.0)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "info", holder=1001, token=5)
        sim.run_until(1.1)
        channel.reply(channel.requests[-1], "info", holder=1001, token=5)
        sim.run_until(2.2)
        channel.reply(channel.requests[-1], "info", holder=1002, token=9)
        assert [(r.holder, r.token) for r in seen] == [(1001, 5), (1002, 9)]
        stop()
        polls = len(channel.requests)
        sim.run_until(10.0)
        assert len(channel.requests) == polls

    def test_close_silences_everything(self):
        sim, channel, client = make_client()
        client.watch("lock-a", lambda reply: None, period=1.0)
        client.acquire("lock-b", ttl=3.0)
        sim.run_until(0.01)
        client.close()
        sent = len(channel.requests)
        client.watch("lock-c", lambda reply: None, period=1.0)()
        sim.run_until(10.0)
        assert len(channel.requests) == sent


class TestWatchStopRegression:
    def test_stop_cancels_an_unanswered_subscribe_op(self):
        # Regression: stopping a watch whose subscribe had not yet been
        # answered used to leave the op in the table, retrying forever.
        sim, channel, client = make_client(request_timeout=0.1)
        stop = client.watch("lock-a", lambda reply: None, period=1.0)
        sim.run_until(0.35)  # several unanswered resends queue up
        assert len(channel.requests) >= 2
        stop()
        sent = len(channel.requests)
        sim.run_until(30.0)
        assert len(channel.requests) == sent
        assert client._inflight == {}

    def test_stopping_the_last_push_watch_unsubscribes(self):
        sim, channel, client = make_client()
        stop = client.watch("lock-a", lambda reply: None, period=1.0)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "info", holder=-1, token=0)
        stop()
        assert channel.requests[-1].op == "unwatch"
        # unwatch is fire-and-forget: no retries, nothing tracked.
        sent = len(channel.requests)
        sim.run_until(30.0)
        assert len(channel.requests) == sent


class TestRenewLossAtExpiry:
    def test_unanswered_renewals_fire_on_lost_once_expiry_passes(self):
        # Regression: renewals that timed out forever never fired on_lost,
        # so the holder kept believing in a long-expired grant.
        lost = []
        sim, channel, client = make_client(
            request_timeout=0.1, on_lost=lost.append
        )
        client.acquire("lock-a", ttl=2.0)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + 2.0, leader_node=0)
        sim.run_until(10.0)  # nobody ever answers the renews
        assert lost == ["lock-a"]
        assert client.grant("lock-a") is None
        assert any(r.op == "renew" for r in channel.requests)
        # The renew op died with the grant: no perpetual retrying.
        sent = len(channel.requests)
        sim.run_until(30.0)
        assert len(channel.requests) == sent


class TestConcurrentReadOps:
    def test_watch_and_query_for_the_same_name_run_concurrently(self):
        # Read ops do not supersede one another: a query() for a watched
        # name must not cancel the watch's op (nor the other way round).
        sim, channel, client = make_client()
        seen_watch, seen_query = [], []
        client.watch("lock-a", seen_watch.append, period=1.0)
        sim.run_until(0.01)
        client.query("lock-a", seen_query.append)
        sim.run_until(0.02)
        pending = channel.requests[-2:]
        assert [r.op for r in pending] == ["watch", "query"]
        channel.reply(pending[1], "info", holder=1001, token=5)
        channel.reply(pending[0], "info", holder=1001, token=5)
        assert len(seen_query) == 1
        assert len(seen_watch) == 1

    def test_watch_does_not_cancel_a_pending_acquire(self):
        sim, channel, client = make_client()
        replies = []
        client.acquire("lock-a", ttl=3.0, callback=replies.append)
        sim.run_until(0.01)
        client.watch("lock-a", lambda reply: None, period=1.0)
        sim.run_until(0.02)
        acquire = next(r for r in channel.requests if r.op == "acquire")
        channel.reply(acquire, "granted", token=7, holder=CLIENT_ID,
                      expiry=sim.now + 3.0, leader_node=0)
        assert [r.status for r in replies] == ["granted"]
        assert client.grant("lock-a").token == 7


class TestPushWatch:
    def subscribed(self, sim, channel, client, seen, *, holder=-1, token=0,
                   expiry=0.0):
        stop = client.watch("lock-a", seen.append, period=1.0)
        sim.run_until(0.01)
        assert channel.requests[-1].op == "watch"
        channel.reply(channel.requests[-1], "info", holder=holder,
                      token=token, expiry=expiry)
        return stop

    def test_push_event_fires_the_watch_with_nonce_zero(self):
        sim, channel, client = make_client()
        seen = []
        self.subscribed(sim, channel, client, seen)
        channel.push(lease_id("lock-a"), holder=1001, token=5,
                     expiry=sim.now + 3.0)
        assert [(r.holder, r.token) for r in seen] == [(-1, 0), (1001, 5)]
        assert seen[-1].nonce == 0  # push-sourced, not a poll reply

    def test_events_suppress_fallback_polls_while_the_lease_is_held(self):
        sim, channel, client = make_client()
        seen = []
        self.subscribed(sim, channel, client, seen, holder=1001, token=5,
                        expiry=sim.now + 2.0)
        sent = len(channel.requests)
        lease = lease_id("lock-a")
        # Renewal-shaped events keep arriving; the deadman keeps re-arming
        # past the advancing expiry, so the watcher sends nothing at all.
        for i in range(20):
            sim.run_until(0.01 + (i + 1) * 1.0)
            channel.push(lease, holder=1001, token=5,
                         expiry=sim.now + 2.0, seq=i + 1)
        assert len(channel.requests) == sent  # zero steady-state polls
        assert len(seen) == 1  # (holder, token) never changed: one fire

    def test_fallback_resubscribe_kicks_in_when_events_stop(self):
        sim, channel, client = make_client()
        seen = []
        self.subscribed(sim, channel, client, seen, holder=1001, token=5,
                        expiry=sim.now + 2.0)
        sent = len(channel.requests)
        sim.run_until(10.0)  # expiry + half a period passes with no event
        later = [r.op for r in channel.requests[sent:]]
        assert "watch" in later  # the deadman resubscribed

    def test_released_event_reports_the_lease_free(self):
        sim, channel, client = make_client()
        seen = []
        self.subscribed(sim, channel, client, seen, holder=1001, token=5,
                        expiry=sim.now + 3.0)
        channel.push(lease_id("lock-a"), holder=1001, token=5,
                     expiry=sim.now + 3.0, released=True)
        assert (seen[-1].holder, seen[-1].token) == (-1, 0)


class TestTransfer:
    def granted(self, sim, channel, client, ttl=4.0):
        client.acquire("lock-a", ttl=ttl)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + ttl, leader_node=0)

    def test_transfer_sends_the_successor_and_held_token(self):
        sim, channel, client = make_client()
        self.granted(sim, channel, client)
        assert client.transfer("lock-a", 1001) is True
        sim.run_until(0.1)
        request = channel.requests[-1]
        assert request.op == "transfer"
        assert request.successor == 1001
        assert request.token == 42

    def test_granted_transfer_drops_the_grant_without_on_lost(self):
        lost, done = [], []
        sim, channel, client = make_client(on_lost=lost.append)
        self.granted(sim, channel, client)
        client.transfer("lock-a", 1001, callback=done.append)
        sim.run_until(0.1)
        channel.reply(channel.requests[-1], "granted", token=43,
                      holder=1001, expiry=sim.now + 4.0, leader_node=0)
        assert [r.token for r in done] == [43]
        assert client.grant("lock-a") is None
        assert lost == []  # voluntary handoff, not a loss
        sent = len(channel.requests)
        sim.run_until(30.0)
        assert len(channel.requests) == sent  # no renewals for a gone grant

    def test_denied_transfer_keeps_the_grant_and_resumes_renewal(self):
        done = []
        sim, channel, client = make_client()
        self.granted(sim, channel, client, ttl=4.0)
        client.transfer("lock-a", 1001, callback=done.append)
        sim.run_until(0.1)
        channel.reply(channel.requests[-1], "denied")
        assert [r.status for r in done] == ["denied"]
        assert client.grant("lock-a").token == 42
        sim.run_until(3.0)  # renewal resumed from the kept grant
        renew = channel.requests[-1]
        assert renew.op == "renew"
        assert renew.token == 42

    def test_transfer_without_a_grant_is_refused(self):
        sim, channel, client = make_client()
        assert client.transfer("lock-a", 1001) is False
        assert channel.requests == []

    def test_transfer_to_self_is_refused(self):
        sim, channel, client = make_client()
        self.granted(sim, channel, client)
        assert client.transfer("lock-a", CLIENT_ID) is False


class TestTransferLapse:
    def test_an_unanswered_transfer_completes_once_when_the_grant_lapses(self):
        lost, done = [], []
        sim, channel, client = make_client(request_timeout=0.1, on_lost=lost.append)
        client.acquire("lock-a", ttl=2.0)
        sim.run_until(0.01)
        channel.reply(channel.requests[-1], "granted", token=42,
                      holder=CLIENT_ID, expiry=sim.now + 2.0, leader_node=0)
        client.transfer("lock-a", 1001, callback=done.append)
        sim.run_until(10.0)  # every reply to the transfer is lost
        assert lost == ["lock-a"]
        assert [r.status for r in done] == ["denied"]
        assert all(r.op == "transfer" for r in channel.requests[1:])
        sent = len(channel.requests)
        sim.run_until(30.0)
        assert len(channel.requests) == sent
        assert len(done) == 1
