"""End-to-end push-notified watches, transfer and handoff in the simulator.

These drive the real stack — daemons, election, gossip, the client
library — and verify the tentpole contract of the push watch path: a
holder change reaches a subscribed watcher as a leader-pushed event
(``nonce == 0``), a *quiet* watch costs zero steady-state request
traffic, and the watch survives a leader SIGKILL mid-watch.  The
transfer/handoff flow is checked against the trace the chaos invariants
read.
"""

from __future__ import annotations

import re

import pytest

from repro.chaos.invariants import check_no_double_grant
from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.qos import FDQoS
from repro.lease.client import HostLeaseChannel, LeaseClient

GROUP = 1
_TOKEN = re.compile(r"token=(\d+)")


class CountingChannel(HostLeaseChannel):
    """A host channel that counts outbound client requests."""

    __slots__ = ("submits",)

    def __init__(self, host, group):
        super().__init__(host, group)
        self.submits = 0

    def submit(self, message, reply_to):
        self.submits += 1
        super().submit(message, reply_to)


def build(seed=11, n_nodes=4):
    config = ExperimentConfig(
        name="lease-watch-push",
        n_nodes=n_nodes,
        duration=300.0,  # upper bound; the tests drive the clock themselves
        warmup=0.0,
        seed=seed,
        node_churn=False,
        qos=FDQoS(detection_time=1.0),
        n_lease_clients=0,
    )
    return build_system(config)


def make_client(system, host_index, client_id, channel_cls=HostLeaseChannel,
                **kwargs):
    host = system.hosts[host_index]
    channel = channel_cls(host, GROUP)
    client = LeaseClient(
        channel,
        host.scheduler,
        system.rng.stream(f"test.lease.client.{client_id}"),
        group=GROUP,
        client_id=client_id,
        **kwargs,
    )
    return client, channel


def leader_of(system, group=GROUP):
    for host in system.hosts:
        service = host.service
        if service is None:
            continue
        runtime = service.group_runtime(group)
        if runtime is not None and runtime._leader_view is not None:
            return runtime._leader_view
    return None


@pytest.mark.slow
class TestPushDelivery:
    def test_holder_change_reaches_the_watcher_as_a_push_event(self):
        system = build()
        sim = system.sim
        sim.run_until(20.0)  # elect + pass the takeover grace

        watcher, _ = make_client(system, 1, 2001)
        seen = []
        watcher.watch("push-lock", lambda r: seen.append(r))
        sim.run_until(sim.now + 3.0)
        # Subscribed while the lease is free: the seed reply shows nobody.
        assert seen and seen[0].holder == -1

        holder, _ = make_client(system, 2, 2002)
        grants = []
        holder.acquire("push-lock", 4.0, lambda r: grants.append(r))
        sim.run_until(sim.now + 3.0)
        assert grants and grants[0].status == "granted"

        changes = [r for r in seen if r.holder == 2002]
        assert changes, "watcher never observed the new holder"
        # Delivered by the leader's fan-out, not a poll: pushes carry
        # nonce == 0, polled replies a real nonce.
        assert changes[0].nonce == 0
        assert changes[0].token == grants[0].token

    def test_release_is_pushed_too(self):
        system = build()
        sim = system.sim
        sim.run_until(20.0)

        holder, _ = make_client(system, 2, 2002)
        holder.acquire("push-lock", 4.0)
        sim.run_until(sim.now + 3.0)

        watcher, _ = make_client(system, 1, 2001)
        seen = []
        watcher.watch("push-lock", lambda r: seen.append(r))
        sim.run_until(sim.now + 3.0)
        assert seen and seen[0].holder == 2002

        holder.release("push-lock")
        sim.run_until(sim.now + 3.0)
        freed = [r for r in seen if r.holder == -1]
        assert freed, "watcher never observed the release"
        assert freed[0].nonce == 0


@pytest.mark.slow
class TestZeroSteadyStatePolls:
    def test_quiet_watch_sends_no_requests(self):
        """With a holder quietly renewing, a watcher's request traffic is
        flat: it subscribed once and never needs to ask again."""
        system = build()
        sim = system.sim
        sim.run_until(20.0)

        holder, _ = make_client(system, 2, 2002)
        holder.acquire("ab-lock", 4.0)  # auto-renews for the whole test
        sim.run_until(sim.now + 3.0)

        watcher, channel = make_client(
            system, 1, 2001, channel_cls=CountingChannel
        )
        seen = []
        watcher.watch("ab-lock", lambda r: seen.append(r), period=1.0)
        sim.run_until(sim.now + 5.0)  # subscribed and seeded
        assert seen and seen[0].holder == 2002

        before = channel.submits
        sim.run_until(sim.now + 30.0)

        # The holder's renewals push events that keep re-arming the
        # watcher's deadman, so it never needs to ask again.
        assert channel.submits == before


@pytest.mark.slow
class TestWatchAcrossLeaderKill:
    def test_push_watcher_survives_a_leader_kill(self):
        system = build()
        sim = system.sim
        sim.run_until(20.0)

        # Holder and watcher both live on non-leader nodes so the kill
        # takes out neither of them.
        leader = leader_of(system)
        assert leader is not None
        spare = [i for i, h in enumerate(system.hosts)
                 if h.node.node_id != leader]

        holder, _ = make_client(system, spare[0], 2002)
        lost = []

        def reacquire(name):
            lost.append(name)
            holder.acquire(name, 3.0)

        holder.on_lost = reacquire
        holder.acquire("kill-lock", 3.0)
        sim.run_until(sim.now + 3.0)
        first = holder.grant("kill-lock")
        assert first is not None

        watcher, _ = make_client(system, spare[1], 2001)
        seen = []
        watcher.watch("kill-lock", lambda r: seen.append(r), period=1.0)
        sim.run_until(sim.now + 3.0)
        assert any(r.holder == 2002 for r in seen)

        # SIGKILL the leader's node mid-watch, then bring it back.
        system.network.node(leader).crash()
        sim.run_until(sim.now + 5.0)
        system.network.node(leader).recover()
        sim.run_until(sim.now + 60.0)

        # The new tenure's takeover grace outlives the old grant, the
        # holder loses and re-acquires, and the watcher — having
        # re-subscribed — sees the fresh token.
        assert lost == ["kill-lock"]
        second = holder.grant("kill-lock")
        assert second is not None and second.token > first.token
        fresh = [r for r in seen
                 if r.holder == 2002 and r.token == second.token]
        assert fresh, "watcher never observed the post-kill re-grant"
        # Delivered by the *new* leader's fan-out: the re-subscribe
        # lands during the takeover grace, well before the re-grant.
        assert fresh[0].nonce == 0
        assert check_no_double_grant(system.trace.events, group=GROUP) == []


@pytest.mark.slow
class TestHandoffEndToEnd:
    def test_requester_receives_the_lease_with_an_advanced_token(self):
        system = build()
        sim = system.sim
        sim.run_until(20.0)

        holder, _ = make_client(
            system, 1, 2001,
            on_handoff_request=lambda name, requester: True,
        )
        lost = []
        holder.on_lost = lost.append
        holder.acquire("handoff-lock", 3.0)
        sim.run_until(sim.now + 3.0)
        first = holder.grant("handoff-lock")
        assert first is not None

        requester, _ = make_client(system, 2, 2002)
        received = []
        requester.request_handoff("handoff-lock", received.append)
        sim.run_until(sim.now + 10.0)

        # The wish rode the holder's renew reply, its callback agreed,
        # the transfer was pushed back to the requester as an event.
        grant = requester.grant("handoff-lock")
        assert grant is not None
        assert grant.token > first.token
        assert received and received[0].holder == 2002
        assert received[0].token == grant.token
        # Voluntary handoff: the outgoing holder is not "lost".
        assert lost == []
        assert holder.grant("handoff-lock") is None

        transfers = [e for e in system.trace.events
                     if e.kind == "lease" and e.label.startswith("transfer")]
        assert transfers, "no transfer event reached the trace"
        assert int(_TOKEN.search(transfers[0].label).group(1)) == grant.token

        # The requester keeps the lease alive afterwards (auto-renew).
        sim.run_until(sim.now + 6.0)
        assert requester.grant("handoff-lock") is not None
        assert check_no_double_grant(system.trace.events, group=GROUP) == []
