"""The ledger replication contract: segments on the leader's frames, a NACK
per gap, the full-ledger sync only for what a cursor cannot see.

Only the tenure-active leader owes lease records onward, and they ride the
cells of the frames it sends each follower every η: a segment names the
version range it covers, so a follower that missed one sees the gap on the
next and NACKs it, and the leader's next frame re-sends exactly what was
missed.  On a lossless network a mutation therefore crosses the wire at
most once per follower, and no HELLO carries a lease record after the join
wave.  The system tests check the wire, the repair deadlines on both
planes, the rejoin and the bounded per-peer state; the Hypothesis property
drives real :class:`LeaseServer` objects through loss, duplication,
reordering, a writer change and a follower reboot, and scripted cases
restart the writer itself.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.plane import CELL_REFRESH
from repro.fd.qos import FDQoS
from repro.lease.client import HostLeaseChannel, LeaseClient
from repro.lease.ledger import LeaseLedger
from repro.lease.server import LeaseServer
from repro.net.message import BatchFrame, HelloMessage, LeaseRecord, LedgerSegment, MemberInfo
from tests.core.test_table import prefer_lease_record

GROUP = 1
HELLO_PERIOD = 1.0


class Tap:
    """Pass-through transport that logs HELLOs, can strip the ledger segments
    off chosen frames, and swallows what is addressed to nodes that do not
    exist (the leak test's phantom members)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.hellos = []  # (send time, message)
        self.strip = lambda message: False

    def send(self, message) -> None:
        if message.dest_node >= len(self._inner.nodes):
            return
        if isinstance(message, BatchFrame) and self.strip(message):
            message = replace(
                message, cells=tuple(replace(cell, leases=None) for cell in message.cells)
            )
        if isinstance(message, HelloMessage):
            self.hellos.append((self._inner.sim.now, message))
        self._inner.send(message)

    def send_batch(self, messages) -> None:
        for message in messages:
            self.send(message)


def build(seed, *, n_nodes=12, loss=0.0, n_lease_clients=0, fd_plane="all_pairs"):
    config = ExperimentConfig(
        name="lease-replication",
        n_nodes=n_nodes,
        duration=300.0,  # upper bound; the tests drive the clock themselves
        warmup=0.0,
        seed=seed,
        node_churn=False,
        qos=FDQoS(detection_time=1.0),
        link_delay_mean=0.010,
        link_loss_prob=loss,
        n_lease_clients=n_lease_clients,
        lease_transfer_ratio=0.25 if n_lease_clients else 0.0,
        fd_plane=fd_plane,
    )
    return build_system(config, transport_wrapper=lambda network, sim, rng: Tap(network))


def runtimes(system):
    """Alive nodes' group runtimes, by node id."""
    return {
        host.node.node_id: host.service.group_runtime(GROUP)
        for host in system.hosts
        if host.node.up and host.service is not None
    }


def agreed_leader(system):
    views = {runtime.leader for runtime in runtimes(system).values()}
    return views.pop() if len(views) == 1 else None


def run_until(system, predicate, limit):
    sim = system.sim
    deadline = sim.now + limit
    while not predicate():
        assert sim.now < deadline, "condition not reached in time"
        sim.run_until(sim.now + 0.005)


def counts(system):
    """The lease servers' replication counters, summed over alive nodes."""
    total = dict.fromkeys(("shipped", "nacks", "resent", "syncs"), 0)
    for runtime in runtimes(system).values():
        for key, value in runtime.leases.counts.items():
            total[key] += value
    return total


def lock_holders(system, leader, n, ttl=3.0):
    """``n`` auto-renewing holders on follower nodes, one lock each."""
    clients = []
    for i, host in enumerate(h for h in system.hosts if h.node.node_id != leader):
        client = LeaseClient(
            HostLeaseChannel(host, GROUP),
            host.scheduler,
            system.rng.stream(f"test.replication.client.{i}"),
            group=GROUP,
            client_id=3000 + i,
        )
        client.acquire(f"lock-{i}", ttl)
        clients.append(client)
        if len(clients) == n:
            return clients
    return clients


def mutation_times(system):
    return [event.time for event in system.trace.events if event.kind == "lease"]


class TestWireContract:
    def test_lossless_mutation_crosses_the_wire_once_per_follower(self):
        system = build(seed=5)
        sim, tap = system.sim, system.transport
        sim.run_until(12.0)  # elected; the takeover grace is running out
        leader = agreed_leader(system)
        assert leader is not None
        clients = lock_holders(system, leader, 6)
        sim.run_until(30.0)
        for i, client in enumerate(clients):
            assert client.release(f"lock-{i}")
        sim.run_until(32.0)

        mutations = len(mutation_times(system))
        assert mutations >= 6 * 5  # grants, a few renewals each, releases
        assert agreed_leader(system) == leader
        shipped = counts(system)
        # A record owed twice within one η crosses once: at most, not exactly.
        assert 0 < shipped["shipped"] <= mutations * 11
        assert shipped["nacks"] == shipped["resent"] == shipped["syncs"] == 0
        # After the join wave no HELLO carries the ledger, nor a version,
        # and nothing — view or ledger — reads as divergence.
        assert [
            m for when, m in tap.hellos
            if when >= 12.0 and (m.leases or m.lease_version is not None)
        ] == []
        assert [m for when, m in tap.hellos if m.kind == "sync" and when >= 12.0] == []
        digests = {r.lease_ledger.digest64() for r in runtimes(system).values()}
        assert len(digests) == 1

    def test_a_lossy_workload_repairs_by_nack_without_a_sync(self):
        # At the parent, every lost flush was a full-ledger sync a hello
        # period later; here a lost segment costs a NACK and a re-send.
        system = build(seed=3, loss=0.01, n_lease_clients=60)
        sim = system.sim
        sim.run_until(30.0)  # past the takeover grace: the workload cycles
        leader = agreed_leader(system)
        assert leader is not None
        sim.run_until(90.0)
        system.lease_workload.stop()
        hub = runtimes(system)[leader]
        samples = []  # (time, every follower equals the leader)
        while sim.now < 91.0:
            digest = hub.lease_ledger.digest64()
            equal = all(r.lease_ledger.digest64() == digest for r in runtimes(system).values())
            samples.append((sim.now, equal))
            sim.run_until(sim.now + 0.005)
        assert agreed_leader(system) == leader
        last = max(mutation_times(system))
        eta = system.hosts[leader].service.batcher.interval()
        settled = min(t for t, _ in samples if all(equal for u, equal in samples if u >= t))
        assert settled <= last + 2 * eta + 0.05
        # Re-pinned when changes became acknowledged (the ack's η timing
        # moved every lossy run; was 10 305 / 44 / 199 / 0), and when one
        # gossip rule served both planes (was 10 302 / 40 / 212 / 0).
        assert counts(system) == {"shipped": 10_329, "nacks": 43, "resent": 187, "syncs": 0}


class TestRepairDeadline:
    """A leader dies with followers split over its last segments: the
    backstop sync evens them out before the new leader's grace ends."""

    def test_survivors_match_the_new_leader_before_its_grace_ends(self):
        self.split_and_kill("all_pairs")

    def test_survivors_match_the_new_leader_before_its_grace_ends_on_swim(self):
        # The refresh there is 4 s: the sync must not wait for a second one.
        self.split_and_kill("swim")

    def split_and_kill(self, plane):
        system = build(seed=9, loss=0.01, n_lease_clients=60, fd_plane=plane)
        sim, tap = system.sim, system.transport
        sim.run_until(30.0)  # well past the grace: the workload is cycling
        old = agreed_leader(system)
        assert old is not None
        # The dying leader's last segments reach only the even-numbered nodes.
        tap.strip = lambda m: m.sender_node == old and m.dest_node % 2 == 1
        version = runtimes(system)[old].lease_ledger.version
        run_until(
            system,
            lambda: runtimes(system)[old].lease_ledger.version >= version + 5,
            limit=5.0,
        )
        sim.run_until(sim.now + 1.0)  # the even nodes' frames carry them
        system.network.node(old).crash()
        system.lease_workload.stop()
        tap.strip = lambda message: False
        survivors = runtimes(system)
        assert len({r.lease_ledger.digest64() for r in survivors.values()}) > 1

        run_until(
            system,
            lambda: agreed_leader(system) not in (None, old)
            and runtimes(system)[agreed_leader(system)].lease_manager.tenure_active,
            limit=10.0,
        )
        new = agreed_leader(system)
        manager = runtimes(system)[new].lease_manager
        sim.run_until(manager._tenure_start + manager.grace)
        assert agreed_leader(system) == new
        digests = {
            node: r.lease_ledger.digest64() for node, r in runtimes(system).items()
        }
        assert set(digests.values()) == {digests[new]}, digests
        assert counts(system)["syncs"] > 0  # the backstop, not a cursor, did it


class TestRejoin:
    """A rebooted follower gets the ledger once, from the leader alone."""

    def rejoin(self, drop_reply):
        system = build(seed=5)
        sim, tap = system.sim, system.transport
        sim.run_until(12.0)
        leader = agreed_leader(system)
        lock_holders(system, leader, 6)
        sim.run_until(20.0)
        victim = next(node for node in range(12) if node != leader)
        system.network.node(victim).crash()
        sim.run_until(26.0)
        if drop_reply:
            inner = tap.send

            def send(message, inner=inner):
                if not (message.dest_node == victim and isinstance(message, HelloMessage)
                        and message.kind == "reply" and message.sender_node == leader):
                    inner(message)

            tap.send = send
        rebooted_at = sim.now
        system.network.node(victim).recover()
        bound = rebooted_at + CELL_REFRESH + HELLO_PERIOD

        def equal():
            rejoined = runtimes(system).get(victim)
            return rejoined is not None and (
                rejoined.lease_ledger.digest64()
                == runtimes(system)[leader].lease_ledger.digest64()
            )

        run_until(system, equal, limit=bound - sim.now)
        sim.run_until(sim.now + 0.5)  # every member's reply has gone out
        replies = [
            m for when, m in tap.hellos
            if when >= rebooted_at and m.dest_node == victim and m.kind == "reply"
        ]
        assert agreed_leader(system) == leader
        return replies, runtimes(system)[victim].leases.counts

    def test_a_rebooted_node_gets_exactly_one_ledger_bearing_reply(self):
        replies, spent = self.rejoin(drop_reply=False)
        assert len(replies) == 11
        bearing = [m for m in replies if m.leases]
        assert len(bearing) == 1 and bearing[0].lease_version is not None
        assert spent["nacks"] == 0

    def test_a_joiner_that_hears_no_leader_repairs_from_the_segments(self):
        replies, spent = self.rejoin(drop_reply=True)
        assert replies and not [m for m in replies if m.leases]
        # The leader saw the joiner's frames numbered afresh and dropped its
        # cursor, so its segments start from version 0: nothing to NACK.
        assert spent["nacks"] == 0


class TestBoundedState:
    def test_join_leave_200_nodes_leaves_no_cursor_behind(self):
        """The plane's 200-node join/leave leak test (``tests/fd/
        test_swim.py``), for the lease tier: the leader's per-follower
        cursors and a follower's per-leader applied versions go when the
        peer leaves the view."""
        system = build(seed=5, n_nodes=4, n_lease_clients=8)
        sim = system.sim
        sim.run_until(15.0)
        leader = agreed_leader(system)
        hub = runtimes(system)[leader]
        spoke = next(r for node, r in runtimes(system).items() if node != leader)
        assert len(hub.lease_ledger) > 0
        phantoms = range(100, 300)
        joined = tuple(
            MemberInfo(pid=n, node=n, incarnation=1, candidate=False, present=True,
                       joined_at=sim.now)
            for n in phantoms
        )
        for runtime in (hub, spoke):
            runtime.view.merge(joined)
            runtime.membership.align()
        for n in phantoms:  # each a leader the spoke heard a gap from
            spoke.leases.ingest(n, LedgerSegment(5, 9, 0), in_order=True)
        sim.run_until(sim.now + 1.0)
        assert set(phantoms) <= set(hub.leases.shipped)
        assert set(phantoms) <= set(spoke.leases._applied)
        left = tuple(replace(record, present=False, incarnation=2) for record in joined)
        for runtime in (hub, spoke):
            runtime.view.merge(left)
            runtime.membership.align()
        sim.run_until(sim.now + 1.0)
        assert set(hub.leases.shipped) <= set(range(4))
        assert set(spoke.leases._applied) <= set(range(4))


# ----------------------------------------------------------------------
# Real lease servers on a scripted network
# ----------------------------------------------------------------------
def record(lease, token, seq, released=False):
    return LeaseRecord(
        lease=lease,
        holder=1000 + token,
        token=token,
        expiry=10.0 + seq,
        granted_at=5.0,
        released=released,
        seq=seq,
    )


def assert_compaction_is_lossless(ledger: LeaseLedger) -> None:
    before = [ledger.delta_since(v) for v in range(ledger.version + 1)]
    ledger._compact_log()
    assert [ledger.delta_since(v) for v in range(ledger.version + 1)] == before


class Node:
    """One daemon: what a :class:`LeaseServer` reads off its gossip engine,
    and the engine's ledger sync, over a scripted network."""

    def __init__(self, network, node_id: int) -> None:
        self.network = network
        self.group = GROUP
        self.pid = self.node_id = node_id
        self.scheduler = network.clock
        self.transport = self
        self.view = SimpleNamespace(node_of=lambda pid: pid)
        self.hello_period = HELLO_PERIOD
        self.plane = SimpleNamespace()
        self.bootstrap = ()
        self.server = LeaseServer(self, detection_time=1.0, trace=None)
        #: Frames numbered per destination, from 0 in every daemon; the
        #: newest (seq, send time) ingested per sender (``frame_anchor``).
        self.seqs = {}
        self.anchors = {}

    def hello_fields(self, kind="gossip"):
        return {
            "sender_node": self.node_id,
            "group": GROUP,
            "kind": kind,
            "lease_digest": self.server.ledger.digest64(),
        }

    def push_sync(self, dest, view=True, leases=False):
        records, version = self.server.ledger_for(dest, sync=True)
        self.send(HelloMessage(dest_node=dest, leases=records, lease_version=version,
                               **self.hello_fields("sync")))

    def send(self, message):
        self.network.post(("hello", message.sender_node, message.dest_node, message))

    def ingest(self, sender: int, seq: int, sent_at: float, segment) -> None:
        """A frame's cell, ordered by the frame anchor as
        ``GroupCells.handle_cell`` orders it."""
        anchor = self.anchors.get(sender)
        in_order = anchor is None or seq >= anchor[0]
        if not in_order:
            in_order = sent_at >= anchor[1]
            if sent_at > anchor[1]:
                self.server.forget(sender)  # the sender's daemon restarted
        if in_order:
            self.anchors[sender] = (seq, sent_at)
        self.server.ingest(sender, segment, in_order)


class Replicas:
    """One writer, N replicas, segments on its frames, NACKs and syncs back.

    ``fate`` decides how many copies of each posted item travel (0: lost);
    travelling items wait in ``in_flight`` until :meth:`deliver` picks one,
    in any order.  The writer sends every follower a frame each round, with
    no segment while its ledger is empty, as a real leader's cells go out
    whatever the ledger holds.
    """

    def __init__(self, n: int) -> None:
        self.clock = SimpleNamespace(now=0.0)
        self.nodes = [Node(self, i) for i in range(n)]
        self.alive = set(range(n))
        self.writer = 0
        self.fate = lambda item: 1
        self.in_flight = []
        self.lead()

    def lead(self) -> None:
        for node in self.alive:
            self.nodes[node].server.on_leader_view(self.writer)

    def hub(self) -> LeaseServer:
        return self.nodes[self.writer].server

    def mutate(self, rec: LeaseRecord) -> None:
        self.hub().ledger.merge_record(rec)

    def post(self, item) -> None:
        # Addressed to the daemon alive now: a reboot strands what was sent.
        item = item + (self.nodes[item[2]],)
        self.in_flight.extend([item] * self.fate(item))

    def frame(self, node: int) -> None:
        """One frame from the writer to ``node``, carrying what it is owed
        (the head segment when nothing is, none while the ledger is empty)."""
        daemon = self.nodes[self.writer]
        seq = daemon.seqs[node] = daemon.seqs.get(node, -1) + 1
        segment = None if daemon.server.head() is None else daemon.server.segment(node)
        self.post(("frame", self.writer, node, (seq, self.clock.now, segment)))

    def frames(self) -> None:
        for node in sorted(self.alive - {self.writer}):
            self.frame(node)

    def deliver(self, index: int) -> None:
        kind, sender, dest, payload, daemon = self.in_flight.pop(index)
        if dest not in self.alive or self.nodes[dest] is not daemon:
            return
        server = daemon.server
        if kind == "frame":
            daemon.ingest(sender, *payload)
        elif kind == "join":
            records, version = server.ledger_for(sender, sync=False)
            if records:
                daemon.send(HelloMessage(dest_node=sender, leases=records, lease_version=version,
                                         **daemon.hello_fields("reply")))
        elif server.on_hello(payload):
            daemon.push_sync(sender, view=False, leases=True)
        if dest != self.writer:
            self.check_no_gap_closed_without_its_records(dest)

    def drain(self) -> None:
        while self.in_flight:
            self.deliver(0)

    def change_writer(self, successor: int) -> None:
        self.alive.discard(self.writer)
        self.writer = successor
        self.lead()

    def reboot(self, node: int) -> None:
        """``node``'s daemon restarts empty and joins: each member its join
        reaches answers, and only the writer's reply carries the ledger."""
        self.nodes[node] = Node(self, node)
        self.nodes[node].server.on_leader_view(self.writer)
        for other in sorted(self.alive - {node}):
            self.post(("join", node, other, None))

    def lossless_round(self) -> None:
        """One round of the repair protocol once the losses stop, a hello
        period after the last lossy one (every NACK and sync rate limit has
        lapsed): every follower gets two frames in turn, each answered at
        once — the first shows a gap and NACKs it, the second brings the
        re-sent records and shows any divergence, which the sync repairs —
        and a second pass pushes what the writer learned from the syncs to
        the followers served before them."""
        self.clock.now += HELLO_PERIOD
        self.fate = lambda item: 1
        for _ in range(2):
            for node in sorted(self.alive - {self.writer}):
                for _ in range(2):
                    self.frame(node)
                    self.drain()

    def check_no_gap_closed_without_its_records(self, node: int) -> None:
        """Whatever version follower ``node`` counts as applied from the
        writer, it holds every record the writer logged up to it, or a
        newer one."""
        hub = self.hub().ledger
        server = self.nodes[node].server
        applied = server._applied.get(self.writer, (0,))[0]
        owed = set(hub.delta_since(applied))
        for rec in hub.delta_since(0):
            if rec not in owed:
                held = server.ledger.record(rec.lease)
                assert held is not None and prefer_lease_record(held, rec) is held


class TestLedgerProperty:
    @given(
        mutations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # lease
                st.integers(min_value=1, max_value=4),  # token
                st.integers(min_value=0, max_value=3),  # seq
                st.booleans(),  # released
            ),
            min_size=1,
            max_size=30,
        ),
        n=st.integers(min_value=2, max_value=5),
        network=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_replicas_converge_through_loss_and_a_writer_change(
        self, mutations, n, network
    ):
        """...and duplication, reordering and a follower reboot, driving
        real lease servers; a gap never closes without its records."""
        replicas = Replicas(n)
        replicas.fate = lambda item: network.draw(
            st.sampled_from((0, 1, 2)), label="copies"  # lost, sent, duplicated
        )
        change_at = network.draw(
            st.integers(min_value=0, max_value=len(mutations)), label="change_at"
        )
        reboot_at = network.draw(
            st.integers(min_value=0, max_value=len(mutations)), label="reboot_at"
        )
        for step, fields in enumerate(mutations):
            replicas.clock.now += 0.25
            if step == change_at:
                replicas.change_writer(
                    network.draw(
                        st.sampled_from(sorted(replicas.alive - {replicas.writer})),
                        label="successor",
                    )
                )
            followers = sorted(replicas.alive - {replicas.writer})
            if step == reboot_at and followers:  # none left: two nodes, one changed
                replicas.reboot(network.draw(st.sampled_from(followers), label="rebooted"))
            replicas.mutate(record(*fields))
            replicas.frames()
            # deliver some of what is in flight, in any order
            while replicas.in_flight and network.draw(st.booleans(), label="deliver"):
                replicas.deliver(
                    network.draw(
                        st.integers(min_value=0, max_value=len(replicas.in_flight) - 1),
                        label="which",
                    )
                )
        replicas.in_flight.clear()  # the rest is lost

        replicas.lossless_round()
        digests = {replicas.nodes[node].server.ledger.digest64() for node in replicas.alive}
        assert len(digests) == 1
        for node in replicas.alive:
            assert_compaction_is_lossless(replicas.nodes[node].server.ledger)

    def test_learned_records_are_never_owed_onward(self):
        ledger = LeaseLedger(GROUP)
        ledger.merge_record(record(1, token=1, seq=0))
        mark = ledger.version
        assert ledger.merge_record(record(2, token=1, seq=0), relay=False)
        assert ledger.merge_record(record(1, token=2, seq=0), relay=False)
        # Stored, digested, floor raised — but nothing to forward, and the
        # superseded own record is no longer owed either.
        assert len(ledger) == 2 and ledger.max_token == 2
        assert ledger.version == mark
        assert ledger.delta_since(0) == ()
        assert_compaction_is_lossless(ledger)
        ledger.merge_record(record(2, token=3, seq=0))
        assert [r.lease for r in ledger.delta_since(0)] == [2]


class TestCounters:
    """What the counters say, exactly, for one scripted loss."""

    def test_a_lost_segment_costs_one_nack_and_a_resend_from_the_gap(self):
        replicas = Replicas(2)
        for lease in range(3):
            replicas.mutate(record(lease, token=1, seq=0))
        replicas.frames()
        replicas.in_flight.clear()  # lost: three records
        hub, spoke = replicas.hub(), replicas.nodes[1].server
        replicas.mutate(record(3, token=1, seq=0))
        replicas.frames()
        replicas.drain()  # a gap: NACKed
        assert spoke.counts == {"shipped": 0, "nacks": 1, "resent": 0, "syncs": 0}
        # Everything since the applied version goes back in flight — the
        # gap's three records, and the one the gapped segment brought.
        assert hub.counts == {"shipped": 4, "nacks": 0, "resent": 4, "syncs": 0}
        replicas.frames()
        replicas.drain()  # the next frame re-sends delta_since(applied)
        assert hub.counts == {"shipped": 8, "nacks": 0, "resent": 4, "syncs": 0}
        assert spoke.ledger.digest64() == hub.ledger.digest64()
        replicas.frames()
        replicas.drain()  # the gap is closed: the head, and nothing else
        assert hub.counts["shipped"] == 8 and spoke.counts["nacks"] == 1

    def test_a_second_gap_inside_a_hello_period_waits_for_it(self):
        replicas = Replicas(2)
        spoke = replicas.nodes[1].server
        for step in range(3):
            replicas.mutate(record(step, token=1, seq=0))
            replicas.frames()
            replicas.in_flight.clear()
        replicas.mutate(record(7, token=1, seq=0))
        replicas.fate = lambda item: item[0] == "frame"  # NACKs are lost
        replicas.frames()
        replicas.drain()
        replicas.frames()
        replicas.drain()
        assert spoke.counts["nacks"] == 1  # once per gap per hello period
        replicas.clock.now += HELLO_PERIOD
        replicas.frames()
        replicas.drain()
        assert spoke.counts["nacks"] == 2

    def test_a_diverged_follower_syncs_and_is_answered(self):
        replicas = Replicas(2)
        hub, spoke = replicas.hub(), replicas.nodes[1].server
        replicas.mutate(record(0, token=1, seq=0))
        spoke.ledger.merge_record(record(5, token=9, seq=0), relay=False)  # another leader's
        replicas.frames()
        replicas.drain()
        assert spoke.counts["syncs"] == 1 and hub.counts["syncs"] == 0  # hub ⊇ spoke now
        assert hub.ledger.digest64() == spoke.ledger.digest64()
        replicas.frames()
        replicas.drain()  # the learned record rides to the spoke: it has it
        assert spoke.counts["syncs"] == 1

    def test_a_diverged_segment_syncs_once_its_sender_is_followed(self):
        # A new leader's first cells can reach a follower that still follows
        # the old one.  Those cells, once echoed, go again only at the
        # refresh, so the follower syncs the moment it follows the new leader.
        replicas = Replicas(3)
        spoke = replicas.nodes[2].server
        spoke.ledger.merge_record(record(5, token=9, seq=0), relay=False)
        replicas.writer = 1  # node 1 leads; node 2 still follows node 0
        replicas.nodes[1].server.on_leader_view(1)
        replicas.mutate(record(0, token=1, seq=0))
        replicas.frame(2)
        replicas.drain()
        assert spoke.counts["syncs"] == 0
        spoke.on_leader_view(1)
        assert spoke.counts["syncs"] == 1
        spoke.on_leader_view(0)
        spoke.on_leader_view(1)
        assert spoke.counts["syncs"] == 1  # once


class TestRestarts:
    """A daemon restarts numbering its ledger from 0: what a follower
    applied from the old one must not hide the new one's gaps, and a leader
    that restarted empty gets the followers' ledger before it grants."""

    def old_writer_then_reboot(self, fate):
        replicas = Replicas(3)
        for lease in range(4):  # four mutations, four frames each way
            replicas.clock.now += 0.25
            replicas.mutate(record(lease, token=1, seq=0))
            replicas.frames()
            replicas.drain()
        replicas.clock.now += 0.25
        replicas.fate = fate
        replicas.reboot(replicas.writer)  # restarts empty, and still leads
        replicas.drain()
        return replicas

    def test_a_follower_that_missed_the_writers_join_still_sees_its_gaps(self):
        replicas = self.old_writer_then_reboot(lambda item: item[:3] != ("join", 0, 2))
        late = replicas.nodes[2].server
        assert late._applied[0][0] == 4  # the old daemon's version 4 …
        replicas.mutate(record(10, token=1, seq=0))
        replicas.fate = lambda item: 0  # … and the new one's version 1 is lost
        replicas.frames()
        replicas.clock.now += 0.25
        replicas.fate = lambda item: 1
        replicas.mutate(record(11, token=1, seq=0))
        replicas.frames()
        replicas.drain()  # version 2 over 1 < 4: a restart, so a gap
        assert late.counts["nacks"] == 1
        replicas.frames()
        replicas.drain()  # the re-send from 0
        assert late.ledger.record(10) is not None
        assert late.ledger.digest64() == replicas.hub().ledger.digest64()

    def test_a_leader_that_restarted_empty_is_synced_before_it_grants(self):
        replicas = self.old_writer_then_reboot(lambda item: 1)
        hub = replicas.hub()
        assert len(hub.ledger) == 0 and hub.head() is None
        held = replicas.nodes[1].server.ledger.digest64()
        replicas.frames()  # segment-less: each follower pushes its ledger
        replicas.drain()
        assert hub.ledger.digest64() == held and len(hub.ledger) == 4
        assert [replicas.nodes[n].server.counts["syncs"] for n in (1, 2)] == [1, 1]
