"""The ledger replication contract: leader-anchored, repaired on divergence.

Only the tenure-active leader owes lease records onward, so on a lossless
network a mutation crosses the wire exactly once per follower; followers
forward nothing, and anti-entropy (a full-ledger ``sync``) fires only when
a follower's digest has disagreed with its leader's for a full hello
period — never because a flush is still in flight.  The Hypothesis
property checks the ledger half of that (``relay=`` bookkeeping survives
loss, duplication, reordering, a writer change and log compaction); the
system tests check the wire and the repair deadline.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.qos import FDQoS
from repro.lease.client import HostLeaseChannel, LeaseClient
from repro.lease.ledger import LeaseLedger
from repro.net.message import HelloMessage, LeaseRecord

GROUP = 1


class Tap:
    """Pass-through transport that logs HELLOs and can drop messages."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.hellos = []  # (send time, message)
        self.drop = lambda message: False

    def send(self, message) -> None:
        if self.drop(message):
            return
        if isinstance(message, HelloMessage):
            self.hellos.append((self._inner.sim.now, message))
        self._inner.send(message)

    def send_batch(self, messages) -> None:
        for message in messages:
            self.send(message)


def build(seed, *, n_nodes=12, loss=0.0, n_lease_clients=0):
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


class TestWireContract:
    def test_lossless_mutation_crosses_the_wire_once_per_follower(self):
        system = build(seed=5)
        sim, tap = system.sim, system.transport
        sim.run_until(12.0)  # elected; the takeover grace is running out
        leader = agreed_leader(system)
        assert leader is not None
        # Holders on follower nodes, one lock each: auto-renewal keeps the
        # leader mutating, and no lease mutates twice inside one flush.
        clients = []
        for i, host in enumerate(h for h in system.hosts if h.node.node_id != leader):
            client = LeaseClient(
                HostLeaseChannel(host, GROUP),
                host.scheduler,
                system.rng.stream(f"test.replication.client.{i}"),
                group=GROUP,
                client_id=3000 + i,
            )
            client.acquire(f"lock-{i}", 3.0)
            clients.append(client)
            if len(clients) == 6:
                break
        sim.run_until(30.0)
        for i, client in enumerate(clients):
            assert client.release(f"lock-{i}")
        sim.run_until(32.0)

        mutations = sum(1 for e in system.trace.events if e.kind == "lease")
        assert mutations >= 6 * 5  # grants, a few renewals each, releases
        assert agreed_leader(system) == leader
        shipped = sum(len(message.leases) for _, message in tap.hellos)
        assert shipped == mutations * 11
        # Followers trail the leader by the flush in flight the whole time;
        # none of that lag may read as divergence.
        syncs = [
            message for when, message in tap.hellos
            if message.kind == "sync" and (when >= 12.0 or message.leases)
        ]
        assert syncs == []
        digests = {r.lease_ledger.digest64() for r in runtimes(system).values()}
        assert len(digests) == 1


class TestRepairDeadline:
    def test_survivors_match_the_new_leader_before_its_grace_ends(self):
        system = build(seed=9, loss=0.01, n_lease_clients=60)
        sim, tap = system.sim, system.transport
        sim.run_until(30.0)  # well past the grace: the workload is cycling
        old = agreed_leader(system)
        assert old is not None
        # Mid-flush: the dying leader's last flushes reach only the
        # even-numbered nodes.
        tap.drop = lambda m: (
            isinstance(m, HelloMessage)
            and m.sender_node == old
            and m.dest_node % 2 == 1
        )
        version = runtimes(system)[old].lease_ledger.version
        run_until(
            system,
            lambda: runtimes(system)[old].lease_ledger.version >= version + 5
            and not runtimes(system)[old].leases._flush_pending,
            limit=5.0,
        )
        system.network.node(old).crash()
        system.lease_workload.stop()
        tap.drop = lambda message: False
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


# ----------------------------------------------------------------------
# Ledger-level property
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


class Replicas:
    """One writer, N replicas, the service's hello rules — no network."""

    def __init__(self, n: int) -> None:
        self.ledgers = [LeaseLedger(GROUP) for _ in range(n)]
        self.writer = 0
        self.alive = set(range(n))
        #: writer-side shipped-version cursor per replica.
        self.sent = dict.fromkeys(range(n), 0)

    def mutate(self, rec: LeaseRecord) -> None:
        self.ledgers[self.writer].merge_record(rec)

    def flush(self):
        """The writer's delta per follower (cursor advances, sent or lost)."""
        writer = self.ledgers[self.writer]
        packets = []
        for node in self.alive - {self.writer}:
            delta = writer.delta_since(self.sent[node])
            self.sent[node] = writer.version
            if delta:
                packets.append((node, delta))
        return packets

    def deliver(self, node: int, records) -> None:
        if node in self.alive:
            self.ledgers[node].merge(records, relay=node == self.writer)

    def change_writer(self, successor: int) -> None:
        self.alive.discard(self.writer)
        self.writer = successor
        self.sent = dict.fromkeys(self.sent, 0)

    def hello_period(self) -> None:
        """One probe + debounce + sync exchange per diverged follower."""
        hub = self.ledgers[self.writer]
        for node in self.alive - {self.writer}:
            spoke = self.ledgers[node]
            if spoke.digest64() != hub.digest64():
                hub.merge(spoke.full(), relay=True)  # the follower's sync
                spoke.merge(hub.full(), relay=False)  # answered at once
        for node, delta in self.flush():  # what the hub learned goes out
            self.deliver(node, delta)


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
        replicas = Replicas(n)
        change_at = network.draw(
            st.integers(min_value=0, max_value=len(mutations)), label="change_at"
        )
        in_flight = []  # (destination, records)
        for step, fields in enumerate(mutations):
            if step == change_at:
                successor = network.draw(
                    st.sampled_from(sorted(replicas.alive - {replicas.writer})),
                    label="successor",
                )
                replicas.change_writer(successor)
                if len(replicas.alive) == 1:
                    break
            replicas.mutate(record(*fields))
            for packet in replicas.flush():
                fate = network.draw(
                    st.sampled_from(("send", "lose", "duplicate")), label="fate"
                )
                in_flight.extend([packet] * {"send": 1, "lose": 0, "duplicate": 2}[fate])
            # deliver some of what is in flight, in any order
            while in_flight and network.draw(st.booleans(), label="deliver"):
                index = network.draw(
                    st.integers(min_value=0, max_value=len(in_flight) - 1),
                    label="which",
                )
                replicas.deliver(*in_flight.pop(index))
        for packet in in_flight:
            replicas.deliver(*packet)

        # Two hello periods: the first pulls every survivor's extras into
        # the hub, the second pushes the union back out.
        replicas.hello_period()
        replicas.hello_period()
        digests = {replicas.ledgers[node].digest64() for node in replicas.alive}
        assert len(digests) == 1
        for node in replicas.alive:
            assert_compaction_is_lossless(replicas.ledgers[node])

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
