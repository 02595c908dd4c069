"""What the membership gossip spends on news everyone already has, on
either FD plane.

Counts only, through ``Membership.hellos_sent`` (round HELLOs with nothing
owed / with a delta, and digest-repair syncs): a quiet group whose cells
cover every peer sends no round HELLO at all, a rejoin (the node introduces
itself) costs no delta or sync and every view agrees again within a hello
period, other news is pushed ⌈log₂ n⌉ times a node, a peer that shows our
own view digest is owed no delta, and a differing digest is synced only
once it lasts a hello period.
"""

import functools
from collections import Counter

import pytest

from repro.experiments.runner import build_system
from repro.experiments.scenario import ExperimentConfig
from repro.fd.plane import CELL_REFRESH
from repro.net.message import AliveCell, BatchFrame, HelloMessage

GROUP = 1
BOOTSTRAP = 10.0
HELLO_PERIOD = 1.0


def group_of(n, plane):
    config = ExperimentConfig(
        name=f"gossip-{plane}-{n}", n_nodes=n, seed=3, node_churn=False,
        duration=60.0, warmup=BOOTSTRAP, fd_plane=plane,
    )
    system = build_system(config)
    system.sim.run_until(BOOTSTRAP)
    return system


def runtimes(system):
    """The group's runtimes on the hosts running it."""
    found = [host.service.group_runtime(GROUP) for host in system.hosts if host.service]
    return [runtime for runtime in found if runtime is not None]


def hellos(system):
    total = Counter()
    for runtime in runtimes(system):
        total.update(runtime.membership.hellos_sent)
    return total


def views(system):
    return {runtime.view.digest64() for runtime in runtimes(system)}


@functools.lru_cache(maxsize=None)
def rejoin(n, plane, node=5):
    """(HELLOs the survivors and the rebooted daemon spend on one rejoin,
    seconds from the reboot until every member's view has one digest) in a
    group of ``n`` (the crash itself moves no view; the victim's counters
    die with its daemon)."""
    system = group_of(n, plane)
    victim = system.network.node(node)
    victim.crash()
    system.sim.run_until(system.sim.now + 6.0)
    before = hellos(system)
    victim.recover()
    rebooted = system.sim.now
    while len(runtimes(system)) < len(system.hosts) or len(views(system)) > 1:
        assert system.sim.now < rebooted + 10.0
        system.sim.run_until(system.sim.now + 0.01)
    converged = system.sim.now - rebooted
    system.sim.run_until(rebooted + 10.0)
    assert len(views(system)) == 1 and len(runtimes(system)) == len(system.hosts)
    return hellos(system) - before, converged


def test_a_quiet_swim_group_sends_no_round_hello():
    system = group_of(32, "swim")
    now = system.sim.now
    for runtime in runtimes(system):
        assert len(runtime.membership.peer_nodes()) == 31
        horizon = runtime.membership._cover_horizon
        assert horizon == CELL_REFRESH + HELLO_PERIOD
        stamps = [state[1] for state in runtime.cells.cell_state.values()]
        assert len(stamps) == 31 and all(now - stamp < horizon for stamp in stamps)
    before = hellos(system)
    system.sim.run_until(now + 10 * HELLO_PERIOD)
    # The parent: 16 empty-delta HELLOs per node per period, three periods
    # in four (cells refresh every 4 s, coverage lapsed after 1 s) ≈ 4 000.
    assert hellos(system) - before == Counter()


@pytest.mark.parametrize(
    "plane, n", [("swim", 32), ("swim", 128), ("all_pairs", 12), ("all_pairs", 100)],
    ids=str,
)
def test_a_rejoin_costs_the_group_hellos_linear_in_n(plane, n):
    spent, _ = rejoin(n, plane)
    # The rebooted node introduces itself to every peer (its join HELLO,
    # its first-contact cells), so its record is nobody's news to gossip,
    # and the digests that differ while the introductions are in flight
    # agree again within a hello period.  What is left is the join and its
    # replies, which are not counted.  Gossiping the record on, every swim
    # node spent 261 and 3 596 deltas and syncs here; flooding it on
    # all-pairs, 28 and 2 064.
    assert spent["delta"] == spent["sync"] == 0
    assert spent["empty"] <= n  # nor does coverage lapse meanwhile


@pytest.mark.parametrize("n", [12, 100])
def test_an_all_pairs_rejoin_converges_within_a_hello_period(n):
    # The paper's cell and a wide one: a join that reaches only its id-ring
    # successors (every peer at n = 12) still brings every member's view to
    # one digest within a hello period, by its first-contact cells.
    _, converged = rejoin(n, "all_pairs")
    assert converged <= HELLO_PERIOD


def hello_from(sender, receiver, digest):
    return HelloMessage(
        sender_node=sender.membership.node_id,
        dest_node=receiver.membership.node_id,
        group=GROUP,
        view_version=sender.view.version,
        view_digest=digest,
        lease_digest=receiver.leases.ledger.digest64(),
    )


def cell_from(sender, digest):
    cell = AliveCell(
        group=GROUP, pid=sender.pid, view_version=sender.view.version, view_digest=digest
    )
    sender.algorithm.fill_alive(cell)
    frame = BatchFrame(
        sender_node=sender.membership.node_id, dest_node=0, send_time=sender.scheduler.now
    )
    return frame, cell


def deliver(kind, sender, receiver, digest):
    if kind == "hello":
        receiver.membership.handle_hello(hello_from(sender, receiver, digest))
    else:
        receiver.cells.handle_cell(sender.membership.node_id, *cell_from(sender, digest))


@pytest.fixture(scope="module", params=["swim", "all_pairs"])
def pair(request):
    """(receiver, sender) of a converged four-node group."""
    receiver, sender = runtimes(group_of(4, request.param))[:2]
    assert receiver.view.digest64() == sender.view.digest64()
    return receiver, sender


@pytest.mark.parametrize("kind", ["hello", "cell"])
def test_an_agreeing_digest_stamps_the_bounded_cursor_only(pair, kind):
    receiver, sender = pair
    membership, peer = receiver.membership, sender.membership.node_id
    version = receiver.view.version
    membership.sent_version[peer] = version - 1  # as after merging the peer's news
    deliver(kind, sender, receiver, receiver.view.digest64())
    assert membership.sent_version[peer] == version


@pytest.mark.parametrize("kind", ["hello", "cell"])
def test_a_differing_digest_never_stamps_and_asks_for_a_sync(pair, kind):
    receiver, sender = pair
    membership, peer = receiver.membership, sender.membership.node_id
    version = receiver.view.version
    membership.sent_version[peer] = version - 1
    membership._next_sync.pop(peer, None)
    syncs = membership.hellos_sent["sync"]
    # A digest differs while news is in flight: a mismatch only records the
    # time, a match clears it, and a mismatch a hello period after the first
    # with no match between is divergence.
    clock, agreeing = receiver.scheduler, receiver.view.digest64()
    deliver(kind, sender, receiver, agreeing)  # clears what an earlier case left
    deliver(kind, sender, receiver, agreeing ^ 1)
    clock.run_until(clock.now + HELLO_PERIOD)
    deliver(kind, sender, receiver, agreeing)
    deliver(kind, sender, receiver, agreeing ^ 1)
    assert membership.hellos_sent["sync"] == syncs
    clock.run_until(clock.now + HELLO_PERIOD)
    membership.sent_version[peer] = version - 1
    deliver(kind, sender, receiver, receiver.view.digest64() ^ 1)
    assert membership.hellos_sent["sync"] == syncs + 1
    # (a sync streams a window off its own rotation and leaves the delta
    # cursor alone)
    assert membership.sent_version[peer] == version - 1


def carriers(system, check):
    """Route every message through ``check(message)`` (False: drop it)."""
    send = system.network.send

    def routed(message):
        if check(message):
            send(message)

    system.network.send = routed  # send_batch then sends through it too


def test_a_lost_introduction_goes_again_on_the_next_carrier_back():
    # Node 25 is no join target of node 5 (its 16 id-ring successors), so
    # only node 5's first-contact cell brings it the rebooted record.
    system = group_of(32, "swim")
    victim, peer = system.network.node(5), 25
    introductions = []

    def drop_the_first_introduction(message):
        if (message.sender_node, message.dest_node) != (5, peer) or not (
            isinstance(message, BatchFrame) and any(cell.delta for cell in message.cells)
        ):
            return True
        introductions.append(system.sim.now)
        return len(introductions) > 1

    victim.crash()
    system.sim.run_until(system.sim.now + 6.0)
    carriers(system, drop_the_first_introduction)
    before = hellos(system)
    victim.recover()
    system.sim.run_until(system.sim.now + 10.0)
    # Unechoed, the introduction goes again on the round after the peer's
    # next probe or frame back: no sync, no gossiped delta repairs it.
    assert len(introductions) == 2 and introductions[1] - introductions[0] < HELLO_PERIOD
    assert len({runtime.view.digest64() for runtime in runtimes(system)}) == 1
    assert (hellos(system) - before)["sync"] == 0


def test_a_divergence_outlasting_a_hello_period_is_synced():
    # A leave on one side of a partition: after the heal only a sync repairs
    # the other side (every cursor moved on while the links were down).
    system = group_of(8, "swim")
    side, other = range(4), range(4, 8)
    links = [system.network.link(a, b) for a in side for b in other]
    links += [system.network.link(b, a) for a in side for b in other]
    for link in links:
        link.set_down(True)
    leaver = system.hosts[1].service
    pid = leaver.group_runtime(GROUP).pid
    leaver.leave(pid, GROUP)
    system.sim.run_until(system.sim.now + 3.0)
    assert {runtime.view.is_present(pid) for runtime in runtimes(system)} == {True, False}
    crossing = []

    def note_crossing_carriers(message):
        crosses = (message.sender_node in side) != (message.dest_node in side)
        if crosses and isinstance(message, (HelloMessage, BatchFrame)):
            crossing.append(system.sim.now)
        return True

    carriers(system, note_crossing_carriers)
    before = hellos(system)
    for link in links:
        link.set_down(False)
    healed = system.sim.now
    while not crossing and system.sim.now < healed + CELL_REFRESH:
        system.sim.run_until(system.sim.now + 0.01)
    assert crossing
    system.sim.run_until(crossing[0] + 2 * HELLO_PERIOD)
    assert len({runtime.view.digest64() for runtime in runtimes(system)}) == 1
    assert not any(runtime.view.is_present(pid) for runtime in runtimes(system))
    assert (hellos(system) - before)["sync"] > 0


def test_news_its_owner_did_not_deliver_is_pushed_log_n_times_a_node():
    # A leave's tombstone: the leaver's last round and then every node that
    # learns it push it to its ⌈log₂ n⌉ id-ring fingers, which reaches every
    # node within two hello periods.  Pushing it to every peer that
    # trailed, the group spent 1 192 deltas.
    n = 50
    system = group_of(n, "swim")
    leaver = system.hosts[7].service
    leaving = leaver.group_runtime(GROUP)
    before = hellos(system)
    leaver.leave(leaving.pid, GROUP)
    system.sim.run_until(system.sim.now + 2 * HELLO_PERIOD)
    assert len({runtime.view.digest64() for runtime in runtimes(system)}) == 1
    assert not any(runtime.view.is_present(leaving.pid) for runtime in runtimes(system))
    system.sim.run_until(system.sim.now + 8 * HELLO_PERIOD)
    spent = hellos(system) + Counter(leaving.membership.hellos_sent) - before
    assert 0 < spent["delta"] <= n * n.bit_length()
