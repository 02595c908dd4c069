"""Realtime engine: asyncio scheduler semantics and UDP transport delivery.

These tests run a real event loop and real localhost sockets, so they use
small-but-safe real delays; the whole module stays well under a few
seconds.
"""

import asyncio
import errno
import socket
import time

import pytest

from repro.net.message import AccuseMessage, AliveCell, BatchFrame, MemberInfo
from repro.runtime import realtime
from repro.runtime.codec import encode_message
from repro.runtime.realtime import RealtimeScheduler, UdpTransport


def run(coro):
    return asyncio.run(coro)


class TestRealtimeScheduler:
    def test_now_is_epoch_time(self):
        async def main():
            scheduler = RealtimeScheduler(asyncio.get_running_loop())
            assert abs(scheduler.now - time.time()) < 0.5

        run(main())

    def test_schedule_fires_callbacks_in_order(self):
        async def main():
            scheduler = RealtimeScheduler(asyncio.get_running_loop())
            fired = []
            scheduler.schedule(0.03, lambda: fired.append("b"))
            scheduler.schedule(0.01, lambda: fired.append("a"))
            scheduler.schedule_at(scheduler.now + 0.05, lambda: fired.append("c"))
            await asyncio.sleep(0.12)
            assert fired == ["a", "b", "c"]
            assert scheduler.events_executed == 3

        run(main())

    def test_cancel_prevents_firing(self):
        async def main():
            scheduler = RealtimeScheduler(asyncio.get_running_loop())
            fired = []
            handle = scheduler.schedule(0.02, lambda: fired.append(1))
            scheduler.cancel(handle)
            scheduler.cancel(handle)  # idempotent
            scheduler.cancel(None)  # and None-safe
            assert handle.cancelled
            await asyncio.sleep(0.05)
            assert fired == []

        run(main())

    def test_negative_delay_is_rejected(self):
        async def main():
            scheduler = RealtimeScheduler(asyncio.get_running_loop())
            with pytest.raises(ValueError):
                scheduler.schedule(-0.1, lambda: None)

        run(main())

    def test_schedule_at_in_the_past_fires_immediately(self):
        async def main():
            scheduler = RealtimeScheduler(asyncio.get_running_loop())
            fired = []
            scheduler.schedule_at(scheduler.now - 5.0, lambda: fired.append(1))
            await asyncio.sleep(0.03)
            assert fired == [1]

        run(main())


def _free_ports(n):
    ports = []
    socks = []
    for _ in range(n):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in socks:
        sock.close()
    return ports


async def _open_pair(hosts=("127.0.0.1", "127.0.0.1")):
    """Two transports on free localhost ports, delivering into lists."""
    ports = _free_ports(2)
    addresses = {0: (hosts[0], ports[0]), 1: (hosts[1], ports[1])}
    inboxes = ([], [])
    t0 = await UdpTransport(0, addresses, inboxes[0].append).open()
    t1 = await UdpTransport(1, addresses, inboxes[1].append).open()
    return t0, t1, inboxes


async def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.005)
    return predicate()


class TestUdpTransport:
    def test_round_trip_between_two_nodes(self):
        async def main():
            t0, t1, inboxes = await _open_pair()
            try:
                message = BatchFrame(
                    sender_node=0, dest_node=1, seq=3,
                    send_time=123.5, interval=0.25,
                    cells=(AliveCell(
                        group=1, pid=0,
                        delta=(MemberInfo(0, 0, 1, True, True, 1.0),),
                        view_version=1, view_digest=42,
                    ),),
                )
                t0.send(message)
                assert await _wait_for(lambda: len(inboxes[1]) == 1)
                assert inboxes[1][0] == message
                # And the other direction.
                reply = AccuseMessage(sender_node=1, dest_node=0, group=1,
                                      accuser=1, accused=0, accused_phase=2)
                t1.send(reply)
                assert await _wait_for(lambda: len(inboxes[0]) == 1)
                assert inboxes[0][0] == reply
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_garbage_datagrams_are_dropped_not_delivered(self):
        async def main():
            t0, t1, inboxes = await _open_pair()
            try:
                loop = asyncio.get_running_loop()
                garbage_sender, _ = await loop.create_datagram_endpoint(
                    asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
                )
                garbage_sender.sendto(
                    b"\xde\xad\xbe\xef not a frame", t1._addresses[1]
                )
                t0.send(AccuseMessage(sender_node=0, dest_node=1, group=1,
                                      accuser=0, accused=1, accused_phase=0))
                assert await _wait_for(lambda: len(inboxes[1]) == 1)
                assert await _wait_for(lambda: t1.stats.frames_rejected == 1)
                assert len(inboxes[1]) == 1  # the garbage never surfaced
                garbage_sender.close()
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_unroutable_destination_is_counted_and_dropped(self):
        async def main():
            t0, t1, _ = await _open_pair()
            try:
                t0.send(AccuseMessage(sender_node=0, dest_node=77, group=1,
                                      accuser=0, accused=1, accused_phase=0))
                assert t0.stats.unroutable == 1
                assert t0.stats.frames_sent == 0
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_send_after_close_is_a_noop(self):
        async def main():
            t0, t1, _ = await _open_pair()
            t1.close()
            t0.close()
            t0.send(AccuseMessage(sender_node=0, dest_node=1, group=1,
                                  accuser=0, accused=1, accused_phase=0))
            assert t0.stats.frames_sent == 0

        run(main())

    def test_requires_local_node_in_address_book(self):
        with pytest.raises(ValueError):
            UdpTransport(5, {0: ("127.0.0.1", 1)}, lambda m: None)

    def test_learned_addresses_are_capped_and_the_book_always_wins(self):
        """``sender_node`` is whatever a datagram claims: 10 000 spoofed
        off-book ids must not grow the table past its cap, must not evict
        a client that keeps talking, and can never shadow a book entry."""
        book = {0: ("127.0.0.1", 9000), 1: ("127.0.0.1", 9001)}
        transport = UdpTransport(0, book, lambda message: None)
        cap = realtime._LEARNED_MAX
        client = 5_000
        client_addr = None
        for i in range(10_000):
            if i % (cap // 2) == 0:  # the real client, from a moving port
                client_addr = ("127.0.0.1", 20_000 + i)
                transport._ingest(encode_message(_accuse(client, 0)), client_addr)
            spoofed = encode_message(_accuse(100_000 + i, 0))
            transport._ingest(spoofed, ("10.6.6.6", 1 + i % 60_000))
        transport._ingest(encode_message(_accuse(1, 0)), ("10.6.6.6", 666))
        assert len(transport._learned) == cap
        assert transport._route(client) == client_addr
        assert transport._route(1) == book[1]
        assert transport._route(100_000) is None  # oldest spoof: evicted


def _accuse(src, dst, phase=0):
    return AccuseMessage(sender_node=src, dest_node=dst, group=1,
                         accuser=src, accused=dst, accused_phase=phase)


class _RefusingSocket:
    """Stands in for a transport's socket: ``sendto`` raises ``error`` on
    every ``every``-th call (counting from the first), else really sends."""

    def __init__(self, real, error, every=1):
        self._real = real
        self._error = error
        self._every = every
        self._calls = 0

    def sendto(self, data, address):
        self._calls += 1
        if (self._calls - 1) % self._every == 0:
            raise self._error
        return self._real.sendto(data, address)


class TestBatchedUdpTransport:
    """``send_batch`` is a ``send`` loop: same frames, same delivery, and
    counted drops where the kernel refuses.  Everything here also
    exercises the zero-copy encode scratch — consecutive sends reuse one
    buffer, so any aliasing bug corrupts the second frame."""

    def test_batched_round_trip_both_directions(self):
        async def main():
            t0, t1, inboxes = await _open_pair()
            try:
                message = BatchFrame(
                    sender_node=0, dest_node=1, seq=3,
                    send_time=123.5, interval=0.25,
                    cells=(AliveCell(
                        group=1, pid=0,
                        delta=(MemberInfo(0, 0, 1, True, True, 1.0),),
                        view_version=1, view_digest=42,
                    ),),
                )
                t0.send(message)
                assert await _wait_for(lambda: len(inboxes[1]) == 1)
                assert inboxes[1][0] == message
                t1.send(_accuse(1, 0, phase=2))
                assert await _wait_for(lambda: len(inboxes[0]) == 1)
                assert inboxes[0][0] == _accuse(1, 0, phase=2)
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_scratch_reuse_does_not_corrupt_consecutive_sends(self):
        async def main():
            t0, t1, inboxes = await _open_pair()
            try:
                # Big frame then small frame through the same scratch: the
                # second must not carry the first's stale tail bytes.
                big = BatchFrame(
                    sender_node=0, dest_node=1, seq=1,
                    cells=tuple(
                        AliveCell(group=g, pid=g) for g in range(20)
                    ),
                )
                small = _accuse(0, 1, phase=7)
                t0.send(big)
                t0.send(small)
                assert await _wait_for(lambda: len(inboxes[1]) == 2)
                assert inboxes[1] == [big, small]
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_send_batch_counts_unroutable_and_keeps_going(self):
        async def main():
            t0, t1, inboxes = await _open_pair()
            try:
                t0.send_batch([
                    BatchFrame(sender_node=0, dest_node=1, seq=0),
                    BatchFrame(sender_node=0, dest_node=99, seq=1),
                    BatchFrame(sender_node=0, dest_node=1, seq=2),
                ])
                assert t0.stats.unroutable == 1
                assert await _wait_for(lambda: len(inboxes[1]) == 2)
                assert [m.seq for m in inboxes[1]] == [0, 2]
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_hostname_destination_takes_the_send_loop(self):
        """A book entry may be a hostname, not a dotted quad: ``sendto``
        resolves it and the datagrams arrive like any others."""

        async def main():
            t0, t1, inboxes = await _open_pair(hosts=("127.0.0.1", "localhost"))
            try:
                t0.send_batch([
                    BatchFrame(sender_node=0, dest_node=1, seq=i)
                    for i in range(4)
                ])
                assert t0.stats.frames_sent == 4
                assert await _wait_for(lambda: len(inboxes[1]) == 4)
                assert [m.seq for m in inboxes[1]] == [0, 1, 2, 3]
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_batched_garbage_datagrams_are_dropped(self):
        async def main():
            t0, t1, inboxes = await _open_pair()
            try:
                junk = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                junk.sendto(b"\xde\xad\xbe\xef junk", t1._addresses[1])
                junk.close()
                t0.send(_accuse(0, 1))
                assert await _wait_for(lambda: len(inboxes[1]) == 1)
                assert await _wait_for(lambda: t1.stats.frames_rejected == 1)
                assert len(inboxes[1]) == 1
            finally:
                t0.close()
                t1.close()

        run(main())

    def test_batched_send_after_close_is_a_noop(self):
        async def main():
            t0, t1, _ = await _open_pair()
            t1.close()
            t0.close()
            assert not t0.open_for_traffic
            t0.send(_accuse(0, 1))
            t0.send_batch([_accuse(0, 1)])
            assert t0.stats.frames_sent == 0

        run(main())

    def test_refused_single_send_is_a_counted_drop(self):
        async def main():
            t0, t1, _ = await _open_pair()
            real = t0._sock
            try:
                t0._sock = _RefusingSocket(real, BlockingIOError())
                t0.send(_accuse(0, 1))
                assert t0.stats.send_dropped == 1
                assert t0.stats.frames_sent == t0.stats.bytes_sent == 0
            finally:
                t0._sock = real
                t0.close()
                t1.close()

        run(main())

    def test_send_batch_drops_a_refused_datagram_only(self):
        async def main():
            t0, t1, inboxes = await _open_pair()
            real = t0._sock
            try:
                # The kernel refuses every other datagram of the fan-out.
                t0._sock = _RefusingSocket(real, OSError(errno.ENOBUFS, "no"), every=2)
                burst = [_accuse(0, 1, phase=i) for i in range(6)]
                t0.send_batch(burst)
                assert t0.stats.send_dropped == 3
                assert t0.stats.frames_sent == 3
                assert t0.stats.bytes_sent == 3 * len(encode_message(burst[0]))
                assert t0.stats.batch_syscalls == 0
                assert await _wait_for(lambda: len(inboxes[1]) == 3)
                assert [m.accused_phase for m in inboxes[1]] == [1, 3, 5]
            finally:
                t0._sock = real
                t0.close()
                t1.close()

        run(main())
