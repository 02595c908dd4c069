"""The realtime engine: wall-clock scheduling and UDP datagrams on asyncio.

This is the second implementation of the :mod:`repro.runtime.base`
protocols (the first being the discrete-event simulator), and the piece
that turns the reproduction back into what the paper actually describes —
a per-workstation *service* exchanging UDP messages:

* :class:`RealtimeScheduler` — Clock + Scheduler on an asyncio event loop.
  ``now`` is Unix epoch time (``time.time()``), not ``loop.time()``: NFD-S
  computes freshness points from the *sender's* timestamps, so the clock
  values carried on ALIVEs must be comparable across processes.  On one
  host (the ``repro.cli live`` cluster) the epoch clock is shared exactly;
  across hosts this is the paper's NTP assumption.
* :class:`UdpTransport` — the Transport implementation: an address book
  mapping node ids to UDP endpoints, the binary codec of
  :mod:`repro.runtime.codec` on the wire, and hard drop-don't-crash
  semantics for undecodable datagrams (an open UDP port receives whatever
  the network feels like sending).

Everything here runs on the event loop's thread, mirroring the simulator's
single-threaded execution model: service code needs no locks in either
world.
"""

from __future__ import annotations

import asyncio
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.net.message import Message
from repro.runtime.codec import CodecError, decode_message, encode_message_into

__all__ = ["RealtimeHandle", "RealtimeScheduler", "TransportStats", "UdpTransport"]


class RealtimeHandle:
    """A cancellable one-shot timer (:class:`~repro.runtime.base.TimerHandle`)
    wrapping an :class:`asyncio.TimerHandle`."""

    __slots__ = ("time", "cancelled", "_timer")

    def __init__(self, fire_time: float) -> None:
        self.time = fire_time
        self.cancelled = False
        self._timer: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        """Mark cancelled and release the underlying loop timer."""
        if not self.cancelled:
            self.cancelled = True
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"RealtimeHandle(t={self.time:.6f}, {state})"


class RealtimeScheduler:
    """Clock + Scheduler over an asyncio loop and the epoch wall clock."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        # get_running_loop, not the deprecated get_event_loop: constructing
        # a realtime scheduler outside a running loop is a wiring bug and
        # should fail loudly.
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        #: Callbacks executed (for parity with Simulator.events_executed).
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Unix epoch seconds (see module docstring for why not loop.time)."""
        return time.time()

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> RealtimeHandle:
        """Run ``fn(*args)`` after ``delay`` seconds on the loop thread."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._arm(self.now + delay, delay, fn, args)

    def schedule_at(self, when: float, fn: Callable[..., None], *args) -> RealtimeHandle:
        """Run ``fn(*args)`` at epoch time ``when``.

        Unlike the simulator, a ``when`` slightly in the past is *not* an
        error here — wall time advances while code runs, so realtime callers
        cannot avoid small negative slacks; the callback just fires on the
        next loop iteration.
        """
        return self._arm(when, max(0.0, when - self.now), fn, args)

    def _arm(
        self, fire_time: float, delay: float, fn: Callable[..., None], args: tuple = ()
    ) -> RealtimeHandle:
        handle = RealtimeHandle(fire_time)

        def run() -> None:
            if handle.cancelled:  # cancelled between loop dispatch and run
                return
            handle._timer = None
            self.events_executed += 1
            fn(*args)

        handle._timer = self._loop.call_later(delay, run)
        return handle

    def cancel(self, handle: Optional[RealtimeHandle]) -> None:
        """Cancel ``handle`` if it is not None and still pending."""
        if handle is not None:
            handle.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RealtimeScheduler(now={self.now:.3f})"


@dataclass
class TransportStats:
    """Counters kept by :class:`UdpTransport` (mirrors link stats in sim)."""

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0
    #: Datagrams dropped because they failed to decode (garbage, truncation,
    #: version mismatch) — counted, never fatal.
    frames_rejected: int = 0
    #: Sends dropped because the destination node id has no known address.
    unroutable: int = 0
    #: Encoded datagrams the kernel refused (full socket buffer, a failed
    #: ``sendto``): writes are synchronous and nothing is queued, so these
    #: are real losses the failure detector must absorb.
    send_dropped: int = 0
    #: Always 0: the sendmmsg/recvmmsg path it counted is gone.  Kept only
    #: because the benchmark sums it for its declared metric
    #: ``runtime.batch_syscalls``, until a ``benchmark`` PR retires that.
    batch_syscalls: int = 0
    last_error: Optional[str] = field(default=None, repr=False)


#: UDP payloads cannot exceed 65507 bytes, so a 64 KiB buffer always fits
#: one datagram (the codec enforces its own MAX_FRAME_BYTES on top).
_DATAGRAM_MAX = 65536
#: Off-book senders (lease clients) whose address is remembered, least
#: recently heard evicted first.  ``sender_node`` is whatever a datagram
#: claims, so without a cap a spoofer grows the table without bound.
_LEARNED_MAX = 1024


class UdpTransport:
    """Real UDP datagram transport for one node of a cluster.

    ``addresses`` maps every node id (including the local one) to its
    ``(host, port)`` endpoint; ``deliver`` receives each successfully
    decoded :class:`~repro.net.message.Message` on the event loop thread —
    typically :meth:`Node.deliver <repro.net.node.Node.deliver>`, exactly
    like the simulated network hands messages to a node.

    Senders outside the static address book (lease clients are not cluster
    members) are *learned*: the source address of their last datagram is
    remembered (for the :data:`_LEARNED_MAX` most recently heard), and
    :meth:`send` falls back to it, so a daemon can answer a client it was
    never configured with.  Static entries always win — a learned address
    can never shadow a cluster node, and the book is never evicted.

    The datapath is a raw nonblocking socket: one synchronous ``sendto``
    per datagram from :meth:`send`, one ``recvfrom`` per datagram from the
    ``loop.add_reader`` callback.  Synchronous writes are what make the
    zero-copy encode scratch safe: the kernel has copied the payload by the
    time the call returns, so the one buffer is reused for the next
    datagram — and a datagram the kernel refuses is dropped and counted
    (``stats.send_dropped``), never queued.

    Create, then ``await transport.open()`` to bind the local socket.
    """

    def __init__(
        self,
        node_id: int,
        addresses: Dict[int, Tuple[str, int]],
        deliver: Callable[[Message], None],
    ) -> None:
        if node_id not in addresses:
            raise ValueError(f"node {node_id} missing from the address book")
        self.node_id = node_id
        self._addresses = dict(addresses)
        #: node id -> last seen source address, for off-book senders;
        #: insertion-ordered, least recently heard first.
        self._learned: Dict[int, Tuple[str, int]] = {}
        self._deliver = deliver
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Encode scratch, reused by every send (writes are synchronous).
        self._scratch = bytearray(_DATAGRAM_MAX)
        self.stats = TransportStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def open(self) -> "UdpTransport":
        """Bind the local UDP socket; returns self for chaining."""
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            # Bigger kernel buffers absorb whole-fan-in bursts between
            # reader callbacks; best-effort (OS caps silently apply).
            for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                try:
                    sock.setsockopt(socket.SOL_SOCKET, option, 1 << 20)
                except OSError:  # pragma: no cover - exotic kernels
                    pass
            sock.bind(self._addresses[self.node_id])
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._loop = loop
        loop.add_reader(sock.fileno(), self._drain_rx)
        return self

    def close(self) -> None:
        """Close the socket; subsequent sends are silently dropped."""
        if self._sock is not None:
            self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = None

    @property
    def open_for_traffic(self) -> bool:
        return self._sock is not None

    # ------------------------------------------------------------------
    # Transport protocol (repro.runtime.base.Transport)
    # ------------------------------------------------------------------
    def _route(self, dest_node: int) -> Optional[Tuple[str, int]]:
        address = self._addresses.get(dest_node)
        if address is None:
            address = self._learned.get(dest_node)
        return address

    def send(self, message: Message) -> None:
        """Encode and transmit ``message`` to its destination's endpoint.

        Best-effort, like the UDP it rides on: unroutable destinations,
        encoding failures and kernel refusals are counted and dropped,
        never raised — a daemon must not die because one gossip round
        referenced a node that already left the address book.
        """
        if self._sock is None:
            return
        stats = self.stats
        address = self._route(message.dest_node)
        if address is None:
            stats.unroutable += 1
            return
        scratch = self._scratch
        try:
            end = encode_message_into(message, scratch)
        except CodecError as exc:  # pragma: no cover - needs a broken message
            stats.frames_rejected += 1
            stats.last_error = str(exc)
            return
        try:
            self._sock.sendto(memoryview(scratch)[:end], address)
        except OSError as exc:
            # Full socket buffer, ICMP port-unreachable for a crashed peer:
            # exactly the loss the failure detector exists to absorb.
            stats.send_dropped += 1
            stats.last_error = str(exc)
            return
        stats.frames_sent += 1
        stats.bytes_sent += end

    def send_batch(self, messages: Iterable[Message]) -> None:
        """Transmit a whole fan-out, one :meth:`send` per message.

        The realtime twin of :meth:`repro.net.network.Network.send_batch`;
        a refused or unroutable datagram does not stop the rest.
        """
        for message in messages:
            self.send(message)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _ingest(self, data, addr: Tuple[str, int]) -> None:
        """Decode one datagram and deliver; garbage is counted, not fatal."""
        self.stats.frames_received += 1
        self.stats.bytes_received += len(data)
        try:
            message = decode_message(data)
        except CodecError as exc:
            # An open UDP port receives what the network sends it; garbage
            # is dropped here so it can never reach the election logic.
            self.stats.frames_rejected += 1
            self.stats.last_error = str(exc)
            return
        sender = message.sender_node
        if sender not in self._addresses:
            learned = self._learned
            learned.pop(sender, None)  # re-insert: most recently heard last
            learned[sender] = addr
            if len(learned) > _LEARNED_MAX:
                del learned[next(iter(learned))]
        self._deliver(message)

    def _drain_rx(self) -> None:
        """Reader callback: drain every queued datagram."""
        sock = self._sock
        if sock is None:  # closed between readiness and dispatch
            return
        while True:
            try:
                data, source = sock.recvfrom(_DATAGRAM_MAX)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self.stats.last_error = str(exc)
                return
            self._ingest(data, source)
