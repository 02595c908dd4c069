"""Live (UDP) lease clients: the channel and the CLI entry points.

A lease client is *not* a cluster member: it has no slot in the daemons'
address books and runs no failure detector.  It binds an ephemeral UDP
socket, speaks the same codec as the daemons, and identifies itself with
a synthetic wire node id far above any real node's.  Daemons learn the
client's socket address from its first datagram (see
:class:`~repro.runtime.realtime.UdpTransport`) and route replies back to
it, so nothing about the cluster needs reconfiguring to serve a new
client.

Three entry points back ``repro lease acquire|watch|transfer``:

* :func:`acquire_main` — acquire a named lease, hold it (auto-renewing)
  for ``--hold`` seconds, release, exit 0.  The grant's fencing token is
  printed as a machine-parsable ``GRANTED`` line, which is what the
  live-cluster smoke test asserts monotonicity on across a leader kill.
* :func:`watch_main` — subscribe to the lease (push events, with the
  deadman poll fallback) and print a ``HOLDER`` line on every
  (holder, token) change until ``--duration`` elapses; each line carries
  ``via=push`` or ``via=poll`` so the smoke test can assert the change
  arrived as a notification, not a poll.
* :func:`transfer_main` — acquire the lease, then hand it to a named
  successor; prints the pre- and post-transfer tokens so the smoke test
  can assert the fencing token advanced across the handoff.

Their lines are the daemons' line protocol (``KIND key=value ...``,
:func:`repro.runtime.cluster.emit_line`), which the orchestrator parses
with the same parser as the daemons'.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.lease.client import LeaseClient
from repro.net.message import (
    LeaseEventMessage,
    LeaseReplyMessage,
    LeaseRequestMessage,
    Message,
)
from repro.runtime.cluster import emit_line
from repro.runtime.realtime import RealtimeScheduler, UdpTransport
from repro.sim.rng import RngRegistry

__all__ = [
    "CLIENT_WIRE_BASE",
    "UdpLeaseChannel",
    "acquire_main",
    "watch_main",
    "transfer_main",
]

#: First wire node id handed to live clients — far above any daemon's.
CLIENT_WIRE_BASE = 1 << 20


class UdpLeaseChannel:
    """A lease-client channel over a bound :class:`UdpTransport`.

    ``node_id`` (the client's default request destination) is a *daemon*
    node — the contact node — because the client itself serves nothing;
    ``submit`` stamps the client's own wire id as the sender so replies
    come back to this socket.  Incoming lease replies are fanned out to
    the last registered ``reply_to``, push events to ``on_event`` (one
    client per channel; the LeaseClient assigns ``on_event`` itself).
    """

    def __init__(self, transport: UdpTransport, contact_node: int) -> None:
        self._transport = transport
        self.node_id = contact_node
        self._reply_to: Optional[Callable[[LeaseReplyMessage], None]] = None
        self.on_event: Optional[Callable[[LeaseEventMessage], None]] = None

    @property
    def wire_node(self) -> int:
        return self._transport.node_id

    def submit(
        self,
        message: LeaseRequestMessage,
        reply_to: Callable[[LeaseReplyMessage], None],
    ) -> None:
        self._reply_to = reply_to
        message.sender_node = self.wire_node
        self._transport.send(message)

    def deliver(self, message: Message) -> None:
        """Transport deliver hook: route replies and events to the client."""
        if isinstance(message, LeaseReplyMessage) and self._reply_to is not None:
            self._reply_to(message)
        elif isinstance(message, LeaseEventMessage) and self.on_event is not None:
            self.on_event(message)


def _addresses(
    host: str, ports: Sequence[int], wire_node: int
) -> Dict[int, Tuple[str, int]]:
    book: Dict[int, Tuple[str, int]] = {
        node: (host, port) for node, port in enumerate(ports)
    }
    # Port 0: bind an ephemeral local socket; daemons learn its real
    # address from the datagrams themselves.
    book[wire_node] = (host, 0)
    return book


async def _open_client(
    *,
    host: str,
    ports: Sequence[int],
    group: int,
    client_id: int,
    contact_node: int,
):
    wire_node = CLIENT_WIRE_BASE + client_id
    channel_box = {}

    def deliver(message: Message) -> None:
        channel_box["channel"].deliver(message)

    transport = UdpTransport(wire_node, _addresses(host, ports, wire_node), deliver)
    await transport.open()
    channel = UdpLeaseChannel(transport, contact_node)
    channel_box["channel"] = channel
    scheduler = RealtimeScheduler()
    client = LeaseClient(
        channel,
        scheduler,
        RngRegistry(seed=client_id).stream("lease.live"),
        group=group,
        client_id=client_id,
    )
    return transport, client


async def _reply(name: str, timeout: float, call: Callable[[Callable], Optional[bool]]):
    """Await the first reply to one client ``call`` (it takes the reply
    callback): None after a ``REFUSED`` line when the client sent nothing
    (``call`` returned False), or after a ``TIMEOUT`` line."""
    reply: "asyncio.Future[LeaseReplyMessage]" = asyncio.get_running_loop().create_future()
    if call(lambda message: reply.done() or reply.set_result(message)) is False:
        emit_line("REFUSED", lease=name)
        return None
    try:
        return await asyncio.wait_for(reply, timeout)
    except asyncio.TimeoutError:
        emit_line("TIMEOUT", lease=name, after=timeout)
        return None


async def _acquire(client: LeaseClient, name: str, ttl: float, timeout: float):
    """Acquire ``name`` and await the grant; it is printed as a ``GRANTED``
    line (None: no grant)."""
    reply = await _reply(name, timeout, lambda done: client.acquire(name, ttl, done))
    if reply is not None:
        emit_line("GRANTED", lease=name, token=reply.token, expiry=f"{reply.expiry:.6f}")
    return reply


async def acquire_main(
    *,
    name: str,
    host: str,
    ports: Sequence[int],
    group: int = 1,
    client_id: int = 1000,
    ttl: float = 0.0,
    hold: float = 0.0,
    timeout: float = 30.0,
    contact_node: int = 0,
) -> int:
    """Acquire ``name``, hold (auto-renewing) for ``hold`` s, release.

    Protocol lines on stdout::

        GRANTED lease=<name> token=<t> expiry=<epoch s>
        LOST lease=<name>                  # grant lost mid-hold (failover)
        RELEASED lease=<name>

    Exit 0 on a clean hold-and-release, 1 (after ``TIMEOUT lease=<name>
    after=<s>``) if no grant arrived within ``timeout`` seconds.
    """
    transport, client = await _open_client(
        host=host, ports=ports, group=group, client_id=client_id,
        contact_node=contact_node,
    )
    client.on_lost = lambda lost_name: emit_line("LOST", lease=lost_name)
    try:
        if await _acquire(client, name, ttl, timeout) is None:
            return 1
        if hold > 0.0:
            await asyncio.sleep(hold)
        if client.release(name):
            # Give the release datagram a beat to leave the socket.
            await asyncio.sleep(0.05)
            emit_line("RELEASED", lease=name)
        return 0
    finally:
        client.close()
        transport.close()


async def watch_main(
    *,
    name: str,
    host: str,
    ports: Sequence[int],
    group: int = 1,
    client_id: int = 1001,
    period: float = 1.0,
    duration: float = 10.0,
    contact_node: int = 0,
) -> int:
    """Watch ``name``; print a ``HOLDER`` line on every ownership change::

        HOLDER lease=<name> holder=<id> token=<t> via=push|poll

    ``via=push`` for a server-push event (the reply's nonce is 0),
    ``via=poll`` for a (re-)subscribe reply.
    """
    transport, client = await _open_client(
        host=host, ports=ports, group=group, client_id=client_id,
        contact_node=contact_node,
    )

    def on_change(reply: LeaseReplyMessage) -> None:
        via = "push" if reply.nonce == 0 else "poll"
        emit_line("HOLDER", lease=name, holder=reply.holder, token=reply.token, via=via)

    try:
        stop = client.watch(name, on_change, period=period)
        await asyncio.sleep(duration)
        stop()
        return 0
    finally:
        client.close()
        transport.close()


async def transfer_main(
    *,
    name: str,
    host: str,
    ports: Sequence[int],
    successor: int,
    group: int = 1,
    client_id: int = 1003,
    ttl: float = 0.0,
    timeout: float = 30.0,
    contact_node: int = 0,
) -> int:
    """Acquire ``name``, then hand it off to ``successor``.

    Protocol lines on stdout::

        GRANTED lease=<name> token=<t1> expiry=<epoch s>
        TRANSFERRED lease=<name> successor=<id> token=<t2>

    with ``t2 > t1`` (fencing tokens advance across a handoff).  Exit 0
    on a completed transfer; 1 after ``TIMEOUT``, ``DENIED lease=<name>
    status=<s>``, or ``REFUSED lease=<name>`` (the client sent no
    transfer: the grant was lost first, or ``successor`` is this client).
    """
    transport, client = await _open_client(
        host=host, ports=ports, group=group, client_id=client_id,
        contact_node=contact_node,
    )
    try:
        if await _acquire(client, name, ttl, timeout) is None:
            return 1
        handoff = await _reply(
            name, timeout, lambda done: client.transfer(name, successor, callback=done)
        )
        if handoff is None:
            return 1
        if handoff.status != "granted":
            emit_line("DENIED", lease=name, status=handoff.status)
            return 1
        emit_line("TRANSFERRED", lease=name, successor=successor, token=handoff.token)
        return 0
    finally:
        client.close()
        transport.close()
