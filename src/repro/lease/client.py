"""The client half of the lease tier: retries, redirects, auto-renewal.

A :class:`LeaseClient` is a small asynchronous state machine driven by a
scheduler (simulated or realtime — the same duck type).  It speaks
:class:`~repro.net.message.LeaseRequestMessage` /
:class:`~repro.net.message.LeaseReplyMessage` through a *channel*, an
object with three members::

    channel.node_id                      # node the client rides on
    channel.submit(message, reply_to)    # route one request; replies for
                                         # this client id reach reply_to
    channel.on_event                     # assignable: the client hooks it
                                         # to receive push LeaseEvents

:class:`HostLeaseChannel` adapts an in-process group runtime (the path
behind ``GroupHandle.lease()``); the live CLI builds an equivalent channel
over a UDP transport.  Either way the channel is lossy — every request is
guarded by a timeout timer with doubling, jittered backoff.

Protocol behaviour:

* ``redirect`` replies teach the client where the leader lives; the next
  attempt goes there directly.
* ``throttled``/``denied`` replies carry a server-suggested
  ``retry_after``, honoured with jitter; an *acquire* keeps retrying until
  granted (blocking-lock semantics) unless ``wait=False``.
* a granted lease is **auto-renewed** at half its remaining validity until
  released; a failed renewal drops the grant and fires the ``on_lost``
  callback — by then the fencing token the holder was using is already
  superseded, so storage servers will reject its writes.  ``on_lost`` also
  fires (exactly once) when renew replies never arrive at all and the
  grant's validity runs out mid-retry.
* :meth:`LeaseClient.watch` is **push-based**: one ``watch`` op subscribes
  at the leader, which then pushes a
  :class:`~repro.net.message.LeaseEventMessage` on every change of the
  watched lease — zero steady-state request traffic.  A deadman timer
  re-subscribes when events stop arriving (leader moved, events lost),
  which doubles as the polling fallback.
* a holder can :meth:`~LeaseClient.transfer` its lease to a successor
  without waiting out the TTL (the successor's fencing token still
  strictly advances).

Nothing here blocks: results arrive through callbacks, which keeps one
event loop able to drive thousands of simulated clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.lease.ledger import lease_id
from repro.net.message import (
    LeaseEventMessage,
    LeaseReplyMessage,
    LeaseRequestMessage,
)

__all__ = ["HostLeaseChannel", "LeaseClient", "LeaseGrant"]

Callback = Callable[[LeaseReplyMessage], None]


@dataclass(frozen=True, slots=True)
class LeaseGrant:
    """One held lease: the fencing token is the part downstream code needs."""

    name: str
    lease: int
    token: int
    expiry: float
    #: TTL to request on renewal (0.0 = the server's maximum).
    ttl: float = 0.0


class HostLeaseChannel:
    """In-process channel over a node's service host (sim and live).

    Duck-typed against :class:`repro.core.api.ServiceHost` to keep this
    package import-independent of the service core (which imports the
    ledger from here).  The group runtime is resolved *per request*: the
    host's daemon dies and is rebooted across node crashes, and a channel
    pinned to one runtime instance would starve its client forever after
    the first recovery.  While the daemon is down requests are silently
    dropped — exactly like datagrams to a crashed node — and the client's
    timeout machinery keeps retrying.
    """

    __slots__ = ("_host", "_group", "on_event")

    def __init__(self, host, group: int) -> None:
        self._host = host
        self._group = group
        #: Push-event sink; a LeaseClient assigns its own handler here.
        self.on_event: Optional[Callable[[LeaseEventMessage], None]] = None

    @property
    def node_id(self) -> int:
        return self._host.node.node_id

    def submit(self, message: LeaseRequestMessage, reply_to: Callback) -> None:
        service = self._host.service
        if service is None:
            return  # daemon down (node crashed): drop, client will retry
        runtime = service.group_runtime(self._group)
        if runtime is not None:
            runtime.submit_lease_request(message, reply_to, self.on_event)


@dataclass(slots=True, eq=False)
class _Op:
    """One in-flight request, tracked under its current nonce."""

    kind: str
    name: str
    lease: int
    token: int = 0
    ttl: float = 0.0
    wait: bool = False
    callback: Optional[Callback] = None
    successor: int = -1
    nonce: int = 0
    attempts: int = 0
    timer: object = None


@dataclass(slots=True, eq=False)
class _Watch:
    """One active watch subscription on one lease."""

    name: str
    lease: int
    callback: Callback
    period: float
    #: Last (holder, token) delivered; None until the first reply.
    last: Optional[Tuple[int, int]] = None
    #: Deadman timer: fires a re-subscribe.
    timer: object = None
    #: The in-flight subscribe op, cancellable on stop.
    op: Optional[_Op] = None
    stopped: bool = False


class LeaseClient:
    """Asynchronous lease/lock client bound to one group."""

    def __init__(
        self,
        channel,
        scheduler,
        rng,
        *,
        group: int,
        client_id: int,
        request_timeout: float = 0.25,
        max_backoff: float = 2.0,
        on_lost: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.channel = channel
        self.scheduler = scheduler
        self.rng = rng
        self.group = group
        self.client_id = client_id
        self.request_timeout = request_timeout
        self.max_backoff = max_backoff
        self.on_lost = on_lost
        #: Leader location learned from redirects/replies (None = ask the
        #: local node, which answers or redirects).
        self.leader_node: Optional[int] = None
        self._nonce = 0
        #: Every in-flight op, keyed by its current nonce (re-keyed on every
        #: send): a reply is matched by its nonce alone.
        self._inflight: Dict[int, _Op] = {}
        #: The one mutating op per lease id; a new one supersedes it.
        self._mutating: Dict[int, _Op] = {}
        self._grants: Dict[int, LeaseGrant] = {}
        self._renew_timers: Dict[int, object] = {}
        #: Active watches per lease id.
        self._watches: Dict[int, List[_Watch]] = {}
        self._closed = False
        channel.on_event = self._on_event

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def acquire(
        self,
        name: str,
        ttl: float = 0.0,
        callback: Optional[Callback] = None,
        *,
        wait: bool = True,
    ) -> None:
        """Acquire ``name``; retries until granted unless ``wait=False``.

        ``callback`` fires with the terminal reply (``granted``, or the
        first ``denied`` when not waiting).  Once granted the client
        auto-renews until :meth:`release`.
        """
        self._start(_Op("acquire", name, lease_id(name), 0, ttl, wait, callback))

    def release(self, name: str, callback: Optional[Callback] = None) -> bool:
        """Release a held lease; False (no send) if not currently held."""
        grant = self._grants.pop(lease_id(name), None)
        if grant is None:
            return False
        self._cancel_renew(grant.lease)
        self._start(_Op("release", name, grant.lease, grant.token, callback=callback))
        return True

    def query(self, name: str, callback: Callback) -> None:
        """One-shot holder/token lookup (an ``info`` reply)."""
        self._start(_Op("query", name, lease_id(name), callback=callback),
                    mutating=False)

    def watch(
        self, name: str, callback: Callback, period: float = 1.0
    ) -> Callable[[], None]:
        """Watch ``name``; fire ``callback`` whenever (holder, token) moves.

        One ``watch`` op subscribes at the leader, whose reply seeds the
        state; thereafter the leader pushes an event on every change, so a
        quiet lease costs no request traffic at all.  ``period`` is the
        fallback cadence — it paces the deadman re-subscribe when no holder
        (or no leader) is known and pads the re-subscribe deadline past a
        held lease's expiry.

        ``callback`` receives ``info``-status replies; push-sourced ones
        carry ``nonce == 0``, (re-)subscribe replies a real nonce.  Returns
        a function that stops the watch (cancelling any in-flight subscribe
        op).
        """
        watch = _Watch(name, lease_id(name), callback, period)
        self._watches.setdefault(watch.lease, []).append(watch)
        self._watch_subscribe(watch)

        def stop() -> None:
            if watch.stopped:
                return
            watch.stopped = True
            self.scheduler.cancel(watch.timer)
            watch.timer = None
            if watch.op is not None:
                # The in-flight subscribe op dies with the watch — it
                # must not keep resending through the timeout machinery.
                self._drop(watch.op)
                watch.op = None
            # A watch not stopped is listed: close() stops every one it clears.
            peers = self._watches[watch.lease]
            peers.remove(watch)
            if not peers:
                del self._watches[watch.lease]
                if not self._closed:
                    # Best-effort unsubscribe: fire-and-forget (no reply, no
                    # retries — a lost unwatch merely costs ignored events
                    # until the tenure ends).
                    self._submit(_Op("unwatch", name, watch.lease))

        return stop

    def transfer(
        self, name: str, successor: int, callback: Optional[Callback] = None
    ) -> bool:
        """Hand a held lease to ``successor`` without waiting out the TTL.

        False (no send) if ``name`` is not currently held or ``successor``
        is this client.  On a granted reply the grant is dropped locally
        (``on_lost`` does **not** fire — the handoff was voluntary) and
        ``callback`` sees the successor's new token/expiry; on a denial the
        grant is kept and auto-renewal resumes.  A transfer still unanswered
        when the grant lapses ends in ``on_lost`` and a local ``denied``.
        """
        grant = self.grant(name)
        if grant is None or successor == self.client_id:
            return False
        # Renewal pauses while the transfer is in flight (both are
        # mutating ops for the lease and would supersede each other); it
        # resumes from the kept grant if the transfer is denied.
        self._cancel_renew(grant.lease)
        self._start(_Op("transfer", name, grant.lease, grant.token, grant.ttl,
                        callback=callback, successor=successor))
        return True

    def grant(self, name: str) -> Optional[LeaseGrant]:
        """The currently-held grant for ``name``, if any (expiry-checked)."""
        grant = self._grants.get(lease_id(name))
        if grant is None or grant.expiry <= self.scheduler.now:
            return None
        return grant

    def close(self) -> None:
        """Drop all state; in-flight requests and held grants are abandoned
        (their validities simply run out — safe by construction)."""
        self._closed = True
        for op in self._inflight.values():
            self.scheduler.cancel(op.timer)
        self._inflight.clear()
        self._mutating.clear()
        for watches in self._watches.values():
            for watch in watches:
                watch.stopped = True
                self.scheduler.cancel(watch.timer)
                watch.timer = None
        self._watches.clear()
        for timer in self._renew_timers.values():
            self.scheduler.cancel(timer)
        self._renew_timers.clear()
        self._grants.clear()

    # ------------------------------------------------------------------
    # Request machinery
    # ------------------------------------------------------------------
    def _start(self, op: _Op, *, mutating: bool = True) -> None:
        """Send a new op; a mutating one supersedes the lease's last."""
        if self._closed:
            return
        if mutating:
            stale = self._mutating.get(op.lease)
            if stale is not None:
                self._drop(stale)
            self._mutating[op.lease] = op
        self._send(op)

    def _send(self, op: _Op) -> None:
        if op.kind in ("renew", "transfer"):
            # The grant this op rides on may have lapsed while the op was
            # retrying (leader unreachable: replies never came).  Checked
            # at every (re)send, so a lost holder learns within one
            # backoff of expiry instead of never.
            grant = self._grants.get(op.lease)
            if grant is None or grant.expiry <= self.scheduler.now:
                if grant is not None:
                    self._lose(op.name, op.lease)
                # Abandoned, but still answered: its caller may be waiting.
                self._finish(op, LeaseReplyMessage(
                    sender_node=self.channel.node_id, dest_node=self.channel.node_id,
                    group=self.group, status="denied", lease=op.lease,
                    client=self.client_id, nonce=op.nonce))
                return
        self._inflight.pop(op.nonce, None)
        self._nonce += 1
        op.nonce = self._nonce
        self._inflight[op.nonce] = op
        op.timer = self.scheduler.schedule(self._timeout(op), self._on_timeout, op)
        self._submit(op)

    def _submit(self, op: _Op) -> None:
        """Route one datagram for ``op`` (an untracked ``unwatch`` too)."""
        dest = self.leader_node if self.leader_node is not None else self.channel.node_id
        message = LeaseRequestMessage(
            sender_node=self.channel.node_id,
            dest_node=dest,
            group=self.group,
            op=op.kind,
            lease=op.lease,
            client=self.client_id,
            token=op.token,
            ttl=op.ttl,
            successor=op.successor,
            nonce=op.nonce,
        )
        self.channel.submit(message, self._on_reply)

    def _timeout(self, op: _Op) -> float:
        base = min(self.request_timeout * (2.0 ** op.attempts), self.max_backoff)
        return base * (1.0 + 0.1 * float(self.rng.uniform(0.0, 1.0)))

    def _active(self, op: _Op) -> bool:
        return self._inflight.get(op.nonce) is op

    def _drop(self, op: _Op) -> None:
        """Take ``op`` out of flight: untracked, its timer cancelled."""
        self._inflight.pop(op.nonce, None)
        if self._mutating.get(op.lease) is op:
            del self._mutating[op.lease]
        self.scheduler.cancel(op.timer)
        op.timer = None

    def _retry(self, op: _Op, delay: float) -> None:
        """Re-send ``op`` after ``delay`` (its timeout slot doubles as the
        retry timer)."""
        delay += 0.05 * float(self.rng.uniform(0.0, 1.0))
        op.timer = self.scheduler.schedule(delay, self._resend, op)

    def _resend(self, op: _Op) -> None:
        if self._closed or not self._active(op):
            return
        self._send(op)

    def _on_timeout(self, op: _Op) -> None:
        if self._closed or not self._active(op):
            return
        # The request (or its reply) was lost; the leader may have moved.
        op.attempts += 1
        if op.attempts % 3 == 0:
            self.leader_node = None
        self._send(op)

    # ------------------------------------------------------------------
    # Reply handling
    # ------------------------------------------------------------------
    def _on_reply(self, reply: LeaseReplyMessage) -> None:
        if self._closed:
            return
        op = self._inflight.get(reply.nonce)
        if op is None:
            return  # stale duplicate of a superseded attempt
        if op.timer is not None:
            self.scheduler.cancel(op.timer)
            op.timer = None
        if reply.leader_node >= 0:
            self.leader_node = reply.leader_node
        status = reply.status
        if status == "redirect":
            if reply.leader_node < 0:
                # No leader known anywhere yet: back off before re-asking.
                op.attempts += 1
            self._retry(op, 0.02 if reply.leader_node >= 0 else self._timeout(op))
            return
        if status == "throttled":
            self._retry(op, max(reply.retry_after, 0.05))
            return
        if status == "denied":
            if op.kind == "acquire" and op.wait:
                self._retry(op, max(reply.retry_after, self.request_timeout))
                return
            if op.kind == "transfer":
                # Transfer refused: the grant survives — resume renewal.
                grant = self._grants.get(op.lease)
                if grant is not None:
                    self._schedule_renew(op.name, op.lease, grant.expiry)
            self._finish(op, reply)
            if op.kind == "renew":
                self._lose(op.name, reply.lease)
            return
        if status == "granted":
            if op.kind in ("acquire", "renew"):
                self._grants[reply.lease] = LeaseGrant(
                    name=op.name,
                    lease=reply.lease,
                    token=reply.token,
                    expiry=reply.expiry,
                    ttl=op.ttl,
                )
                self._schedule_renew(op.name, reply.lease, reply.expiry)
            elif op.kind == "transfer":
                # The lease now belongs to the successor; the voluntary
                # handoff drops the grant without firing on_lost.
                self._grants.pop(reply.lease, None)
                self._cancel_renew(reply.lease)
        # "granted", or "info" (query/watch) — terminal.
        self._finish(op, reply)

    def _finish(self, op: _Op, reply: LeaseReplyMessage) -> None:
        self._drop(op)
        if op.callback is not None:
            op.callback(reply)

    # ------------------------------------------------------------------
    # Watch machinery (push with deadman fallback)
    # ------------------------------------------------------------------
    def _watch_subscribe(self, watch: _Watch) -> None:
        """(Re-)send the subscribe op for one watch.

        The op doubles as everything at once: the initial subscription,
        the resubscribe after a leader change (the op rides the normal
        redirect machinery to wherever the leader now lives), and the
        fallback poll when events stop arriving.
        """
        if watch.stopped or self._closed:
            return
        watch.op = _Op("watch", watch.name, watch.lease,
                       callback=lambda reply: self._on_watch_reply(watch, reply))
        self._start(watch.op, mutating=False)

    def _watch_tick(self, watch: _Watch) -> None:
        watch.timer = None
        if watch.op is None:
            self._watch_subscribe(watch)

    def _on_watch_reply(self, watch: _Watch, reply: LeaseReplyMessage) -> None:
        watch.op = None
        if not (watch.stopped or self._closed):
            self._watch_saw(watch, reply)

    def _watch_saw(self, watch: _Watch, reply: LeaseReplyMessage) -> None:
        """Fire the watch on a (holder, token) change and re-arm its deadman.

        With a live holder the next event should arrive well before the
        reply's ``expiry`` (renewals extend it), so the deadman fires only
        when pushes stopped — leader died or moved, events lost.  No holder
        (or no reliable expiry): fall back to pacing at ``period``.
        """
        key = (reply.holder, reply.token)
        if key != watch.last:
            watch.last = key
            watch.callback(reply)
        self.scheduler.cancel(watch.timer)
        now = self.scheduler.now
        if reply.holder >= 0 and reply.expiry > now:
            delay = (reply.expiry - now) + 0.5 * watch.period
        else:
            delay = watch.period
        watch.timer = self.scheduler.schedule(delay, self._watch_tick, watch)

    def _on_event(self, event: LeaseEventMessage) -> None:
        """One pushed ledger change from the leader (fire-and-forget).

        Feeds every watch on the lease, normalized to the same
        (holder, token) key space as query replies — a released or expired
        record reads as "no holder".
        """
        if self._closed or event.group != self.group:
            return
        if not event.released and event.expiry > self.scheduler.now and event.holder >= 0:
            holder, token, expiry = event.holder, event.token, event.expiry
        else:
            holder, token, expiry = -1, 0, 0.0
        #: nonce 0 marks a push-sourced reply (subscribe replies carry the
        #: op's real nonce) — observable by callbacks and the live CLI.
        reply = LeaseReplyMessage(
            sender_node=event.sender_node,
            dest_node=event.dest_node,
            group=self.group,
            status="info",
            lease=event.lease,
            client=self.client_id,
            token=token,
            holder=holder,
            expiry=expiry,
            nonce=0,
        )
        for watch in tuple(self._watches.get(event.lease, ())):
            if not watch.stopped:
                self._watch_saw(watch, reply)

    # ------------------------------------------------------------------
    # Renewal
    # ------------------------------------------------------------------
    def _schedule_renew(self, name: str, lease: int, expiry: float) -> None:
        self._cancel_renew(lease)
        delay = max(0.05, (expiry - self.scheduler.now) * 0.5)
        self._renew_timers[lease] = self.scheduler.schedule(
            delay, self._auto_renew, name, lease
        )

    def _cancel_renew(self, lease: int) -> None:
        self.scheduler.cancel(self._renew_timers.pop(lease, None))

    def _auto_renew(self, name: str, lease: int) -> None:
        self._renew_timers.pop(lease, None)
        if self._closed:
            return
        grant = self._grants.get(lease)
        if grant is None:
            return
        if grant.expiry <= self.scheduler.now:
            # Validity ran out before the renewal could even start.
            del self._grants[lease]
            self._lose(name, lease)
            return
        self._start(_Op("renew", name, lease, grant.token, grant.ttl))

    def _lose(self, name: str, lease: int) -> None:
        self._grants.pop(lease, None)
        self._cancel_renew(lease)
        if self.on_lost is not None:
            self.on_lost(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaseClient(id={self.client_id}, group={self.group}, "
            f"held={len(self._grants)}, inflight={len(self._inflight)})"
        )
