"""The client half of the lease tier: retries, redirects, auto-renewal.

A :class:`LeaseClient` is a small asynchronous state machine driven by a
scheduler (simulated or realtime — the same duck type).  It speaks
:class:`~repro.net.message.LeaseRequestMessage` /
:class:`~repro.net.message.LeaseReplyMessage` through a *channel*, an
object with two members (plus one optional attribute)::

    channel.node_id                      # node the client rides on
    channel.submit(message, reply_to)    # route one request; replies for
                                         # this client id reach reply_to
    channel.on_event                     # if assignable, the client hooks
                                         # it to receive push LeaseEvents

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
  strictly advances), and a preferred client can
  :meth:`~LeaseClient.request_handoff`: the wish rides the holder's next
  renew reply, the holder's ``on_handoff_request`` callback decides, and
  the requester learns the outcome through a push event.

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

#: Read-only ops may run concurrently for one lease (each is tracked by
#: its nonce, not the lease id — see LeaseClient._reads).
_READ_OPS = frozenset(("query", "watch", "handoff"))


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

    def submit(
        self,
        message: LeaseRequestMessage,
        reply_to: Callable[[LeaseReplyMessage], None],
    ) -> None:
        service = self._host.service
        if service is None:
            return  # daemon down (node crashed): drop, client will retry
        runtime = service.group_runtime(self._group)
        if runtime is not None:
            runtime.submit_lease_request(message, reply_to, self.on_event)


class _Op:
    """One in-flight request (mutating ops: at most one per lease id;
    read-only ops: any number, tracked per nonce)."""

    __slots__ = (
        "kind",
        "name",
        "lease",
        "token",
        "ttl",
        "wait",
        "successor",
        "nonce",
        "attempts",
        "timer",
        "callback",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        lease: int,
        token: int,
        ttl: float,
        wait: bool,
        callback: Optional[Callable[[LeaseReplyMessage], None]],
        successor: int = -1,
    ) -> None:
        self.kind = kind
        self.name = name
        self.lease = lease
        self.token = token
        self.ttl = ttl
        self.wait = wait
        self.successor = successor
        self.nonce = 0
        self.attempts = 0
        self.timer = None
        self.callback = callback


class _Watch:
    """One active watch subscription on one lease."""

    __slots__ = ("name", "lease", "callback", "period", "last",
                 "timer", "op", "stopped")

    def __init__(
        self,
        name: str,
        lease: int,
        callback: Callable[[LeaseReplyMessage], None],
        period: float,
    ) -> None:
        self.name = name
        self.lease = lease
        self.callback = callback
        self.period = period
        #: Last (holder, token) delivered; None until the first reply.
        self.last: Optional[Tuple[int, int]] = None
        #: Deadman timer: fires a re-subscribe.
        self.timer = None
        #: The in-flight subscribe op, cancellable on stop.
        self.op: Optional[_Op] = None
        self.stopped = False


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
        on_handoff_request: Optional[Callable[[str, int], bool]] = None,
    ) -> None:
        self.channel = channel
        self.scheduler = scheduler
        self.rng = rng
        self.group = group
        self.client_id = client_id
        self.request_timeout = request_timeout
        self.max_backoff = max_backoff
        self.on_lost = on_lost
        #: Asked while holding a lease someone requested a handoff for:
        #: ``on_handoff_request(name, requester) -> bool`` — True hands the
        #: lease over (a transfer is sent); None/False keeps it.
        self.on_handoff_request = on_handoff_request
        #: Leader location learned from redirects/replies (None = ask the
        #: local node, which answers or redirects).
        self.leader_node: Optional[int] = None
        self._nonce = 0
        #: Mutating in-flight ops, one per lease id.
        self._ops: Dict[int, _Op] = {}
        #: Read-only in-flight ops, keyed by their current nonce so any
        #: number may coexist per lease (re-keyed on every resend).
        self._reads: Dict[int, _Op] = {}
        self._grants: Dict[int, LeaseGrant] = {}
        self._renew_timers: Dict[int, object] = {}
        #: Active watches per lease id.
        self._watches: Dict[int, List[_Watch]] = {}
        #: lease id -> (name, callback) for a pending handoff request.
        self._handoff_pending: Dict[int, Tuple[str, Optional[Callable]]] = {}
        self._closed = False
        try:
            channel.on_event = self._on_event
        except AttributeError:
            pass  # event-less channel: watches fall back to polling

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def acquire(
        self,
        name: str,
        ttl: float = 0.0,
        callback: Optional[Callable[[LeaseReplyMessage], None]] = None,
        *,
        wait: bool = True,
    ) -> None:
        """Acquire ``name``; retries until granted unless ``wait=False``.

        ``callback`` fires with the terminal reply (``granted``, or the
        first ``denied`` when not waiting).  Once granted the client
        auto-renews until :meth:`release`.
        """
        self._start(_Op("acquire", name, lease_id(name), 0, ttl, wait, callback))

    def release(
        self,
        name: str,
        callback: Optional[Callable[[LeaseReplyMessage], None]] = None,
    ) -> bool:
        """Release a held lease; False (no send) if not currently held."""
        grant = self._grants.pop(lease_id(name), None)
        if grant is None:
            return False
        self._cancel_renew(grant.lease)
        self._start(
            _Op("release", name, grant.lease, grant.token, 0.0, False, callback)
        )
        return True

    def query(
        self, name: str, callback: Callable[[LeaseReplyMessage], None]
    ) -> None:
        """One-shot holder/token lookup (an ``info`` reply)."""
        self._start(_Op("query", name, lease_id(name), 0, 0.0, False, callback))

    def watch(
        self,
        name: str,
        callback: Callable[[LeaseReplyMessage], None],
        period: float = 1.0,
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
            if watch.timer is not None:
                self.scheduler.cancel(watch.timer)
                watch.timer = None
            op = watch.op
            if op is not None:
                # The in-flight subscribe op dies with the watch — it
                # must not keep resending through the timeout machinery.
                watch.op = None
                self._cancel_read(op)
            peers = self._watches.get(watch.lease)
            if peers is not None:
                try:
                    peers.remove(watch)
                except ValueError:
                    pass
                if not peers:
                    del self._watches[watch.lease]
                    if not self._closed:
                        # Best-effort unsubscribe: fire-and-forget (no
                        # reply, no retries — a lost unwatch merely costs
                        # ignored events until the tenure ends).
                        self._send_oneshot("unwatch", watch.lease)

        return stop

    def transfer(
        self,
        name: str,
        successor: int,
        callback: Optional[Callable[[LeaseReplyMessage], None]] = None,
    ) -> bool:
        """Hand a held lease to ``successor`` without waiting out the TTL.

        False (no send) if ``name`` is not currently held or ``successor``
        is this client.  On a granted reply the grant is dropped locally
        (``on_lost`` does **not** fire — the handoff was voluntary) and
        ``callback`` sees the successor's new token/expiry; on a denial the
        grant is kept and auto-renewal resumes.
        """
        grant = self.grant(name)
        if grant is None or successor == self.client_id:
            return False
        # Renewal pauses while the transfer is in flight (both are
        # mutating ops for the lease and would supersede each other); it
        # resumes from the kept grant if the transfer is denied.
        self._cancel_renew(grant.lease)
        self._start(
            _Op(
                "transfer",
                name,
                grant.lease,
                grant.token,
                grant.ttl,
                False,
                callback,
                successor=successor,
            )
        )
        return True

    def request_handoff(
        self,
        name: str,
        callback: Optional[Callable[[LeaseReplyMessage], None]] = None,
    ) -> None:
        """Ask the current holder of ``name`` to hand the lease over.

        The wish is registered at the leader and rides the holder's next
        renew reply; if the holder's ``on_handoff_request`` agrees, the
        resulting transfer reaches this client as a push event (the
        request implicitly subscribes it), the grant is installed with
        auto-renewal, and ``callback`` fires with the synthesized
        ``info`` reply.  If the lease is free the request is a no-op
        server-side — acquire instead.
        """
        lease = lease_id(name)
        self._handoff_pending[lease] = (name, callback)
        self._start(_Op("handoff", name, lease, 0, 0.0, False, None))

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
        for op in self._ops.values():
            if op.timer is not None:
                self.scheduler.cancel(op.timer)
        self._ops.clear()
        for op in self._reads.values():
            if op.timer is not None:
                self.scheduler.cancel(op.timer)
        self._reads.clear()
        for watches in self._watches.values():
            for watch in watches:
                watch.stopped = True
                if watch.timer is not None:
                    self.scheduler.cancel(watch.timer)
                    watch.timer = None
        self._watches.clear()
        self._handoff_pending.clear()
        for timer in self._renew_timers.values():
            self.scheduler.cancel(timer)
        self._renew_timers.clear()
        self._grants.clear()

    # ------------------------------------------------------------------
    # Request machinery
    # ------------------------------------------------------------------
    def _start(self, op: _Op) -> None:
        if self._closed:
            return
        if op.kind not in _READ_OPS:
            stale = self._ops.get(op.lease)
            if stale is not None and stale.timer is not None:
                self.scheduler.cancel(stale.timer)
            self._ops[op.lease] = op
        self._send(op)

    def _send(self, op: _Op) -> None:
        if op.kind in ("renew", "transfer"):
            # The grant this op rides on may have lapsed while the op was
            # retrying (leader unreachable: replies never came).  Checked
            # at every (re)send, so a lost holder learns within one
            # backoff of expiry instead of never.
            grant = self._grants.get(op.lease)
            if grant is None or grant.expiry <= self.scheduler.now:
                if self._ops.get(op.lease) is op:
                    del self._ops[op.lease]
                if grant is not None:
                    self._lose(op.name, op.lease)
                return
        old_nonce = op.nonce
        self._nonce += 1
        op.nonce = self._nonce
        if op.kind in _READ_OPS:
            # Read ops are keyed by nonce; re-key on every send.
            self._reads.pop(old_nonce, None)
            self._reads[op.nonce] = op
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
        op.timer = self.scheduler.schedule(self._timeout(op), self._on_timeout, op)
        self.channel.submit(message, self._on_reply)

    def _send_oneshot(self, kind: str, lease: int) -> None:
        """One untracked, unretried datagram (used for ``unwatch``)."""
        dest = self.leader_node if self.leader_node is not None else self.channel.node_id
        self.channel.submit(
            LeaseRequestMessage(
                sender_node=self.channel.node_id,
                dest_node=dest,
                group=self.group,
                op=kind,
                lease=lease,
                client=self.client_id,
            ),
            self._on_reply,
        )

    def _timeout(self, op: _Op) -> float:
        base = min(self.request_timeout * (2.0 ** op.attempts), self.max_backoff)
        return base * (1.0 + 0.1 * float(self.rng.uniform(0.0, 1.0)))

    def _active(self, op: _Op) -> bool:
        if op.kind in _READ_OPS:
            return self._reads.get(op.nonce) is op
        return self._ops.get(op.lease) is op

    def _cancel_read(self, op: _Op) -> None:
        """Abort an in-flight read op: timer cancelled, tracking dropped."""
        if self._reads.pop(op.nonce, None) is not None and op.timer is not None:
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
        op = self._reads.get(reply.nonce)
        if op is None:
            op = self._ops.get(reply.lease)
            if op is None or reply.nonce != op.nonce:
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
            self._finish(op, reply)
            if (
                op.kind == "renew"
                and reply.handoff >= 0
                and self.on_handoff_request is not None
                and self.on_handoff_request(op.name, reply.handoff)
            ):
                self.transfer(op.name, reply.handoff)
            return
        # "info" (query/watch/handoff) — terminal.
        self._finish(op, reply)

    def _finish(self, op: _Op, reply: LeaseReplyMessage) -> None:
        if op.kind in _READ_OPS:
            self._reads.pop(op.nonce, None)
        elif self._ops.get(op.lease) is op:
            del self._ops[op.lease]
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
        op = _Op(
            "watch",
            watch.name,
            watch.lease,
            0,
            0.0,
            False,
            lambda reply: self._on_watch_reply(watch, reply),
        )
        watch.op = op
        self._start(op)

    def _watch_tick(self, watch: _Watch) -> None:
        watch.timer = None
        if watch.op is None:
            self._watch_subscribe(watch)

    def _watch_deliver(self, watch: _Watch, reply: LeaseReplyMessage) -> None:
        """Dedupe on (holder, token) and fire the watch callback."""
        key = (reply.holder, reply.token)
        if key != watch.last:
            watch.last = key
            watch.callback(reply)

    def _watch_arm(self, watch: _Watch, holder: int, expiry: float) -> None:
        """Arm the deadman timer.

        With a live holder the next event should arrive well before
        ``expiry`` (renewals extend it), so the deadman fires only when
        pushes stopped — leader died or moved, events lost.  No holder (or
        no reliable expiry): fall back to pacing at ``period``.
        """
        if watch.timer is not None:
            self.scheduler.cancel(watch.timer)
        now = self.scheduler.now
        if holder >= 0 and expiry > now:
            delay = (expiry - now) + 0.5 * watch.period
        else:
            delay = watch.period
        watch.timer = self.scheduler.schedule(delay, self._watch_tick, watch)

    def _on_watch_reply(self, watch: _Watch, reply: LeaseReplyMessage) -> None:
        watch.op = None
        if watch.stopped or self._closed:
            return
        self._watch_deliver(watch, reply)
        self._watch_arm(watch, reply.holder, reply.expiry)

    # ------------------------------------------------------------------
    # Push events
    # ------------------------------------------------------------------
    def _on_event(self, event: LeaseEventMessage) -> None:
        """One pushed ledger change from the leader (fire-and-forget).

        Feeds every watch on the lease (normalized to the same
        (holder, token) key space as query replies — a released or expired
        record reads as "no holder") and completes a pending handoff
        request when the lease just became ours.
        """
        if self._closed or event.group != self.group:
            return
        now = self.scheduler.now
        held = not event.released and event.expiry > now and event.holder >= 0
        if held:
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
        pending = self._handoff_pending.get(event.lease)
        if pending is not None and held and event.holder == self.client_id:
            name, callback = pending
            del self._handoff_pending[event.lease]
            if event.lease not in self._grants:
                self._grants[event.lease] = LeaseGrant(
                    name=name,
                    lease=event.lease,
                    token=event.token,
                    expiry=event.expiry,
                )
                self._schedule_renew(name, event.lease, event.expiry)
            if callback is not None:
                callback(reply)
        for watch in tuple(self._watches.get(event.lease, ())):
            if watch.stopped:
                continue
            self._watch_deliver(watch, reply)
            self._watch_arm(watch, holder, expiry)

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
        timer = self._renew_timers.pop(lease, None)
        if timer is not None:
            self.scheduler.cancel(timer)

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
        self._start(_Op("renew", name, lease, grant.token, grant.ttl, False, None))

    def _lose(self, name: str, lease: int) -> None:
        self._grants.pop(lease, None)
        self._cancel_renew(lease)
        if self.on_lost is not None:
            self.on_lost(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaseClient(id={self.client_id}, group={self.group}, "
            f"held={len(self._grants)}, inflight={len(self._ops)})"
        )
