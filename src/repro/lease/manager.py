"""Leader-side lease granting: TTLs, fencing tokens, takeover grace.

The manager runs on whichever process currently *is* a group's stable
leader.  Its one safety obligation — the ``no-double-grant`` chaos
invariant — is that no two clients ever hold the same lease with
overlapping validity, and that fencing tokens granted for one lease are
strictly monotonic across re-elections.  Three mechanisms deliver it
without any consensus round:

* **Tenure-scoped tokens.**  A fencing token packs the granting tenure's
  epoch (whole seconds of the leader's clock at its *first grant*,
  floored above every epoch in the merged ledger) into its high bits, a
  per-tenure counter into the middle and the leader's node id into the
  low byte, so a later tenure's tokens numerically dominate every earlier
  tenure's — even when the ledger gossip that would have carried the old
  counter was entirely lost.  The epoch is read at the first grant, not
  at takeover: the previous leader may keep granting for up to one
  detection time after this tenure begins, and an epoch stamped at
  takeover could collide with the wall-second of its final grants; the
  first grant happens a full takeover grace later, safely past them.
* **Takeover grace.**  A new leader refuses acquires until
  ``3 × detection_time + max_ttl`` seconds into its tenure: by then the
  previous leader has either demoted itself or lost its majority (and
  with it the right to grant), and every validity it could have granted
  has expired.
* **Majority guard.**  Grants and renewals require the leader to trust a
  strict majority of the group's present candidates; a leader stranded in
  a minority partition stops granting within one detection time.

Requests are additionally metered per client by a lazy token bucket so a
hot tenant is throttled at the service edge before its traffic competes
with election heartbeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.lease.ledger import LeaseLedger
from repro.metrics.trace import TraceRecorder
from repro.net.message import LeaseRecord

__all__ = ["LeaseDecision", "LeaseManager"]

#: Fencing-token layout: epoch (seconds, high bits) | counter (20 bits) |
#: node id (8 bits).  Live epochs (~1.7e9 s) shifted 28 bits stay well
#: inside 63 bits; the node byte keeps tokens of leaders granted in the
#: same (epoch, counter) slot distinct.
_EPOCH_SHIFT = 28
_COUNTER_MASK = 0xFFFFF
_COUNTER_SHIFT = 8
_NODE_MASK = 0xFF


def token_epoch(token: int) -> int:
    """The tenure epoch encoded in a fencing token's high bits."""
    return token >> _EPOCH_SHIFT


@dataclass(frozen=True, slots=True)
class LeaseDecision:
    """The manager's verdict on one request (the reply's payload)."""

    status: str  # granted | denied | throttled | info
    token: int = 0
    holder: int = -1
    expiry: float = 0.0
    retry_after: float = 0.0
    #: True iff the ledger changed (watchers are pushed the new record).
    changed: bool = False
    #: Client id of a pending handoff requester attached to a granted
    #: renew (-1 when none) — the holder's cue to transfer the lease.
    handoff: int = -1


class LeaseManager:
    """Grant logic for one group, active only while local pid leads."""

    def __init__(
        self,
        ledger: LeaseLedger,
        node_id: int,
        *,
        detection_time: float = 1.0,
        max_ttl: float = 5.0,
        client_rate: float = 2.0,
        client_burst: float = 5.0,
        quorum: Optional[Callable[[], bool]] = None,
        trace: Optional[TraceRecorder] = None,
        pid: Optional[int] = None,
    ) -> None:
        self.ledger = ledger
        self.node_id = node_id
        self.detection_time = detection_time
        self.max_ttl = max_ttl
        self.client_rate = client_rate
        self.client_burst = client_burst
        self._quorum = quorum
        self._trace = trace
        self._pid = pid
        self._tenure_start: Optional[float] = None
        #: Finalized lazily at the tenure's first grant (see _next_token).
        self._epoch: Optional[int] = None
        self._counter = 0
        #: client id -> (tokens remaining, last refill time).
        self._buckets: Dict[int, Tuple[float, float]] = {}
        #: lease id -> client id wanting the lease handed to it.  Tenure
        #: scoped (a requester must re-ask a new leader); the pending
        #: requester rides every granted renew reply until the holder
        #: transfers, releases, or the lease changes hands.
        self._handoff_wanted: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Tenure lifecycle (driven by the election's leader view)
    # ------------------------------------------------------------------
    @property
    def tenure_active(self) -> bool:
        return self._tenure_start is not None

    @property
    def grace(self) -> float:
        """Seconds into a tenure before the first acquire may be granted."""
        return 3.0 * self.detection_time + self.max_ttl

    def on_tenure_start(self, now: float) -> None:
        """Local pid became leader: open a fresh (unfinalized) token epoch.

        The epoch itself is fixed at the tenure's *first grant*: the
        leader's clock in whole seconds, floored strictly above every
        epoch in the merged ledger.  Deferring it past the takeover grace
        keeps tokens monotonic per lease even when the previous leader's
        final grants (it may grant for up to a detection time after this
        tenure begins) land in the same wall-second as this takeover and
        the gossip that would have carried them is entirely lost — clocks
        being roughly synchronized is the paper's NTP assumption, and the
        chaos checker allows for bounded drift.
        """
        self._tenure_start = now
        self._epoch = None
        self._counter = 0
        self._buckets.clear()
        self._handoff_wanted.clear()

    def on_tenure_end(self) -> None:
        """Local pid stopped leading: refuse everything until re-elected."""
        self._tenure_start = None
        self._buckets.clear()
        self._handoff_wanted.clear()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(
        self,
        op: str,
        lease: int,
        client: int,
        token: int,
        ttl: float,
        now: float,
        successor: int = -1,
    ) -> Optional[LeaseDecision]:
        """Decide one client request; None for ops this manager cannot
        serve (inactive tenure — the runtime answers with a redirect)."""
        if self._tenure_start is None:
            return None
        throttle = self._throttle(client, now)
        if throttle > 0.0:
            return LeaseDecision(status="throttled", retry_after=throttle)
        if op == "acquire":
            return self._acquire(lease, client, ttl, now)
        if op == "renew":
            return self._renew(lease, client, token, ttl, now)
        if op == "release":
            return self._release(lease, client, token, now)
        if op in ("query", "watch"):
            # A watch is a query whose reply doubles as the subscription
            # confirmation; the watcher registry lives in the runtime.
            return self._query(lease, now)
        if op == "transfer":
            return self._transfer(lease, client, token, ttl, successor, now)
        if op == "handoff":
            return self._handoff(lease, client, now)
        return LeaseDecision(status="denied")

    def _acquire(
        self, lease: int, client: int, ttl: float, now: float
    ) -> LeaseDecision:
        ready_at = self._tenure_start + self.grace
        if now < ready_at:
            # Takeover grace: the previous tenure's validities may still be
            # running; granting now could double-grant.
            return LeaseDecision(status="denied", retry_after=ready_at - now)
        if self._quorum is not None and not self._quorum():
            # Without a majority this process may be a stale leader in a
            # minority partition; it must not grant.
            return LeaseDecision(
                status="denied", retry_after=self.detection_time
            )
        holder = self.ledger.holder(lease, now)
        if holder is not None and holder.holder != client:
            return LeaseDecision(
                status="denied",
                holder=holder.holder,
                token=holder.token,
                retry_after=max(0.0, holder.expiry - now),
            )
        token = self._next_token(now)
        expiry = now + self._clamp_ttl(ttl)
        record = LeaseRecord(
            lease=lease,
            holder=client,
            token=token,
            expiry=expiry,
            granted_at=now,
            released=False,
            seq=0,
        )
        changed = self.ledger.merge_record(record)
        self._record("grant", lease, client, token, expiry, now)
        return LeaseDecision(
            status="granted",
            token=token,
            holder=client,
            expiry=expiry,
            changed=changed,
        )

    def _renew(
        self, lease: int, client: int, token: int, ttl: float, now: float
    ) -> LeaseDecision:
        if self._quorum is not None and not self._quorum():
            return LeaseDecision(
                status="denied", retry_after=self.detection_time
            )
        current = self.ledger.record(lease)
        if (
            current is None
            or current.released
            or current.holder != client
            or current.token != token
            or current.expiry <= now
        ):
            # Expired, released or superseded: the client must re-acquire
            # (and will get a fresh, larger fencing token).
            return LeaseDecision(status="denied")
        expiry = now + self._clamp_ttl(ttl)
        record = LeaseRecord(
            lease=lease,
            holder=client,
            token=token,
            expiry=max(expiry, current.expiry),
            granted_at=current.granted_at,
            released=False,
            seq=current.seq + 1,
        )
        changed = self.ledger.merge_record(record)
        self._record("renew", lease, client, token, record.expiry, now)
        handoff = self._handoff_wanted.get(lease, -1)
        if handoff == client:
            # The requester acquired the lease some other way; drop the ask.
            del self._handoff_wanted[lease]
            handoff = -1
        return LeaseDecision(
            status="granted",
            token=token,
            holder=client,
            expiry=record.expiry,
            changed=changed,
            handoff=handoff,
        )

    def _release(
        self, lease: int, client: int, token: int, now: float
    ) -> LeaseDecision:
        current = self.ledger.record(lease)
        if (
            current is None
            or current.released
            or current.holder != client
            or current.token != token
        ):
            return LeaseDecision(status="denied")
        record = LeaseRecord(
            lease=lease,
            holder=client,
            token=token,
            expiry=min(current.expiry, now),
            granted_at=current.granted_at,
            released=True,
            seq=current.seq + 1,
        )
        changed = self.ledger.merge_record(record)
        self._record("release", lease, client, token, record.expiry, now)
        self._handoff_wanted.pop(lease, None)
        return LeaseDecision(
            status="granted", token=token, holder=client, changed=changed
        )

    def _transfer(
        self,
        lease: int,
        client: int,
        token: int,
        ttl: float,
        successor: int,
        now: float,
    ) -> LeaseDecision:
        """Hand the lease from its holder to ``successor`` without waiting
        out the TTL.  The successor's grant gets a fresh fencing token from
        :meth:`_next_token`, so tokens stay strictly monotonic across the
        handoff and the old holder's token fences exactly as if the lease
        had expired."""
        if successor < 0 or successor == client:
            return LeaseDecision(status="denied")
        if self._quorum is not None and not self._quorum():
            return LeaseDecision(
                status="denied", retry_after=self.detection_time
            )
        current = self.ledger.holder(lease, now)
        if current is None or current.holder != client or current.token != token:
            # Only the current holder (with its live token) may hand off.
            return LeaseDecision(
                status="denied",
                holder=current.holder if current is not None else -1,
            )
        new_token = self._next_token(now)
        expiry = now + self._clamp_ttl(ttl)
        record = LeaseRecord(
            lease=lease,
            holder=successor,
            token=new_token,
            expiry=expiry,
            granted_at=now,
            released=False,
            seq=0,
        )
        changed = self.ledger.merge_record(record)
        self._record("transfer", lease, successor, new_token, expiry, now)
        wanted = self._handoff_wanted.get(lease, -1)
        if wanted == successor or wanted == client:
            del self._handoff_wanted[lease]
        return LeaseDecision(
            status="granted",
            token=new_token,
            holder=successor,
            expiry=expiry,
            changed=changed,
        )

    def _handoff(self, lease: int, client: int, now: float) -> LeaseDecision:
        """Register ``client``'s wish to take over the lease; answered like
        a query.  The wish rides the holder's next renew reply (see
        :meth:`_renew`); nothing is registered for an unheld lease — the
        requester can simply acquire."""
        holder = self.ledger.holder(lease, now)
        if holder is None:
            return LeaseDecision(status="info")
        if holder.holder != client:
            self._handoff_wanted[lease] = client
        return LeaseDecision(
            status="info",
            token=holder.token,
            holder=holder.holder,
            expiry=holder.expiry,
        )

    def _query(self, lease: int, now: float) -> LeaseDecision:
        holder = self.ledger.holder(lease, now)
        if holder is None:
            return LeaseDecision(status="info")
        return LeaseDecision(
            status="info",
            token=holder.token,
            holder=holder.holder,
            expiry=holder.expiry,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _clamp_ttl(self, ttl: float) -> float:
        if ttl <= 0.0:
            return self.max_ttl
        return min(ttl, self.max_ttl)

    def _next_token(self, now: float) -> int:
        if self._epoch is None:
            # First grant of the tenure — a full takeover grace after the
            # previous leader's last possible grant, so the wall-second
            # here strictly exceeds every epoch it could have minted.
            self._epoch = max(int(now), token_epoch(self.ledger.max_token) + 1)
        self._counter += 1
        if self._counter > _COUNTER_MASK:
            self._epoch += 1
            self._counter = 1
        token = (
            (self._epoch << _EPOCH_SHIFT)
            | (self._counter << _COUNTER_SHIFT)
            | (self.node_id & _NODE_MASK)
        )
        if token <= self.ledger.max_token:
            # The ledger merged a higher token mid-tenure (e.g. from a
            # competing tenure that briefly overlapped): jump above it.
            self._epoch = token_epoch(self.ledger.max_token) + 1
            self._counter = 1
            token = (
                (self._epoch << _EPOCH_SHIFT)
                | (self._counter << _COUNTER_SHIFT)
                | (self.node_id & _NODE_MASK)
            )
        return token

    def _throttle(self, client: int, now: float) -> float:
        """Charge one request to ``client``'s bucket; >0 = retry-after."""
        tokens, stamp = self._buckets.get(client, (self.client_burst, now))
        tokens = min(self.client_burst, tokens + (now - stamp) * self.client_rate)
        if tokens >= 1.0:
            self._buckets[client] = (tokens - 1.0, now)
            return 0.0
        self._buckets[client] = (tokens, now)
        return (1.0 - tokens) / self.client_rate

    def _record(
        self,
        action: str,
        lease: int,
        client: int,
        token: int,
        expiry: float,
        now: float,
    ) -> None:
        if self._trace is not None:
            self._trace.record_lease(
                now,
                self.ledger.group,
                self._pid if self._pid is not None else self.node_id,
                f"{action} lease={lease} client={client} token={token} "
                f"expiry={expiry!r}",
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.tenure_active else "idle"
        return (
            f"LeaseManager(group={self.ledger.group}, node={self.node_id}, "
            f"{state}, epoch={self._epoch})"
        )
