"""The narrow contracts between the daemon and the world it runs in.

The paper presents Ω as a deployable *service*: a per-workstation daemon
that keeps time, arms timers and exchanges UDP datagrams.  Everything the
daemon needs from its environment fits in three small protocols:

* :class:`Clock` — "what time is it" (``now``, seconds as a float);
* :class:`Scheduler` — a clock that can also arm and cancel one-shot
  callbacks (``schedule``/``schedule_at``/``cancel``), returning a
  cancellable :class:`TimerHandle`;
* :class:`Transport` — "deliver this :class:`~repro.net.message.Message`
  to its destination node" (``send``, and ``send_batch`` for a fan-out).

Two engines implement them:

* the deterministic discrete-event :class:`~repro.sim.engine.Simulator`
  (Clock + Scheduler) together with :class:`~repro.net.network.Network`
  (Transport) — the world every experiment and test runs in;
* :class:`~repro.runtime.realtime.RealtimeScheduler` (Clock + Scheduler on
  an asyncio event loop) together with
  :class:`~repro.runtime.realtime.UdpTransport` — real wall-clock time and
  real UDP datagrams, used by ``repro.cli live`` clusters.

Every layer above the engine — timers, failure-detector monitors, the
heartbeat scheduler, the daemon, the election algorithms — is written
against these protocols only, so the exact same service code runs
unchanged in both worlds.  A fourth protocol, :class:`FdPlane`, is the seam
*inside* the daemon: what the service, the group runtimes and the frame
batcher may ask of the failure-detection plane, whichever one was built.

The protocols are ``runtime_checkable``; tests assert the concrete engines
satisfy them with plain ``isinstance`` checks.  (As always with runtime
protocol checks, only method/attribute *presence* is verified, not
signatures.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, Mapping
from typing import Optional, Protocol, Tuple, runtime_checkable

if TYPE_CHECKING:  # typing-only: keep this module import-free at runtime
    from repro.fd.plane import PlaneListener
    from repro.fd.qos import FDParams, FDQoS
    from repro.net.message import BatchFrame, Message, SwimUpdate

__all__ = ["Clock", "Scheduler", "TimerHandle", "Transport", "FdPlane"]


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable, single-shot scheduled callback.

    ``time`` is the absolute fire time on the owning scheduler's clock;
    ``cancelled`` is True once the handle was cancelled.  Handles are
    single-shot: after firing they stay inert (cancelling is a no-op).
    """

    time: float
    cancelled: bool

    def cancel(self) -> None:
        """Mark the handle cancelled; the callback will never run."""
        ...


@runtime_checkable
class Clock(Protocol):
    """A monotonic source of the current time, in seconds."""

    @property
    def now(self) -> float:
        """The current time.  Virtual seconds in simulation; Unix epoch
        seconds in the realtime engine (so timestamps carried on messages
        compare across processes on NTP-synchronized hosts)."""
        ...


@runtime_checkable
class Scheduler(Clock, Protocol):
    """A clock that can arm and cancel one-shot callbacks.

    Callbacks run on the engine's (single) event thread/loop, so service
    code never needs locks.  Two callbacks scheduled for the same instant
    fire in scheduling order.
    """

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` (>= 0) seconds; returns the handle.

        Positional arguments are carried on the timer entry (as with
        ``asyncio.call_later``), so hot paths can schedule a prebound method
        with per-event data instead of allocating a closure per event.
        """
        ...

    def schedule_at(self, time: float, fn: Callable[..., None], *args) -> TimerHandle:
        """Run ``fn(*args)`` at absolute time ``time`` on this scheduler's clock."""
        ...

    def cancel(self, handle: "TimerHandle | None") -> None:
        """Cancel ``handle`` if it is not None and still pending.

        Engines may do more than ``handle.cancel()`` — the simulator counts
        cancellations to keep its heap compact — so callers should always
        route cancellations through the scheduler that created the handle.
        """
        ...


@runtime_checkable
class Transport(Protocol):
    """Unreliable, unordered datagram delivery between nodes.

    ``send`` routes ``message`` from ``message.sender_node`` to
    ``message.dest_node`` and may silently drop it — exactly UDP's
    contract, and exactly what the paper's failure-detector machinery is
    built to tolerate.  Sending never blocks and never raises for
    transient network conditions.
    """

    def send(self, message: "Message") -> None:
        """Best-effort delivery of ``message`` to its destination node."""
        ...

    def send_batch(self, messages: Iterable["Message"]) -> None:
        """One per-round fan-out: per message exactly :meth:`send`, in
        order; an engine may carry the burst more cheaply (the simulator
        offers it in one loop, not one ``send`` call each)."""
        ...


@runtime_checkable
class FdPlane(Protocol):
    """The node-level failure-detection plane, as the rest of the daemon
    sees it — :class:`~repro.fd.plane.NodeFdPlane` (all pairs, the paper's)
    and :class:`~repro.fd.swim.SwimFdPlane` (randomized probing) both
    satisfy it, and nothing above may ask which one it holds.

    Groups subscribe to peer *nodes* (a pair runs at the strictest QoS among
    its subscribers; the last ``unregister_interest`` returns True and drops
    the peer); trust transitions fan out to the subscribed listeners in
    registration order.  ``monitors`` maps a peer node to its state, born
    *untrusted* — a membership record proves nothing about the process —
    and exposing at least ``trusted`` / ``trusted_since`` (the election's
    fused trust check indexes it).  ``observe_frame`` runs after a frame's
    cells were ingested.  ``grant_grace`` is optimistic trust for one
    budget, ignored once evidence or a suspicion exists; ``trusted_for`` is
    seconds of *continuous* trust (``now`` for the local node);
    ``reconfigure_ready`` yields the pairs whose heartbeat rate the daemon
    should renegotiate.  After ``shutdown`` every call is inert.
    """

    node_id: int
    monitors: Mapping[int, Any]
    #: Whether a frame *header* alone is the liveness signal (all pairs: one
    #: freshness monitor per node pair, fed at η, so an echo is due within a
    #: period).  Where it is not, frames are bounded dissemination carriers:
    #: the batcher skips frames with nothing to say, a cell's echo rides
    #: whatever flows back (a frame, a probe or its answer) and only such a
    #: carrier without it shows the cell lost (see :mod:`repro.core.cells`).
    #: Group gossip reads no plane flag.
    header_is_liveness: bool

    def register_interest(
        self, group: int, node: int, qos: "FDQoS", listener: "PlaneListener"
    ) -> None: ...
    def unregister_interest(self, group: int, node: int) -> bool: ...
    def ensure_monitor(self, node: int) -> Optional[Any]: ...
    def observe_frame(self, frame: "BatchFrame") -> None: ...
    def trusted(self, node: int) -> bool: ...
    def trusted_for(self, node: int, now: float) -> float: ...
    def grant_grace(self, node: int) -> None: ...
    def delta_for(self, node: int) -> float: ...
    def reconfigure_ready(self) -> Iterator[Tuple[int, "FDParams"]]: ...
    def forget_node(self, node: int) -> None: ...
    def shutdown(self) -> None: ...

    # The plane's own dissemination, with the defaults of a plane fed by
    # frame headers alone (an explicit subclass inherits them): the
    # node-level message types it consumes, by exact type; the rumours it
    # piggybacks on frames and HELLOs and takes back; and the frame batcher
    # it asks for an out-of-schedule round and trades cell echoes with.
    def message_handlers(self) -> Dict[type, Callable[["Message"], None]]:
        return {}

    def apply_updates(self, updates: Tuple["SwimUpdate", ...]) -> None: ...

    def has_rumours(self) -> bool:
        return False

    def piggyback(self, carrier: str = "probe") -> Tuple["SwimUpdate", ...]:
        return ()

    def set_batcher(self, batcher) -> None: ...

    def observed_loss(self) -> float:
        """Fraction of peers' frames this node saw go missing, pooled over
        the plane's incoming streams; exactly 0.0 until a gap was seen, and
        on a plane that numbers no per-peer stream."""
        return 0.0
