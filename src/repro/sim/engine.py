"""The discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`, and it has
one heap, :attr:`Simulator.heap`, holding two kinds of entry:

* ``(time, seq, event)`` — a scheduled callback (:meth:`Simulator.schedule`,
  :meth:`Simulator.schedule_at`);
* ``(time, seq, message, deliver)`` — a message arrival, pushed by the
  send loop of :class:`~repro.net.network.Network` itself.  The run loop fires it
  inline, ``deliver(message)``, so an arrival costs one tuple push and one
  pop — no :class:`Event`, no handle — and still counts into
  ``events_executed``.

Both kinds draw ``seq`` from the one counter :attr:`Simulator.order`, so heap
sifts compare plain floats and ints at C speed (sequence numbers are unique:
an entry's third field is never compared) and every entry, arrival or
callback, fires in ``(time, push order)``.  Cancellation is lazy (events
are flagged and skipped when popped), which keeps both
:meth:`Simulator.cancel` and the hot pop path O(log n) amortized.

Two mitigations keep cancellation-heavy workloads (failure-detector timers
re-armed on every heartbeat) from degrading the pop path:

* Cancellations routed through :meth:`Simulator.cancel` are counted, and once
  cancelled entries dominate the heap it is *compacted* in one O(n) pass —
  a batch drain that bounds the fraction of dead entries every pop has to
  step over.  Cancelled entries that reach the heap top are popped eagerly
  by :meth:`Simulator._drop_cancelled_head` (``step``, ``peek_time``) or
  skipped as they are popped (``run_until``).
* The ``run_until`` loop binds the heap and ``heappop`` locally and counts
  executed events in a local, so the per-event cost is one pop, one clock
  store and the callback itself.

Callbacks may be scheduled with positional arguments
(``schedule(delay, fn, *args)``), which lets hot paths pass per-event data
without allocating a fresh closure per event.

Determinism guarantees:

* Two entries due at the same virtual time fire in push order (the
  monotonically increasing sequence number breaks ties).
* The engine itself draws no randomness; all stochastic behaviour lives in
  :class:`~repro.sim.rng.RngRegistry` streams owned by components.

:class:`Simulator` is the discrete-event implementation of the
:class:`~repro.runtime.base.Clock` + :class:`~repro.runtime.base.Scheduler`
protocols (and :class:`Event` of :class:`~repro.runtime.base.TimerHandle`);
the service stack is written against those protocols, so the same daemon
code also runs on :class:`~repro.runtime.realtime.RealtimeScheduler` over
real wall-clock time.
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush
from itertools import count
from typing import Callable, Optional

__all__ = ["Event", "SimulationError", "Simulator", "DriftingScheduler"]

_NO_ARGS: tuple = ()


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling into the past)."""


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Events are single-shot.  :attr:`cancelled` may be set through
    :meth:`Simulator.cancel` (or :meth:`cancel`) at any point before the event
    fires; a cancelled event is silently skipped by the event loop.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_owner")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple = _NO_ARGS,
        owner: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self.cancelled = False
        self._owner = owner

    def cancel(self) -> None:
        """Mark this event as cancelled; it will never fire.

        Delegates to the owning simulator so its count of cancelled heap
        entries (behind pending counts and compaction) stays exact no matter
        which cancellation entry point callers use.
        """
        if self._owner is not None:
            self._owner.cancel(self)
        else:  # pragma: no cover - only reachable for hand-built events
            self.cancelled = True
            self.fn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run_until(10.0)

    The clock unit is the *second* throughout the code base, matching the
    paper's reporting units.
    """

    #: Compaction triggers once at least this many cancelled entries are in
    #: the heap *and* they outnumber the live ones; the floor keeps tiny
    #: heaps from compacting on every cancellation.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current virtual time, in seconds: a plain attribute the run loops
        #: write, read on every heartbeat's send and receive.
        self.now = float(start_time)
        #: The one event heap: ``(time, seq, event)`` callbacks and
        #: ``(time, seq, message, deliver)`` arrivals (module notes).
        self.heap: list = []
        #: Tie-break sequence numbers of every heap entry, in push order.
        self.order = count(1)
        self._running = False
        self._stopped = False
        #: Cancelled entries still in the heap; exact, so pending_count()
        #: is ``len(heap)`` minus this.
        self._cancelled_pending = 0
        #: Number of events executed so far (arrivals included, skipped
        #: cancellations excluded).
        self.events_executed = 0
        #: Number of O(n) batch drains of cancelled entries performed.
        self.compactions = 0
        #: Lazily-attached :class:`~repro.sim.vector.DeadlinePool` — the
        #: vectorized deadline kernel shared by every failure-detector
        #: timer on this simulator (None until the first pooled timer).
        self.deadline_pool = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative.  Returns the :class:`Event` handle,
        which can be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = next(self.order)
        event = Event(time, seq, fn, args, owner=self)
        _heappush(self.heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., None], *args) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        seq = next(self.order)
        event = Event(time, seq, fn, args, owner=self)
        _heappush(self.heap, (time, seq, event))
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel ``event`` if it is not ``None`` and still pending.

        All cancellations funnel through here (:meth:`Event.cancel`
        delegates back), so dead entries are always counted and — once they
        dominate the heap — drained in one batch instead of being skipped
        one heap-pop at a time.
        """
        if event is not None and not event.cancelled:
            # Only still-pending events (fn set) hold a heap entry; cancelling
            # an already-fired event must not inflate the dead-entry count.
            pending = event.fn is not None
            event.cancelled = True
            event.fn = None  # break reference cycles early
            event.args = _NO_ARGS
            if pending:
                self._cancelled_pending += 1
                if (
                    self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
                    and self._cancelled_pending * 2 >= len(self.heap)
                ):
                    self._compact()

    def _compact(self) -> None:
        """Batch-drain cancelled entries and restore the heap invariant.

        In-place (``heap[:] = ...``): the run loops hold a local reference to
        the heap list, so the object identity must survive a compaction
        triggered from inside an event callback.
        """
        heap = self.heap
        heap[:] = [entry for entry in heap if len(entry) > 3 or not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        self.compactions += 1

    def _drop_cancelled_head(self) -> None:
        """Pop cancelled entries off the heap top, keeping the count exact."""
        heap = self.heap
        while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event or message arrival.

        Returns False if none remain.
        """
        self._drop_cancelled_head()
        if not self.heap:
            return False
        entry = heapq.heappop(self.heap)
        self.now = entry[0]
        self.events_executed += 1
        if len(entry) == 3:
            event = entry[2]
            fn = event.fn
            args = event.args
            event.fn = None
            event.args = _NO_ARGS
            fn(*args)  # type: ignore[misc]  (non-cancelled events keep their fn)
        else:
            _, _, message, deliver = entry
            deliver(message)
        return True

    def run_until(self, time: float) -> None:
        """Run events until the virtual clock reaches ``time``.

        Events scheduled exactly at ``time`` are executed.  After the call,
        ``now`` equals ``time`` (even when the event queue drained early), so
        successive ``run_until`` calls compose predictably.
        """
        if time < self.now:
            raise SimulationError(f"cannot run backwards (t={time} < now={self.now})")
        heap = self.heap
        heappop = heapq.heappop
        executed = 0
        self._stopped = False
        self._running = True
        try:
            while heap and not self._stopped:
                entry = heap[0]
                at = entry[0]
                if at > time:
                    break
                heappop(heap)
                if len(entry) == 3:
                    event = entry[2]
                    fn = event.fn
                    if fn is None:  # cancelled (a fired event has left the heap)
                        self._cancelled_pending -= 1
                        continue
                    self.now = at
                    args = event.args
                    event.fn = None
                    event.args = _NO_ARGS
                    executed += 1
                    fn(*args)
                else:
                    # A message arrival.  A message already on the wire when
                    # its link goes down is still delivered (a crash stops
                    # the sender's messages from the moment of the crash,
                    # paper footnote 5).
                    _, _, message, deliver = entry
                    self.now = at
                    executed += 1
                    deliver(message)
        finally:
            self._running = False
            self.events_executed += executed
        if not self._stopped:
            self.now = max(self.now, time)

    def run(self) -> None:
        """Run until the event queue is exhausted or :meth:`stop` is called."""
        self._stopped = False
        self._running = True
        try:
            while not self._stopped and self.step():
                pass
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the currently running loop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled entries.

        O(1) and exact: the heap length less the cancelled entries still in
        it.  Message arrivals count, so "pending == 0" means "nothing left
        to run".
        """
        return len(self.heap) - self._cancelled_pending

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event or arrival, or None.

        Pops any cancelled entries sitting at the head (via
        :meth:`_drop_cancelled_head`) so the answer is the next entry that
        will actually fire.
        """
        self._drop_cancelled_head()
        return self.heap[0][0] if self.heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_count()}, "
            f"executed={self.events_executed})"
        )


class _DriftHandle:
    """Timer handle of a :class:`DriftingScheduler`.

    Wraps the base scheduler's handle so ``time`` is expressed on the
    *drifted* clock — callers like
    :class:`~repro.runtime.timers.VariableTimer` compare handle times
    against deadlines of their own clock, so the two must share a domain.
    """

    __slots__ = ("time", "inner")

    def __init__(self, time: float, inner) -> None:
        self.time = time
        self.inner = inner

    @property
    def cancelled(self) -> bool:
        return self.inner.cancelled

    def cancel(self) -> None:
        self.inner.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_DriftHandle(t={self.time:.6f}, inner={self.inner!r})"


class DriftingScheduler:
    """A per-node *view* of a base scheduler whose clock can drift.

    The paper's failure detector assumes synchronized workstation clocks
    (NFD-S compares sender timestamps with the local clock); chaos
    scenarios attack exactly that assumption.  A ``DriftingScheduler``
    wraps the shared simulator and presents a node-local clock

        ``now = local_anchor + (base.now - base_anchor) * rate``

    where ``rate`` is local seconds per base second (1.0 = perfect sync,
    1.02 = a clock running 2% fast).  Rate changes preserve continuity
    (the local clock never jumps when drift starts or changes), and
    :meth:`resync` models an NTP step back onto the base clock.

    Delays handed to :meth:`schedule` are *local* seconds and are mapped
    onto the base clock, so a fast node really does fire its heartbeat
    timers early relative to the rest of the cluster.  ``schedule_at``
    clamps targets that drifted into the past to "now" (the realtime
    scheduler does the same — wall clocks cannot re-run the past).
    """

    def __init__(self, base, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError(f"clock rate must be positive (got {rate})")
        self._base = base
        self._rate = float(rate)
        self._base_anchor = base.now
        self._local_anchor = base.now

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._local_anchor + (self._base.now - self._base_anchor) * self._rate

    @property
    def rate(self) -> float:
        """Local seconds per base second (1.0 = no drift)."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Change the drift rate; the local clock stays continuous."""
        if rate <= 0:
            raise ValueError(f"clock rate must be positive (got {rate})")
        self._local_anchor = self.now
        self._base_anchor = self._base.now
        self._rate = float(rate)

    def resync(self) -> None:
        """Step the local clock back onto the base clock (rate 1, offset 0).

        The step may move local time in either direction; pending timers
        keep their base-clock fire points (re-arming timers such as
        :class:`~repro.runtime.timers.VariableTimer` self-correct on the
        next firing, exactly as they would after a real NTP step).
        """
        self._rate = 1.0
        self._base_anchor = self._base.now
        self._local_anchor = self._base.now

    @property
    def offset(self) -> float:
        """Current local-minus-base clock offset, in seconds."""
        return self.now - self._base.now

    # ------------------------------------------------------------------
    # Scheduler protocol
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args) -> _DriftHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        inner = self._base.schedule(delay / self._rate, fn, *args)
        return _DriftHandle(self.now + delay, inner)

    def schedule_at(self, time: float, fn: Callable[..., None], *args) -> _DriftHandle:
        delay = max(0.0, time - self.now)
        inner = self._base.schedule(delay / self._rate, fn, *args)
        return _DriftHandle(max(time, self.now), inner)

    def cancel(self, handle) -> None:
        if handle is None:
            return
        inner = handle.inner if isinstance(handle, _DriftHandle) else handle
        self._base.cancel(inner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DriftingScheduler(now={self.now:.6f}, rate={self._rate})"
