"""The vectorized steady-state deadline kernel (the batch tick engine).

The failure-detection plane is timeout-dominated: every received heartbeat
*extends* a freshness deadline, but a deadline only *fires* when its sender
actually went silent.  The scalar path models each deadline as one
:class:`~repro.runtime.timers.VariableTimer` — one lazy heap entry per
monitor that wakes once per heartbeat period η just to discover the deadline
moved and re-arm itself.  With N node-pair monitors that is N heap events
per η of pure bookkeeping, and on a 100-node cell those wakes dominate the
event stream.

:class:`DeadlinePool` replaces the per-monitor entries with **one** shared
sentinel event over a pre-laid-out array of deadlines:

* every monitor owns a *slot* (an index into a flat ``float64`` array);
* extending a deadline is a plain array store — no heap traffic at all;
* one sentinel engine event is armed at the *current minimum* deadline and,
  on waking, batch-evaluates the whole array with numpy (``deadlines <=
  now``), fires the truly-expired slots, and re-arms at the new minimum.

Because the array always holds the *current* deadlines (the scalar path's
heap entries are stale by design), each wake re-arms ≈ δ ahead instead of
η/N ahead: the pool wakes about once per timeout shift δ for the whole
monitor population, versus once per η *per monitor* for the scalar path.
Truly-expired slots still fire at **exactly** their deadline's virtual time
— the sentinel is always armed at a time ≤ every armed deadline, so it
cannot skip past one — which is what keeps trace digests bit-identical to
the scalar path (the same discipline ``BufferedStream`` proved for RNG).

Scalar-fallback rules (the irregular paths stay on ``VariableTimer``):

* only a plain :class:`~repro.sim.engine.Simulator` gets a pool.  Chaos
  builds wrap every node in a :class:`~repro.sim.engine.DriftingScheduler`
  whose clock-rate changes remap pending fire points — under drift the
  pooled sentinel and per-monitor entries would wake at (harmlessly but
  observably) different local times, so chaos replay and the fuzz grammar
  run on the exact pre-existing scalar path;
* the live :class:`~repro.runtime.realtime.RealtimeScheduler` path is
  untouched for the same reason (wall clocks cannot batch-wake exactly);
* :func:`force_scalar` disables pooling globally — the property tests use
  it to prove batch == scalar bit-exactness on the same configuration.
  There a plain simulator's timers are :class:`SlotOrderedTimer`, which
  fire an instant's expiries in slot order as the pool does (the survivors
  of one broadcast share a freshness deadline to the bit).

Crashes, elections and chaos steps need no special-casing: they arrive as
ordinary callbacks that clear/extend slots, and a cleared slot is simply an
``inf`` entry the batch scan never selects.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from itertools import count
from math import inf
from typing import Callable, List, Optional

import numpy as np

from repro.runtime.timers import VariableTimer
from repro.sim.engine import Simulator

__all__ = [
    "DeadlinePool",
    "DeliveryBatch",
    "PoolTimer",
    "SlotOrderedTimer",
    "deadline_timer",
    "delivery_batch_for",
    "force_scalar",
]

#: Module switch: False forces every new timer onto the scalar path.
_POOLING = True

#: Below this many slots the batch scan is a plain Python loop — numpy's
#: call overhead only pays off once the array is reasonably wide.
_NUMPY_MIN_SLOTS = 32


@contextmanager
def force_scalar():
    """Disable pooling for timers created inside the context (tests)."""
    global _POOLING
    previous = _POOLING
    _POOLING = False
    try:
        yield
    finally:
        _POOLING = previous


class DeadlinePool:
    """A shared array of lazy deadlines behind one sentinel engine event."""

    __slots__ = (
        "_scheduler",
        "_data",
        "_callbacks",
        "_free",
        "_handle",
        "_armed_at",
    )

    def __init__(self, scheduler) -> None:
        self._scheduler = scheduler
        #: Flat pre-laid-out deadline storage; ``inf`` = disarmed.  The
        #: per-heartbeat extend path does one scalar load + store; the
        #: sentinel batch-scans the whole array in one vector comparison.
        self._data = np.full(64, inf)
        self._callbacks: List[Optional[Callable[[], None]]] = [None] * 64
        self._free = list(range(63, -1, -1))
        self._handle = None
        #: Virtual time the pending sentinel entry targets (inf = none).
        self._armed_at = inf

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def register(self, callback: Callable[[], None]) -> int:
        """Claim a slot (disarmed) firing ``callback`` on expiry."""
        free = self._free
        if not free:
            self._grow()
        slot = free.pop()
        self._callbacks[slot] = callback
        self._data[slot] = inf
        return slot

    def _grow(self) -> None:
        old = len(self._data)
        grown = np.full(2 * old, inf)
        grown[:old] = self._data
        self._data = grown
        self._callbacks.extend([None] * old)
        self._free.extend(range(2 * old - 1, old - 1, -1))

    def release(self, slot: int) -> None:
        """Return a slot to the free list (its timer reached end of life)."""
        self._data[slot] = inf
        self._callbacks[slot] = None
        self._free.append(slot)

    # ------------------------------------------------------------------
    # Deadline ops (VariableTimer-equivalent semantics per slot)
    # ------------------------------------------------------------------
    def set_deadline(self, slot: int, deadline: float) -> None:
        """Arm (or move, in either direction) ``slot`` to ``deadline``."""
        self._data[slot] = deadline
        if deadline < self._armed_at:
            self._arm(deadline)

    def extend_to(self, slot: int, deadline: float) -> None:
        """Move ``slot`` to ``deadline`` if later than current (hot path)."""
        data = self._data
        current = data[slot]
        if deadline > current or current == inf:
            data[slot] = deadline
            if deadline < self._armed_at:
                # Unlike a private VariableTimer entry, the shared sentinel
                # may sit beyond a *newly armed* slot's deadline.
                self._arm(deadline)

    def clear(self, slot: int) -> None:
        """Disarm ``slot``; the sentinel skips ``inf`` entries lazily."""
        self._data[slot] = inf

    def deadline_of(self, slot: int) -> Optional[float]:
        value = self._data[slot]
        return None if value == inf else value

    # ------------------------------------------------------------------
    # The sentinel
    # ------------------------------------------------------------------
    def _arm(self, time: float) -> None:
        if self._handle is not None:
            self._scheduler.cancel(self._handle)
        self._armed_at = time
        self._handle = self._scheduler.schedule_at(time, self._fire)

    def _fire(self) -> None:
        self._handle = None
        self._armed_at = inf
        now = self._scheduler.now
        view = self._data
        if len(view) >= _NUMPY_MIN_SLOTS:
            expired = np.flatnonzero(view <= now)
            slots = expired.tolist() if expired.size else ()
        else:
            slots = [i for i, value in enumerate(view) if value <= now]
        for slot in slots:
            # Always re-read through self: a callback may extend or clear
            # later slots, or grow the array (replacing the buffer).
            if self._data[slot] <= now:
                self._data[slot] = inf
                callback = self._callbacks[slot]
                if callback is not None:
                    callback()
        # Re-arm at the new minimum (callbacks may already have re-armed).
        minimum = float(self._data.min())
        if minimum < self._armed_at:
            self._arm(minimum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        armed = int((self._data != inf).sum())
        return f"DeadlinePool(slots={len(self._data)}, armed={armed})"


def _closed(deadline: float) -> None:
    """A closed :class:`PoolTimer`'s ``extend_to``: its slot may be reused."""


class PoolTimer:
    """Drop-in :class:`VariableTimer` facade over one pool slot.

    ``extend_to``, once per heartbeat, is the pool's own bound to the slot:
    a monitor's extension reaches the slot in one call.
    """

    __slots__ = ("_pool", "_slot", "extend_to")

    def __init__(self, pool: DeadlinePool, callback: Callable[[], None]) -> None:
        self._pool = pool
        self._slot = slot = pool.register(callback)
        self.extend_to = partial(pool.extend_to, slot)

    @property
    def deadline(self) -> Optional[float]:
        if self._slot < 0:
            return None
        return self._pool.deadline_of(self._slot)

    @property
    def armed(self) -> bool:
        return self.deadline is not None

    def set_deadline(self, deadline: float) -> None:
        if self._slot >= 0:
            self._pool.set_deadline(self._slot, deadline)

    def clear(self) -> None:
        if self._slot >= 0:
            self._pool.clear(self._slot)

    def close(self) -> None:
        """Release the slot permanently (monitor teardown)."""
        if self._slot >= 0:
            self._pool.release(self._slot)
            self._slot = -1
            self.extend_to = _closed


class SlotOrderedTimer(VariableTimer):
    """A :class:`VariableTimer` that fires through a pool slot (scalar path).

    A true expiry sets the slot to ``now`` instead of firing, so the pool
    fires an instant's expiries in slot order, as it fires pooled timers.
    Moving or clearing the deadline withdraws a pending expiry; a closed
    timer is inert, like a closed :class:`PoolTimer`.
    """

    __slots__ = ("_pool", "_slot")

    def __init__(self, scheduler, pool: DeadlinePool, callback) -> None:
        super().__init__(scheduler, lambda: pool.set_deadline(self._slot, scheduler.now))
        self._pool = pool
        self._slot = pool.register(callback)

    def set_deadline(self, deadline: float) -> None:
        if self._slot >= 0:
            self._pool.clear(self._slot)
            super().set_deadline(deadline)

    def extend_to(self, deadline: float) -> None:
        if self._slot >= 0:
            self._pool.clear(self._slot)
            super().extend_to(deadline)

    def clear(self) -> None:
        if self._slot >= 0:
            self._pool.clear(self._slot)
        super().clear()

    def close(self) -> None:
        self.clear()
        if self._slot >= 0:
            self._pool.release(self._slot)
            self._slot = -1


class DeliveryBatch:
    """In-flight message arrivals drained by the engine's own run loop.

    The scalar datapath turns every transmitted message into its own engine
    event (``schedule(delay, link._deliver, message, deliver)``): an
    :class:`~repro.sim.engine.Event` allocation, a heap push and a heap pop
    per datagram.  The batch instead keeps pending arrivals in a private
    heap of plain tuples that the engine merges with its event heap inside
    ``run_until``/``step`` — whichever head is earlier fires next, and a
    popped arrival bumps its link counters immediately before delivery
    exactly as the scalar ``Link._deliver`` would.  No engine event exists
    per message: no :class:`~repro.sim.engine.Event` allocation, no
    sentinel to cancel and re-arm, no handle bookkeeping — one heap push at
    transmit and one pop at delivery.

    Bit-identity argument (the same discipline as :class:`DeadlinePool`):

    * entries drain in ``(arrival, submission)`` order — submission order
      is transmit order, which is the scalar path's engine-seq tie-break
      for equal-time arrivals;
    * positive exponential delays produce almost-surely distinct arrival
      times, so ordering against unrelated engine events is decided by time
      alone, identically on both paths (on an exact tie the engine lets the
      arrival fire first — the drain-everything-due behaviour of the
      per-arrival event the scalar path would have scheduled earlier);
    * zero-delay links never reach the batch at all —
      :meth:`~repro.net.links.Link.transmit` keeps their exact-"now"
      arrivals on the scalar path, where each occupies its own engine-seq
      position among same-time events.

    Like the pool, only a plain :class:`~repro.sim.engine.Simulator` gets a
    batch (see :func:`delivery_batch_for`): chaos overlays draw per-message
    faults and jitter, and drifting clocks remap fire points, so those paths
    stay scalar — as does everything under :func:`force_scalar`.

    Honest accounting: the engine still counts each drained arrival into
    ``events_executed`` (it is a dispatched callback, exactly as on the
    scalar path), so event counts and events/sec stay comparable across
    the two datapaths; what disappears is the per-message engine-heap
    traffic and ``Event`` allocation around each of those dispatches.
    """

    __slots__ = ("heap", "order", "deliveries")

    def __init__(self, scheduler) -> None:
        #: Pending arrivals: ``(arrival, submission, link, message, deliver)``,
        #: pushed by :meth:`~repro.net.links.Link.transmit` itself, its
        #: ``submission`` drawn from :attr:`order`.
        self.heap: list = []
        self.order = count()
        #: Messages delivered through the batch.
        self.deliveries = 0
        # The engine's run loop is what drains the batch, so attach at
        # construction — this keeps a hand-built ``DeliveryBatch(sim)``
        # (kernel tests) behaviourally identical to the shared instance
        # :func:`delivery_batch_for` lazily installs.
        scheduler.delivery_batch = self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeliveryBatch(pending={len(self.heap)}, "
            f"deliveries={self.deliveries})"
        )


def delivery_batch_for(scheduler) -> Optional[DeliveryBatch]:
    """The scheduler's shared :class:`DeliveryBatch`, or None off the path.

    Mirrors :func:`deadline_timer`'s fallback rules: only a plain
    :class:`Simulator` batches (chaos' drifting schedulers and the realtime
    scheduler stay scalar), and :func:`force_scalar` disables batching so the
    property tests can A/B the two paths on identical configurations.
    """
    if _POOLING and type(scheduler) is Simulator:
        batch = scheduler.delivery_batch
        if batch is None:
            batch = scheduler.delivery_batch = DeliveryBatch(scheduler)
        return batch
    return None


def deadline_timer(scheduler, callback: Callable[[], None]):
    """A lazy-deadline timer: pooled on a plain simulator, scalar otherwise.

    The single constructor the failure detectors use; see the module
    docstring for the scalar-fallback rules.
    """
    if type(scheduler) is Simulator:
        pool = scheduler.deadline_pool
        if pool is None:
            pool = scheduler.deadline_pool = DeadlinePool(scheduler)
        if _POOLING:
            return PoolTimer(pool, callback)
        return SlotOrderedTimer(scheduler, pool, callback)
    return VariableTimer(scheduler, callback)
