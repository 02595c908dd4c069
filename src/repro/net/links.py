"""Directed link models: lossy links and links prone to crashes.

Faithful to the paper's §6.1 model:

* **Lossy link** — each message is dropped independently with probability
  ``pL``; a non-dropped message is delayed by an exponential variate with
  mean ``D`` (so the delay's standard deviation equals its mean, as the paper
  notes for its 100 ms setting).
* **Crash-prone link** — an up/down state machine; while *down* the link
  "completely disconnects the receiver from the sender (by dropping all the
  sender's messages)".  Up and down durations are exponential.  While up, the
  loss/delay behaviour is that of the underlying lossy link (for the paper's
  link-crash experiments that underlying behaviour is the real LAN:
  D = 0.025 ms, pL ≈ 0).

Delays are drawn independently per message, so messages can be reordered in
flight — exactly like UDP datagrams on the authors' testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Optional

from repro.net.message import Message
from repro.runtime.base import Scheduler

__all__ = ["LinkConfig", "LinkStats", "Link"]


@dataclass(frozen=True)
class LinkConfig:
    """Stochastic behaviour of one directed link.

    ``delay_mean`` — mean of the exponential per-message delay, seconds.
    ``loss_prob`` — independent drop probability per message.
    ``mttf``/``mttr`` — mean up/down durations for crash-prone links
    (both ``None`` for links that never crash).
    """

    delay_mean: float = 0.025e-3
    loss_prob: float = 0.0
    mttf: Optional[float] = None
    mttr: Optional[float] = None

    def __post_init__(self) -> None:
        if self.delay_mean < 0:
            raise ValueError(f"delay_mean must be >= 0 (got {self.delay_mean})")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1) (got {self.loss_prob})")
        if (self.mttf is None) != (self.mttr is None):
            raise ValueError("mttf and mttr must be set together")
        if self.mttf is not None and (self.mttf <= 0 or self.mttr <= 0):
            raise ValueError("mttf and mttr must be positive")

    @property
    def crash_prone(self) -> bool:
        return self.mttf is not None


@dataclass
class LinkStats:
    """Counters kept by every link (used by tests and the usage metrics)."""

    offered: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_down: int = 0
    bytes_delivered: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_loss + self.dropped_down


class Link:
    """One directed communication link between two nodes.

    The link does not know about nodes; it accepts a message plus a delivery
    callback and either schedules the callback after the sampled delay or
    silently drops the message.  Crash-prone state transitions are driven by
    :class:`~repro.net.faults.LinkChurnInjector` through :meth:`set_down`.
    """

    def __init__(
        self,
        sim: Scheduler,
        src: int,
        dst: int,
        config: LinkConfig,
        rng,
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.config = config
        self._rng = rng
        # Hot-path copies of the (frozen) config scalars: transmit() runs
        # once per offered message, and attribute-hopping through the
        # dataclass costs more than the draws it guards.
        self._loss_prob = config.loss_prob
        self._delay_mean = config.delay_mean
        self.down = False
        self.stats = LinkStats()

    @property
    def rng(self):
        """The link's RNG stream (shared by rebuilt links, see with_config)."""
        return self._rng

    def with_config(self, config: LinkConfig) -> "Link":
        """A link with new stochastic behaviour but this link's identity.

        Keeps the RNG stream (so reconfiguring one link never perturbs the
        draws of any other) and the up/down state; counters start fresh,
        matching the semantics of installing a new link.
        """
        new = Link(self.sim, self.src, self.dst, config, self._rng)
        new.down = self.down
        return new

    def set_down(self, down: bool) -> None:
        """Crash (``True``) or recover (``False``) this link."""
        self.down = down

    def transmit(self, message: Message, deliver: Callable[[Message], None], batch=None) -> None:
        """Offer ``message`` to the link; maybe schedule its delivery.

        A surviving arrival waits in ``batch`` (the simulator's shared
        :class:`~repro.sim.vector.DeliveryBatch`) if one is given, else as
        its own engine event; the state checks and RNG draws are the same.
        Zero-delay links keep the engine event: an exact-``now`` arrival must
        occupy its own engine-seq position among same-time events, while a
        positive exponential delay lands at an almost-surely unique time,
        where the batch's ``(arrival, submission)`` order is the scalar order.
        """
        stats = self.stats
        stats.offered += 1
        if self.down:
            stats.dropped_down += 1
            return
        delay_mean = self._delay_mean
        if self._loss_prob:
            delay = self._rng.lossy_delay(self._loss_prob, delay_mean)
            if delay is None:
                stats.dropped_loss += 1
                return
        else:
            delay = self._rng.exponential(delay_mean) if delay_mean else 0.0
        if batch is not None and delay_mean:
            heappush(batch.heap, (self.sim.now + delay, next(batch.order), self, message, deliver))
        else:
            # Prebound method + carried args: no per-message closure allocation.
            self.sim.schedule(delay, self._deliver, message, deliver)

    def _deliver(self, message: Message, deliver: Callable[[Message], None]) -> None:
        # A message already "on the wire" when the link crashes is still
        # delivered: a link crash stops the *sender's* messages from getting
        # through from the moment of the crash (paper footnote 5), and with
        # LAN-scale delays the distinction is negligible; we keep in-flight
        # messages for determinism of the delivered/dropped accounting.
        self.stats.delivered += 1
        self.stats.bytes_delivered += message._wire or message.wire_bytes()
        deliver(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self.down else "up"
        return f"Link({self.src}->{self.dst}, {state})"
