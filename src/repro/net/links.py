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
from typing import Optional

__all__ = ["LinkConfig", "Link"]


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


class Link:
    """One directed communication link between two nodes: its behaviour,
    its RNG stream and its up/down state.

    :meth:`~repro.net.network.Network.send` reads them per message: a down
    link drops it, a lossy one draws the loss coin and the delay in one
    call, and a surviving message's arrival is pushed the sampled delay
    ahead.  A link counts nothing: what was sent and received is on the
    nodes' meters.  Crash-prone state transitions are driven by
    :class:`~repro.net.faults.LinkChurnInjector` through :meth:`set_down`.
    """

    __slots__ = ("src", "dst", "config", "rng", "loss_prob", "delay_mean", "down")

    def __init__(self, src: int, dst: int, config: LinkConfig, rng) -> None:
        self.src = src
        self.dst = dst
        self.config = config
        #: The link's stream, shared by rebuilt links (see with_config).
        self.rng = rng
        # Hot-path copies of the (frozen) config scalars: read once per
        # offered message, where hopping through the dataclass costs more
        # than the draws they guard.
        self.loss_prob = config.loss_prob
        self.delay_mean = config.delay_mean
        self.down = False

    def with_config(self, config: LinkConfig) -> "Link":
        """A link with new stochastic behaviour but this link's identity.

        Keeps the RNG stream (so reconfiguring one link never perturbs the
        draws of any other) and the up/down state.
        """
        new = Link(self.src, self.dst, config, self.rng)
        new.down = self.down
        return new

    def set_down(self, down: bool) -> None:
        """Crash (``True``) or recover (``False``) this link."""
        self.down = down

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self.down else "up"
        return f"Link({self.src}->{self.dst}, {state})"
