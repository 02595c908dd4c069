"""The Link Quality Estimator (paper §3, Figure 1).

Estimates, per directed heartbeat stream, the quantities the configurator
needs: message-loss probability ``pL`` and the delay mean ``Ed`` and standard
deviation ``Sd``.  Estimation uses only what a real receiver can observe —
sequence-number gaps for losses, and ``arrival_time − send_time`` for delays
(NFD-S assumes synchronized clocks; the simulation provides them exactly).

Two design points worth calling out:

* **Loss floor.** A finite window can never certify pL = 0, so the estimate
  is the decayed ratio lost / (lost + received) floored at 1 / window (≈ 0.002
  at the default 512 messages) — no prior: a stream that showed no gap is at
  the floor from its first reconfiguration.  The floor is behaviourally
  important: it forces the configurator to budget a
  few extra heartbeat periods inside δ even on a loss-free LAN, which is why
  the service's measured detection time on the paper's LAN sits near
  0.83·T_D^U rather than collapsing toward T_D^U/2 (see DESIGN.md §3).
* **Exponential forgetting.** Both the loss counters and the delay moments
  decay exponentially, so the estimator tracks changing network conditions —
  the paper's adaptivity requirement — with O(1) state and no timestamps.

A late frame is not a lost frame: one that fills a gap counted within the last
``REORDER_WINDOW`` sequence numbers takes its loss back.  Sequence numbers
restart when the sender's workstation reboots (volatile counters): a regression
beyond that window re-anchors the stream, and gaps are counted again.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.fd.qos import LinkEstimate

__all__ = ["LinkQualityEstimator", "REORDER_WINDOW"]

#: Sequence numbers a late frame may trail by; further back is a restart.
REORDER_WINDOW = 64
_WINDOW_MASK = (1 << REORDER_WINDOW) - 1


class LinkQualityEstimator:
    """Windowed (pL, Ed, Sd) estimation from an ALIVE stream."""

    # One per directed node pair, updated on every received heartbeat —
    # slotted for the same reason as :class:`~repro.fd.monitor.NfdsMonitor`.
    __slots__ = (
        "_loss_decay",
        "_delay_alpha",
        "_ready_threshold",
        "_loss_floor",
        "_received",
        "_lost",
        "_delay_mean",
        "_delay_var",
        "_samples",
        "_last_seq",
        "_gaps",
    )

    def __init__(
        self,
        loss_window: int = 512,
        delay_window: int = 64,
        ready_threshold: int = 8,
    ) -> None:
        if loss_window < 2 or delay_window < 2:
            raise ValueError("windows must be at least 2 messages")
        self._loss_decay = 1.0 - 1.0 / loss_window
        self._delay_alpha = 1.0 / delay_window
        self._ready_threshold = ready_threshold
        self._loss_floor = 1.0 / loss_window
        # Exponentially-decayed counters.
        self._received = 0.0
        self._lost = 0.0
        # Exponentially-weighted delay moments.
        self._delay_mean = 0.0
        self._delay_var = 0.0
        self._samples = 0
        self._last_seq: Optional[int] = None
        #: Bit d set: sequence number ``_last_seq - d`` was counted as lost.
        self._gaps = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, seq: int, send_time: float, arrival_time: float) -> None:
        """Record one received heartbeat.

        ``seq`` is the sender's per-stream sequence number; ``send_time`` is
        the sender's timestamp carried in the message.  A regression that
        fills a counted gap takes the loss back, one beyond ``REORDER_WINDOW``
        is the sender's restart, any other is a duplicate (delay sample only).
        """
        gap = 0
        last_seq = self._last_seq
        if last_seq is None:
            self._last_seq = seq
        elif seq > last_seq:
            gap = seq - last_seq - 1
            self._last_seq = seq
            if gap >= REORDER_WINDOW:
                self._gaps = _WINDOW_MASK - 1
            elif gap or self._gaps:
                self._gaps = (self._gaps << (gap + 1) | (2 << gap) - 2) & _WINDOW_MASK
        elif last_seq - seq >= REORDER_WINDOW:
            self._last_seq = seq
            self._gaps = 0
        elif self._gaps >> (last_seq - seq) & 1:
            self._gaps ^= 1 << (last_seq - seq)
            gap = -1

        decay = self._loss_decay
        self._received = self._received * decay + 1.0
        lost = self._lost * decay + gap
        self._lost = lost if lost > 0.0 else 0.0

        delay = arrival_time - send_time
        if delay < 0.0:
            delay = 0.0
        samples = self._samples + 1
        self._samples = samples
        if samples == 1:
            self._delay_mean = delay
            self._delay_var = 0.0
        else:
            alpha = self._delay_alpha
            inverse = 1.0 / samples
            if inverse > alpha:
                alpha = inverse
            previous_mean = self._delay_mean
            centered = delay - previous_mean
            self._delay_mean = previous_mean + alpha * centered
            # EWMA Welford update: unbiased-ish online variance with decay.
            self._delay_var = (1.0 - alpha) * (
                self._delay_var + alpha * centered * centered
            )

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True once enough samples arrived to trust the estimate."""
        return self._samples >= self._ready_threshold

    @property
    def samples(self) -> int:
        return self._samples

    def loss_counts(self) -> Tuple[float, float]:
        """The raw decayed ``(lost, received)`` counters: no smoothing, so a
        stream that never showed a gap reports exactly 0 lost — callers that
        pool several streams sum these instead of averaging estimates."""
        return self._lost, self._received

    def loss_probability(self) -> float:
        """Decayed loss ratio floored at 1 / loss_window (never 0 or 1)."""
        return max(self._lost / (self._lost + self._received or 1.0), self._loss_floor)

    def estimate(self) -> LinkEstimate:
        """Current (pL, Ed, Sd); callers wait for :attr:`ready`."""
        delay_mean = max(self._delay_mean, 1e-9)
        delay_std = math.sqrt(max(self._delay_var, 0.0))
        return LinkEstimate(
            loss_prob=self.loss_probability(),
            delay_mean=delay_mean,
            delay_std=delay_std,
        )
