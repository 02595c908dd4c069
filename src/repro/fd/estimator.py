"""The Link Quality Estimator (paper §3, Figure 1).

Estimates, per directed heartbeat stream, the quantities the configurator
needs: message-loss probability ``pL`` and the delay mean ``Ed`` and standard
deviation ``Sd``.  Estimation uses only what a real receiver can observe —
sequence-number gaps for losses, and ``arrival_time − send_time`` for delays
(NFD-S assumes synchronized clocks; the simulation provides them exactly).

Two design points worth calling out:

* **Loss floor.** A finite window can never certify pL = 0, so the estimator
  applies Laplace smoothing: pL = (lost + 1) / (lost + received + 2).  With
  the default effective window of 512 messages the floor is ≈ 0.002.  This
  floor is behaviourally important: it forces the configurator to budget a
  few extra heartbeat periods inside δ even on a loss-free LAN, which is why
  the service's measured detection time on the paper's LAN sits near
  0.83·T_D^U rather than collapsing toward T_D^U/2 (see DESIGN.md §3).
* **Exponential forgetting.** Both the loss counters and the delay moments
  decay exponentially, so the estimator tracks changing network conditions —
  the paper's adaptivity requirement — with O(1) state and no timestamps.

Sequence numbers restart when the sender's workstation reboots (volatile
counters); a regression is therefore treated as a stream restart, not as a
negative gap.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.fd.qos import LinkEstimate

__all__ = ["LinkQualityEstimator"]


class LinkQualityEstimator:
    """Windowed (pL, Ed, Sd) estimation from an ALIVE stream."""

    # One per directed node pair, updated on every received heartbeat —
    # slotted for the same reason as :class:`~repro.fd.monitor.NfdsMonitor`.
    __slots__ = (
        "_loss_decay",
        "_delay_alpha",
        "_ready_threshold",
        "default_estimate",
        "_received",
        "_lost",
        "_delay_mean",
        "_delay_var",
        "_samples",
        "_last_seq",
    )

    def __init__(
        self,
        loss_window: int = 512,
        delay_window: int = 64,
        ready_threshold: int = 8,
        default_estimate: Optional[LinkEstimate] = None,
    ) -> None:
        if loss_window < 2 or delay_window < 2:
            raise ValueError("windows must be at least 2 messages")
        self._loss_decay = 1.0 - 1.0 / loss_window
        self._delay_alpha = 1.0 / delay_window
        self._ready_threshold = ready_threshold
        #: Returned until enough samples arrived; deliberately pessimistic.
        self.default_estimate = default_estimate or LinkEstimate(
            loss_prob=1.0 / 16.0, delay_mean=0.050, delay_std=0.050
        )
        # Exponentially-decayed counters.
        self._received = 0.0
        self._lost = 0.0
        # Exponentially-weighted delay moments.
        self._delay_mean = 0.0
        self._delay_var = 0.0
        self._samples = 0
        self._last_seq: Optional[int] = None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, seq: int, send_time: float, arrival_time: float) -> None:
        """Record one received heartbeat.

        ``seq`` is the sender's per-stream sequence number; ``send_time`` is
        the sender's timestamp carried in the message.
        """
        gap = 0
        last_seq = self._last_seq
        if last_seq is None:
            self._last_seq = seq
        elif seq > last_seq:
            gap = seq - last_seq - 1
            self._last_seq = seq
        # seq <= last_seq: reordered duplicate or a sender restart; in both
        # cases no loss information can be extracted, only the delay sample.

        decay = self._loss_decay
        self._received = self._received * decay + 1.0
        self._lost = self._lost * decay + gap

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
        """Laplace-smoothed loss estimate (never exactly 0 or 1)."""
        return (self._lost + 1.0) / (self._lost + self._received + 2.0)

    def estimate(self) -> LinkEstimate:
        """Current (pL, Ed, Sd), or the pessimistic default before warm-up."""
        if not self.ready:
            return self.default_estimate
        delay_mean = max(self._delay_mean, 1e-9)
        delay_std = math.sqrt(max(self._delay_var, 0.0))
        return LinkEstimate(
            loss_prob=self.loss_probability(),
            delay_mean=delay_mean,
            delay_std=delay_std,
        )
