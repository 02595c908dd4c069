"""Receiver side of NFD-S: freshness points and trust/suspect output.

One :class:`NfdsMonitor` watches one incoming heartbeat stream, and is that
stream's :class:`~repro.fd.estimator.LinkQualityEstimator` (Figure 1 pairs one
with each detector).  The freshness-point rule is implemented incrementally: an
ALIVE stamped σ_j whose sender interval is η keeps the remote trusted until
σ_j + η + δ (this equals "at freshness point τ_i, trust iff some m_j with
j ≥ i arrived" — see :mod:`repro.fd.qos`).  A single lazy timer per monitor
fires the suspicion.

A monitor's initial opinion is configurable.  Monitors created from a bare
membership record start *suspected* — the record proves nothing about the
process being up (it may have crashed long ago), and optimism here would let
a joiner forward dead processes as leaders.  Monitors created from positive
evidence (the HELLO-reply ``trusted`` seed of a live responder) are granted
one detection budget of optimistic trust via :meth:`NfdsMonitor.grant_grace`,
which is what lets a (re)joining process adopt the established leader within
one round trip.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.fd.configurator import ConfiguratorCache, bootstrap_params
from repro.fd.estimator import _WINDOW_MASK, LinkQualityEstimator
from repro.fd.qos import FDParams, FDQoS
from repro.metrics.usage import UsageMeter
from repro.runtime.base import Scheduler
from repro.sim.vector import deadline_timer

__all__ = ["NfdsMonitor"]


class NfdsMonitor(LinkQualityEstimator):
    """Monitors one remote process with Chen et al.'s NFD-S; the estimator
    of its stream (``ready``, ``estimate()``, ``loss_counts()``)."""

    # One instance per directed node pair — 9 900 on the 100-node cell —
    # and ``on_alive`` runs once per received heartbeat, so attribute
    # access is hot enough for slots to matter.
    __slots__ = (
        "scheduler",
        "pid",
        "qos",
        "_cache",
        "_on_trust",
        "_on_suspect",
        "_meter",
        "delta",
        "desired_eta",
        "trusted",
        "trusted_since",
        "suspicions",
        "_timer",
    )

    #: Every received ALIVE is one estimator sample.
    alives_received = LinkQualityEstimator.samples

    def __init__(
        self,
        scheduler: Scheduler,
        pid: int,
        qos: FDQoS,
        cache: ConfiguratorCache,
        on_trust: Callable[[int], None],
        on_suspect: Callable[[int], None],
        meter: Optional[UsageMeter] = None,
        start_trusted: bool = False,
    ) -> None:
        super().__init__()
        self.scheduler = scheduler
        self.pid = pid
        self.qos = qos
        self._cache = cache
        self._on_trust = on_trust
        self._on_suspect = on_suspect
        self._meter = meter
        params = bootstrap_params(qos)
        #: Current timeout shift δ (receiver side).
        self.delta = params.delta
        #: The heartbeat period this monitor wants the sender to use.
        self.desired_eta = params.eta
        self.trusted = False
        #: When the current uninterrupted trust interval began (meaningful
        #: only while ``trusted``) — lets quorum-style consumers require
        #: *continuous* trust over a window, not just instantaneous trust.
        self.trusted_since = 0.0
        self.suspicions = 0
        self._timer = deadline_timer(scheduler, self._on_timeout)
        if start_trusted:
            self.trusted = True
            self.trusted_since = scheduler.now
            self._timer.set_deadline(scheduler.now + qos.detection_time)

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def on_alive(self, seq: int, send_time: float, sender_interval: float) -> None:
        """Process one received ALIVE.  The stream's next frame folds its
        sample here, in ``observe``'s arithmetic; any other frame (a gap, a
        late frame, a duplicate, a restart) takes ``observe`` itself."""
        now = self.scheduler.now
        if seq - 1 == self._last_seq:
            self._last_seq = seq
            if self._gaps:
                self._gaps = self._gaps << 1 & _WINDOW_MASK
            decay = self._loss_decay
            self._received = self._received * decay + 1.0
            if self._lost:
                self._lost *= decay
            delay = now - send_time
            if delay < 0.0:
                delay = 0.0
            # Not the first sample: the stream has a previous seq.
            samples = self._samples + 1
            self._samples = samples
            alpha = self._delay_alpha
            inverse = 1.0 / samples
            if inverse > alpha:
                alpha = inverse
            previous_mean = self._delay_mean
            centered = delay - previous_mean
            self._delay_mean = previous_mean + alpha * centered
            self._delay_var = (1.0 - alpha) * (self._delay_var + alpha * centered * centered)
        else:
            self.observe(seq, send_time, now)
        deadline = send_time + sender_interval + self.delta
        if deadline <= now:
            return  # stale: its freshness interval already expired
        self._timer.extend_to(deadline)
        if not self.trusted:
            self.trusted = True
            self.trusted_since = now
            self._on_trust(self.pid)

    def grant_grace(self) -> None:
        """Optimistically trust for one detection budget (T_D^U).

        Only applies when this monitor has no direct evidence of its own
        (no ALIVE received, no suspicion raised): it exists to seed a
        joiner's view from a live peer's trust report, not to override a
        first-hand opinion.
        """
        if self.alives_received > 0 or self.suspicions > 0 or self.trusted:
            return
        self.trusted = True
        self.trusted_since = self.scheduler.now
        self._timer.extend_to(self.scheduler.now + self.qos.detection_time)
        self._on_trust(self.pid)

    def _on_timeout(self) -> None:
        if self._meter is not None:
            self._meter.on_timer()
        if self.trusted:
            self.trusted = False
            self.suspicions += 1
            self._on_suspect(self.pid)

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(self) -> FDParams:
        """Re-run the configurator against the current link estimate.

        Updates δ immediately (applied from the next ALIVE on) and returns
        the parameters so the caller can renegotiate the sender rate η.
        """
        params = self._cache.configure(self.qos, self.estimate())
        self.delta = params.delta
        self.desired_eta = params.eta
        if self._meter is not None:
            self._meter.on_reconfig()
        return params

    def stop(self) -> None:
        """Disarm the monitor (remote left the group, or local shutdown).

        Monitors are discarded after ``stop`` everywhere in the stack, so
        the timer is *closed* (a pooled timer returns its slot), not just
        cleared.
        """
        self._timer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "trusted" if self.trusted else "suspected"
        return f"NfdsMonitor(pid={self.pid}, {state}, delta={self.delta:.3f})"
