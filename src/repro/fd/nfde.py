"""NFD-E: Chen et al.'s failure detector without synchronized clocks.

NFD-S (the variant the paper's service uses) computes freshness points from
the *sender's* timestamps, which requires synchronized clocks.  NFD-E removes
that assumption: the monitor estimates the **expected arrival time** EA of
the next heartbeat from the arrival times of the last ``window`` heartbeats
(measured on its own clock) and shifts it by the safety margin α:

    EA_{j+1} ≈ mean_k( A_k − k·η ) + (j+1)·η        (over recent arrivals)
    next deadline = EA_{j+1} + α

where η is the sender's heartbeat period and α plays the role NFD-S's δ
plays (we reuse the configurator's δ for it — Chen et al. show the same QoS
analysis applies with EA in place of the freshness schedule).

This module is an extension beyond the paper's artifact (their LAN testbed
had NTP); it exists because the service architecture claims pluggable FDs,
and it lets users of this library run the service where clock synchrony is
unavailable.  It reuses the estimator/configurator machinery unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.fd.monitor import NfdsMonitor

__all__ = ["NfdeMonitor"]


class NfdeMonitor(NfdsMonitor):
    """NFD-E: expected-arrival freshness, no sender clock needed."""

    __slots__ = ("_arrivals",)

    #: Arrival history length used for the EA regression.
    window = 16

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._arrivals: Deque[Tuple[int, float]] = deque(maxlen=self.window)

    def on_alive(self, seq: int, send_time: float, sender_interval: float) -> None:
        """Process one ALIVE using only the local arrival clock.

        ``send_time`` is still fed to the link estimator (delay estimation is
        an orthogonal concern and in a real deployment would use round-trip
        measurements); the *freshness deadline* below never uses it.
        """
        now = self.scheduler.now
        self.observe(seq, send_time, now)

        if self._arrivals:
            last_seq, last_arrival = self._arrivals[-1]
            if seq <= last_seq:
                # Reordered or restarted stream: reset the regression.
                self._arrivals.clear()
            elif now - last_arrival > sender_interval + self.delta:
                # Long silence (a suspicion-worthy gap): the old arrivals
                # would drag the expected-arrival estimate into the past and
                # make every new heartbeat look stale; start fresh.
                self._arrivals.clear()
        self._arrivals.append((seq, now))

        eta = sender_interval
        # EA of heartbeat seq+1, from the recent arrivals' average offset.
        offset = sum(a - s * eta for s, a in self._arrivals) / len(self._arrivals)
        expected_next = offset + (seq + 1) * eta
        deadline = expected_next + self.delta
        if deadline <= now:
            return
        self._timer.extend_to(deadline)
        if not self.trusted:
            self.trusted = True
            self.trusted_since = now
            self._on_trust(self.pid)
