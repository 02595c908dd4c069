"""Deterministic discrete-event simulation substrate.

This package plays the role of the paper's physical testbed: it provides a
virtual clock, an event loop, cancellable timers, and reproducible random
number streams.  :class:`~repro.sim.engine.Simulator` is the simulated
implementation of the :class:`~repro.runtime.base.Clock` +
:class:`~repro.runtime.base.Scheduler` protocols; all higher layers
(network, failure detector, leader election service) are written against
those protocols and never touch wall-clock time, which makes multi-day
experiments runnable in minutes and bit-for-bit reproducible from a seed —
while the identical service code also runs on the realtime asyncio engine
(:mod:`repro.runtime.realtime`).
"""

from repro.runtime.timers import PeriodicTimer, VariableTimer
from repro.sim.engine import DriftingScheduler, Event, SimulationError, Simulator
from repro.sim.rng import RngRegistry

__all__ = [
    "DriftingScheduler",
    "Event",
    "PeriodicTimer",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "VariableTimer",
]
