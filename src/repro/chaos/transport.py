"""A fault-injecting wrapper over the Transport protocol.

``ChaosTransport`` sits between the daemons and any real transport — the
simulated :class:`~repro.net.network.Network` or a live
:class:`~repro.runtime.realtime.UdpTransport` — and applies the
transport-level chaos overlays:

* a **partition** (node → component map; cross-component sends vanish),
* **asymmetric cuts** (a set of blocked directed node pairs),
* a global **drop rate**, **duplication probability** and **reorder
  jitter** (an extra uniform delay per message, drawn independently so
  messages overtake each other),
* **group-scoped faults**: a drop rate applied only to one group's
  traffic — its HELLOs and accusations, and its *cells* inside the
  multiplexed :class:`~repro.net.message.BatchFrame`s.  The frame header
  itself (the shared node-level FD stream) is deliberately untouched:
  with the shared plane, node liveness is common infrastructure, so a
  per-group fault can starve a group's election payload but not another
  group's failure detection.  The ``cross_group_isolation`` invariant
  (see :mod:`repro.chaos.invariants`) asserts exactly that.

Because it only uses ``Transport.send`` and ``Scheduler.schedule``, the
same wrapper — and therefore the same :class:`~repro.chaos.script.ChaosScript`
— drives both worlds.  All randomness comes from one dedicated generator,
so adding chaos to a simulation never perturbs the link or churn streams
(the registry's variance-isolation property), and a seeded run reproduces
bit-identically.

Draw order per send is fixed (drop, then duplicate, then one jitter per
copy) and draws only happen while the corresponding overlay is active, so
a script's RNG consumption is exactly determined by its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.net.message import BatchFrame, Message
from repro.runtime.base import Scheduler, Transport

__all__ = ["ChaosStats", "ChaosTransport"]


@dataclass
class ChaosStats:
    """Counters of everything the chaos layer did to the traffic."""

    forwarded: int = 0
    dropped_partition: int = 0
    dropped_cut: int = 0
    dropped_rate: int = 0
    dropped_group: int = 0
    dropped_group_cells: int = 0
    duplicated: int = 0
    delayed: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.dropped_partition
            + self.dropped_cut
            + self.dropped_rate
            + self.dropped_group
        )


class ChaosTransport:
    """Wraps an inner Transport and injects scripted faults on the send path."""

    def __init__(
        self,
        inner: Transport,
        scheduler: Scheduler,
        rng: np.random.Generator,
    ) -> None:
        self.inner = inner
        self.scheduler = scheduler
        self._rng = rng
        self.drop_rate = 0.0
        self.duplicate_prob = 0.0
        self.reorder_jitter = 0.0
        #: node id → component index; None = no partition active.
        self._component: Optional[Dict[int, int]] = None
        #: Blocked directed (src, dst) pairs.
        self._cuts: Set[Tuple[int, int]] = set()
        #: group id → drop rate for that group's traffic only.
        self._group_faults: Dict[int, float] = {}
        self.stats = ChaosStats()

    # ------------------------------------------------------------------
    # Overlay control (driven by the ChaosController)
    # ------------------------------------------------------------------
    def set_partition(self, groups: Optional[Iterable[Sequence[int]]]) -> None:
        """Install a partition (``None`` removes it).

        Nodes absent from every group share one implicit remainder
        component (index -1), so a two-group script over a 12-node cluster
        needs to name only the nodes it isolates.
        """
        if groups is None:
            self._component = None
            return
        component: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                component[int(node)] = index
        self._component = component

    def cut_link(self, src: int, dst: int) -> None:
        """Block the directed pair ``src`` → ``dst``."""
        self._cuts.add((src, dst))

    def clear_cuts(self) -> None:
        self._cuts.clear()

    def set_drop(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1] (got {rate})")
        self.drop_rate = float(rate)

    def set_duplicate(self, prob: float) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"duplicate prob must be in [0, 1] (got {prob})")
        self.duplicate_prob = float(prob)

    def set_reorder(self, jitter: float) -> None:
        if jitter < 0:
            raise ValueError(f"reorder jitter must be >= 0 (got {jitter})")
        self.reorder_jitter = float(jitter)

    def set_group_fault(self, group: int, rate: float) -> None:
        """Drop ``group``'s traffic (cells, HELLOs, accusations) at ``rate``.

        Scoped strictly to the group's payload: the node-pair frame
        header keeps flowing, so the shared FD plane — and with it every
        *other* group's failure detection — is untouched.  ``rate`` 0
        removes the fault for that group.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"group fault rate must be in [0, 1] (got {rate})")
        if rate == 0.0:
            self._group_faults.pop(group, None)
        else:
            self._group_faults[group] = float(rate)

    def heal(self) -> None:
        """Remove every overlay; traffic flows untouched again."""
        self.drop_rate = 0.0
        self.duplicate_prob = 0.0
        self.reorder_jitter = 0.0
        self._component = None
        self._cuts.clear()
        self._group_faults.clear()

    @property
    def partitioned(self) -> bool:
        return self._component is not None

    def separated(self, src: int, dst: int) -> bool:
        """True when the active overlays block ``src`` → ``dst`` entirely."""
        if (src, dst) in self._cuts:
            return True
        if self._component is None:
            return False
        return self._component.get(src, -1) != self._component.get(dst, -1)

    # ------------------------------------------------------------------
    # Transport protocol
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        src, dst = message.sender_node, message.dest_node
        if self._component is not None and self._component.get(
            src, -1
        ) != self._component.get(dst, -1):
            self.stats.dropped_partition += 1
            return
        if (src, dst) in self._cuts:
            self.stats.dropped_cut += 1
            return
        if self.drop_rate > 0.0 and self._rng.random() < self.drop_rate:
            self.stats.dropped_rate += 1
            return
        faults = self._group_faults
        if faults:
            group = getattr(message, "group", None)
            if group is not None:
                rate = faults.get(group)
                if rate is not None and self._rng.random() < rate:
                    self.stats.dropped_group += 1
                    return
            elif type(message) is BatchFrame and (message.cells or message.ack is not None):
                # Strip doomed cells; the frame (the shared FD header plus
                # every other group's cells) still goes through.  Draws
                # happen only for cells of faulted groups, in cell order,
                # so RNG consumption stays exactly script-determined.  An
                # echo acknowledges every cell its frame carried (a datagram
                # arrives whole), which a frame stripped here makes a lie:
                # echoes go while any group is faulted (cells are re-sent),
                # a probe's and its answer's too.
                kept = tuple(
                    cell
                    for cell in message.cells
                    if (rate := faults.get(cell.group)) is None
                    or self._rng.random() >= rate
                )
                if len(kept) != len(message.cells) or message.ack is not None:
                    self.stats.dropped_group_cells += len(message.cells) - len(kept)
                    message = replace(message, cells=kept, ack=None)
            elif getattr(message, "ack", None) is not None:
                message = replace(message, ack=None)
        copies = 1
        if self.duplicate_prob > 0.0 and self._rng.random() < self.duplicate_prob:
            copies = 2
            self.stats.duplicated += 1
        for _ in range(copies):
            if self.reorder_jitter > 0.0:
                delay = float(self._rng.uniform(0.0, self.reorder_jitter))
                self.stats.delayed += 1
                self.scheduler.schedule(delay, self.inner.send, message)
            else:
                self.inner.send(message)
        self.stats.forwarded += 1

    def send_batch(self, messages) -> None:
        """Per-message :meth:`send` loop.

        Every chaos overlay (partition, cut, drop, duplicate, jitter) draws
        per message from the script-pinned RNG stream, and jittered copies
        re-enter through ``inner.send`` as their own engine events; each
        message takes its overlay draws and its link draws in turn.
        """
        for message in messages:
            self.send(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        overlays = []
        if self._component is not None:
            overlays.append("partition")
        if self._cuts:
            overlays.append(f"cuts={len(self._cuts)}")
        if self.drop_rate:
            overlays.append(f"drop={self.drop_rate}")
        if self.duplicate_prob:
            overlays.append(f"dup={self.duplicate_prob}")
        if self.reorder_jitter:
            overlays.append(f"jitter={self.reorder_jitter}")
        if self._group_faults:
            overlays.append(f"group_faults={sorted(self._group_faults)}")
        return f"ChaosTransport({', '.join(overlays) or 'nominal'})"
