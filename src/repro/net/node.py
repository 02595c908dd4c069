"""A workstation: hosts one service daemon and application processes.

A :class:`Node` models one of the paper's 12 workstations.  It can *crash*
(killing the service daemon and every application process on it — "each
workstation crash also kills one of the 12 application processes", §6.1) and
later *recover*, at which point a fresh service instance is started with empty
volatile state.  The only state that survives a crash is the boot counter
(``incarnation``), which stands in for the monotonic identifier a real
implementation would keep on disk or derive from boot time.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

from repro.metrics.usage import UsageMeter
from repro.net.message import Message
from repro.runtime.base import Clock

__all__ = ["Node", "NodeObserver"]


class NodeObserver(Protocol):
    """Anything that wants to learn about a node's crash/recovery."""

    def on_node_crash(self, node: "Node") -> None: ...

    def on_node_recover(self, node: "Node") -> None: ...


class Node:
    """A crash-recovery workstation identified by a small integer id."""

    def __init__(self, clock: Clock, node_id: int) -> None:
        self.clock = clock
        self.node_id = node_id
        self.up = True
        #: Monotonic boot counter; incremented on every recovery.
        self.incarnation = 0
        #: CPU and bandwidth accounting for this workstation.
        self.meter = UsageMeter()
        #: The service daemon hosted on this node (set by the service layer).
        self.service = None  # type: Optional[object]
        self._observers: List[NodeObserver] = []
        #: Invoked with each received message while the node is up.
        self._receiver: Optional[Callable[[Message], None]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_receiver(self, receiver: Optional[Callable[[Message], None]]) -> None:
        """Install the message handler (the service daemon's entry point)."""
        self._receiver = receiver

    def add_observer(self, observer: NodeObserver) -> None:
        """Subscribe to crash/recovery transitions of this node."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Fault injection entry points
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the workstation: service and applications lose all state."""
        if not self.up:
            return
        self.up = False
        self._receiver = None
        for observer in list(self._observers):
            observer.on_node_crash(self)

    def recover(self) -> None:
        """Restart the workstation with a fresh incarnation."""
        if self.up:
            return
        self.up = True
        self.incarnation += 1
        for observer in list(self._observers):
            observer.on_node_recover(self)

    # ------------------------------------------------------------------
    # Message path
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        """Hand a message that survived the link to this node."""
        if not self.up or self._receiver is None:
            return  # a crashed workstation receives nothing
        # The size memo is warm on anything that came through a send path;
        # fall back to the computing accessor for hand-delivered messages.
        meter = self.meter
        meter.messages_received += 1
        meter.bytes_received += message._wire or message.wire_bytes()
        self._receiver(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"Node({self.node_id}, {state}, inc={self.incarnation})"
