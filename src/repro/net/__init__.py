"""Simulated point-to-point network substrate.

This package reproduces the paper's testbed network (a 12-workstation LAN
behind a gigabit switch) *plus* its two fault-injection modules:

* a message dropper/delayer — :class:`~repro.net.links.Link` with a loss
  probability ``pL`` and exponentially distributed delay with mean ``D``
  (paper §6.1, "lossy links");
* a link crasher — the same class with an up/down state machine whose up and
  down durations are exponential (paper §6.1, "links prone to crashes");
* a workstation killer/restarter — :class:`~repro.net.faults.NodeChurnInjector`
  driving :class:`~repro.net.node.Node` crash/recovery.

Every group of ``n`` processes communicates over ``n·(n-1)`` independent
directed links, exactly as in the paper.
"""

from repro.net.links import Link, LinkConfig
from repro.net.message import (
    WIRE_OVERHEAD_BYTES,
    AccEntry,
    AccuseMessage,
    AliveCell,
    BatchFrame,
    HelloMessage,
    MemberInfo,
    Message,
    RateRequestMessage,
)
from repro.net.network import Network, NetworkConfig
from repro.net.node import Node
from repro.net.faults import LinkChurnInjector, NodeChurnInjector

__all__ = [
    "AccEntry",
    "AccuseMessage",
    "AliveCell",
    "BatchFrame",
    "HelloMessage",
    "Link",
    "LinkChurnInjector",
    "LinkConfig",
    "MemberInfo",
    "Message",
    "Network",
    "NetworkConfig",
    "Node",
    "NodeChurnInjector",
    "RateRequestMessage",
    "WIRE_OVERHEAD_BYTES",
]
