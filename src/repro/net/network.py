"""The network: nodes plus a full mesh of directed links.

``Network`` owns the topology and the send path.  Sending charges the sender
node's usage meter, offers the message to the directed link, and — if the
link delivers — hands it to the destination node (which drops it when
crashed).  Per-link behaviour defaults to :attr:`NetworkConfig.default_link`
and can be overridden per directed pair, which tests and examples use to
build asymmetric topologies (e.g. a single crashed input link).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.net.links import Link, LinkConfig
from repro.net.message import Message
from repro.net.node import Node
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["NetworkConfig", "Network"]


@dataclass(frozen=True)
class NetworkConfig:
    """Topology-wide configuration.

    ``default_link`` applies to every directed pair unless overridden via
    :meth:`Network.set_link_config`.  The paper's settings:

    * real LAN: ``LinkConfig(delay_mean=0.025e-3, loss_prob=0.0)``
    * lossy grid: ``delay_mean`` ∈ {10 ms, 100 ms}, ``loss_prob`` ∈ {0.01, 0.1}
    * crash-prone: LAN behaviour plus ``mttf`` ∈ {600, 300, 60} s, ``mttr`` = 3 s
    """

    n_nodes: int = 12
    default_link: LinkConfig = field(default_factory=LinkConfig)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1 (got {self.n_nodes})")


class Network:
    """A set of nodes fully connected by independent directed links.

    The simulated implementation of the :class:`~repro.runtime.base.Transport`
    protocol — the realtime counterpart is
    :class:`~repro.runtime.realtime.UdpTransport`.
    """

    def __init__(self, sim: Simulator, config: NetworkConfig, rng: RngRegistry) -> None:
        self.sim = sim
        self.config = config
        self._rng = rng
        self.nodes: Dict[int, Node] = {
            node_id: Node(sim, node_id) for node_id in range(config.n_nodes)
        }
        self._links: Dict[Tuple[int, int], Link] = {}
        #: Node-id-indexed routes: ``_routes[src][dst]`` is
        #: ``(sender_node, link, dest_node.deliver)``, or None while the
        #: pair has never been used (and on the diagonal).  One send costs
        #: two list indexings instead of three dict lookups plus a
        #: tuple-key allocation.
        #:
        #: Links materialize *lazily*, on a pair's first send (or first
        #: topology access): eagerly building all n·(n-1) links dominated
        #: both setup time and memory at n = 1000 — nearly a million RNG
        #: streams for pairs a bounded-fan-out (SWIM) run mostly never
        #: exercises.  Laziness is invisible to replay because each link's
        #: stream is derived from its *name* (``link.{src}.{dst}``), never
        #: from creation order.
        self._routes: list[list[Optional[Tuple[Node, Link, Callable]]]] = [
            [None] * config.n_nodes for _ in range(config.n_nodes)
        ]

    def _make_link(self, src: int, dst: int, link_config: LinkConfig) -> Link:
        stream = self._rng.stream(f"link.{src}.{dst}")
        return Link(self.sim, src, dst, link_config, stream)

    def _ensure_route(self, src: int, dst: int) -> Tuple[Node, Link, Callable]:
        if src == dst:
            raise ValueError(f"no self-link for node {src}")
        link = self._links.get((src, dst))
        self._install_link(link or self._make_link(src, dst, self.config.default_link))
        return self._routes[src][dst]

    def _install_link(self, link: Link) -> None:
        self._links[(link.src, link.dst)] = link
        self._routes[link.src][link.dst] = (
            self.nodes[link.src],
            link,
            self.nodes[link.dst].deliver,
        )

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """The node with the given id."""
        return self.nodes[node_id]

    def link(self, src: int, dst: int) -> Link:
        """The directed link from ``src`` to ``dst``."""
        link = self._links.get((src, dst))
        if link is None:
            link = self._ensure_route(src, dst)[1]
        return link

    def links(self) -> Iterable[Link]:
        """All ``n·(n-1)`` directed links (forces full materialization —
        link-fault injectors must be able to break pairs never yet used)."""
        for src in self.nodes:
            for dst in self.nodes:
                if src != dst and (src, dst) not in self._links:
                    self._ensure_route(src, dst)
        return self._links.values()

    def set_link_config(self, src: int, dst: int, link_config: LinkConfig) -> None:
        """Replace the behaviour of one directed link (keeps its RNG stream)."""
        self._install_link(self.link(src, dst).with_config(link_config))

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Transmit ``message`` from its sender node to its destination node.

        Sending from a crashed node is a no-op (a dead daemon sends nothing);
        this is checked here so fault injection cannot race with send timers.
        """
        self._offer((message,))

    def send_batch(self, messages: Iterable[Message]) -> None:
        """Transmit a whole per-tick fan-out.

        Per message this is exactly :meth:`send` — same state checks, same
        meter charges, same RNG draws, same heap entries in transmit order —
        less one Python call each.  A :meth:`send` replaced on the instance
        (test and instrumentation hooks) sees every message.
        """
        if "send" in self.__dict__:
            for message in messages:
                self.send(message)
        else:
            self._offer(messages)

    def _offer(self, messages: Iterable[Message]) -> None:
        routes = self._routes
        for message in messages:
            route = routes[message.sender_node][message.dest_node]
            if route is None:
                route = self._ensure_route(message.sender_node, message.dest_node)
            sender, link, deliver = route
            if not sender.up:
                continue
            meter = sender.meter
            meter.messages_sent += 1
            # A header-only frame comes sized (see AliveBatcher._tick).
            meter.bytes_sent += message._wire or message.wire_bytes()
            link.transmit(message, deliver)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(n={len(self.nodes)})"
