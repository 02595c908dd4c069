"""Per-layer attribution, kept entirely outside ``src/``.

Three instruments, switched on only for a ``--trace 1`` run:

* :class:`LayerSampler` — a CPU-time sampler (``ITIMER_PROF``): each tick
  is charged to the innermost ``src/repro/<layer>`` frame on the stack,
  so C time lands on the Python layer that called it.  Sampling costs a
  few percent where cProfile costs 3-4x, which matters because the
  attribution is only useful if the traced run still looks like the
  plain one.
* :class:`CountingTransport` — a pass-through ``Transport`` for
  ``build_system(transport_wrapper=...)`` that counts messages and wire
  bytes by carrier.  It forwards every call unchanged, so the trace
  digest of a traced run must equal the plain run's (checked).
* :func:`fold_episodes` — virtual-time spans per failover episode, folded
  from ``TraceRecorder.events`` after the run.

A layer is a module directory: see :data:`LAYERS`.
"""

from __future__ import annotations

import re
import signal
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.metrics.usage import SHARED_USAGE_KEY

from spec import SRC

#: Layer names in report order; ``harness`` is everything outside src/repro.
LAYERS = (
    "sim", "net", "fd", "swim", "election", "core", "lease", "metrics",
    "runtime", "harness",
)

_PACKAGE = str(SRC / "repro") + "/"
_TOP_LEVEL = {"sim", "net", "fd", "core", "lease", "metrics", "runtime"}


def layer_of(filename: str) -> Optional[str]:
    """The layer owning a source file, or None if it is not program code."""
    if not filename.startswith(_PACKAGE):
        return None
    relative = filename[len(_PACKAGE):]
    if relative == "fd/swim.py":
        return "swim"
    if relative.startswith("core/election/"):
        return "election"
    top = relative.split("/", 1)[0]
    return top if top in _TOP_LEVEL else None


class LayerSampler:
    """Charge process CPU time to layers by sampling the Python stack.

    A tick is charged the CPU time since the previous tick, not one nominal
    interval: signals are not queued, so ticks falling inside one long C
    call (a gen-2 collection of a 100-node system, a big sort) coalesce,
    and counting ticks lost 5 % of ``steady_wide``.
    """

    def __init__(self, interval: float = 0.004) -> None:
        self.interval = interval
        self.seconds: Dict[str, float] = defaultdict(float)
        self._active = False
        self._last = 0.0
        self._layer_cache: Dict[str, Optional[str]] = {}

    @property
    def active(self) -> bool:
        return self._active

    @active.setter
    def active(self, on: bool) -> None:
        """Ticks are dropped while inactive (calibration, set-up, folding).
        The timer itself keeps running: stopping it per slice would discard
        the part-interval already burnt, a bias of its own."""
        self._active = on
        self._last = time.process_time()

    def _on_tick(self, signum, frame) -> None:
        if not self._active:
            return
        now = time.process_time()
        elapsed, self._last = now - self._last, now
        cache = self._layer_cache
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = cache[filename]
            except KeyError:
                layer = cache[filename] = layer_of(filename)
            if layer is not None:
                self.seconds[layer] += elapsed
                return
            frame = frame.f_back
        self.seconds["harness"] += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def self_seconds(self) -> Dict[str, float]:
        return {layer: self.seconds[layer] for layer in LAYERS}


#: Message class name -> the layer whose traffic it is.  A BatchFrame's
#: group cells are moved from ``fd`` to ``election`` afterwards (see
#: CountingTransport.layer_bytes).
CARRIER = {
    "BatchFrame": "fd",
    "RateRequestMessage": "fd",
    "AccuseMessage": "election",
    "HelloMessage": "core",
    "SwimPingMessage": "swim",
    "SwimPingReqMessage": "swim",
    "SwimAckMessage": "swim",
    "LeaseRequestMessage": "lease",
    "LeaseReplyMessage": "lease",
    "LeaseEventMessage": "lease",
}


class CountingTransport:
    """Pass-through transport that counts what each layer puts on the wire.

    ``up_nodes`` (node id -> object with ``.up``) mirrors the network's
    rule that a crashed node sends nothing, so the byte total here equals
    the usage meters' ``bytes_sent`` exactly (checked after every traced
    simulator run).  It sees a million sends in ``steady_wide``, so the
    per-message work is one dict update keyed by message class; the split
    into layers happens once, in :meth:`metrics`.
    """

    def __init__(self, inner, up_nodes=None) -> None:
        self._inner = inner
        self._up_nodes = up_nodes
        self.reset()

    def reset(self) -> None:
        #: message class name -> [messages, wire bytes]
        self._by_kind: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        #: BatchFrame bytes that belong to group cells, not the FD envelope.
        self._cell_bytes = 0

    def record(self, message) -> None:
        up_nodes = self._up_nodes
        if up_nodes is not None and not up_nodes[message.sender_node].up:
            return
        kind = type(message).__name__
        entry = self._by_kind[kind]
        entry[0] += 1
        size = message.wire_bytes()
        entry[1] += size
        if kind == "BatchFrame" and message.cells:
            self._cell_bytes += size - message.wire_shares().get(SHARED_USAGE_KEY, 0)

    def send(self, message) -> None:
        self.record(message)
        self._inner.send(message)

    def send_batch(self, messages: Iterable) -> None:
        messages = list(messages)
        for message in messages:
            self.record(message)
        self._inner.send_batch(messages)

    def count(self, kind: str) -> int:
        return self._by_kind[kind][0]

    @property
    def layer_bytes(self) -> Dict[str, int]:
        out = dict.fromkeys(("fd", "election", "core", "swim", "lease"), 0)
        for kind, (_, size) in self._by_kind.items():
            out[CARRIER[kind]] += size
        out["fd"] -= self._cell_bytes
        out["election"] += self._cell_bytes
        return out

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size in self._by_kind.values())

    @property
    def total_msgs(self) -> int:
        return sum(count for count, _ in self._by_kind.values())

    def metrics(self) -> Dict[str, float]:
        pings, hellos = self.count("SwimPingMessage"), self.count("HelloMessage")
        out = {f"{layer}.wire_bytes": float(size) for layer, size in self.layer_bytes.items()}
        out.update({
            "net.bytes_sent": float(self.total_bytes),
            "net.msgs_sent": float(self.total_msgs),
            "fd.frames": float(self.count("BatchFrame")),
            "fd.rate_requests": float(self.count("RateRequestMessage")),
            "election.accusations": float(self.count("AccuseMessage")),
            "swim.pings": float(pings),
            "swim.ping_reqs": float(self.count("SwimPingReqMessage")),
            "swim.acks": float(self.count("SwimAckMessage")),
            "swim.indirect_frac": self.count("SwimPingReqMessage") / pings if pings else 0.0,
            "core.hellos": float(hellos),
            "core.bytes_per_hello": self._by_kind["HelloMessage"][1] / hellos if hellos else 0.0,
        })
        return out


_LEASE_LABEL = re.compile(
    r"^(?P<action>grant|renew|release|transfer) lease=(?P<lease>\d+) "
    r"client=(?P<client>-?\d+) token=(?P<token>\d+) "
)


def lease_events(events, group: int, since: float) -> List[Tuple[float, str, int, int, int]]:
    """``(time, action, lease, token, granting pid)`` per ledger mutation."""
    out = []
    for event in events:
        if event.kind != "lease" or event.group != group or event.time < since:
            continue
        match = _LEASE_LABEL.match(event.label or "")
        if match is not None:
            out.append((
                event.time, match["action"], int(match["lease"]),
                int(match["token"]), event.pid,
            ))
    return out


def fold_episodes(events, group: int, recoveries, leases) -> Dict[str, List[float]]:
    """Split each failover episode (one per leader kill) into its spans.

    ``detect``: leader crash -> the first surviving process whose view
    leaves the dead leader (the FD plane's share of T_r).  ``converge``:
    that instant -> the group agrees on an alive leader (the election's
    share; the two sum to T_r).  ``takeover_wait``: agreement -> the new
    leader's first grant.  ``outage``: crash -> first grant by anyone.
    """
    views = [e for e in events if e.kind == "view" and e.group == group]
    # Fresh grants only: a transfer is sanctioned by the live holder and is
    # served inside the takeover grace, so it would hide the outage.
    grants = [entry for entry in leases if entry[1] == "grant"]
    spans: Dict[str, List[float]] = {
        "detect": [], "converge": [], "takeover_wait": [], "outage": [],
    }
    for sample in recoveries:
        dead = sample.crashed_leader
        left = next(
            (v.time for v in views
             if sample.crash_time < v.time <= sample.recovered_time
             and v.pid != dead and v.leader != dead),
            sample.recovered_time,
        )
        spans["detect"].append(left - sample.crash_time)
        spans["converge"].append(sample.recovered_time - left)
        first_any = next((g[0] for g in grants if g[0] > sample.crash_time), None)
        if first_any is not None:
            spans["outage"].append(first_any - sample.crash_time)
        first_new = next(
            (g[0] for g in grants
             if g[0] >= sample.recovered_time and g[4] == sample.new_leader),
            None,
        )
        if first_new is not None:
            spans["takeover_wait"].append(first_new - sample.recovered_time)
    return spans
