"""Micro-benchmarks for the live datapath: wire codec and UDP transport.

Two measurement families, pinned in ``BENCH_core.json`` under the
top-level ``micro`` key (next to the sim-side ``modes``) and checked by
the CI perf-smoke job via ``tools/bench_micro.py``:

* **codec** — encode/decode throughput over a deterministic mix of
  representative frames (heartbeat batch, gossip hello, accusation,
  lease request/reply).  Three rows: ``encode_message`` (the ``bytes``
  wrapper: one ``encode_message_into`` plus a buffer and a copy), the
  zero-copy ``encode_message_into`` scratch path the transport uses, and
  ``decode_message`` reading straight from a shared buffer through a
  ``memoryview`` (the ``recvmmsg`` drain path).
  Frames/sec are machine-dependent, so the regression check compares
  them *normalized by the calibration score* (same scheme as the core
  bench).

* **udp** — sustained localhost datagram throughput between two real
  processes: a sender flooding ``send_batch`` bursts and a receiver
  counting decoded deliveries, once as shipped on Linux (``sendmmsg``/
  ``recvmmsg`` on the transport's raw socket) and once on the
  per-datagram ``sendto``/``recvfrom`` fallback the same socket takes
  where libc lacks the symbols — selected by patching
  ``mmsg.available`` inside the bench's own two processes, not by any
  switch in ``src/``.  The headline number is the *delivered* ratio:
  the accelerator earns its ctypes surface only while it beats the
  fallback, so a ratio below ``MIN_UDP_RATIO`` is never recorded (and
  the check tolerance applies on re-runs).

Both benches are wall-clock measurements of real syscalls; keep them
short (a few seconds) — they run in CI on shared machines.
"""

from __future__ import annotations

import multiprocessing
import socket
import time
from typing import Dict, List, Optional

from repro.net.message import (
    AccEntry,
    AccuseMessage,
    AliveCell,
    BatchFrame,
    HelloMessage,
    LeaseReplyMessage,
    LeaseRequestMessage,
    MemberInfo,
)
from repro.runtime import mmsg
from repro.runtime.codec import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    encode_message_into,
)

__all__ = [
    "MIN_UDP_RATIO",
    "codec_frame_mix",
    "run_codec_micro",
    "run_udp_micro",
    "run_micro_bench",
    "compare_micro",
]

#: The acceptance floor for the mmsg/fallback delivered ratio at --update
#: time: below parity the accelerator does not pay for itself, and that
#: is a finding to report, not a baseline to pin.  --check applies its
#: tolerance on top (shared CI machines are noisy).
MIN_UDP_RATIO = 1.0


def codec_frame_mix() -> List[object]:
    """A deterministic, representative message mix (one of each family)."""
    members = tuple(
        MemberInfo(pid=i, node=i % 4, incarnation=i + 1, candidate=True,
                   present=True, joined_at=float(i))
        for i in range(6)
    )
    cells = tuple(
        AliveCell(group=g, pid=g % 3, acc_time=10.0 + g, phase=g,
                  local_leader=g % 3, local_leader_acc=9.5 + g,
                  delta=members[:2] if g == 0 else (),
                  view_version=g + 1, view_digest=0xABCD + g)
        for g in range(4)
    )
    return [
        BatchFrame(sender_node=0, dest_node=1, seq=7, send_time=123.25,
                   interval=0.25, cells=cells),
        HelloMessage(sender_node=1, dest_node=2, group=1, kind="gossip",
                     members=members, view_version=3, view_digest=99,
                     leader_hint=AccEntry(pid=1, acc_time=4.5, phase=2),
                     acc_table=tuple(AccEntry(pid=i, acc_time=float(i), phase=i)
                                     for i in range(4)),
                     trusted=(0, 1, 2), leases=(), lease_digest=5),
        AccuseMessage(sender_node=2, dest_node=0, group=1, accuser=2,
                      accused=0, accused_phase=3),
        LeaseRequestMessage(sender_node=3, dest_node=0, group=1, op="acquire",
                            lease=42, client=17, token=0, ttl=5.0, nonce=9),
        LeaseReplyMessage(sender_node=0, dest_node=3, group=1, status="granted",
                          lease=42, client=17, token=1001, holder=17,
                          expiry=55.5, retry_after=0.0, leader_node=0, nonce=9),
    ]


def run_codec_micro(iterations: int = 20_000, repeats: int = 3) -> Dict:
    """Frames/sec for the three codec paths over the fixed mix (best of
    ``repeats`` — noise only ever slows a run down)."""
    mix = codec_frame_mix()
    frames = [encode_message(m) for m in mix]
    scratch = bytearray(MAX_FRAME_BYTES)
    n = len(mix)
    total = iterations * n

    def best(fn) -> float:
        wall = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            wall = min(wall, time.perf_counter() - start)
        return total / wall

    def encode_pass() -> None:
        for _ in range(iterations):
            for message in mix:
                encode_message(message)

    def encode_into_pass() -> None:
        for _ in range(iterations):
            for message in mix:
                encode_message_into(message, scratch)

    # Zero-copy decode: every frame is viewed out of one shared buffer,
    # exactly like the recvmmsg drain.
    shared = bytearray(sum(len(f) for f in frames))
    views = []
    offset = 0
    for frame in frames:
        shared[offset : offset + len(frame)] = frame
        views.append(memoryview(shared)[offset : offset + len(frame)])
        offset += len(frame)

    def decode_pass() -> None:
        for _ in range(iterations):
            for view in views:
                decode_message(view)

    return {
        "frames_in_mix": n,
        "mean_frame_bytes": round(sum(len(f) for f in frames) / n, 1),
        "encode_per_sec": round(best(encode_pass), 1),
        "encode_into_per_sec": round(best(encode_into_pass), 1),
        "decode_per_sec": round(best(decode_pass), 1),
    }


def _free_addr() -> tuple:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    address = sock.getsockname()
    sock.close()
    return address


def _udp_receiver(addresses, accelerated, conn) -> None:
    """Receiver process: count decoded deliveries until told to stop."""
    import asyncio

    from repro.runtime.realtime import UdpTransport

    async def main() -> None:
        count = [0]
        transport = await UdpTransport(
            1, addresses, lambda m: count.__setitem__(0, count[0] + 1)
        ).open()
        conn.send("ready")
        while not conn.poll():
            await asyncio.sleep(0.01)
        conn.recv()
        await asyncio.sleep(0.1)  # drain the tail
        transport.close()
        conn.send(count[0])

    with _datapath(accelerated):
        asyncio.run(main())


def _datapath(accelerated: bool):
    """Patch ``mmsg.available`` for this process: a loop's first transport
    asks it once, so a whole ``asyncio.run`` inside the patch runs either on
    sendmmsg/recvmmsg or on the per-datagram fallback."""
    from unittest import mock

    return mock.patch.object(mmsg, "available", return_value=accelerated)


def _udp_flood(accelerated: bool, seconds: float) -> Optional[Dict]:
    """One sender-process flood against one receiver process."""
    import asyncio

    from repro.runtime.realtime import UdpTransport

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return None
    addresses = {0: _free_addr(), 1: _free_addr()}
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_udp_receiver, args=(addresses, accelerated, child))
    proc.start()
    parent.recv()

    async def send() -> tuple:
        transport = await UdpTransport(0, addresses, lambda m: None).open()
        message = AccuseMessage(sender_node=0, dest_node=1, group=1,
                                accuser=0, accused=1, accused_phase=0)
        burst = [message] * 64
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            transport.send_batch(burst)
        wall = time.perf_counter() - start
        sent = transport.stats.frames_sent
        syscalls = transport.stats.batch_syscalls
        transport.close()
        return sent, wall, syscalls

    with _datapath(accelerated):
        sent, wall, syscalls = asyncio.run(send())
    parent.send("stop")
    delivered = parent.recv()
    proc.join(timeout=10)
    return {
        "sent_per_sec": round(sent / wall, 1),
        "delivered_per_sec": round(delivered / wall, 1),
        "batch_syscalls": syscalls,
    }


def run_udp_micro(seconds: float = 1.0, repeats: int = 2) -> Optional[Dict]:
    """mmsg-vs-fallback sustained flood; None when sendmmsg is absent.

    Best delivered rate per side across ``repeats`` — the sides are
    measured in separate runs, so per-run noise never favours one.
    """
    if not mmsg.available():
        return None
    best: Dict[str, Dict] = {}
    for accelerated, key in ((True, "mmsg"), (False, "fallback")):
        for _ in range(repeats):
            run = _udp_flood(accelerated, seconds)
            if run is None:
                return None
            if (
                key not in best
                or run["delivered_per_sec"] > best[key]["delivered_per_sec"]
            ):
                best[key] = run
    ratio = best["mmsg"]["delivered_per_sec"] / best["fallback"]["delivered_per_sec"]
    return {
        "mmsg": best["mmsg"],
        "fallback": best["fallback"],
        "delivered_ratio": round(ratio, 2),
    }


def run_micro_bench(skip_udp: bool = False, progress=None) -> Dict:
    """Run both micro families; returns the ``micro`` blob for the baseline."""
    from benchmarks.bench_core import calibration_kops

    blob: Dict = {"calibration_kops": round(calibration_kops(), 1)}
    if progress:
        progress(f"calibration: {blob['calibration_kops']:,.0f} kops")
    blob["codec"] = run_codec_micro()
    if progress:
        codec = blob["codec"]
        progress(
            f"codec: encode {codec['encode_per_sec']:,.0f}/s, "
            f"encode_into {codec['encode_into_per_sec']:,.0f}/s, "
            f"decode {codec['decode_per_sec']:,.0f}/s"
        )
    if not skip_udp:
        blob["udp"] = run_udp_micro()
        if progress and blob["udp"] is not None:
            udp = blob["udp"]
            progress(
                f"udp: sendmmsg/recvmmsg {udp['mmsg']['delivered_per_sec']:,.0f} "
                f"delivered/s vs per-datagram fallback "
                f"{udp['fallback']['delivered_per_sec']:,.0f}/s "
                f"(ratio {udp['delivered_ratio']:.2f}x)"
            )
        elif progress:
            progress("udp: skipped (sendmmsg unavailable)")
    return blob


def compare_micro(baseline: dict, current: Dict, tolerance: float = 0.25) -> List[str]:
    """Regression-check ``current`` against the committed ``micro`` blob.

    * codec rates, normalized by each run's calibration score, must stay
      within ``tolerance`` of the baseline;
    * the UDP delivered ratio must stay above
      ``MIN_UDP_RATIO * (1 - tolerance)`` — the committed baseline is
      recorded at >= MIN_UDP_RATIO, and the tolerance absorbs shared-CI
      noise.
    """
    failures: List[str] = []
    base = baseline.get("micro")
    if base is None:
        return ["baseline has no 'micro' section (re-run tools/bench_micro.py --update)"]
    base_calibration = base.get("calibration_kops") or 1.0
    base_codec = base.get("codec", {})
    for key in ("encode_per_sec", "encode_into_per_sec", "decode_per_sec"):
        base_rate = base_codec.get(key)
        if not base_rate:
            continue
        norm = current["codec"][key] / current["calibration_kops"]
        base_norm = base_rate / base_calibration
        if norm < (1.0 - tolerance) * base_norm:
            failures.append(
                f"codec {key}: normalized throughput regressed "
                f"{(1.0 - norm / base_norm) * 100:.1f}% "
                f"(baseline {base_rate:,.0f}/s @ {base_calibration:,.0f} kops, "
                f"current {current['codec'][key]:,.0f}/s @ "
                f"{current['calibration_kops']:,.0f} kops)"
            )
    udp = current.get("udp")
    if base.get("udp") is not None and udp is not None:
        floor = MIN_UDP_RATIO * (1.0 - tolerance)
        if udp["delivered_ratio"] < floor:
            failures.append(
                f"udp: mmsg/fallback delivered ratio "
                f"{udp['delivered_ratio']:.2f}x fell below {floor:.2f}x "
                f"(recorded baseline {base['udp']['delivered_ratio']:.2f}x, "
                f"gate {MIN_UDP_RATIO:.1f}x minus {tolerance * 100:.0f}% noise)"
            )
    return failures
