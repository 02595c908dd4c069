"""ctypes bindings for Linux ``sendmmsg``/``recvmmsg``.

CPython's :mod:`socket` module exposes neither syscall, so the UDP
datapath (:class:`~repro.runtime.realtime.UdpTransport`) binds them
straight from libc.  One ``sendmmsg`` call
flushes a whole per-tick fan-out — every destination's ALIVE frame —
through a single kernel crossing, and one ``recvmmsg`` drains every
datagram already queued on the socket; per-datagram syscall overhead is
what dominates small-message UDP throughput on localhost.

Availability is feature-detected at import time (:func:`available`):
non-Linux platforms, static binaries without the symbols, and exotic
libcs all degrade to ``False``, and callers fall back to per-datagram
``sendto``/``recvfrom``.  Nothing here is required for correctness —
only for throughput.

Scope is deliberately narrow: IPv4/UDP, one iovec per datagram, no
ancillary data.  That is exactly what the cluster transport sends, and
keeping the ctypes surface minimal keeps the argument-marshalling
overhead (the price ctypes charges per call) amortized over the batch.
"""

from __future__ import annotations

import ctypes
import os
import socket
import struct
import sys
from typing import List, Sequence, Tuple

__all__ = [
    "MAX_BATCH",
    "available",
    "pin",
    "SendBatcher",
    "RecvBatcher",
]

#: Largest batch handed to one syscall; callers chunk above this.  Linux
#: caps ``vlen`` at UIO_MAXIOV (1024) — 64 keeps the per-call scratch
#: arrays small while still amortizing the syscall ~64x.
MAX_BATCH = 64


class _iovec(ctypes.Structure):
    _fields_ = [
        ("iov_base", ctypes.c_void_p),
        ("iov_len", ctypes.c_size_t),
    ]


class _msghdr(ctypes.Structure):
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint),
        ("msg_iov", ctypes.POINTER(_iovec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _mmsghdr(ctypes.Structure):
    _fields_ = [
        ("msg_hdr", _msghdr),
        ("msg_len", ctypes.c_uint),
    ]


class _sockaddr_in(ctypes.Structure):
    _fields_ = [
        ("sin_family", ctypes.c_uint16),
        ("sin_port", ctypes.c_uint16),  # network byte order
        ("sin_addr", ctypes.c_uint8 * 4),
        ("sin_zero", ctypes.c_uint8 * 8),
    ]


def _load():
    """Resolve the two symbols, or (None, None) when unavailable."""
    if not sys.platform.startswith("linux"):
        return None, None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        sendmmsg = libc.sendmmsg
        recvmmsg = libc.recvmmsg
    except (OSError, AttributeError):
        return None, None
    sendmmsg.restype = ctypes.c_int
    sendmmsg.argtypes = [
        ctypes.c_int,
        ctypes.POINTER(_mmsghdr),
        ctypes.c_uint,
        ctypes.c_int,
    ]
    recvmmsg.restype = ctypes.c_int
    recvmmsg.argtypes = [
        ctypes.c_int,
        ctypes.POINTER(_mmsghdr),
        ctypes.c_uint,
        ctypes.c_int,
        ctypes.c_void_p,  # struct timespec *timeout (always NULL here)
    ]
    return sendmmsg, recvmmsg


_sendmmsg, _recvmmsg = _load()


def available() -> bool:
    """True when the libc symbols resolved (Linux with a normal libc)."""
    return _sendmmsg is not None


def pin(buf: bytearray) -> Tuple[object, int]:
    """Pin ``buf`` and return ``(view, address)``.

    The view holds a buffer export on the bytearray (it can no longer be
    resized) and keeps the address stable; the caller must keep the view
    alive for as long as the address is staged in any iovec.
    """
    view = (ctypes.c_char * len(buf)).from_buffer(buf)
    return view, ctypes.addressof(view)


def _fill_sockaddr(sa: _sockaddr_in, host: str, port: int) -> None:
    """Build an IPv4 sockaddr in place; raises OSError on non-dotted hosts."""
    sa.sin_family = socket.AF_INET
    sa.sin_port = socket.htons(port)
    # inet_aton: dotted-quad only — hostnames raise OSError, which callers
    # treat as "this batch can't go the fast way" and fall back.
    ctypes.memmove(sa.sin_addr, socket.inet_aton(host), 4)


#: Native (pointer, size_t) pair — an ``iovec``'s exact in-memory layout
#: on every Linux ABI ctypes supports (checked below before use).
_IOVEC_PACK = None
if struct.calcsize("NN") == ctypes.sizeof(_iovec):
    _IOVEC_PACK = struct.Struct("NN").pack_into

_SA_SIZE = ctypes.sizeof(_sockaddr_in)
#: Cap on a :class:`SendBatcher`'s per-destination sockaddr cache.
SA_CACHE_MAX = 1024
_IOV_SIZE = ctypes.sizeof(_iovec)


class SendBatcher:
    """Reusable ``sendmmsg`` argument arrays for a hot send path.

    Rebuilding the ctypes arrays per call costs more Python time than the
    syscall saves, so a ``SendBatcher`` allocates the
    ``mmsghdr``/``iovec``/``sockaddr`` arrays once, pre-links the constant
    pointers, and leaves only two cheap stores per datagram on the hot
    path (:meth:`stage`): the iovec pair, packed straight into the array's
    backing bytearray with one ``struct.pack_into`` (ctypes attribute
    stores cost ~10x as much), and a 16-byte sockaddr slice copy from a
    per-destination cache.
    """

    __slots__ = (
        "_msgs",
        "_iovs",
        "_addrs",
        "_iov_mem",
        "_addr_mem",
        "_msg_ptr",
        "_sa_cache",
    )

    def __init__(self) -> None:
        # The iovec and sockaddr arrays live inside plain bytearrays so
        # the per-datagram writes can use pack_into / slice assignment;
        # the ctypes overlays alias the same memory for setup and for the
        # (layout-checked) fallback staging path.
        self._iov_mem = bytearray(ctypes.sizeof(_iovec) * MAX_BATCH)
        self._addr_mem = bytearray(_SA_SIZE * MAX_BATCH)
        self._iovs = (_iovec * MAX_BATCH).from_buffer(self._iov_mem)
        self._addrs = (_sockaddr_in * MAX_BATCH).from_buffer(self._addr_mem)
        self._msgs = (_mmsghdr * MAX_BATCH)()
        for i in range(MAX_BATCH):
            hdr = self._msgs[i].msg_hdr
            hdr.msg_name = ctypes.addressof(self._addrs[i])
            hdr.msg_namelen = _SA_SIZE
            hdr.msg_iov = ctypes.pointer(self._iovs[i])
            hdr.msg_iovlen = 1
        self._msg_ptr = ctypes.cast(self._msgs, ctypes.POINTER(_mmsghdr))
        #: (host, port) -> packed 16-byte sockaddr_in, most recently used
        #: last.  Cluster address books are small and static, but replies
        #: also go to whatever address a client datagram came from, so the
        #: table is capped like the transport's learned addresses.
        self._sa_cache: dict = {}

    def sockaddr(self, address: Tuple[str, int]) -> bytes:
        """Packed sockaddr for ``address`` (cached); OSError on hostnames."""
        cache = self._sa_cache
        sa = cache.pop(address, None)
        if sa is None:
            raw = _sockaddr_in()
            _fill_sockaddr(raw, address[0], address[1])
            sa = bytes(raw)
            if len(cache) >= SA_CACHE_MAX:
                del cache[next(iter(cache))]
        cache[address] = sa
        return sa

    if _IOVEC_PACK is not None:

        def stage(self, index: int, base: int, length: int, sa: bytes) -> None:
            """Point slot ``index`` at ``length`` bytes at address ``base``.

            ``base`` must stay valid until :meth:`send` returns — the
            caller owns the buffer (typically a pinned encode-scratch
            slot).
            """
            _IOVEC_PACK(self._iov_mem, index * _IOV_SIZE, base, length)
            offset = index * _SA_SIZE
            self._addr_mem[offset : offset + _SA_SIZE] = sa

    else:  # pragma: no cover - exotic ABI where iovec isn't (void*, size_t)

        def stage(self, index: int, base: int, length: int, sa: bytes) -> None:
            iov = self._iovs[index]
            iov.iov_base = base
            iov.iov_len = length
            offset = index * _SA_SIZE
            self._addr_mem[offset : offset + _SA_SIZE] = sa

    def send(self, fd: int, count: int) -> int:
        """One ``sendmmsg`` of the first ``count`` staged slots."""
        assert _sendmmsg is not None, "call available() first"
        sent = _sendmmsg(fd, self._msg_ptr, count, 0)
        if sent < 0:
            err = ctypes.get_errno()
            raise OSError(err, os.strerror(err))
        return sent


class RecvBatcher:
    """Reusable ``recvmmsg`` argument arrays bound to fixed buffers.

    The buffers are pinned via ``from_buffer`` for the batcher's lifetime
    (so they must never be resized); each :meth:`recv` is then a single
    syscall plus one result walk — no per-call marshalling at all.
    """

    __slots__ = ("_buffers", "_views", "_msgs", "_iovs", "_addrs", "_n")

    def __init__(self, buffers: Sequence[bytearray]) -> None:
        n = len(buffers)
        if n > MAX_BATCH:
            raise ValueError(f"{n} buffers exceeds MAX_BATCH={MAX_BATCH}")
        self._n = n
        self._buffers = list(buffers)
        self._views = [
            (ctypes.c_char * len(buf)).from_buffer(buf) for buf in self._buffers
        ]
        self._msgs = (_mmsghdr * n)()
        self._iovs = (_iovec * n)()
        self._addrs = (_sockaddr_in * n)()
        for i in range(n):
            self._iovs[i].iov_base = ctypes.addressof(self._views[i])
            self._iovs[i].iov_len = len(self._buffers[i])
            hdr = self._msgs[i].msg_hdr
            hdr.msg_name = ctypes.addressof(self._addrs[i])
            hdr.msg_namelen = ctypes.sizeof(_sockaddr_in)
            hdr.msg_iov = ctypes.pointer(self._iovs[i])
            hdr.msg_iovlen = 1

    def recv(self, fd: int) -> List[Tuple[int, Tuple[str, int]]]:
        """One ``recvmmsg``; payload ``i`` lands in the ``i``-th buffer."""
        assert _recvmmsg is not None, "call available() first"
        got = _recvmmsg(fd, self._msgs, self._n, 0, None)
        if got < 0:
            err = ctypes.get_errno()
            raise OSError(err, os.strerror(err))
        out: List[Tuple[int, Tuple[str, int]]] = []
        for i in range(got):
            sa = self._addrs[i]
            out.append(
                (
                    self._msgs[i].msg_len,
                    (socket.inet_ntoa(bytes(sa.sin_addr)), socket.ntohs(sa.sin_port)),
                )
            )
        return out
