"""Nonblocking UDP endpoint, its Pump transport and a single-process loopback driver."""

from __future__ import annotations

import errno
import math
import random
import select
import socket
import sys
import time
from typing import Iterable, Optional

from ..engine import Engine, TransferParameters
from ..wire import MTU, MtuError, decode_packet, encode_packet
from .pump import Pump, TransferOutcome

RECEIVE_BUFFER = 4 * 1024 * 1024  # absorbs whole window bursts
WALL_TIMEOUT_S = 120.0  # bounds a wedged run_loopback_transfer
# select refuses a timeout past about 9.2e9 s; a deadline further off than
# this waits as if there were none
MAX_TIMEOUT_S = 1e9

# Linux UDP segmentation offload (linux/udp.h); the socket module has no names
# for them. UDP_SEGMENT sends one buffer as a run of datagrams of a given size
# (GSO); UDP_GRO hands coalesced datagrams to one receive with their size.
UDP_SEGMENT = 103
UDP_GRO = 104
GSO_MAX_SEGMENTS = 64  # the kernel's UDP_MAX_SEGMENTS on older kernels
GSO_MAX_BYTES = 65507  # largest UDP payload over IPv4
# room for the UDP_GRO control message, an int; Windows has no CMSG_SPACE
_GRO_CMSG_SPACE = socket.CMSG_SPACE(4) if hasattr(socket, "CMSG_SPACE") else 0


class TransportError(Exception):
    """A socket operation failed; engine state is unaffected."""


class UdpEndpoint:
    """One bound, nonblocking UDP socket with MTU-guarded sends.

    Where the kernel offers UDP GSO and GRO (probed at bind), a run of
    datagrams to one peer leaves in one sendmsg and coalesced arrivals are
    read in one recvmsg; otherwise each datagram takes its own sendto and
    recvfrom. The datagrams on the wire are the same either way.
    """

    def __init__(self, bind=("127.0.0.1", 0)):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RECEIVE_BUFFER)
            self._sock.bind(bind)
        except (OSError, OverflowError) as exc:  # OverflowError: a port past 65535
            self._sock.close()
            raise TransportError(f"cannot bind {bind}: {exc}") from exc
        self._sock.setblocking(False)
        self.address = self._sock.getsockname()
        try:
            self._sock.setsockopt(socket.IPPROTO_UDP, UDP_SEGMENT, 0)
            self._sock.setsockopt(socket.IPPROTO_UDP, UDP_GRO, 1)
            self._gso = self._gro = True
        except OSError:
            self._gso = self._gro = False

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, to, *datagrams: bytes) -> None:
        """Put datagrams on the wire to one address, in order.

        Every datagram is checked against the MTU before any is sent. With
        GSO, each run of equal-sized datagrams, which may end in one shorter
        one, leaves in one sendmsg of at most GSO_MAX_SEGMENTS datagrams and
        GSO_MAX_BYTES bytes.
        """
        for datagram in datagrams:
            if len(datagram) > MTU:
                raise MtuError(f"datagram of {len(datagram)} bytes exceeds the {MTU}-byte MTU")
        try:
            start = 0
            while start < len(datagrams):
                size = len(datagrams[start])
                most = min(GSO_MAX_SEGMENTS, GSO_MAX_BYTES // size) if size else 1
                limit = min(start + most, len(datagrams))
                stop = start + 1
                while stop < limit and len(datagrams[stop]) == size:
                    stop += 1
                if stop < limit and len(datagrams[stop]) < size:
                    stop += 1  # a shorter datagram may close the run
                self._send_run(to, datagrams[start:stop], size)
                start = stop
        except (OSError, OverflowError) as exc:  # OverflowError: a port past 65535
            raise TransportError(f"send to {to} failed: {exc}") from exc

    def _send_run(self, to, run, size: int) -> None:
        if len(run) > 1 and self._gso:
            try:
                self._sock.sendmsg(run, [(
                    socket.IPPROTO_UDP, UDP_SEGMENT, size.to_bytes(2, sys.byteorder))], 0, to)
                return
            except OSError as exc:
                if exc.errno not in (errno.EIO, errno.EINVAL):
                    raise
                self._gso = False  # no checksum offload on this path: for good
        for datagram in run:
            self._sock.sendto(datagram, to)

    def drain(self) -> list:
        """Every queued (source address, datagram), without blocking.

        A GRO-coalesced buffer is split back into its datagrams.
        """
        received = []
        gro, recvfrom = self._gro, self._sock.recvfrom
        recvmsg = self._sock.recvmsg if gro else None  # Windows sockets have none
        while True:
            try:
                if gro:
                    datagram, ancillary, _, addr = recvmsg(65535, _GRO_CMSG_SPACE)
                else:
                    datagram, addr = recvfrom(65535)
                    ancillary = ()
            except (BlockingIOError, InterruptedError):
                return received
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if ancillary:
                [(_, _, value)] = ancillary  # UDP_GRO is the only one enabled
                size = int.from_bytes(value, sys.byteorder)
                received += [(addr, datagram[at:at + size])
                             for at in range(0, len(datagram), size)]
            else:
                received.append((addr, datagram))

    def poll(self, timeout: Optional[float]) -> list:
        """Wait up to timeout seconds, or until a datagram arrives if it is
        None, then return everything queued."""
        readable, _, _ = select.select([self], [], [], timeout)
        return self.drain() if readable else []

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "UdpEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class UdpTransport:
    """Bound UdpEndpoints as a Pump transport, on the monotonic clock in ms.

    Each endpoint's local name is its own address. A wait returns what
    arrived once a datagram is queued or the deadline has passed; with no
    deadline it blocks until a datagram arrives, and it never reports that
    nothing can arrive.
    One endpoint waits in UdpEndpoint.poll; several share one select and
    then drain each readable one.
    """

    def __init__(self, *endpoints: UdpEndpoint):
        self.endpoints = {endpoint.address: endpoint for endpoint in endpoints}

    def send(self, local, peer, datagrams: list) -> None:
        self.endpoints[local].send(peer, *datagrams)

    def now(self) -> float:
        return time.monotonic() * 1000.0

    def wait(self, until: Optional[float]) -> Iterable:
        left = math.inf if until is None else (until - self.now()) / 1000.0
        timeout = max(left, 0.0) if left <= MAX_TIMEOUT_S else None
        if len(self.endpoints) == 1:
            [(local, endpoint)] = self.endpoints.items()
            received = endpoint.poll(timeout)  # here, so now() reads after the arrival
            return [(local, addr, datagram) for addr, datagram in received]
        # drained here too: a lazy drain would run after the Pump reads the clock
        readable, _, _ = select.select(list(self.endpoints.values()), [], [], timeout)
        return [(endpoint.address, addr, datagram)
                for endpoint in readable for addr, datagram in endpoint.drain()]


def run_loopback_transfer(data: bytes, params: Optional[TransferParameters] = None,
                          info: str = "loopback", seed: int = 0) -> TransferOutcome:
    """Run one transfer between two engines on two local UDP sockets.

    Real sockets, real clock; a run still live after WALL_TIMEOUT_S gives up.
    Undecodable datagrams are dropped, matching how a public port must treat
    noise.
    """
    with UdpEndpoint() as a, UdpEndpoint() as b:
        pump = Pump({
            a.address: Engine(params=params, rng=random.Random(seed ^ 0x0DDC0FFE)),
            b.address: Engine(params=params, rng=random.Random(seed ^ 0xDEFACED1)),
        }, UdpTransport(a, b), encode_packet, decode_packet)
        sender, receiver = pump.engines[a.address], pump.engines[b.address]
        tid, out = sender.start_transfer(b.address, info, data, now=pump.transport.now())
        pump.flush(a.address, out)
        give_up_at = pump.transport.now() + WALL_TIMEOUT_S * 1000.0
        while pump.transport.now() < give_up_at and (
                sender.live_transfer_with(b.address) is not None
                or receiver.live_transfer_with(a.address) is not None):
            pump.step(give_up_at)
        return pump.outcome(tid, a.address, b.address)
