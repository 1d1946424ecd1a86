"""Nonblocking UDP endpoint, its Pump transport and a single-process loopback driver."""

from __future__ import annotations

import random
import select
import socket
import time
from typing import Optional

from ..engine import Engine, TransferParameters
from ..wire import MTU, decode_packet, encode_packet
from .pump import Pump, TransferOutcome
from .sim import MtuError

RECEIVE_BUFFER = 4 * 1024 * 1024  # absorbs whole window bursts
MAX_WAIT_S = 0.2  # longest single wait, so callers regain control now and then


class TransportError(Exception):
    """A socket operation failed; engine state is unaffected."""


class UdpEndpoint:
    """One bound, nonblocking UDP socket with MTU-guarded sends."""

    def __init__(self, bind=("127.0.0.1", 0), receive_buffer: int = RECEIVE_BUFFER):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, receive_buffer)
            self._sock.bind(bind)
        except OSError as exc:
            self._sock.close()
            raise TransportError(f"cannot bind {bind}: {exc}") from exc
        self._sock.setblocking(False)
        self.address = self._sock.getsockname()

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, to, datagram: bytes) -> None:
        if len(datagram) > MTU:
            raise MtuError(f"datagram of {len(datagram)} bytes exceeds the {MTU}-byte MTU")
        try:
            self._sock.sendto(datagram, to)
        except OSError as exc:
            raise TransportError(f"send to {to} failed: {exc}") from exc

    def drain(self) -> list:
        """Every queued (source address, datagram), without blocking."""
        received = []
        while True:
            try:
                datagram, addr = self._sock.recvfrom(65535)
            except (BlockingIOError, InterruptedError):
                return received
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            received.append((addr, datagram))

    def poll(self, timeout: float) -> list:
        """Wait up to timeout seconds, then return everything queued."""
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
    arrived once a datagram is queued, the deadline has passed or
    MAX_WAIT_S have gone by; it never reports that nothing can arrive.
    One endpoint waits in UdpEndpoint.poll; several share one select and
    then drain each readable one.
    """

    def __init__(self, *endpoints: UdpEndpoint):
        self.endpoints = {endpoint.address: endpoint for endpoint in endpoints}

    def send(self, local, peer, datagram: bytes) -> None:
        self.endpoints[local].send(peer, datagram)

    def now(self) -> float:
        return time.monotonic() * 1000.0

    def wait(self, until: Optional[float]) -> list:
        timeout = MAX_WAIT_S
        if until is not None:
            timeout = min(max((until - self.now()) / 1000.0, 0.0), MAX_WAIT_S)
        if len(self.endpoints) == 1:
            [(local, endpoint)] = self.endpoints.items()
            return [(local, addr, datagram) for addr, datagram in endpoint.poll(timeout)]
        readable, _, _ = select.select(list(self.endpoints.values()), [], [], timeout)
        return [(endpoint.address, addr, datagram)
                for endpoint in readable for addr, datagram in endpoint.drain()]


def run_loopback_transfer(data: bytes, params: Optional[TransferParameters] = None,
                          info: str = "loopback", seed: int = 0,
                          wall_timeout_s: float = 120.0) -> TransferOutcome:
    """Run one transfer between two engines on two local UDP sockets.

    Real sockets, real clock; wall_timeout_s bounds a wedged run. Undecodable
    datagrams are dropped, matching how a public port must treat noise.
    """
    params = params if params is not None else TransferParameters()
    with UdpEndpoint() as a, UdpEndpoint() as b:
        pump = Pump({
            a.address: Engine(params=params, rng=random.Random(seed ^ 0x0DDC0FFE)),
            b.address: Engine(params=params, rng=random.Random(seed ^ 0xDEFACED1)),
        }, UdpTransport(a, b), encode_packet, decode_packet)
        sender, receiver = pump.engines[a.address], pump.engines[b.address]
        tid, out = sender.start_transfer(b.address, info, data, now=pump.transport.now())
        pump.flush(a.address, out)
        give_up_at = time.monotonic() + wall_timeout_s
        while time.monotonic() < give_up_at and (
                sender.live_transfer_with(b.address) is not None
                or receiver.live_transfer_with(a.address) is not None):
            pump.step()
            pump.events.clear()  # the outcome reads the engine states instead
        return pump.outcome(tid, a.address, b.address)
