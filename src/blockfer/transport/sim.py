"""Deterministic in-process network simulation.

A SimulatedLink carries datagrams between named endpoints through a shared
SimClock. Every random draw (loss, jitter, reordering, duplication) comes
from one generator seeded by the LinkModel, in a fixed per-send order, so a
given (model, event script) pair always produces the exact same delivery
schedule. That makes whole simulated transfers replayable byte for byte.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Optional

from ..engine import Engine, TransferParameters
from ..wire import MTU, decode_packet, encode_packet
from .pump import Pump, TransferOutcome

_SENDER_SALT = 0x9E3779B97F4A7C15
_RECEIVER_SALT = 0xC2B2AE3D27D4EB4F


class MtuError(ValueError):
    """Datagram (plus any configured header tax) exceeds the 1500-byte MTU."""


@dataclass(frozen=True)
class LinkModel:
    """One direction-agnostic description of an unreliable datagram link.

    latency_jitter_ms spreads delivery uniformly around the base; a draw
    below zero clamps to immediate delivery. header_tax_bytes emulates the
    overhead of a fatter encapsulation by counting against the MTU without
    being transmitted.
    """

    loss_probability: float = 0.0
    latency_base_ms: float = 0.0
    latency_jitter_ms: float = 0.0
    reorder_probability: float = 0.0
    duplicate_probability: float = 0.0
    seed: int = 0
    header_tax_bytes: int = 0

    def __post_init__(self):
        for name in ("loss_probability", "reorder_probability", "duplicate_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.latency_base_ms < 0 or self.latency_jitter_ms < 0:
            raise ValueError("latencies must not be negative")
        if self.header_tax_bytes < 0:
            raise ValueError("header_tax_bytes must not be negative")


class SimClock:
    """Future-event queue ordered by (time, tie key, insertion sequence)."""

    def __init__(self, start: float = 0.0):
        self.now = start
        self._heap: list = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, item: Any, tie: int = 0) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, tie, self._seq, item))
        self._seq += 1

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[float, Any]:
        time, _, _, item = heapq.heappop(self._heap)
        self.now = time
        return time, item


class SimulatedLink:
    """Lossy pipe between any endpoints sharing a clock.

    Deliveries land on the clock as (destination, source, datagram) items.
    Reordering works by perturbing the tie key of same-instant deliveries;
    with jitter enabled, arrival times themselves already shuffle packets.
    """

    def __init__(self, model: LinkModel, clock: SimClock):
        self.model = model
        self.clock = clock
        self.sends = 0
        self.drops = 0
        self._rng = random.Random(model.seed)

    def _delivery(self, now: float) -> tuple[float, int]:
        jitter = self._rng.uniform(-self.model.latency_jitter_ms,
                                   self.model.latency_jitter_ms)
        time = now + max(0.0, self.model.latency_base_ms + jitter)
        tie = 0
        if self._rng.random() < self.model.reorder_probability:
            tie = self._rng.getrandbits(32)
        return time, tie

    def send(self, src, dst, datagram: bytes, now: float) -> list[float]:
        """Schedule delivery; returns the delivery times (empty if lost)."""
        if len(datagram) + self.model.header_tax_bytes > MTU:
            raise MtuError(
                f"datagram of {len(datagram)} bytes (+{self.model.header_tax_bytes} "
                f"header tax) exceeds the {MTU}-byte MTU")
        self.sends += 1
        if self._rng.random() < self.model.loss_probability:
            self.drops += 1
            return []
        times = []
        time, tie = self._delivery(now)
        self.clock.push(time, (dst, src, bytes(datagram)), tie)
        times.append(time)
        if self._rng.random() < self.model.duplicate_probability:
            time, tie = self._delivery(now)
            self.clock.push(time, (dst, src, bytes(datagram)), tie)
            times.append(time)
        return times


class _LinkTransport:
    """A SimulatedLink as a Pump transport, on the link's clock.

    Each wait delivers the next datagram if it is due no later than until
    (a delivery wins a tie with a deadline), and otherwise advances the
    clock to until. Nothing can arrive once the link is idle and no
    deadline is pending, or when the deadline lies past max_sim_ms.
    """

    def __init__(self, link: SimulatedLink, max_sim_ms: float, trace: Optional[list]):
        self.link = link
        self.clock = link.clock
        self.max_sim_ms = max_sim_ms
        self.trace = trace

    def send(self, local, peer, datagram: bytes) -> None:
        now = self.clock.now
        if self.trace is not None:
            self.trace.append(f"{now:.3f} {local}->{peer} {datagram.hex()}")
        self.link.send(local, peer, datagram, now)

    def wait(self, until: Optional[float]) -> Optional[list]:
        delivery_at = self.clock.peek_time()
        if delivery_at is not None and (until is None or delivery_at <= until):
            return [self.clock.pop()[1]]  # (destination, source, datagram)
        if until is None or until > self.max_sim_ms:
            return None  # idle, or stalled beyond any plausible schedule
        self.clock.now = until
        return []

    def now(self) -> float:
        return self.clock.now


def run_simulated_transfer(data: bytes, model: Optional[LinkModel] = None,
                           params: Optional[TransferParameters] = None,
                           info: str = "sim", record_trace: bool = False,
                           max_sim_ms: float = 86_400_000.0) -> TransferOutcome:
    """Run one whole transfer between two engines over a simulated link.

    Deliveries and retransmit deadlines are handled in time order
    (deliveries first on a tie) until neither engine has anything pending.
    The optional trace records every datagram at send time, lost or not, as
    "time src->dst hexbytes" lines.
    """
    model = model if model is not None else LinkModel()
    params = params if params is not None else TransferParameters()
    trace = [] if record_trace else None
    transport = _LinkTransport(SimulatedLink(model, SimClock()), max_sim_ms, trace)
    pump = Pump({
        "A": Engine(params=params, rng=random.Random(model.seed ^ _SENDER_SALT)),
        "B": Engine(params=params, rng=random.Random(model.seed ^ _RECEIVER_SALT)),
    }, transport, encode_packet, decode_packet)
    tid, out = pump.engines["A"].start_transfer("B", info, data, now=0.0)
    pump.flush("A", out)
    while pump.step():
        pump.events.clear()  # the outcome reads the engine states instead
    return pump.outcome(tid, "A", "B", trace)
