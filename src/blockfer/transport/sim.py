"""Deterministic in-process network simulation.

A SimulatedLink carries datagrams between named endpoints through a shared
SimClock. Every random draw (loss, jitter, reordering, duplication) comes
from one generator seeded by the LinkModel, in a fixed per-send order, so a
given (model, event script) pair always produces the exact same delivery
schedule. That makes whole simulated transfers replayable byte for byte.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Iterable, Optional

from ..engine import Engine, TransferParameters
from ..wire import MTU, MtuError, decode_packet, encode_packet
from .pump import Pump, TransferOutcome

_SENDER_SALT = 0x9E3779B97F4A7C15
_RECEIVER_SALT = 0xC2B2AE3D27D4EB4F
MAX_SIM_MS = 86_400_000.0  # a simulated day: run_simulated_transfer stops past it


@dataclass(frozen=True)
class LinkModel:
    """One direction-agnostic description of an unreliable datagram link.

    latency_jitter_ms spreads delivery uniformly around the base; a draw
    below zero clamps to immediate delivery. A positive rate_kbps gives each
    direction a bottleneck of that many kilobits per second: datagrams queue
    and cross it one after another, lost ones included, before the latency
    applies, so a window takes time to arrive. Zero leaves the link
    unlimited.
    """

    loss_probability: float = 0.0
    latency_base_ms: float = 0.0
    latency_jitter_ms: float = 0.0
    reorder_probability: float = 0.0
    duplicate_probability: float = 0.0
    seed: int = 0
    rate_kbps: float = 0.0

    def __post_init__(self):
        for name in ("loss_probability", "reorder_probability", "duplicate_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("latency_base_ms", "latency_jitter_ms", "rate_kbps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and not negative")


class SimClock:
    """Future-event queue ordered by (time, tie key, insertion sequence).

    An entry whose (time, tie) is no smaller than that of the newest entry
    in a FIFO joins that FIFO, at O(1); every other one, as jitter,
    reordering or a rate-limited direction push them, goes to a heap. Each
    structure stays sorted, and pop and peek_time take the smaller of the
    two heads, so entries come out in the order one heap of all of them
    gives. On a link of constant latency every push joins the FIFO.
    """

    def __init__(self):
        self.now = 0.0
        self._fifo: deque = deque()
        self._heap: list = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._fifo) + len(self._heap)

    def push(self, time: float, item: Any, tie: int = 0) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        entry = (time, tie, self._seq, item)
        self._seq += 1
        fifo = self._fifo
        # seq is unique and rising, so entry > fifo[-1] means (time, tie) >= its key
        if not fifo or entry > fifo[-1]:
            fifo.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def peek_time(self) -> Optional[float]:
        fifo, heap = self._fifo, self._heap
        if heap and (not fifo or heap[0] < fifo[0]):
            return heap[0][0]
        return fifo[0][0] if fifo else None

    def pop(self) -> tuple[float, Any]:
        fifo, heap = self._fifo, self._heap
        if heap and (not fifo or heap[0] < fifo[0]):
            time, _, _, item = heapq.heappop(heap)
        else:
            time, _, _, item = fifo.popleft()
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
        self._rng = random.Random(model.seed)
        self._random = self._rng.random
        # rng.uniform(low, high) is low + (high - low) * random(): drawn the same way here
        self._jitter_low = -model.latency_jitter_ms
        self._jitter_span = model.latency_jitter_ms - self._jitter_low
        self._free_at: dict = {}  # (src, dst) -> when that direction's bottleneck frees

    def send(self, src, dst, datagram: bytes, now: float) -> list[float]:
        """Schedule delivery; returns the delivery times (empty if lost).

        The draws per send, in order: loss; then per delivery jitter,
        reordering and, if reordered, the tie key; then after the first
        delivery whether it is duplicated.
        """
        model, random = self.model, self._random
        if len(datagram) > MTU:
            raise MtuError(f"datagram of {len(datagram)} bytes exceeds the {MTU}-byte MTU")
        if model.rate_kbps:
            start = max(now, self._free_at.get((src, dst), now))
            now = self._free_at[(src, dst)] = start + len(datagram) * 8 / model.rate_kbps
        if random() < model.loss_probability:
            return []
        item = (dst, src, bytes(datagram))
        low, span, push = self._jitter_low, self._jitter_span, self.clock.push
        times = []
        while True:
            delay = model.latency_base_ms + (low + span * random())
            time = now + (delay if delay > 0.0 else 0.0)
            tie = self._rng.getrandbits(32) if random() < model.reorder_probability else 0
            push(time, item, tie)
            times.append(time)
            if len(times) == 2 or not random() < model.duplicate_probability:
                return times


class _LinkTransport:
    """A SimulatedLink as a Pump transport, on the link's clock.

    Each wait delivers every datagram due at the next delivery instant if
    that instant is no later than until (a delivery wins a tie with a
    deadline), and otherwise advances the clock to until. The datagrams
    come from a generator that pops the clock one at a time, so a reply
    sent at zero latency while the caller feeds them in still arrives in
    the same wait and in heap order. Nothing can arrive once the link is
    idle and no deadline is pending, or when the deadline lies past
    MAX_SIM_MS.
    """

    def __init__(self, link: SimulatedLink, trace: Optional[list]):
        self.link = link
        self.clock = link.clock
        self.trace = trace

    def send(self, local, peer, datagrams: list) -> None:
        now, trace, send = self.clock.now, self.trace, self.link.send
        for datagram in datagrams:
            if trace is not None:
                trace.append(f"{now:.3f} {local}->{peer} {datagram.hex()}")
            send(local, peer, datagram, now)

    def wait(self, until: Optional[float]) -> Optional[Iterable]:
        clock = self.clock
        delivery_at = clock.peek_time()
        if delivery_at is not None and (until is None or delivery_at <= until):
            clock.now = delivery_at  # now() holds while the caller feeds them in
            return self._due(delivery_at)
        if until is None or until > MAX_SIM_MS:
            return None  # idle, or stalled beyond any plausible schedule
        clock.now = until
        return []

    def _due(self, at: float):
        peek_time, pop = self.clock.peek_time, self.clock.pop
        while peek_time() == at:
            yield pop()[1]  # (destination, source, datagram)

    def now(self) -> float:
        return self.clock.now


def run_simulated_transfer(data: bytes, model: Optional[LinkModel] = None,
                           params: Optional[TransferParameters] = None,
                           info: str = "sim", record_trace: bool = False) -> TransferOutcome:
    """Run one whole transfer between two engines over a simulated link.

    Deliveries and retransmit deadlines are handled in time order
    (deliveries first on a tie) until neither engine has anything pending.
    The optional trace records every datagram at send time, lost or not, as
    "time src->dst hexbytes" lines.
    """
    model = model if model is not None else LinkModel()
    trace = [] if record_trace else None
    transport = _LinkTransport(SimulatedLink(model, SimClock()), trace)
    pump = Pump({
        "A": Engine(params=params, rng=random.Random(model.seed ^ _SENDER_SALT)),
        "B": Engine(params=params, rng=random.Random(model.seed ^ _RECEIVER_SALT)),
    }, transport, encode_packet, decode_packet)
    tid, out = pump.engines["A"].start_transfer("B", info, data, now=0.0)
    pump.flush("A", out)
    while pump.step():
        pass
    return replace(pump.outcome(tid, "A", "B"), trace=trace or [])
