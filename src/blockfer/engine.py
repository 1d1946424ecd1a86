"""Windowed transfer state machines, free of I/O and clocks.

One Engine holds every live transfer with any number of peers. Callers feed
it events (inbound packets, clock ticks, start/cancel requests) and get back
the packets to put on the wire plus progress/completion callbacks. Feeding
the same events in the same order always produces byte-identical output;
time and randomness only enter through the `now` arguments and the injected
`random.Random`.

Protocol shape: the sender announces a transfer with a WriteRequest, then
sends blocks in windows of `window_size`. The receiver acknowledges each
completed window, listing every block number below the window boundary it
has not seen; the sender puts exactly those blocks into the next window's
batch (piggybacked recovery), so a lost block costs no extra round trip.
After the last fresh window the exchange keeps draining the leftover
missing blocks until the receiver's final acknowledgement (empty list)
closes the transfer. An ack's window_index counts the windows the receiver
has closed, i.e. names the next window it expects; the write-request ack is
window 0 with an empty list.

Both sides run a retransmit timer. A sender that hears nothing for a full
interval re-sends its awaited unit (the announcement, or the current pending
batch); a receiver re-sends its last acknowledgement. Any valid inbound
packet for the transfer refills the attempt budget; `max_attempts` silent
intervals in a row fail the transfer with TIMEOUT, and the sender attaches
halved-window retry parameters to the failed record.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional, Union

from .wire import (
    ACK_MAX_UNRECEIVED,
    Acknowledgement,
    Data,
    ErrorCode,
    ErrorPacket,
    PAYLOAD_MAX,
    Packet,
    WriteRequest,
    block_count_for,
)

DEFAULT_MAX_TRANSFER_SIZE = 250 * 2**20  # keep whole transfers in memory
TIMER_SLACK = 8  # stale timer entries tolerated beyond twice the live count

Peer = Any  # opaque hashable address; sockets use (host, port), tests use str


@dataclass(frozen=True)
class TransferParameters:
    """Tunables for one transfer; validated on construction."""

    block_size: int = 1200
    window_size: int = 80
    retransmit_interval_ms: float = 2000.0
    max_attempts: int = 5
    max_transfer_size: int = DEFAULT_MAX_TRANSFER_SIZE
    min_window: int = 16

    def __post_init__(self):
        if not 1 <= self.block_size <= PAYLOAD_MAX:
            raise ValueError(f"block_size must be in [1, {PAYLOAD_MAX}]")
        if not 1 <= self.window_size <= ACK_MAX_UNRECEIVED:
            # an ack listing a whole window must fit one datagram
            raise ValueError(f"window_size must be in [1, {ACK_MAX_UNRECEIVED}]")
        if self.retransmit_interval_ms <= 0:
            raise ValueError("retransmit_interval_ms must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.max_transfer_size < 0:
            raise ValueError("max_transfer_size must not be negative")
        if not 1 <= self.min_window <= self.window_size:
            raise ValueError("min_window must be in [1, window_size]")

    def downscaled(self) -> "TransferParameters":
        """Retry parameters after a timeout: half the window, clamped."""
        return replace(self, window_size=max(self.window_size // 2, self.min_window))


# --- callbacks and events -----------------------------------------------------


@dataclass(frozen=True)
class Progress:
    id: int
    received_blocks: int
    block_count: int


@dataclass(frozen=True)
class Complete:
    id: int
    data: Optional[bytes] = None  # receiver side carries the payload
    sent: bool = False            # sender side carries this flag


@dataclass(frozen=True)
class Errored:
    id: int  # 0 when the transfer failed before an id was assigned
    code: ErrorCode


CallbackEvent = Union[Progress, Complete, Errored]


@dataclass
class EngineOutput:
    """Packets to transmit (peer, packet) and callbacks, in emission order."""

    packets: list[tuple[Peer, Packet]] = field(default_factory=list)
    events: list[CallbackEvent] = field(default_factory=list)

    def extend(self, other: "EngineOutput") -> "EngineOutput":
        self.packets.extend(other.packets)
        self.events.extend(other.events)
        return self


class TransferRefused(Exception):
    """A transfer could not start; .code carries the protocol error."""

    code: ErrorCode = ErrorCode.BUSY

    def __init__(self, message: str):
        super().__init__(message)


class BusyError(TransferRefused):
    code = ErrorCode.BUSY


class SizeExceededError(TransferRefused):
    code = ErrorCode.SIZE_EXCEEDED


# --- per-transfer state --------------------------------------------------------


class SenderPhase(Enum):
    AWAITING_WR_ACK = "awaiting_wr_ack"
    SENDING = "sending"
    LAST_WINDOW_DRAIN = "last_window_drain"
    DONE = "done"
    FAILED = "failed"


class ReceiverPhase(Enum):
    RECEIVING = "receiving"
    DONE = "done"
    FAILED = "failed"


class BatchRecord(NamedTuple):
    window_index: int  # window_index of the acknowledgement that opened it
    blocks: tuple[int, ...]


@dataclass
class SenderCounters:
    blocks_sent: int = 0
    lost_blocks: int = 0          # entries across all fresh unreceived lists
    window_retransmits: int = 0   # timer-fired re-sends of the pending batch
    window_retransmit_blocks: int = 0
    wr_retransmits: int = 0
    acks_received: int = 0
    stale_acks: int = 0


@dataclass
class ReceiverCounters:
    acks_sent: int = 0
    ack_retransmits: int = 0
    blocks_received: int = 0
    duplicate_blocks: int = 0


@dataclass
class SenderState:
    id: int
    peer: Peer
    info: str
    data: bytes = field(repr=False)
    params: TransferParameters
    block_count: int
    total_windows: int
    write_request: WriteRequest
    phase: SenderPhase = SenderPhase.AWAITING_WR_ACK
    window_index: int = 0  # next fresh window to dispatch
    pending: tuple[int, ...] = ()
    attempts_left: int = 0
    last_send_time: float = 0.0
    start_seq: int = 0  # position in the engine's live table; orders same-instant timers
    started_at: float = 0.0
    finished_at: Optional[float] = None
    error: Optional[ErrorCode] = None  # the code it FAILED with
    retry_params: Optional[TransferParameters] = None
    counters: SenderCounters = field(default_factory=SenderCounters)
    ack_log: list[Acknowledgement] = field(default_factory=list)
    batch_log: list[BatchRecord] = field(default_factory=list)

    def block_payload(self, n: int) -> bytes:
        return self.data[n * self.params.block_size:(n + 1) * self.params.block_size]

    def deadline(self) -> float:
        """When the retransmit timer fires if nothing arrives first."""
        return self.last_send_time + self.params.retransmit_interval_ms


@dataclass
class ReceiverState:
    id: int
    peer: Peer
    info: str
    data_size: int
    block_size: int
    window_size: int
    block_count: int
    total_windows: int
    interval_ms: float
    max_attempts: int
    received: bytearray = field(repr=False)
    blocks: Optional[list] = field(repr=False, default=None)
    received_count: int = 0
    expected_window: int = 0
    missing: set = field(default_factory=set)  # unreceived below the closed boundary
    drain_trigger: Optional[int] = None
    phase: ReceiverPhase = ReceiverPhase.RECEIVING
    attempts_left: int = 0
    last_ack_time: float = 0.0
    start_seq: int = 0  # position in the engine's live table; orders same-instant timers
    started_at: float = 0.0
    finished_at: Optional[float] = None
    error: Optional[ErrorCode] = None  # the code it FAILED with
    data: Optional[bytes] = field(repr=False, default=None)
    counters: ReceiverCounters = field(default_factory=ReceiverCounters)

    def deadline(self) -> float:
        """When the ack retransmit timer fires if nothing arrives first."""
        return self.last_ack_time + self.interval_ms

    def closing_block(self) -> int:
        return min((self.expected_window + 1) * self.window_size, self.block_count) - 1

    def final_ack(self) -> Acknowledgement:
        return Acknowledgement(self.id, self.total_windows, ())


# --- the engine ----------------------------------------------------------------


class Engine:
    """Event-driven transfer engine for any number of peers.

    At most one live transfer per peer, in either direction. Finished
    transfers stay inspectable via transfer(), which prefers a live state
    over a finished one with the same id; a finished receiver keeps
    answering duplicate data with its final acknowledgement so a lost final
    ack cannot wedge the sender.

    Cost model: the live table is keyed by peer and the finished table by
    transfer id, and every lookup checks the other half of (peer, id), so
    an inbound packet costs the same however many transfers are live or
    finished. When two peers' finished transfers share an id, the newer
    record replaces the older. Retransmit deadlines sit in a heap that
    next_deadline() peeks at and tick() pops only the due entries of; an
    entry goes stale when its transfer settles or re-arms, is dropped
    lazily, and the heap is rebuilt from the live table once it outgrows
    twice the live count. Timers due at the same instant fire in the order
    their transfers went live. transfer() and cancel() scan only the live
    table, which holds one state per peer; transfer() then indexes the
    finished table by id.
    """

    def __init__(self, params: Optional[TransferParameters] = None,
                 rng: Optional[random.Random] = None):
        self.params = params if params is not None else TransferParameters()
        self.rng = rng if rng is not None else random.Random()
        self._live: dict = {}       # peer -> its live state, in the order they went live
        self._finished: dict = {}   # transfer id -> settled state
        self._my_ids: set = set()   # ids of live transfers this side initiated
        self._timers: list = []     # heap of (deadline, start_seq, state)
        self._started = 0           # start_seq of the next state to go live
        self._now = 0.0

    # -- event entry points

    def start_transfer(self, peer: Peer, info: str, data: bytes,
                       params: Optional[TransferParameters] = None,
                       now: Optional[float] = None) -> tuple[int, EngineOutput]:
        """Announce a transfer to peer. Raises BusyError/SizeExceededError."""
        now = self._touch(now)
        params = params if params is not None else self.params
        if peer in self._live:
            raise BusyError(f"a transfer with {peer!r} is already live")
        if len(data) > params.max_transfer_size:
            raise SizeExceededError(
                f"transfer size {len(data)} exceeds cap {params.max_transfer_size}")
        tid = self.rng.getrandbits(64)
        while tid == 0 or tid in self._my_ids:
            tid = self.rng.getrandbits(64)
        block_count = block_count_for(len(data), params.block_size)
        wr = WriteRequest(
            id=tid, info=info, data_size=len(data), block_size=params.block_size,
            window_size=params.window_size, block_count=block_count,
            nonce=self.rng.getrandbits(64),
        )
        state = SenderState(
            id=tid, peer=peer, info=info, data=data, params=params,
            block_count=block_count,
            total_windows=block_count_for(block_count, params.window_size),
            write_request=wr, attempts_left=params.max_attempts,
            last_send_time=now, started_at=now,
        )
        self._go_live(state)
        self._arm(state)
        self._my_ids.add(tid)
        out = EngineOutput()
        out.packets.append((peer, wr))
        return tid, out

    def packet_in(self, peer: Peer, packet: Packet, now: Optional[float] = None) -> EngineOutput:
        now = self._touch(now)
        out = EngineOutput()
        state = self._live.get(peer)
        if state is not None and state.id != packet.id:
            state = None

        if isinstance(packet, WriteRequest):
            if isinstance(state, ReceiverState):
                # duplicate announcement for a live transfer: same ack again
                state.attempts_left = state.max_attempts
                self._emit_ack(state, out, now, retransmit=True)
            else:
                finished = self._finished_with(peer, packet.id)
                if isinstance(finished, ReceiverState) and finished.phase is ReceiverPhase.DONE:
                    out.packets.append((peer, finished.final_ack()))
                else:
                    self._accept_or_refuse(peer, packet, out, now)
            return out

        if state is None:
            finished = self._finished_with(peer, packet.id)
            if finished is not None:
                if (isinstance(packet, Data) and isinstance(finished, ReceiverState)
                        and finished.phase is ReceiverPhase.DONE):
                    out.packets.append((peer, finished.final_ack()))
                return out
            if isinstance(packet, (Data, Acknowledgement)):
                out.packets.append((peer, ErrorPacket(
                    packet.id, ErrorCode.UNKNOWN_TRANSFER, f"no transfer {packet.id}")))
            return out

        if isinstance(packet, ErrorPacket):
            self._fail(state, packet.code, out, now)
            return out
        if isinstance(state, SenderState) and isinstance(packet, Acknowledgement):
            self._sender_ack(state, packet, out, now)
        elif isinstance(state, ReceiverState) and isinstance(packet, Data):
            self._receiver_data(state, packet, out, now)
        # data addressed to a sender or acks to a receiver are dropped
        return out

    def tick(self, now: float) -> EngineOutput:
        """Fire retransmit timers; a full silent interval costs one attempt."""
        self._touch(now)
        out = EngineOutput()
        timers = self._timers
        if not timers or timers[0][0] > now:
            return out
        due = {}  # start_seq -> state; a state armed twice for one instant fires once
        # the entries hold the values next_deadline() publishes, so a tick at
        # exactly that instant always fires
        while timers and timers[0][0] <= now:
            deadline, seq, state = heapq.heappop(timers)
            if state.finished_at is None and state.deadline() == deadline:
                due[seq] = state
        for seq in sorted(due):
            state = due[seq]
            state.attempts_left -= 1
            if state.attempts_left <= 0:
                if isinstance(state, SenderState):
                    state.retry_params = state.params.downscaled()
                self._fail(state, ErrorCode.TIMEOUT, out, now)
            elif isinstance(state, ReceiverState):
                self._emit_ack(state, out, now, retransmit=True)
            else:
                if state.phase is SenderPhase.AWAITING_WR_ACK:
                    out.packets.append((state.peer, state.write_request))
                    state.counters.wr_retransmits += 1
                else:
                    for n in state.pending:
                        out.packets.append((state.peer, Data(state.id, n, state.block_payload(n))))
                    state.counters.window_retransmits += 1
                    state.counters.window_retransmit_blocks += len(state.pending)
                    state.counters.blocks_sent += len(state.pending)
                state.last_send_time = now
                self._arm(state)
        return out

    def cancel(self, transfer_id: int, now: Optional[float] = None) -> EngineOutput:
        """Abort a live transfer, telling the peer."""
        now = self._touch(now)
        out = EngineOutput()
        for state in list(self._live.values()):
            if state.id == transfer_id:
                out.packets.append((state.peer, ErrorPacket(
                    state.id, ErrorCode.TIMEOUT, "cancelled")))
                self._fail(state, ErrorCode.TIMEOUT, out, now)
        return out

    # -- inspection

    def next_deadline(self) -> Optional[float]:
        """Earliest time a tick would fire a retransmit timer, if any."""
        timers = self._timers
        while timers:
            deadline, _, state = timers[0]
            if state.finished_at is None and state.deadline() == deadline:
                return deadline
            heapq.heappop(timers)
        return None

    def live_transfer_with(self, peer: Peer) -> Optional[int]:
        state = self._live.get(peer)
        return state.id if state is not None else None

    def transfer(self, transfer_id: int):
        """The live state for an id, else the finished one; None if unknown."""
        for state in self._live.values():
            if state.id == transfer_id:
                return state
        return self._finished.get(transfer_id)

    # -- internals

    def _touch(self, now: Optional[float]) -> float:
        if now is None:
            return self._now
        self._now = max(self._now, now)
        return now

    def _go_live(self, state) -> None:
        state.start_seq = self._started
        self._started += 1
        self._live[state.peer] = state

    def _arm(self, state) -> None:
        """Queue the state's current deadline; its older entries go stale."""
        heapq.heappush(self._timers, (state.deadline(), state.start_seq, state))
        self._bound_timers()

    def _bound_timers(self) -> None:
        if len(self._timers) > 2 * len(self._live) + TIMER_SLACK:
            self._timers[:] = [(s.deadline(), s.start_seq, s) for s in self._live.values()]
            heapq.heapify(self._timers)

    def _finished_with(self, peer: Peer, transfer_id: int):
        state = self._finished.get(transfer_id)
        return state if state is not None and state.peer == peer else None

    def _settle(self, state) -> None:
        del self._live[state.peer]
        self._finished[state.id] = state
        self._my_ids.discard(state.id)
        self._bound_timers()

    def _fail(self, state, code: ErrorCode, out: EngineOutput, now: float,
              notify_peer: bool = False, message: str = "") -> None:
        if notify_peer:
            out.packets.append((state.peer, ErrorPacket(state.id, code, message)))
        state.phase = SenderPhase.FAILED if isinstance(state, SenderState) else ReceiverPhase.FAILED
        state.finished_at = now
        state.error = code
        out.events.append(Errored(state.id, code))
        self._settle(state)

    def _accept_or_refuse(self, peer: Peer, wr: WriteRequest,
                          out: EngineOutput, now: float) -> None:
        live = self._live.get(peer)
        if live is not None:
            if isinstance(live, SenderState) and live.phase is SenderPhase.AWAITING_WR_ACK:
                # both ends announced at once; each refuses the other's
                out.packets.append((peer, ErrorPacket(
                    wr.id, ErrorCode.COLLISION, "simultaneous transfer announcements")))
            else:
                out.packets.append((peer, ErrorPacket(
                    wr.id, ErrorCode.BUSY, f"transfer {live.id} still live with this peer")))
            return
        if not 1 <= wr.block_size <= PAYLOAD_MAX or not 1 <= wr.window_size <= ACK_MAX_UNRECEIVED:
            out.packets.append((peer, ErrorPacket(
                wr.id, ErrorCode.SIZE_EXCEEDED, "announced block or window size out of range")))
            return
        if wr.data_size > self.params.max_transfer_size:
            out.packets.append((peer, ErrorPacket(
                wr.id, ErrorCode.SIZE_EXCEEDED,
                f"transfer size {wr.data_size} exceeds cap {self.params.max_transfer_size}")))
            return

        state = ReceiverState(
            id=wr.id, peer=peer, info=wr.info, data_size=wr.data_size,
            block_size=wr.block_size, window_size=wr.window_size,
            block_count=wr.block_count,
            total_windows=block_count_for(wr.block_count, wr.window_size),
            interval_ms=self.params.retransmit_interval_ms,
            max_attempts=self.params.max_attempts,
            received=bytearray(wr.block_count),
            blocks=[None] * wr.block_count,
            attempts_left=self.params.max_attempts,
            started_at=now,
        )
        self._go_live(state)
        if wr.block_count == 0:
            state.data = b""
            state.blocks = None
            state.phase = ReceiverPhase.DONE
            state.finished_at = now
            self._emit_ack(state, out, now)
            out.events.append(Complete(state.id, data=b""))
            self._settle(state)
        else:
            self._emit_ack(state, out, now)

    def _emit_ack(self, state: ReceiverState, out: EngineOutput, now: float,
                  retransmit: bool = False) -> None:
        listed = tuple(sorted(state.missing)[:state.window_size])
        out.packets.append((state.peer, Acknowledgement(state.id, state.expected_window, listed)))
        state.counters.acks_sent += 1
        if retransmit:
            state.counters.ack_retransmits += 1
        if listed and state.expected_window == state.total_windows:
            state.drain_trigger = listed[-1]
        state.last_ack_time = now
        self._arm(state)

    def _receiver_data(self, state: ReceiverState, d: Data,
                       out: EngineOutput, now: float) -> None:
        n = d.block_number
        if n >= state.block_count:
            self._fail(state, ErrorCode.DECODE_FAILURE, out, now,
                       notify_peer=True, message=f"block {n} out of range")
            return
        tail = state.data_size - (state.block_count - 1) * state.block_size
        expected_len = state.block_size if n < state.block_count - 1 else tail
        if len(d.payload) != expected_len:
            self._fail(state, ErrorCode.DECODE_FAILURE, out, now,
                       notify_peer=True, message=f"block {n} has wrong length")
            return
        state.attempts_left = state.max_attempts
        if state.received[n]:
            state.counters.duplicate_blocks += 1
            return
        state.received[n] = 1
        state.received_count += 1
        state.blocks[n] = d.payload
        state.missing.discard(n)
        state.counters.blocks_received += 1
        out.events.append(Progress(state.id, state.received_count, state.block_count))

        if state.received_count == state.block_count:
            state.data = b"".join(state.blocks)
            state.blocks = None  # release per-block storage
            state.missing.clear()
            state.expected_window = state.total_windows
            state.phase = ReceiverPhase.DONE
            state.finished_at = now
            self._emit_ack(state, out, now)
            out.events.append(Complete(state.id, data=state.data))
            self._settle(state)
        elif state.expected_window < state.total_windows and n == state.closing_block():
            lo = state.expected_window * state.window_size
            hi = min(lo + state.window_size, state.block_count)
            for m in range(lo, hi):
                if not state.received[m]:
                    state.missing.add(m)
            state.expected_window += 1
            self._emit_ack(state, out, now)
        elif state.expected_window == state.total_windows and n == state.drain_trigger:
            self._emit_ack(state, out, now)

    def _sender_ack(self, state: SenderState, a: Acknowledgement,
                    out: EngineOutput, now: float) -> None:
        if a.unreceived and max(a.unreceived) >= state.block_count:
            self._fail(state, ErrorCode.DECODE_FAILURE, out, now,
                       notify_peer=True, message="unreceived list out of range")
            return
        state.attempts_left = state.params.max_attempts
        if a.window_index < state.window_index:
            state.counters.stale_acks += 1
            return
        if a.window_index > state.total_windows or (
                a.window_index > state.window_index
                and state.phase is not SenderPhase.LAST_WINDOW_DRAIN):
            return  # an ack for windows never dispatched: drop
        state.counters.acks_received += 1
        state.ack_log.append(a)

        if a.window_index == state.total_windows:
            if not a.unreceived:
                state.phase = SenderPhase.DONE
                state.finished_at = now
                out.events.append(Complete(state.id, sent=True))
                self._settle(state)
                return
            state.phase = SenderPhase.LAST_WINDOW_DRAIN
            pending = tuple(a.unreceived)
        else:
            state.phase = SenderPhase.SENDING
            lo = a.window_index * state.params.window_size
            hi = min(lo + state.params.window_size, state.block_count)
            if a.unreceived:
                pending = tuple(sorted(set(a.unreceived) | set(range(lo, hi))))
            else:
                pending = tuple(range(lo, hi))
            state.window_index += 1
        state.counters.lost_blocks += len(a.unreceived)
        state.pending = pending
        state.batch_log.append(BatchRecord(a.window_index, pending))
        for n in pending:
            out.packets.append((state.peer, Data(state.id, n, state.block_payload(n))))
        state.counters.blocks_sent += len(pending)
        state.last_send_time = now
        self._arm(state)


# --- outbound scheduling ---------------------------------------------------------


@dataclass
class ScheduledTransfer:
    peer: Peer
    info: str
    data: bytes = field(repr=False)
    params: Optional[TransferParameters] = None


class TransferScheduler:
    """FIFO-per-peer queue of transfers waiting for their start conditions."""

    def __init__(self):
        self._queue: list[ScheduledTransfer] = []

    def __len__(self) -> int:
        return len(self._queue)

    def schedule_transfer(self, request: ScheduledTransfer) -> None:
        self._queue.append(request)

    def poll_scheduled(self, engine: Engine, connected: Callable[[Peer], bool],
                       now: float) -> tuple[list[int], EngineOutput]:
        """Start every queued transfer whose conditions hold.

        Conditions: the peer is connected, no transfer with that peer is
        live, and the payload fits the size cap. Oversize requests are
        dropped from the queue with an Errored(SIZE_EXCEEDED) callback (id 0:
        no transfer was created). Order is preserved per peer.
        """
        started: list[int] = []
        out = EngineOutput()
        remaining: list[ScheduledTransfer] = []
        blocked: set = set()
        for request in self._queue:
            params = request.params if request.params is not None else engine.params
            if len(request.data) > params.max_transfer_size:
                out.events.append(Errored(0, ErrorCode.SIZE_EXCEEDED))
                continue
            if request.peer in blocked or not connected(request.peer) \
                    or engine.live_transfer_with(request.peer) is not None:
                remaining.append(request)
                blocked.add(request.peer)
                continue
            tid, started_out = engine.start_transfer(
                request.peer, request.info, request.data, request.params, now)
            out.extend(started_out)
            started.append(tid)
            blocked.add(request.peer)  # FIFO: later entries for this peer wait
        self._queue = remaining
        return started, out
