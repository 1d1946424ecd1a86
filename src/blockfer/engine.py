"""Windowed transfer state machines, free of I/O and clocks.

One Engine holds every live transfer with any number of peers. Callers feed
it events (inbound packets, clock ticks, start/cancel requests) and get back
the packets to put on the wire plus an event when a transfer settles
(Complete or Errored); progress is read from the transfer's state. A
receiver's Complete carries the only copy of the payload: a settled
transfer keeps its phase, counters and final acknowledgement, not bytes.
The engine keeps no clock: every entry point takes the caller's reading
as a required `now`. Feeding the same events in the same order always
produces byte-identical output; time and randomness only enter through
those `now` arguments and the injected `random.Random`.

Protocol shape: the sender announces a transfer with a WriteRequest and
puts window 0 on the wire right behind it, so a transfer of one window
takes one round trip (data rides with the handshake, as in TCP Fast Open
and QUIC 0-RTT); later windows of `window_size` blocks each wait for the
ack of the one before. The receiver acknowledges each completed window,
listing every block number below the window boundary it has not seen; the
sender puts exactly those blocks into the next window's batch (piggybacked
recovery), so a lost block costs no extra round trip. After the last fresh
window the exchange keeps draining the leftover missing blocks until the
receiver's final acknowledgement (empty list) closes the transfer. An ack's
window_index counts the windows the receiver has closed, i.e. names the
next window it expects; the write-request ack is window 0 with an empty
list, and only moves the sender from AWAITING_WR_ACK to SENDING. An ack of
window 1 is accepted in either phase.

Both roles share one record, TransferState: the transfer's identity and
sizes, its retransmit timer and its outcome, each declared once;
SenderState and ReceiverState add only what their own rules read. Each
record holds the TransferParameters it runs by. A sender's are the ones it
started with. A receiver's are its engine's, with the block and window size
the announcement carried, so the validation that checks a caller's
parameters also refuses an announcement out of range.

The receiver keeps one trigger: the block whose arrival sends its next
fresh ack. Every ack it sends, fresh or re-sent, sets it. While windows
remain it is the closing block of the expected window, whose arrival
closes that window; in the drain it is the last block the ack lists.

Both sides run a retransmit timer. A sender that hears nothing for one
timeout re-sends its announcement (not window 0), or after it sends a
tail-loss probe: its probe block, the last block of the batch in flight,
alone (RFC 8985), i.e. the receiver's trigger, whose arrival makes the
receiver ack.
A receiver re-sends its last acknowledgement when its own timer fires, and
also when a duplicate arrives of the block that sent its last fresh ack,
so a probe whose ack was lost draws that ack again. Each side times one
unit at a time (the sender a fresh batch, up to the ack that accepts it;
the receiver a fresh ack, up to its next fresh ack), skips units it had to
re-send (Karn's rule), and keeps RFC 6298's SRTT and RTTVAR. A probe costs
one block, so the sender's timeout is 2 * SRTT clamped to [PTO_MIN_MS,
retransmit interval] (RFC 9002's PTO); the receiver's is SRTT + 4 * RTTVAR
clamped to [RTO_MIN_MS, retransmit interval]. Every sample thus spans the
time a whole batch takes to cross the link, which is what a deadline has
to cover: the sender times window 0 from the start, and the receiver does
not time the ack that accepts the announcement, since window 0 arrives
right behind it. A transfer starts from the SRTT and RTTVAR of the last
settled transfer with the same peer, in either direction (RFC 9040's
temporal sharing), and its timeout from those; with no such transfer it
starts at the interval. Each firing doubles the timeout up to the
interval. Any valid inbound packet for the transfer refills the attempt
budget; a firing spends an attempt only once the timeout has reached the
interval, so `max_attempts` such firings in a row fail the transfer with
TIMEOUT within (max_attempts + 2) intervals of the last valid inbound
packet, and the sender attaches halved-window retry parameters to the
failed record.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Optional, Union

from .wire import (
    ACK_MAX_UNRECEIVED,
    Acknowledgement,
    Data,
    ErrorCode,
    ErrorPacket,
    INFO_MAX,
    PAYLOAD_MAX,
    Packet,
    WriteRequest,
    block_count_for,
)

DEFAULT_MAX_TRANSFER_SIZE = 250 * 2**20  # keep whole transfers in memory
TIMER_SLACK = 8  # stale timer entries tolerated beyond twice the live count
RTO_MIN_MS = 200.0  # floor of the receiver's adaptive timeout, as Linux's TCP_RTO_MIN
PTO_MIN_MS = 100.0  # floor of the sender's probe timeout: above host stalls, so a clean path fires none
MIN_WINDOW = 16  # a timed-out retry halves its window down to this; smaller ones stay
RTT_CACHE_PEERS = 1024  # peer records with no live transfer kept: RTT estimate and stray note

Peer = Any  # opaque hashable address; sockets use (host, port), tests use str


@dataclass(frozen=True)
class TransferParameters:
    """Tunables for one transfer; validated on construction."""

    block_size: int = 1200
    window_size: int = 80
    retransmit_interval_ms: float = 2000.0
    max_attempts: int = 5
    max_transfer_size: int = DEFAULT_MAX_TRANSFER_SIZE

    def __post_init__(self):
        if not 1 <= self.block_size <= PAYLOAD_MAX:
            raise ValueError(f"block_size must be in [1, {PAYLOAD_MAX}]")
        if not 1 <= self.window_size <= ACK_MAX_UNRECEIVED:
            # an ack listing a whole window must fit one datagram
            raise ValueError(f"window_size must be in [1, {ACK_MAX_UNRECEIVED}]")
        # below 1 ms, now + rto can equal now on a clock in ms: a timer would never wait
        if not 1 <= self.retransmit_interval_ms < math.inf:
            raise ValueError("retransmit_interval_ms must be finite and at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.max_transfer_size < 0:
            raise ValueError("max_transfer_size must not be negative")

    def downscaled(self) -> "TransferParameters":
        """Retry parameters after a timeout: the window halves, but not below MIN_WINDOW."""
        w = self.window_size
        return replace(self, window_size=max(w // 2, min(MIN_WINDOW, w)))


# --- settlement events ---------------------------------------------------------


@dataclass(frozen=True)
class Complete:
    id: int
    data: Optional[bytes] = None  # receiver side: the payload, owned by the caller


@dataclass(frozen=True)
class Errored:
    id: int  # 0 when the transfer failed before an id was assigned
    code: ErrorCode


CallbackEvent = Union[Complete, Errored]


class EngineOutput:
    """Packets to transmit (peer, packet) and settlement events, in emission order."""

    __slots__ = ("packets", "events")

    def __init__(self):
        self.packets: list[tuple[Peer, Packet]] = []
        self.events: list[CallbackEvent] = []

    def extend(self, other: "EngineOutput") -> "EngineOutput":
        self.packets.extend(other.packets)
        self.events.extend(other.events)
        return self

    def __repr__(self) -> str:
        return f"EngineOutput(packets={self.packets!r}, events={self.events!r})"


# What a Data that draws no reply returns: one shared output that callers
# read and never append to.
_NO_OUTPUT = EngineOutput()


class TransferRefused(Exception):
    """A transfer could not start; .code carries the protocol error."""

    code: ErrorCode = ErrorCode.BUSY


class BusyError(TransferRefused):
    code = ErrorCode.BUSY


class SizeExceededError(TransferRefused):
    code = ErrorCode.SIZE_EXCEEDED


# --- per-transfer state --------------------------------------------------------


class SenderPhase(Enum):
    AWAITING_WR_ACK = "awaiting_wr_ack"
    SENDING = "sending"
    DONE = "done"
    FAILED = "failed"


class ReceiverPhase(Enum):
    RECEIVING = "receiving"
    DONE = "done"
    FAILED = "failed"


@dataclass
class SenderCounters:
    blocks_sent: int = 0
    lost_blocks: int = 0          # entries across all fresh unreceived lists
    window_retransmits: int = 0   # timer-fired probes: the probe block alone
    window_retransmit_blocks: int = 0  # blocks those probes sent, so 1 per firing
    wr_retransmits: int = 0
    acks_received: int = 0
    stale_acks: int = 0

    def blocks_due(self, block_count: int) -> int:
        """Block conservation: a completed sender's blocks_sent equals this,
        each block once, each listed loss once more and one block per probe."""
        return block_count + self.lost_blocks + self.window_retransmit_blocks


@dataclass
class ReceiverCounters:
    acks_sent: int = 0
    ack_retransmits: int = 0
    blocks_received: int = 0
    duplicate_blocks: int = 0


@dataclass(slots=True, kw_only=True)
class TransferState:
    """What both roles keep: identity, sizes, the retransmit timer and the outcome."""

    id: int
    peer: Peer
    info: str
    params: TransferParameters
    block_count: int
    total_windows: int
    attempts_left: int = 0
    last_sent: float = 0.0  # when the side last sent what its timer guards
    rto: float = 0.0  # current retransmit timeout; seeded from the peer, else the interval
    srtt: Optional[float] = None  # smoothed round trip, None before the first sample
    rttvar: float = 0.0
    timed_at: Optional[float] = None  # send time of the unit being timed, if any
    start_seq: int = 0  # position in the engine's live table; orders same-instant timers
    started_at: float = 0.0
    finished_at: Optional[float] = None
    error: Optional[ErrorCode] = None  # the code it FAILED with

    def deadline(self) -> float:
        """When the retransmit timer fires if nothing arrives first."""
        return self.last_sent + self.rto


@dataclass(slots=True, kw_only=True)
class SenderState(TransferState):
    data: bytes = field(repr=False)
    write_request: WriteRequest
    phase: SenderPhase = SenderPhase.AWAITING_WR_ACK
    window_index: int = 0  # next fresh window to dispatch
    probe: int = 0  # the last block of the batch in flight, which a probe re-sends
    retry_params: Optional[TransferParameters] = None
    counters: SenderCounters = field(default_factory=SenderCounters)


@dataclass(slots=True, kw_only=True)
class ReceiverState(TransferState):
    data_size: int
    blocks: Optional[list] = field(repr=False, default=None)  # None once settled
    expected_window: int = 0
    missing: set = field(default_factory=set)  # unreceived below the closed boundary
    trigger: Optional[int] = None  # the block whose arrival sends the next fresh ack
    acked_by: Optional[int] = None  # the block whose arrival sent the last fresh ack
    phase: ReceiverPhase = ReceiverPhase.RECEIVING
    counters: ReceiverCounters = field(default_factory=ReceiverCounters)


def _set_rto(state) -> None:
    """A sender probes at 2 * SRTT (RFC 8985's PTO); a receiver keeps RFC 6298's RTO."""
    if isinstance(state, SenderState):
        rto = max(PTO_MIN_MS, 2 * state.srtt)
    else:
        rto = max(RTO_MIN_MS, state.srtt + 4 * state.rttvar)
    state.rto = min(state.params.retransmit_interval_ms, rto)


def _sample_rtt(state, rtt: float) -> None:
    """Fold one round-trip sample into a state's timeout (RFC 6298, section 2)."""
    if state.srtt is None:
        state.srtt, state.rttvar = rtt, rtt / 2
    else:
        state.rttvar = 0.75 * state.rttvar + 0.25 * abs(state.srtt - rtt)
        state.srtt = 0.875 * state.srtt + 0.125 * rtt
    _set_rto(state)
    state.timed_at = None


def _check_info(info: str) -> None:
    if len(info.encode("utf-8")) > INFO_MAX:
        raise ValueError(f"info exceeds {INFO_MAX} UTF-8 bytes")


def _send_blocks(state: SenderState, numbers: tuple, out: EngineOutput) -> None:
    """Put the numbered blocks on the wire, each a view of the sender's snapshot."""
    peer, tid, size = state.peer, state.id, state.params.block_size
    view = memoryview(state.data)
    out.packets.extend([(peer, Data(tid, n, view[n * size:(n + 1) * size])) for n in numbers])
    state.counters.blocks_sent += len(numbers)


# --- the engine ----------------------------------------------------------------


class _PeerRecord:
    """What an engine holds for one address: its live transfer, either role;
    the (srtt, rttvar) of the last transfer with it that settled with one;
    and the id of the last Data it sent that met no record."""

    __slots__ = ("live", "rtt", "stray")

    def __init__(self):
        self.live = self.rtt = self.stray = None


_NO_PEER = _PeerRecord()  # what an address with no record reads; never stored or written


class Engine:
    """Event-driven transfer engine for any number of peers.

    At most one live transfer per peer, in either direction, and one per
    id: an announcement whose id is live with another peer is refused with
    COLLISION. _settle is the one place a transfer ends: it sets the DONE or
    FAILED phase and finished_at, emits the Complete or Errored event, drops
    the payload and clears its peer's live slot; the state stays in the id
    table, which transfer() reads, until a newer state with its id goes
    live, another peer's included. A WriteRequest that meets a record
    of its own peer and id is answered only by a receiver, a live one with
    its last ack and a DONE one with its final ack, and dropped by any other;
    only one with no record from that peer is judged as a new announcement.
    A sender fails with DECODE_FAILURE, telling the peer, on an ack that lists
    a block at or past min(window_index * window_size, block_count).
    A DONE receiver also answers Data of its transfer with its final ack, so
    a lost final ack cannot wedge the sender; an ack with no record from
    that peer draws UNKNOWN_TRANSFER; anything else is dropped. Data with no
    record is dropped because it may have outrun its announcement, or
    followed a lost one; the engine notes the id of the last such Data per
    peer, and accepting that peer's WriteRequest with that id closes window
    0 at once, as the window's closing block would. A state holds only what
    the protocol rules, the caller's progress reports and settlement read:
    no log of the acks a sender took in or the batches it sent; those are in
    the packets. A receiver takes its interval, attempt budget and size cap
    from the engine's params and its block and window size from the
    announcement; when those sizes equal the engine's own it holds the
    engine's params object itself, so a settled receiver keeps no copy of
    them.

    Cost model: each event builds one EngineOutput, a slotted record, but
    for a Data block that sends no ack and settles nothing, which returns
    one shared empty output; callers read it and never append to it. The
    engine keeps two tables besides its timer heap. The peer table holds one
    record per address: its live transfer, either role; the SRTT and RTTVAR
    of the last transfer with it that settled with them, shared by both
    roles; and the id of the last stray Data it sent, which an accepted
    announcement takes out. The id table holds each id's newest state, live
    or settled. Every lookup is one dict lookup that checks the other half
    of (peer, id), so an inbound packet costs the same however many
    transfers are live or settled. A Data for a live receiver, the most
    common packet, is dispatched on one peer lookup and one slot read before
    any other check, before any output is built, and decides whether to ack
    by one comparison with the receiver's trigger; a batch's blocks are
    views of the sender's snapshot of its data, not copies. transfer() and
    cancel() are one id lookup. The peer table has one bound: a record is
    touched when a transfer with its peer goes live or settles and when it
    notes a stray, and beyond RTT_CACHE_PEERS records with no live transfer
    the least recently touched of those goes, so spoofed source addresses
    cannot grow it without bound. A record with a live transfer is never
    evicted; eviction steps past those only. Retransmit deadlines sit in a
    heap that next_deadline() peeks at and tick() pops only the due entries
    of; an entry goes stale when its transfer settles or re-arms, is dropped
    lazily, and once the heap outgrows twice the live count it is rebuilt
    from its own entries, one per unsettled state. A tick fires every timer
    due by its now in one pass, earliest deadline first and, at one
    instant, in the order their transfers went live.
    """

    def __init__(self, params: Optional[TransferParameters] = None,
                 rng: Optional[random.Random] = None):
        self.params = params if params is not None else TransferParameters()
        self.rng = rng if rng is not None else random.Random()
        self._peers: dict = {}      # peer -> _PeerRecord, least recently touched first
        self._ids: dict = {}        # transfer id -> its newest state, live or settled
        self._timers: list = []     # heap of (deadline, start_seq, state)
        self._live_count = 0        # transfers live: the records whose live is set
        self._started = 0           # start_seq of the next state to go live

    # -- event entry points

    def start_transfer(self, peer: Peer, info: str, data: bytes,
                       params: Optional[TransferParameters] = None, *,
                       now: float) -> tuple[int, EngineOutput]:
        """Announce a transfer to peer. Raises BusyError/SizeExceededError/ValueError."""
        _check_info(info)
        params = params if params is not None else self.params
        if self._peers.get(peer, _NO_PEER).live is not None:
            raise BusyError(f"a transfer with {peer!r} is already live")
        if len(data) > params.max_transfer_size:
            raise SizeExceededError(
                f"transfer size {len(data)} exceeds cap {params.max_transfer_size}")
        tid = self.rng.getrandbits(64)
        while tid == 0 or tid in self._ids:
            tid = self.rng.getrandbits(64)
        block_count = block_count_for(len(data), params.block_size)
        wr = WriteRequest(
            id=tid, info=info, data_size=len(data), block_size=params.block_size,
            window_size=params.window_size, block_count=block_count,
            nonce=self.rng.getrandbits(64),
        )
        state = SenderState(
            id=tid, peer=peer, info=info, params=params,
            data=bytes(data),  # a snapshot: the caller may reuse its buffer; free for bytes
            block_count=block_count,
            total_windows=block_count_for(block_count, params.window_size),
            write_request=wr,
        )
        self._go_live(state, now)
        out = EngineOutput()
        out.packets.append((peer, wr))
        if block_count:
            self._dispatch(state, (), out, now)  # window 0 rides with the announcement
        else:
            self._arm(state, now)
        return tid, out

    def packet_in(self, peer: Peer, packet: Packet, now: float) -> EngineOutput:
        state = self._peers.get(peer, _NO_PEER).live
        if state is not None and state.id != packet.id:
            state = None
        elif isinstance(packet, Data) and isinstance(state, ReceiverState):
            return self._receiver_data(state, packet, now)  # the common case, first

        out = EngineOutput()
        if state is None:  # no live transfer: the one rule for stragglers
            settled = self._ids.get(packet.id)  # if this peer's, settled: its live one is state
            if settled is not None and settled.peer != peer:
                settled = None
            if (isinstance(settled, ReceiverState) and settled.phase is ReceiverPhase.DONE
                    and isinstance(packet, (Data, WriteRequest))):
                # the final ack again: were it lost, the sender would wait on it
                out.packets.append((peer, Acknowledgement(settled.id, settled.total_windows, ())))
            elif settled is None and isinstance(packet, WriteRequest):
                self._accept_or_refuse(peer, packet, out, now)
            elif settled is None and isinstance(packet, Data):
                # a stray, perhaps ahead of its announcement: noted, never answered
                self._touch(peer).stray = packet.id
            elif settled is None and isinstance(packet, Acknowledgement):
                out.packets.append((peer, ErrorPacket(
                    packet.id, ErrorCode.UNKNOWN_TRANSFER, f"no transfer {packet.id}")))
            return out

        if isinstance(state, ReceiverState) and isinstance(packet, WriteRequest):
            # duplicate announcement for a live transfer: same ack again
            state.attempts_left = state.params.max_attempts
            self._emit_ack(state, out, now, retransmit=True)
        elif isinstance(packet, ErrorPacket):
            self._fail(state, packet.code, out, now)
        elif isinstance(state, SenderState) and isinstance(packet, Acknowledgement):
            self._sender_ack(state, packet, out, now)
        # a sender's own announcement, data to a sender or acks to a receiver: dropped
        return out

    def tick(self, now: float) -> EngineOutput:
        """Fire retransmit timers; a firing at the full interval costs one attempt."""
        out = EngineOutput()
        timers = self._timers
        # a firing re-arms at now + rto or settles, so each due timer fires once
        while (deadline := self.next_deadline()) is not None and deadline <= now:
            state = heapq.heappop(timers)[2]
            interval = state.params.retransmit_interval_ms
            if state.rto >= interval:
                state.attempts_left -= 1
                if state.attempts_left <= 0:
                    if isinstance(state, SenderState):
                        state.retry_params = state.params.downscaled()
                    self._fail(state, ErrorCode.TIMEOUT, out, now)
                    continue
            state.rto = min(interval, 2 * state.rto)
            state.timed_at = None  # Karn's rule: a re-sent unit gives no sample
            if isinstance(state, ReceiverState):
                self._emit_ack(state, out, now, retransmit=True)
            else:
                if state.phase is SenderPhase.AWAITING_WR_ACK:
                    out.packets.append((state.peer, state.write_request))
                    state.counters.wr_retransmits += 1
                else:
                    # the probe: the block whose arrival makes the receiver ack
                    _send_blocks(state, (state.probe,), out)
                    state.counters.window_retransmits += 1
                    state.counters.window_retransmit_blocks += 1
                self._arm(state, now)
        return out

    def cancel(self, transfer_id: int, now: float) -> EngineOutput:
        """Abort a live transfer, telling the peer."""
        state = self._ids.get(transfer_id)
        if state is not None and state.finished_at is None:
            return self._fail(state, ErrorCode.TIMEOUT, EngineOutput(), now, message="cancelled")
        return EngineOutput()

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
        state = self._peers.get(peer, _NO_PEER).live
        return state.id if state is not None else None

    def transfer(self, transfer_id: int):
        """The newest state with that id, live or settled; None if unknown."""
        return self._ids.get(transfer_id)

    # -- internals

    def _go_live(self, state, now: float) -> _PeerRecord:
        """Start the state's clock and attempt budget; its timeout starts at
        the interval unless the peer's last settled transfer left an RTT.
        The state replaces any older one with its id. Returns its peer's record."""
        state.started_at, state.attempts_left = now, state.params.max_attempts
        state.rto = state.params.retransmit_interval_ms
        self._live_count += 1
        record = self._touch(state.peer)
        if record.rtt is not None:
            state.srtt, state.rttvar = record.rtt
            _set_rto(state)
        state.start_seq = self._started
        self._started += 1
        record.live = self._ids[state.id] = state
        return record

    def _touch(self, peer: Peer) -> _PeerRecord:
        """Peer's record, made or moved to the end; past RTT_CACHE_PEERS
        records with no live transfer, the least recently touched one goes."""
        record = self._peers.pop(peer, None) or _PeerRecord()
        self._peers[peer] = record
        if len(self._peers) - self._live_count > RTT_CACHE_PEERS:  # steps past live records
            del self._peers[next(p for p, r in self._peers.items() if r.live is None)]
        return record

    def _arm(self, state, now: float) -> None:
        """Note that the state sent what its timer guards at now, and queue
        the deadline that sets; its older entries go stale."""
        state.last_sent = now
        heapq.heappush(self._timers, (state.deadline(), state.start_seq, state))
        self._bound_timers()

    def _bound_timers(self) -> None:
        if len(self._timers) > 2 * self._live_count + TIMER_SLACK:  # one entry per live state
            self._timers[:] = {seq: (s.deadline(), seq, s)
                               for _, seq, s in self._timers if s.finished_at is None}.values()
            heapq.heapify(self._timers)

    def _settle(self, state, event: CallbackEvent, out: EngineOutput, now: float) -> None:
        """End a live transfer with event, its Complete or Errored; nothing else does."""
        # no payload stays behind: the caller owns what it sent or got in Complete
        if isinstance(state, SenderState):
            phases, state.data = SenderPhase, b""
        else:
            phases, state.blocks = ReceiverPhase, None
        if isinstance(event, Errored):
            state.phase, state.error = phases.FAILED, event.code
        else:
            state.phase = phases.DONE
        state.finished_at = now
        out.events.append(event)
        self._live_count -= 1
        record = self._touch(state.peer)
        record.live = None
        if state.srtt is not None:
            record.rtt = state.srtt, state.rttvar
        self._bound_timers()

    def _fail(self, state, code: ErrorCode, out: EngineOutput, now: float,
              message: Optional[str] = None) -> EngineOutput:
        """Settle as FAILED; with a message the peer is told in an Error packet."""
        if message is not None:
            out.packets.append((state.peer, ErrorPacket(state.id, code, message)))
        self._settle(state, Errored(state.id, code), out, now)
        return out

    def _accept_or_refuse(self, peer: Peer, wr: WriteRequest,
                          out: EngineOutput, now: float) -> None:
        live = self._peers.get(peer, _NO_PEER).live
        params = self.params
        refusal = None
        if isinstance(live, SenderState) and live.phase is SenderPhase.AWAITING_WR_ACK:
            # both ends announced at once; each refuses the other's
            refusal = ErrorCode.COLLISION, "simultaneous transfer announcements"
        elif live is not None:
            refusal = ErrorCode.BUSY, f"transfer {live.id} still live with this peer"
        elif (same_id := self._ids.get(wr.id)) is not None and same_id.finished_at is None:
            refusal = ErrorCode.COLLISION, "transfer id in use"  # two live would share its slot
        elif wr.block_size != params.block_size or wr.window_size != params.window_size:
            try:  # the announced sizes, in the ranges TransferParameters allows
                params = replace(params, block_size=wr.block_size, window_size=wr.window_size)
            except ValueError:
                refusal = ErrorCode.SIZE_EXCEEDED, "announced block or window size out of range"
        if refusal is None and wr.data_size > params.max_transfer_size:
            refusal = (ErrorCode.SIZE_EXCEEDED,
                       f"transfer size {wr.data_size} exceeds cap {params.max_transfer_size}")
        if refusal is not None:
            out.packets.append((peer, ErrorPacket(wr.id, *refusal)))
            return

        state = ReceiverState(
            id=wr.id, peer=peer, info=wr.info, params=params, data_size=wr.data_size,
            block_count=wr.block_count,
            total_windows=block_count_for(wr.block_count, wr.window_size),
            blocks=[None] * wr.block_count,
        )
        record = self._go_live(state, now)
        noted, record.stray = record.stray, None
        if wr.block_count == 0:
            self._receiver_done(state, out, now)
            return
        self._emit_ack(state, out, now)
        state.timed_at = None  # window 0 is right behind it: no ack-to-ack cycle to time
        if noted == wr.id:  # window 0 outran the announcement, or followed a lost one
            self._close_window(state, out, now)

    def _emit_ack(self, state: ReceiverState, out: EngineOutput, now: float,
                  retransmit: bool = False) -> EngineOutput:
        window, window_size = state.expected_window, state.params.window_size
        listed = tuple(sorted(state.missing)[:window_size])
        out.packets.append((state.peer, Acknowledgement(state.id, window, listed)))
        state.counters.acks_sent += 1
        if window < state.total_windows:  # the closing block of the expected window
            state.trigger = min((window + 1) * window_size, state.block_count) - 1
        elif listed:  # the drain: the last block this ack lists
            state.trigger = listed[-1]
        if retransmit:
            state.counters.ack_retransmits += 1
            state.timed_at = None  # Karn's rule: the next fresh ack gives no sample
        else:
            if state.timed_at is not None:
                _sample_rtt(state, now - state.timed_at)  # one whole ack-to-ack cycle
            state.timed_at = now
        self._arm(state, now)
        return out

    def _receiver_data(self, state: ReceiverState, d: Data, now: float) -> EngineOutput:
        """Take in one block; a block that draws no ack and settles nothing
        returns _NO_OUTPUT, so most blocks build no output at all."""
        n, params = d.block_number, state.params
        if n >= state.block_count:
            return self._fail(state, ErrorCode.DECODE_FAILURE, EngineOutput(), now,
                              f"block {n} out of range")
        size = params.block_size
        rest = state.data_size - n * size  # the last block holds the rest
        if len(d.payload) != (size if rest > size else rest):
            return self._fail(state, ErrorCode.DECODE_FAILURE, EngineOutput(), now,
                              f"block {n} has wrong length")
        state.attempts_left = params.max_attempts
        blocks = state.blocks
        if blocks[n] is not None:
            state.counters.duplicate_blocks += 1
            if n == state.acked_by:  # a probe whose ack was lost: answer it again
                return self._emit_ack(state, EngineOutput(), now, retransmit=True)
            return _NO_OUTPUT
        blocks[n] = d.payload
        state.missing.discard(n)
        state.counters.blocks_received += 1

        if state.counters.blocks_received == state.block_count:
            return self._receiver_done(state, EngineOutput(), now)
        if n == state.trigger:
            return self._close_window(state, EngineOutput(), now)
        return _NO_OUTPUT

    def _close_window(self, state: ReceiverState, out: EngineOutput,
                      now: float) -> EngineOutput:
        """The trigger arrived, or window 0 met no record: list what is missing
        below the trigger and send a fresh ack."""
        n = state.trigger
        if state.expected_window < state.total_windows:
            blocks = state.blocks
            for m in range(state.expected_window * state.params.window_size, n + 1):
                if blocks[m] is None:
                    state.missing.add(m)
            state.expected_window += 1
        state.acked_by = n
        return self._emit_ack(state, out, now)

    def _receiver_done(self, state: ReceiverState, out: EngineOutput,
                       now: float) -> EngineOutput:
        """Every block is in: send the final ack and hand the payload over."""
        state.missing.clear()
        state.expected_window = state.total_windows
        self._emit_ack(state, out, now)
        self._settle(state, Complete(state.id, data=b"".join(state.blocks)), out, now)
        return out

    def _sender_ack(self, state: SenderState, a: Acknowledgement,
                    out: EngineOutput, now: float) -> None:
        if a.unreceived and a.unreceived[-1] >= min(  # the list ascends
                a.window_index * state.params.window_size, state.block_count):
            self._fail(state, ErrorCode.DECODE_FAILURE, out, now, "unreceived list out of range")
            return
        state.attempts_left = state.params.max_attempts
        if a.window_index < state.window_index:
            if state.phase is SenderPhase.AWAITING_WR_ACK:
                state.phase = SenderPhase.SENDING  # the announcement's ack: window 0 is out
            else:
                state.counters.stale_acks += 1
            return
        if a.window_index > state.window_index:
            return  # an ack for windows never dispatched: drop
        state.counters.acks_received += 1
        if state.timed_at is not None:
            _sample_rtt(state, now - state.timed_at)

        if a.window_index == state.total_windows and not a.unreceived:
            self._settle(state, Complete(state.id), out, now)
            return
        state.phase = SenderPhase.SENDING
        state.counters.lost_blocks += len(a.unreceived)
        self._dispatch(state, a.unreceived, out, now)

    def _dispatch(self, state: SenderState, listed: tuple, out: EngineOutput,
                  now: float) -> None:
        """Send the listed blocks, all below the next fresh window, then that
        window (empty in the drain), as one timed batch with no block twice."""
        lo = state.window_index * state.params.window_size
        hi = min(lo + state.params.window_size, state.block_count)
        if lo < hi:
            state.window_index += 1
        batch = (*listed, *range(lo, hi))
        _send_blocks(state, batch, out)
        state.probe, state.timed_at = batch[-1], now
        self._arm(state, now)


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
        """Queue request; raises ValueError for an info no announcement can carry."""
        _check_info(request.info)  # else its poll would raise with others half started
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
                request.peer, request.info, request.data, request.params, now=now)
            out.extend(started_out)
            started.append(tid)
            blocked.add(request.peer)  # FIFO: later entries for this peer wait
        self._queue = remaining
        return started, out
