"""The one driver loop: engines over a datagram transport.

A Pump holds engines by local name and moves datagrams between them and a
transport. It encodes and seals what the engines emit, waits until the
earliest retransmit deadline for what arrives, opens and decodes it, and
ticks the engines when their timers are due. The simulator, the loopback
driver and the command line all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto import AuthenticationError, IdentityCipher
from ..engine import Complete, ReceiverState, SenderPhase, SenderState
from ..wire import DecodeError, ErrorCode


@dataclass
class TransferOutcome:
    """What one driven transfer did, with both terminal engine states."""

    completed: bool
    duration_ms: float
    transfer_id: int
    data: Optional[bytes] = field(repr=False, default=None)
    sender: Optional[SenderState] = None
    receiver: Optional[ReceiverState] = None
    error: Optional[ErrorCode] = None
    trace: list = field(default_factory=list)


class Pump:
    """Drives engines over one transport.

    engines maps each local name, the name the transport sends from and
    delivers to, to its Engine; `blockfer recv` passes a subclass that adds
    its one claim rule to packet_in. encode and decode are the codec;
    callers pass the names their own module imported, so that whatever
    wraps those module globals sees every datagram. The identity cipher
    (the default) is skipped rather than called. The settlement events the
    engines emit collect in events until take_events(); outcome() reads the
    received payload from them. dropped counts the datagrams that failed to
    open or decode, so a wrong peer key can be told from silence.
    """

    def __init__(self, engines: dict, transport, encode, decode, cipher=None):
        self.engines = engines
        self.transport = transport
        if cipher is None or isinstance(cipher, IdentityCipher):
            self.pack, self.unpack = encode, decode
        else:
            seal, open_ = cipher.seal, cipher.open
            self.pack = lambda packet: seal(encode(packet))
            self.unpack = lambda datagram: decode(open_(datagram))
        self.events: list = []
        self.dropped = 0

    def flush(self, local, out) -> None:
        """Put every packet of an engine output on the wire from local.

        Each run of consecutive packets to one peer goes to the transport in
        one send, so a window of Data can leave in one system call.
        """
        packets = out.packets
        if packets:
            send, pack = self.transport.send, self.pack
            to, run = packets[0][0], []
            for peer, packet in packets:
                if peer != to:
                    send(local, to, run)
                    to, run = peer, []
                run.append(pack(packet))
            send(local, to, run)
        self.events.extend(out.events)

    def step(self) -> bool:
        """Wait until the engines' earliest next_deadline, and feed each
        datagram that arrives to its engine's packet_in.

        Datagrams that fail to open or decode are dropped and counted in
        dropped. The engines tick once the transport's clock has reached
        that deadline, after the datagrams that arrived with it. Returns False
        once nothing can arrive any more.
        """
        deadlines = [d for e in self.engines.values() if (d := e.next_deadline()) is not None]
        until = min(deadlines) if deadlines else None
        arrived = self.transport.wait(until)
        if arrived is None:
            return False
        now = self.transport.now()
        engines, unpack = self.engines, self.unpack
        for local, peer, datagram in arrived:
            try:
                packet = unpack(datagram)
            except (AuthenticationError, DecodeError):
                self.dropped += 1
                continue  # noise on a public port is dropped, not fatal
            out = engines[local].packet_in(peer, packet, now)
            if out.packets or out.events:  # a sender's Complete carries no packets
                self.flush(local, out)
        if until is not None and now >= until:
            for local, engine in self.engines.items():
                self.flush(local, engine.tick(now))
        return True

    def take_events(self) -> list:
        events, self.events = self.events, []
        return events

    def outcome(self, tid: int, sender, receiver) -> TransferOutcome:
        """Transfer tid as the engines named sender and receiver left it.

        The data comes from the receiver's Complete event. The error is that
        of the side that failed first, the sender's on a tie: the first
        Errored event either engine emitted.
        """
        sent = self.engines[sender].transfer(tid)
        received = self.engines[receiver].transfer(tid)
        finished = sent.finished_at if sent.finished_at is not None else self.transport.now()
        failed = [s for s in (sent, received) if s is not None and s.error is not None]
        return TransferOutcome(
            completed=sent.phase is SenderPhase.DONE,
            duration_ms=finished - sent.started_at,
            transfer_id=tid,
            data=next((e.data for e in self.events
                       if isinstance(e, Complete) and e.id == tid and e.data is not None),
                      None),
            sender=sent,
            receiver=received,
            error=min(failed, key=lambda s: s.finished_at).error if failed else None,
        )
