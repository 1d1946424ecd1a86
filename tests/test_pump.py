"""The Pump against a scripted in-memory transport."""

import random

from blockfer.crypto import PeerKeyPair, SealedCipher
from blockfer.engine import Complete, Engine, TransferParameters
from blockfer.transport import Pump
from blockfer.wire import Acknowledgement, decode_packet, encode_packet

PARAMS = TransferParameters(block_size=100, window_size=4, retransmit_interval_ms=50.0)


class ScriptedTransport:
    """Hands out one scripted (time, arrivals) entry per wait; sends go to a list."""

    def __init__(self, script):
        self.script = list(script)
        self.sent = []
        self.waits = []
        self.clock = 0.0

    def send(self, local, peer, datagrams):
        self.sent.extend((local, peer, datagram) for datagram in datagrams)

    def wait(self, until):
        self.waits.append(until)
        if not self.script:
            return None
        self.clock, arrived = self.script.pop(0)
        return arrived

    def now(self):
        return self.clock


def test_step_drops_what_fails_to_open_and_ticks_only_when_due():
    rng = random.Random(1)
    ours, theirs = PeerKeyPair.generate(rng), PeerKeyPair.generate(rng)
    cipher = SealedCipher(ours, theirs.public_key, entropy=rng)
    engine = Engine(PARAMS, random.Random(2))
    transport = ScriptedTransport([
        (10.0, [("A", "B", b"\x00" * 40)]),   # fails authentication: dropped
        (20.0, []),                           # nothing arrived: tick (not yet due)
        (70.0, [("A", "B", b"junk" * 10)]),   # past the deadline: tick anyway
    ])
    pump = Pump({"A": engine}, transport, encode_packet, decode_packet, cipher)
    _, out = engine.start_transfer("B", "x", b"y" * 250, now=0.0)
    pump.flush("A", out)
    assert len(transport.sent) == 1  # the announcement, sealed
    opener = SealedCipher(theirs, ours.public_key)
    assert decode_packet(opener.open(transport.sent[0][2])).info == "x"

    assert pump.dropped == 0
    assert pump.step() and len(transport.sent) == 1
    assert pump.dropped == 1
    assert pump.step() and len(transport.sent) == 1
    assert pump.step() and len(transport.sent) == 2  # the announcement again
    assert pump.dropped == 2
    assert engine.transfer(out.packets[0][1].id).counters.wr_retransmits == 1
    assert not pump.step()  # the transport says nothing can arrive any more
    assert transport.waits == [50.0] * 3 + [120.0]


def test_accept_filters_before_the_engine_sees_a_packet():
    sender = Engine(PARAMS, random.Random(3))
    _, out = sender.start_transfer("R", "x", b"z" * 50, now=0.0)
    announcement = encode_packet(out.packets[0][1])
    receiver = Engine(PARAMS, random.Random(4))
    transport = ScriptedTransport([(1.0, [("R", "S1", announcement)]),
                                   (2.0, [("R", "S2", announcement)])])
    pump = Pump({"R": receiver}, transport, encode_packet, decode_packet)
    seen = []

    def accept(peer, packet):
        seen.append(peer)
        return peer == "S2"

    while pump.step(accept=accept):
        pass
    assert seen == ["S1", "S2"]
    assert receiver.live_transfer_with("S1") is None
    assert [(local, peer) for local, peer, _ in transport.sent] == [("R", "S2")]


def test_an_output_with_events_and_no_packets_still_reaches_take_events():
    # an empty transfer: the final acknowledgement answers the announcement,
    # and the sender settles with a Complete and nothing to send
    sender = Engine(PARAMS, random.Random(5))
    tid, out = sender.start_transfer("R", "x", b"", now=0.0)
    final_ack = encode_packet(Acknowledgement(tid, 0, ()))
    transport = ScriptedTransport([(1.0, [("S", "R", final_ack)])])
    pump = Pump({"S": sender}, transport, encode_packet, decode_packet)
    pump.flush("S", out)
    assert pump.step()
    assert len(transport.sent) == 1  # the announcement alone
    assert pump.take_events() == [Complete(tid, sent=True)]
