"""The Pump against a scripted in-memory transport."""

import random
from dataclasses import replace

from blockfer.cli import _OneClaim
from blockfer.crypto import PeerKeyPair, SealedCipher
from blockfer.engine import Complete, Engine, EngineOutput, TransferParameters
from blockfer.transport import Pump
from blockfer.wire import Acknowledgement, Data, ErrorCode, decode_packet, encode_packet

PARAMS = TransferParameters(block_size=100, window_size=4, retransmit_interval_ms=50.0)


class ScriptedTransport:
    """Hands out one scripted (time, arrivals) entry per wait; records each send call."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []  # (local, peer, datagrams) per send
        self.waits = []
        self.clock = 0.0

    def send(self, local, peer, datagrams):
        self.calls.append((local, peer, list(datagrams)))

    @property
    def sent(self):
        return [(local, peer, d) for local, peer, datagrams in self.calls for d in datagrams]

    def wait(self, until):
        self.waits.append(until)
        if not self.script:
            return None
        self.clock, arrived = self.script.pop(0)
        return arrived

    def now(self):
        return self.clock


def test_step_drops_what_fails_to_open_and_ticks_only_when_due(announce):
    rng = random.Random(1)
    ours, theirs = PeerKeyPair(rng.randbytes(32)), PeerKeyPair(rng.randbytes(32))
    cipher = SealedCipher(ours, theirs.public_key)
    engine = Engine(PARAMS, random.Random(2))
    transport = ScriptedTransport([
        (10.0, [("A", "B", b"\x00" * 40)]),   # fails authentication: dropped
        (20.0, []),                           # nothing arrived: tick (not yet due)
        (70.0, [("A", "B", b"junk" * 10)]),   # past the deadline: tick anyway
    ])
    pump = Pump({"A": engine}, transport, encode_packet, decode_packet, cipher)
    tid, wr, window = announce(engine, "B", b"y" * 250)
    out = EngineOutput()
    out.packets.extend(("B", packet) for packet in (wr, *window))
    pump.flush("A", out)
    started = 1 + len(window)
    assert len(transport.sent) == started == 4  # the announcement and window 0, sealed
    opener = SealedCipher(theirs, ours.public_key)
    assert [decode_packet(opener.open(d)) for _, _, d in transport.sent] == [wr, *window]

    assert pump.dropped == 0
    assert pump.step() and len(transport.sent) == started
    assert pump.dropped == 1
    assert pump.step() and len(transport.sent) == started
    assert pump.step() and len(transport.sent) == started + 1  # the announcement again
    assert decode_packet(opener.open(transport.sent[-1][2])) == wr
    assert pump.dropped == 2
    assert engine.transfer(tid).counters.wr_retransmits == 1
    assert not pump.step()  # the transport says nothing can arrive any more
    assert transport.waits == [50.0] * 3 + [120.0]


def test_recv_claim_takes_the_first_accepted_announcement_and_busies_the_rest(announce, capsys):
    """recv's claim object driven by the Pump as its engine: an announcement
    over the size cap is refused and claims nothing, the next one the engine
    accepts claims recv, and another address's announcement in the same wait
    draws BUSY, flushed behind the ack in arrival order."""
    big, ok, other = (announce(Engine(PARAMS, random.Random(seed)), "R", bytes(size), info)[1]
                      for seed, info, size in ((6, "big", 500), (7, "ok", 50), (8, "other", 50)))
    refused, taker, third = ("127.0.0.1", 5001), ("127.0.0.1", 5002), ("127.0.0.1", 5003)
    transport = ScriptedTransport([
        (1.0, [("R", refused, encode_packet(big))]),
        (2.0, [("R", taker, encode_packet(ok)), ("R", third, encode_packet(other))]),
    ])
    claim = _OneClaim(replace(PARAMS, max_transfer_size=200), random.Random(9))
    pump = Pump({"R": claim}, transport, encode_packet, decode_packet)
    assert pump.step() and claim.claimed is None
    assert pump.step() and claim.claimed == (taker, ok.id)
    assert [(local, peer) for local, peer, _ in transport.calls] == [
        ("R", refused), ("R", taker), ("R", third)]
    answers = [decode_packet(d) for _, _, d in transport.sent]
    assert answers[1] == Acknowledgement(ok.id, 0, ())
    assert [(a.id, a.code) for a in (answers[0], answers[2])] == [
        (big.id, ErrorCode.SIZE_EXCEEDED), (other.id, ErrorCode.BUSY)]
    assert claim.transfer(big.id) is None and claim.transfer(other.id) is None
    assert capsys.readouterr().err.splitlines() == [
        "refused 'big' (500 bytes) from 127.0.0.1:5001",
        "accepting 'ok' (50 bytes) from 127.0.0.1:5002"]


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
    assert pump.take_events() == [Complete(tid)]


def test_flush_sends_each_run_to_one_peer_in_one_call():
    out = EngineOutput()
    blocks = [Data(1, n, b"b") for n in range(3)] + [Data(2, 0, b"c")]
    out.packets.extend(zip(["B", "B", "C", "B"], blocks))
    out.events.append(Complete(3))
    transport = ScriptedTransport([])
    pump = Pump({"A": Engine(PARAMS)}, transport, encode_packet, decode_packet)
    pump.flush("A", out)
    assert transport.calls == [("A", "B", [encode_packet(blocks[0]), encode_packet(blocks[1])]),
                               ("A", "C", [encode_packet(blocks[2])]),
                               ("A", "B", [encode_packet(blocks[3])])]
    assert pump.take_events() == [Complete(3)]
