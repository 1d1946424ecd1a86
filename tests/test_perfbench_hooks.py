"""perfbench's span wrappers still find every name they patch.

perfbench/spans.py install() replaces the codec globals of
blockfer.transport.sim and blockfer.cli and a set of class methods, and
raises if one of them has been renamed away. This runs small simulated,
loopback and sealed loopback transfers under it and checks that the wire,
simulator, engine, UDP and crypto spans all saw calls, then restores the
patches.
"""

import random
import sys
from pathlib import Path

import pytest

from blockfer.crypto import PeerKeyPair, SealedCipher
from blockfer.engine import Complete, Engine, SenderPhase, TransferParameters
from blockfer.transport import LinkModel, Pump, run_loopback_transfer, run_simulated_transfer
from blockfer.transport import sim, udp

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    yield spans
    sys.modules.pop("spans", None)


def test_span_wrappers_see_the_simulated_transfer(spans):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        data = random.Random(3).randbytes(30_000)
        outcome = run_simulated_transfer(
            data, LinkModel(loss_probability=0.05, latency_base_ms=5.0, seed=3),
            TransferParameters(block_size=600, window_size=16))
    finally:
        restore()
    assert outcome.completed and outcome.data == data

    calls = {name: count for name, (count, _, _) in tracer.summary()["spans"].items()}
    for kind in ("data", "ack", "other"):
        assert calls.get(f"wire.encode.{kind}", 0) > 0, kind
        assert calls.get(f"wire.decode.{kind}", 0) > 0, kind
    assert calls.get("sim.link.send", 0) > 0
    assert calls.get("sim.clock.pop", 0) > 0
    assert calls.get("engine.packet_in", 0) > 0
    # restore() put the originals back
    assert sim.encode_packet.__module__ == "blockfer.wire"


def test_clock_spans_count_every_delivery_of_a_constant_latency_link(spans):
    """On a lossless link of constant latency every delivery waits in the
    clock's FIFO rather than its heap: the traced pop still sees each one,
    and the traced depth reads the FIFO too."""
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        data = random.Random(5).randbytes(50_000)
        outcome = run_simulated_transfer(
            data, LinkModel(latency_base_ms=5.0, seed=5),
            TransferParameters(block_size=1000, window_size=16))
    finally:
        restore()
    assert outcome.completed and outcome.data == data

    summary = tracer.summary()
    calls = {name: count for name, (count, _, _) in summary["spans"].items()}
    decodes = sum(count for name, count in calls.items() if name.startswith("wire.decode."))
    assert calls["sim.clock.pop"] == calls["sim.link.send"] == decodes > 0
    assert summary["maxima"]["sim.clock.depth"] > 0


def test_span_wrappers_see_every_datagram_of_a_loopback_transfer(spans, monkeypatch):
    methods = {name: udp.UdpEndpoint.__dict__[name] for name in ("send", "drain", "poll")}
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with monkeypatch.context() as patched:
            # perfbench times the codec of the CLI and the simulator, not of
            # the loopback driver: hand the latter the simulator's traced pair
            patched.setattr(udp, "encode_packet", sim.encode_packet)
            patched.setattr(udp, "decode_packet", sim.decode_packet)
            data = random.Random(4).randbytes(200_000)
            outcome = run_loopback_transfer(
                data, TransferParameters(block_size=1200, window_size=80), seed=4)
    finally:
        restore()
    assert outcome.completed and outcome.data == data

    summary = tracer.summary()
    calls = {name: count for name, (count, _, _) in summary["spans"].items()}
    assert calls.get("udp.send", 0) > 0
    assert calls.get("udp.drain", 0) > 0
    decodes = sum(count for name, count in calls.items() if name.startswith("wire.decode."))
    assert decodes > 0
    assert summary["counters"]["udp.datagrams"] == decodes
    assert {name: udp.UdpEndpoint.__dict__[name] for name in methods} == methods
    assert udp.decode_packet.__module__ == "blockfer.wire"


def test_crypto_spans_count_one_seal_and_one_open_per_datagram(spans):
    """A sealed transfer between two Pumps, one UdpEndpoint and one
    SealedCipher each: every encoded datagram is sealed once and, on a
    lossless loopback, opened once, and none fails authentication."""
    originals = {name: SealedCipher.__dict__[name] for name in ("seal", "open")}
    rng = random.Random(6)
    alice, bob = PeerKeyPair(rng.randbytes(32)), PeerKeyPair(rng.randbytes(32))
    params = TransferParameters(block_size=1000, window_size=16)
    data = rng.randbytes(40_000)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with udp.UdpEndpoint() as a, udp.UdpEndpoint() as b:
            # built after install, so each Pump binds the traced seal and open
            # and the simulator's traced codec
            pumps = [
                Pump({end.address: Engine(params=params, rng=random.Random(seed))},
                     udp.UdpTransport(end), sim.encode_packet, sim.decode_packet,
                     SealedCipher(ours, theirs.public_key))
                for end, ours, theirs, seed in ((a, alice, bob, 1), (b, bob, alice, 2))]
            sender, receiver = pumps[0].engines[a.address], pumps[1].engines[b.address]
            tid, out = sender.start_transfer(b.address, "doc", data,
                                             now=pumps[0].transport.now())
            pumps[0].flush(a.address, out)
            while (sender.live_transfer_with(b.address) is not None
                   or receiver.live_transfer_with(a.address) is not None):
                pumps[1].step()
                pumps[0].step()
    finally:
        restore()
    assert sender.transfer(tid).phase is SenderPhase.DONE
    assert [e.data for e in pumps[1].take_events() if isinstance(e, Complete)] == [data]

    summary = tracer.summary()
    calls = {name: count for name, (count, _, _) in summary["spans"].items()}
    encodes = sum(count for name, count in calls.items() if name.startswith("wire.encode."))
    assert encodes > len(data) // 1000
    assert calls["crypto.seal"] == calls["crypto.open"] == encodes
    assert summary["counters"].get("crypto.auth_failures", 0) == 0
    assert {name: SealedCipher.__dict__[name] for name in originals} == originals
