"""perfbench's span wrappers still find every name they patch.

perfbench/spans.py install() replaces the codec globals of
blockfer.transport.sim and blockfer.cli and a set of class methods, and
raises if one of them has been renamed away. This runs one small simulated
transfer and one small loopback transfer under it and checks that the wire,
simulator, engine and UDP spans all saw calls, then restores the patches.
"""

import random
import sys
from pathlib import Path

import pytest

from blockfer.engine import TransferParameters
from blockfer.transport import LinkModel, run_loopback_transfer, run_simulated_transfer
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
