"""perfbench's span wrappers still find every name they patch.

perfbench/spans.py install() replaces the codec globals of
blockfer.transport.sim and blockfer.cli and a set of class methods, and
raises if one of them has been renamed away. This runs one small simulated
transfer under it and checks that the wire, simulator and engine spans all
saw calls, then restores the patches.
"""

import random
import sys
from pathlib import Path

import pytest

from blockfer.engine import TransferParameters
from blockfer.transport import LinkModel, run_simulated_transfer

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
    from blockfer.transport import sim
    assert sim.encode_packet.__module__ == "blockfer.wire"
