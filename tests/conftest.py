"""Shared test set-up.

Lets the processes the tests start import blockfer from a checkout: the
pythonpath setting in pyproject.toml puts src/ on this process's sys.path
only; the CLI tests run `python -m blockfer.cli` as children, which read
PYTHONPATH instead. Removes every inherited BLOCKFER_* variable, so the
parsers built here and the children started from here read only the
defaults a test gives them. Also records the batches senders open, and
starts a transfer by hand with its announcement and window 0 apart.
"""

import os
from pathlib import Path

import pytest

from blockfer.engine import Engine
from blockfer.wire import Acknowledgement, Data, WriteRequest

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
for _name in [name for name in os.environ if name.startswith("BLOCKFER_")]:
    del os.environ[_name]


def _blocks(out):
    return tuple(p.block_number for _, p in out.packets if isinstance(p, Data))


@pytest.fixture
def sender_batches(monkeypatch):
    """Each batch any Engine opens during the test, in order, as (opener, block
    numbers of the Data sent with it): start_transfer's WriteRequest and window
    0, then each ack the engine takes in and the batch it opened (empty if none)."""
    taken = []
    start_transfer, packet_in = Engine.start_transfer, Engine.packet_in

    def starting(self, *args, **kwargs):
        tid, out = start_transfer(self, *args, **kwargs)
        taken.append((out.packets[0][1], _blocks(out)))
        return tid, out

    def recording(self, peer, packet, now):
        out = packet_in(self, peer, packet, now)
        if isinstance(packet, Acknowledgement):
            taken.append((packet, _blocks(out)))
        return out

    monkeypatch.setattr(Engine, "start_transfer", starting)
    monkeypatch.setattr(Engine, "packet_in", recording)
    return taken


@pytest.fixture
def announce():
    """start(engine, peer, data, info="x", params=None, now=0.0) starts a transfer
    and returns (id, its WriteRequest, the Data packets of window 0), checking
    that the output holds those alone, all bound for peer, in that order."""

    def start(engine, peer, data, info="x", params=None, now=0.0):
        tid, out = engine.start_transfer(peer, info, data, params, now=now)
        (to, wr), *window = out.packets
        assert to == peer and isinstance(wr, WriteRequest) and wr.id == tid
        assert all(to == peer and isinstance(d, Data) for to, d in window)
        assert out.events == []
        return tid, wr, [d for _, d in window]

    return start
