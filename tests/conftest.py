"""Shared test set-up.

Lets the processes the tests start import blockfer from a checkout: the
pythonpath setting in pyproject.toml puts src/ on this process's sys.path
only; the CLI tests run `python -m blockfer.cli` as children, which read
PYTHONPATH instead. Also records what senders do with the acks they take in.
"""

import os
from pathlib import Path

import pytest

from blockfer.engine import Engine
from blockfer.wire import Acknowledgement, Data

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])


@pytest.fixture
def sender_batches(monkeypatch):
    """Each ack any Engine takes in during the test, in order, as (ack, block
    numbers of the Data in that call's output): the batch the ack opened."""
    taken = []
    packet_in = Engine.packet_in

    def recording(self, peer, packet, now):
        out = packet_in(self, peer, packet, now)
        if isinstance(packet, Acknowledgement):
            taken.append((packet, tuple(p.block_number for _, p in out.packets
                                        if isinstance(p, Data))))
        return out

    monkeypatch.setattr(Engine, "packet_in", recording)
    return taken
