"""The drivers reach the codec through their module globals.

perfbench/spans.py replaces blockfer.transport.sim.encode_packet/decode_packet
and blockfer.cli.encode_packet/decode_packet to time every encode and decode;
a driver that bound the codec any other way would silently report zero
wire.* calls. These tests swap in counting wrappers at the same names and
check that each datagram is encoded once when sent and decoded once when
delivered.
"""

import random

from blockfer import cli
from blockfer.crypto import IdentityCipher
from blockfer.engine import Complete, Engine, TransferParameters
from blockfer.transport import sim
from blockfer.transport.sim import LinkModel, SimClock, SimulatedLink


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(arg):
        calls.append(arg)
        return original(arg)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_simulated_transfer_codes_every_datagram_once(monkeypatch):
    encoded = count_calls(monkeypatch, sim, "encode_packet")
    decoded = count_calls(monkeypatch, sim, "decode_packet")
    sent, delivered = [], []
    link_send, clock_push = SimulatedLink.send, SimClock.push

    def send(self, src, dst, datagram, now):
        sent.append(datagram)
        return link_send(self, src, dst, datagram, now)

    def push(self, time, item, tie=0):
        delivered.append(item[2])
        clock_push(self, time, item, tie)

    monkeypatch.setattr(SimulatedLink, "send", send)
    monkeypatch.setattr(SimClock, "push", push)
    model = LinkModel(loss_probability=0.05, duplicate_probability=0.05,
                      latency_base_ms=10, seed=4)
    data = random.Random(4).randbytes(60_000)
    outcome = sim.run_simulated_transfer(data, model, TransferParameters(block_size=600,
                                                                         window_size=16))

    assert outcome.completed and outcome.data == data
    assert len(sent) != len(delivered)  # losses and duplicates both happened
    assert len(encoded) == len(sent)
    assert len(decoded) == len(delivered)
    assert sorted(decoded) == sorted(delivered)


class MemoryEndpoint:
    """Just enough of UdpEndpoint for _Pump: datagrams sit in lists."""

    def __init__(self):
        self.outbox = []
        self.inbox = []

    def send(self, peer, datagram):
        self.outbox.append((peer, datagram))

    def poll(self, wait):
        arrived, self.inbox = self.inbox, []
        return arrived


def test_cli_pump_codes_every_datagram_once(monkeypatch):
    encoded = count_calls(monkeypatch, cli, "encode_packet")
    decoded = count_calls(monkeypatch, cli, "decode_packet")
    params = TransferParameters(block_size=500, window_size=16)
    pumps = {name: cli._Pump(MemoryEndpoint(), Engine(params, random.Random(seed)),
                             IdentityCipher())
             for name, seed in (("A", 1), ("B", 2))}
    data = random.Random(5).randbytes(20_000)
    _, out = pumps["A"].engine.start_transfer("B", "hooks", data, now=cli._now_ms())
    pumps["A"].flush(out)
    pumps["B"].endpoint.inbox.append(("A", b"not a packet"))  # dropped, but decoded once

    moved = 0
    done = {}
    for _ in range(200):
        for name, other in (("A", "B"), ("B", "A")):
            endpoint = pumps[name].endpoint
            moved += len(endpoint.outbox)
            pumps[other].endpoint.inbox.extend((name, d) for _, d in endpoint.outbox)
            endpoint.outbox.clear()
        for name, pump in pumps.items():
            pump.poll_once()
            for event in pump.take_events():
                if isinstance(event, Complete):
                    done[name] = event
        if len(done) == 2 and not any(p.endpoint.outbox for p in pumps.values()):
            break

    assert done["B"].data == data and done["A"].sent
    assert len(encoded) == moved
    assert len(decoded) == moved + 1
