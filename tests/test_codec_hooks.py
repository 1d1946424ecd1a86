"""The drivers reach the codec through their module globals.

perfbench/spans.py replaces blockfer.transport.sim.encode_packet/decode_packet
and blockfer.cli.encode_packet/decode_packet to time every encode and decode;
a driver that bound the codec any other way would silently report zero
wire.* calls. These tests swap in counting wrappers at the same names and
check that each datagram is encoded once when sent and decoded once when
delivered: over the simulated link, and between `blockfer recv` and
`blockfer send` over 127.0.0.1, where the waits must go through
UdpEndpoint.poll for the udp.poll span to see them.
"""

import random
import socket
import threading
import time

from blockfer import cli
from blockfer.engine import TransferParameters
from blockfer.transport import sim
from blockfer.transport.sim import LinkModel, SimClock, SimulatedLink
from blockfer.transport.udp import UdpEndpoint


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
    sent, delivered, fates = [], [], []
    link_send, clock_push = SimulatedLink.send, SimClock.push

    def send(self, src, dst, datagram, now):
        sent.append(datagram)
        times = link_send(self, src, dst, datagram, now)
        fates.append(len(times))  # 0: lost, 2: duplicated
        return times

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
    assert fates.count(0) > 0 and fates.count(2) > 0  # losses and duplicates both happened
    assert len(delivered) == len(sent) - fates.count(0) + fates.count(2)
    assert len(encoded) == len(sent)
    assert len(decoded) == len(delivered)
    assert sorted(decoded) == sorted(delivered)


def test_cli_send_and_recv_code_every_datagram_once(monkeypatch, tmp_path):
    encoded = count_calls(monkeypatch, cli, "encode_packet")
    decoded = count_calls(monkeypatch, cli, "decode_packet")
    sent, drained, polls = [], [], []
    endpoint_send, endpoint_drain, endpoint_poll = (
        UdpEndpoint.send, UdpEndpoint.drain, UdpEndpoint.poll)

    def send(self, to, *datagrams):
        sent.extend(datagrams)
        endpoint_send(self, to, *datagrams)

    def drain(self):
        received = endpoint_drain(self)
        drained.extend(received)
        return received

    def poll(self, timeout):
        polls.append(timeout)
        return endpoint_poll(self, timeout)

    monkeypatch.setattr(UdpEndpoint, "send", send)
    monkeypatch.setattr(UdpEndpoint, "drain", drain)
    monkeypatch.setattr(UdpEndpoint, "poll", poll)

    data = random.Random(5).randbytes(20_000)
    source, sink = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(data)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    flags = ["--block-size", "500", "--window", "16", "--interval-ms", "200",
             "--attempts", "20", "--seed", "1"]
    codes = {}
    receiver = threading.Thread(target=lambda: codes.setdefault("recv", cli.main(
        ["recv", "--port", str(port), "--out", str(sink), "--wait-s", "30", *flags])))
    receiver.start()
    try:
        # noise is dropped, but decoded once; its arrival shows the port is bound
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as noise:
            for _ in range(500):
                noise.sendto(b"not a packet", ("127.0.0.1", port))
                if decoded:
                    break
                time.sleep(0.01)
        assert decoded
        codes["send"] = cli.main(["send", "--to", f"127.0.0.1:{port}", *flags, str(source)])
    finally:
        receiver.join(timeout=60)

    assert not receiver.is_alive()
    assert codes == {"send": 0, "recv": 0}
    assert sink.read_bytes() == data
    assert len(encoded) == len(sent) > 0
    assert len(decoded) == len(drained)
    assert polls
