"""Simulated link determinism/statistics and real UDP endpoint behavior."""

import errno
import heapq
import random
import socket
import time

import pytest
from hypothesis import given, settings, strategies as st

import blockfer
import blockfer.transport.sim
import blockfer.wire
from blockfer.engine import (
    Engine,
    ReceiverPhase,
    ScheduledTransfer,
    SenderPhase,
    TransferParameters,
    TransferScheduler,
)
from blockfer.transport import (
    LinkModel,
    MtuError,
    Pump,
    SimClock,
    SimulatedLink,
    TransportError,
    UdpEndpoint,
    run_loopback_transfer,
    run_simulated_transfer,
)
from blockfer.transport.sim import _LinkTransport
from blockfer.transport.udp import UDP_GRO, UDP_SEGMENT
from blockfer.wire import Data, ErrorCode, block_count_for, decode_packet, encode_packet


# --- clock ---------------------------------------------------------------


def test_clock_orders_by_time_then_insertion():
    clock = SimClock()
    clock.push(5.0, "late")
    clock.push(2.0, "first")
    clock.push(2.0, "second")
    assert len(clock) == 3
    assert clock.peek_time() == 2.0
    assert clock.pop() == (2.0, "first")
    assert clock.pop() == (2.0, "second")
    assert clock.now == 2.0
    assert clock.pop() == (5.0, "late")
    assert clock.now == 5.0
    assert clock.peek_time() is None


def test_clock_rejects_scheduling_in_the_past():
    clock = SimClock()
    clock.push(10.0, "x")
    clock.pop()
    with pytest.raises(ValueError):
        clock.push(9.9, "y")


def test_clock_tie_key_orders_before_insertion_sequence():
    clock = SimClock()
    clock.push(1.0, "b", tie=7)
    clock.push(1.0, "a", tie=3)
    assert clock.pop() == (1.0, "a")
    assert clock.pop() == (1.0, "b")


_PUSH = st.tuples(st.just("push"), st.integers(0, 4), st.sampled_from([0, 0, 1, 7, 2**32 - 1]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.one_of(_PUSH, st.just(("pop",))), max_size=60))
def test_clock_matches_a_reference_heap(steps):
    """Any interleaving of pushes and pops, with equal times, tie keys and
    times earlier than entries already queued, comes out in the order one
    heapq of (time, tie, seq) gives; pushes that arrive in key order, as on
    a link of constant latency, never enter the clock's heap."""
    clock, reference, seq = SimClock(), [], 0
    in_order, last_key = True, None
    for step in steps:
        if step[0] == "push":
            _, offset, tie = step
            time = clock.now + offset
            clock.push(time, seq, tie)
            heapq.heappush(reference, (time, tie, seq))
            in_order = in_order and (last_key is None or (time, tie) >= last_key)
            last_key, seq = (time, tie), seq + 1
        elif reference:
            time, _, item = heapq.heappop(reference)
            assert clock.pop() == (time, item)
            assert clock.now == time
        assert clock.peek_time() == (reference[0][0] if reference else None)
        assert len(clock) == len(reference)
        if in_order:
            assert not clock._heap


def test_link_wait_delivers_one_instant_per_wait():
    clock = SimClock()
    link = make_link(clock, latency_base_ms=5.0)
    transport = _LinkTransport(link, max_sim_ms=1000.0, trace=None)
    for n in range(3):
        link.send("A", "B", bytes([n]), now=0.0)
    link.send("A", "B", b"late", now=1.0)
    arrived = transport.wait(until=None)
    assert transport.now() == 5.0  # before the first datagram is taken
    got = [next(arrived)[2]]
    clock.push(5.0, ("A", "B", b"reply"))  # sent at zero latency while feeding in
    got += [datagram for _, _, datagram in arrived]
    assert got == [b"\x00", b"\x01", b"\x02", b"reply"]
    assert [d for _, _, d in transport.wait(until=6.0)] == [b"late"]
    assert transport.wait(until=7.0) == [] and transport.now() == 7.0
    assert transport.wait(until=None) is None


# --- link model draws ----------------------------------------------------


def make_link(clock=None, **kwargs):
    return SimulatedLink(LinkModel(**kwargs), clock if clock is not None else SimClock())


def test_lossless_link_delivers_once_at_base_latency():
    clock = SimClock()
    link = make_link(clock, latency_base_ms=10.0)
    times = link.send("A", "B", b"payload", now=0.0)
    assert times == [10.0]
    assert clock.pop() == (10.0, ("B", "A", b"payload"))
    assert len(clock) == 0


def test_total_loss_delivers_nothing():
    clock = SimClock()
    link = make_link(clock, loss_probability=1.0)
    for _ in range(1000):
        assert link.send("A", "B", b"x", now=0.0) == []
    assert len(clock) == 0


def test_loss_frequency_tracks_probability():
    # seeded statistical check: 100k sends, within 1% absolute
    for p, seed in ((0.117, 4), (0.5, 5), (0.02, 6)):
        link = make_link(loss_probability=p, seed=seed)
        dropped = sum(1 for _ in range(100_000) if not link.send("A", "B", b"x", 0.0))
        assert abs(dropped / 100_000 - p) <= 0.01


def test_duplicate_probability_one_delivers_twice():
    clock = SimClock()
    link = make_link(clock, latency_base_ms=5.0, duplicate_probability=1.0)
    times = link.send("A", "B", b"dup", now=1.0)
    assert len(times) == 2 and all(t == 6.0 for t in times)
    assert clock.pop()[1] == ("B", "A", b"dup")
    assert clock.pop()[1] == ("B", "A", b"dup")


def test_jitter_stays_in_band_and_never_goes_negative():
    link = make_link(latency_base_ms=50.0, latency_jitter_ms=20.0, seed=7)
    for _ in range(2000):
        [t] = link.send("A", "B", b"x", now=0.0)
        assert 30.0 <= t <= 70.0
    # jitter larger than the base clamps at zero rather than delivering early
    link = make_link(latency_base_ms=5.0, latency_jitter_ms=20.0, seed=8)
    times = [link.send("A", "B", b"x", now=0.0)[0] for _ in range(2000)]
    assert all(t >= 0.0 for t in times)
    assert any(t == 0.0 for t in times)


def test_reorder_flips_same_time_packets():
    # with reordering on, two packets scheduled for the same instant may swap
    def order(reorder, seed):
        clock = SimClock()
        link = make_link(clock, latency_base_ms=10.0, reorder_probability=reorder, seed=seed)
        link.send("A", "B", b"first", now=0.0)
        link.send("A", "B", b"second", now=0.0)
        return [clock.pop()[1][2] for _ in range(2)]

    assert any(order(1.0, seed) == [b"second", b"first"] for seed in range(40))
    assert all(order(0.0, seed) == [b"first", b"second"] for seed in range(40))


def test_identical_seeds_identical_schedules():
    def schedule(seed):
        clock = SimClock()
        link = SimulatedLink(LinkModel(
            loss_probability=0.1, latency_base_ms=20.0, latency_jitter_ms=10.0,
            reorder_probability=0.2, duplicate_probability=0.05, seed=seed), clock)
        payload_rng = random.Random(99)  # same payloads either run
        for i in range(10_000):
            link.send("A", "B", payload_rng.randbytes(8), now=float(i))
        drained = []
        while len(clock):
            drained.append(clock.pop())
        return drained

    assert schedule(12) == schedule(12)
    assert schedule(12) != schedule(13)


def test_mtu_guard():
    link = make_link()
    link.send("A", "B", bytes(1500), now=0.0)
    with pytest.raises(MtuError):
        link.send("A", "B", bytes(1501), now=0.0)


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(loss_probability=1.5)
    with pytest.raises(ValueError):
        LinkModel(reorder_probability=-0.1)
    with pytest.raises(ValueError):
        LinkModel(latency_base_ms=-1.0)
    with pytest.raises(ValueError):
        LinkModel(rate_kbps=-1.0)


def test_rate_queues_each_direction_one_datagram_after_another():
    # 125 bytes at 1000 kbit/s take 1 ms to cross the bottleneck
    link = make_link(latency_base_ms=5.0, rate_kbps=1000.0)
    assert [link.send("A", "B", bytes(125), now=0.0) for _ in range(3)] == [[6.0], [7.0], [8.0]]
    assert link.send("B", "A", bytes(125), now=0.0) == [6.0]  # the other direction is free
    assert link.send("A", "B", bytes(250), now=20.0) == [27.0]  # the queue drained
    # a datagram lost on the way still took its turn at the bottleneck
    for seed in range(40):
        link = make_link(latency_base_ms=5.0, rate_kbps=1000.0, loss_probability=0.5, seed=seed)
        first, second = (link.send("A", "B", bytes(125), now=0.0) for _ in range(2))
        if not first and second:
            assert second == [7.0]
            break
    else:
        pytest.fail("no seed dropped only the first datagram")


# --- end-to-end over the simulator ----------------------------------------


def test_simulated_transfer_lossless_exact_counts():
    params = TransferParameters(block_size=600, window_size=4)
    data = random.Random(0).randbytes(10_000)
    result = run_simulated_transfer(
        data, LinkModel(latency_base_ms=5.0, seed=3), params, record_trace=True)
    assert result.completed
    assert result.data == data
    block_count = block_count_for(len(data), 600)
    assert result.sender.counters.blocks_sent == block_count
    assert result.sender.counters.lost_blocks == 0
    assert result.sender.counters.window_retransmits == 0
    assert result.receiver.counters.acks_sent == block_count_for(block_count, 4) + 1
    assert result.duration_ms > 0
    assert result.trace, "expected a recorded trace"
    first = result.trace[0].split()
    assert first[0] == "0.000" and first[1] == "A->B"
    assert first[2].startswith("eb0101")  # the announcement goes first


def test_simulated_transfer_survives_loss_reorder_duplication():
    params = TransferParameters(block_size=600, window_size=8,
                                retransmit_interval_ms=200.0, max_attempts=8)
    data = random.Random(1).randbytes(64_000)
    for loss, seed in ((0.05, 21), (0.2, 22)):
        model = LinkModel(loss_probability=loss, latency_base_ms=20.0,
                          latency_jitter_ms=10.0, reorder_probability=0.05,
                          duplicate_probability=0.01, seed=seed)
        result = run_simulated_transfer(data, model, params)
        assert result.completed, f"loss={loss} seed={seed}"
        assert result.data == data
        assert result.sender.counters.lost_blocks > 0
        c = result.sender.counters
        assert c.blocks_sent == block_count_for(len(data), 600) \
            + c.lost_blocks + c.window_retransmit_blocks


def test_simulated_transfer_is_deterministic():
    params = TransferParameters(block_size=600, window_size=8,
                                retransmit_interval_ms=200.0, max_attempts=8)
    data = random.Random(2).randbytes(30_000)
    model = LinkModel(loss_probability=0.1, latency_base_ms=15.0,
                      latency_jitter_ms=5.0, reorder_probability=0.1, seed=77)
    first = run_simulated_transfer(data, model, params, record_trace=True)
    second = run_simulated_transfer(data, model, params, record_trace=True)
    assert first.trace == second.trace
    assert first.duration_ms == second.duration_ms
    other = run_simulated_transfer(
        data, LinkModel(loss_probability=0.1, latency_base_ms=15.0,
                        latency_jitter_ms=5.0, reorder_probability=0.1, seed=78),
        params, record_trace=True)
    assert other.trace != first.trace


def test_simulated_transfer_dead_link_times_out():
    params = TransferParameters(retransmit_interval_ms=200.0, max_attempts=5)
    result = run_simulated_transfer(b"x" * 100, LinkModel(loss_probability=1.0), params)
    assert not result.completed
    assert result.error is ErrorCode.TIMEOUT
    assert result.sender.phase is SenderPhase.FAILED
    # exactly max_attempts silent intervals, then failure, no receiver in sight
    assert result.duration_ms == 5 * 200.0
    assert result.sender.retry_params.window_size == 40
    assert result.receiver is None


def test_lost_packets_cost_a_fraction_of_the_interval(sender_batches):
    """1 MiB at 1% loss and 20 ms with default parameters, over fixed seeds.

    Beyond the analytic bound, one round trip per window plus one for the
    announcement, each timer firing may cost interval/4. A firing before a
    side's first round-trip sample, which the first window's batch and ack
    give, still waits the whole interval; these seeds have such a firing
    only on the announcement. Each drain of the last window's leftovers
    costs one more round trip with no firing at all."""
    params = TransferParameters()
    interval, latency = params.retransmit_interval_ms, 20.0
    data = random.Random(3).randbytes(2**20)
    for seed in range(1, 13):
        model = LinkModel(loss_probability=0.01, latency_base_ms=latency, seed=seed)
        sender_batches.clear()
        result = run_simulated_transfer(data, model, params)
        assert result.completed and result.data == data
        sender, receiver = result.sender, result.receiver
        stall = result.duration_ms - (sender.total_windows + 1) * 2 * latency
        firings = sender.counters.window_retransmits + receiver.counters.ack_retransmits
        drains = sum(1 for a, blocks in sender_batches
                     if a.window_index == sender.total_windows and blocks)
        allowed = (interval * sender.counters.wr_retransmits + interval / 4 * firings
                   + 2 * latency * drains)
        assert stall <= allowed, f"seed {seed}: {stall} ms stalled, {allowed} allowed"


def test_repeat_transfers_to_a_peer_never_stall_a_whole_interval():
    """300 transfers of 64 KiB, one after another from one engine to another
    through a TransferScheduler, over a 1% loss, 20 ms link. Each is a single
    window, so before any sample a lost announcement, ack, closing block or
    final ack would stall it a whole interval; after the first, every
    transfer starts from the timeout its predecessor measured."""
    params = TransferParameters()
    link = SimulatedLink(LinkModel(loss_probability=0.01, latency_base_ms=20.0, seed=5),
                         SimClock())
    pump = Pump({"A": Engine(params, random.Random(1)), "B": Engine(params, random.Random(2))},
                _LinkTransport(link, 86_400_000.0, None), encode_packet, decode_packet)
    payloads = [random.Random(k).randbytes(64 * 1024) for k in range(4)]
    scheduler = TransferScheduler()
    for k in range(300):
        scheduler.schedule_transfer(ScheduledTransfer("B", f"t{k}", payloads[k % 4]))
    durations = []
    while scheduler:
        [tid], out = scheduler.poll_scheduled(pump.engines["A"], lambda peer: True,
                                              pump.transport.now())
        pump.flush("A", out)
        while pump.step():
            pass
        outcome = pump.outcome(tid, "A", "B")
        assert outcome.completed and outcome.data == payloads[len(durations) % 4]
        durations.append(outcome.duration_ms)
        pump.take_events()
    stalled = [(k, d) for k, d in enumerate(durations[1:], 1)
               if d >= params.retransmit_interval_ms]
    assert stalled == []


@pytest.mark.parametrize("rate_kbps", [4000.0, 1000.0])
def test_slow_link_transfer_sends_nothing_twice(rate_kbps):
    """A lossless 20 ms link on which each 80-block window takes about 0.2 s
    (4 Mbit/s) or 0.8 s (1 Mbit/s) to cross: no timer fires, because every
    round-trip sample spans a whole window's transmit time."""
    data = random.Random(3).randbytes(2**20)
    model = LinkModel(latency_base_ms=20.0, rate_kbps=rate_kbps)
    result = run_simulated_transfer(data, model, TransferParameters())
    assert result.completed and result.data == data
    sender, receiver = result.sender, result.receiver
    assert sender.counters.blocks_sent == sender.block_count
    assert receiver.counters.acks_sent == sender.total_windows + 1
    assert (sender.counters.wr_retransmits, sender.counters.window_retransmits,
            receiver.counters.ack_retransmits) == (0, 0, 0)
    assert result.duration_ms > len(data) * 8 / rate_kbps


def test_window_slower_than_the_interval_costs_one_probe_per_firing():
    """1 MiB over a lossless 250 kbit/s, 20 ms link: each 80-block window
    takes about 3.1 s to cross it, longer than the 2 s interval, so the
    sender's timer fires during every window. Each firing sends one probe
    block, not the window again, and the transfer runs at line rate."""
    data = random.Random(3).randbytes(2**20)
    rate_kbps = 250.0
    model = LinkModel(latency_base_ms=20.0, rate_kbps=rate_kbps)
    result = run_simulated_transfer(data, model, TransferParameters())
    assert result.completed and result.data == data
    c = result.sender.counters
    assert c.window_retransmits > 0 and c.lost_blocks == 0
    assert c.blocks_sent == result.sender.block_count + c.window_retransmits
    line_rate_ms = len(data) * 8 / rate_kbps
    assert line_rate_ms < result.duration_ms <= 1.1 * line_rate_ms


def test_simulated_transfer_zero_size():
    result = run_simulated_transfer(b"", LinkModel(latency_base_ms=1.0, seed=5))
    assert result.completed
    assert result.data == b""
    assert result.receiver.phase is ReceiverPhase.DONE


# --- real sockets ----------------------------------------------------------


def test_udp_roundtrip_is_byte_identical():
    with UdpEndpoint() as a, UdpEndpoint() as b:
        wire = encode_packet(Data(1234, 0, b"\xaa" * 600))
        a.send(b.address, wire)
        [(sender_addr, received)] = b.poll(2.0)
        assert received == wire
        assert sender_addr == a.address


def test_udp_mtu_guard():
    assert blockfer.MtuError is blockfer.transport.sim.MtuError is blockfer.wire.MtuError
    with UdpEndpoint() as a, UdpEndpoint() as b:
        a.send(b.address, bytes(1500))
        with pytest.raises(MtuError):
            a.send(b.address, bytes(1501))


def test_udp_send_error_surfaces_as_transport_error():
    with UdpEndpoint() as a:
        with pytest.raises(TransportError):
            a.send(("127.0.0.1", 0), b"nope")


def test_udp_poll_idle_times_out_empty():
    with UdpEndpoint() as a:
        assert a.poll(0.05) == []


def test_loopback_transfer_small_file():
    data = random.Random(3).randbytes(200_000)
    params = TransferParameters(block_size=1200, window_size=16,
                                retransmit_interval_ms=500.0)
    result = run_loopback_transfer(data, params, seed=9)
    assert result.completed
    assert result.data == data
    assert result.sender.counters.window_retransmits == 0
    assert result.sender.phase is SenderPhase.DONE


# --- batched sends: GSO out, GRO in ------------------------------------------


@pytest.fixture
def gso():
    with UdpEndpoint() as probe:
        if not probe._gso:
            pytest.skip("the kernel has no UDP_SEGMENT, so every endpoint sends "
                        "one datagram per call")


requires_gso = pytest.mark.usefixtures("gso")


class RecordingSocket:
    """Stands in for an endpoint's socket and records each send call.

    With fail_gso, a segmented sendmsg fails the way it does on a NIC
    without checksum offload.
    """

    def __init__(self, sock, fail_gso=False):
        self._sock = sock
        self.fail_gso = fail_gso
        self.calls = []

    def sendmsg(self, buffers, ancillary, flags, to):
        self.calls.append("sendmsg")
        if self.fail_gso:
            raise OSError(errno.EIO, "no checksum offload")
        return self._sock.sendmsg(buffers, ancillary, flags, to)

    def sendto(self, datagram, to):
        self.calls.append("sendto")
        return self._sock.sendto(datagram, to)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def refuse_udp_options(patcher, *options):
    """Make setsockopt fail for these UDP options, as on a kernel without them."""
    setsockopt = socket.socket.setsockopt

    def refusing(self, level, option, value):
        if level == socket.IPPROTO_UDP and option in options:
            raise OSError(errno.ENOPROTOOPT, "Protocol not available")
        setsockopt(self, level, option, value)

    patcher.setattr(socket.socket, "setsockopt", refusing)


def recording(monkeypatch, endpoint, **kwargs):
    sock = RecordingSocket(endpoint._sock, **kwargs)
    monkeypatch.setattr(endpoint, "_sock", sock)
    return sock


def numbered(count, size):
    """count distinct datagrams of size bytes each."""
    return [i.to_bytes(2, "big") * (size // 2) + b"x" * (size % 2) for i in range(count)]


def receive(endpoint, count, timeout=5.0):
    received = []
    give_up_at = time.monotonic() + timeout
    while len(received) < count and time.monotonic() < give_up_at:
        received.extend(endpoint.poll(0.1))
    return received


def assert_arrive_in_order(sender, receiver, datagrams):
    received = receive(receiver, len(datagrams))
    assert [addr for addr, _ in received] == [sender.address] * len(datagrams)
    assert [datagram for _, datagram in received] == datagrams
    assert receiver.poll(0.05) == []  # and nothing more


@requires_gso
def test_gso_window_reaches_a_receiver_without_gro(monkeypatch):
    with UdpEndpoint() as a, UdpEndpoint() as b:
        b._sock.setsockopt(socket.IPPROTO_UDP, UDP_GRO, 0)
        sock = recording(monkeypatch, a)
        window = numbered(80, 1218)
        a.send(b.address, *window)
        assert sock.calls == ["sendmsg"] * 2  # 53 datagrams fit in 65507 bytes
        assert_arrive_in_order(a, b, window)


def test_sender_without_gso_reaches_a_gro_receiver(monkeypatch):
    with UdpEndpoint() as b:
        with monkeypatch.context() as patched:
            refuse_udp_options(patched, UDP_SEGMENT)
            a = UdpEndpoint()
        with a:
            sock = recording(monkeypatch, a)
            window = numbered(80, 1218)
            a.send(b.address, *window)
            assert sock.calls == ["sendto"] * 80
            assert_arrive_in_order(a, b, window)


@requires_gso
def test_gso_window_ends_in_a_shorter_datagram(monkeypatch):
    with UdpEndpoint() as a, UdpEndpoint() as b:
        sock = recording(monkeypatch, a)
        window = numbered(10, 1218) + numbered(1, 301)
        a.send(b.address, *window)
        assert sock.calls == ["sendmsg"]
        assert_arrive_in_order(a, b, window)


@requires_gso
def test_gso_batch_of_mixed_sizes_arrives_in_order(monkeypatch):
    with UdpEndpoint() as a, UdpEndpoint() as b:
        sock = recording(monkeypatch, a)
        data, acks = numbered(12, 1218), numbered(3, 80)
        batch = [acks[0], *data[:5], acks[1], *data[5:], acks[2]]
        a.send(b.address, *batch)
        # the first ack alone, five Data closed by the ack, seven Data closed by the ack
        assert sock.calls == ["sendto", "sendmsg", "sendmsg"]
        assert_arrive_in_order(a, b, batch)


@requires_gso
@pytest.mark.parametrize("count, size, calls", [(150, 500, 3), (60, 1200, 2)])
def test_gso_splits_a_large_batch_across_calls(monkeypatch, count, size, calls):
    # at most 64 datagrams and at most 65507 bytes per call
    with UdpEndpoint() as a, UdpEndpoint() as b:
        sock = recording(monkeypatch, a)
        batch = numbered(count, size)
        a.send(b.address, *batch)
        assert sock.calls == ["sendmsg"] * calls
        assert_arrive_in_order(a, b, batch)


def test_batch_over_the_mtu_sends_nothing(monkeypatch):
    with UdpEndpoint() as a, UdpEndpoint() as b:
        sock = recording(monkeypatch, a)
        with pytest.raises(MtuError):
            a.send(b.address, bytes(1200), bytes(1200), bytes(1501), bytes(1200))
        assert sock.calls == []
        assert b.poll(0.1) == []


@requires_gso
def test_gso_failure_falls_back_for_good(monkeypatch):
    with UdpEndpoint() as a, UdpEndpoint() as b:
        sock = recording(monkeypatch, a, fail_gso=True)
        window = numbered(80, 1218)
        a.send(b.address, *window)
        assert sock.calls == ["sendmsg"] + ["sendto"] * 80
        assert_arrive_in_order(a, b, window)
        sock.calls.clear()
        a.send(b.address, *window[:40])
        assert sock.calls == ["sendto"] * 40
        assert_arrive_in_order(a, b, window[:40])


def test_loopback_transfer_without_offload_uses_one_call_per_datagram(monkeypatch):
    # a kernel without UDP_SEGMENT and UDP_GRO: the probe fails, and no
    # socket then segments a send or reads coalesced datagrams
    def forbidden(self, *args):
        raise AssertionError("batched socket call without offload")

    refuse_udp_options(monkeypatch, UDP_SEGMENT, UDP_GRO)
    monkeypatch.setattr(socket.socket, "sendmsg", forbidden)
    monkeypatch.setattr(socket.socket, "recvmsg", forbidden)
    data = random.Random(4).randbytes(100_000)
    result = run_loopback_transfer(data, TransferParameters(block_size=1200, window_size=40),
                                   seed=4)
    assert result.completed and result.data == data
