"""State machine tests that hand-drive two engines packet by packet.

Expected packet sequences in the walkthroughs were worked out by hand from
the window rules, then asserted literally.
"""

import gc
import math
import random
import tracemalloc
from dataclasses import replace
from operator import lt
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, seed, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from blockfer.engine import (
    PTO_MIN_MS,
    RTO_MIN_MS,
    RTT_CACHE_PEERS,
    TIMER_SLACK,
    Complete,
    Engine,
    EngineOutput,
    Errored,
    ReceiverPhase,
    ScheduledTransfer,
    SenderPhase,
    SenderState,
    SizeExceededError,
    BusyError,
    TransferParameters,
    TransferRefused,
    TransferScheduler,
    _NO_OUTPUT,
)
from blockfer.transport import LinkModel, run_simulated_transfer
from blockfer.wire import (
    ACK_MAX_UNRECEIVED,
    Acknowledgement,
    Data,
    ErrorCode,
    ErrorPacket,
    WriteRequest,
    block_count_for,
    encode_packet,
)

SMALL = TransferParameters(block_size=4, window_size=2, retransmit_interval_ms=2000,
                           max_attempts=5)


def make_pair(params=SMALL, seed=1):
    return Engine(params=params, rng=random.Random(seed)), Engine(params=params, rng=random.Random(seed + 99))


def data_packets(out):
    return [p for _, p in out.packets if isinstance(p, Data)]


def acks(out):
    return [p for _, p in out.packets if isinstance(p, Acknowledgement)]


class Tables(NamedTuple):
    peers: dict  # peer -> its record: live, rtt and stray
    live: list   # the live states, in the order they went live
    idle: dict   # peer -> its record with no live transfer, least recently touched first
    ids: dict    # transfer id -> its newest state, live or settled
    timers: list  # the timer heap


def tables(engine):
    """An engine's tables, the one place these tests read its internals,
    checked for agreement: each record's live state is its id's state, is
    unsettled and has that peer; the live count is the number of live
    records; and every unsettled state is its peer's live one."""
    peers, ids = engine._peers, engine._ids
    live = [r.live for r in peers.values() if r.live is not None]
    for s in live:
        assert ids[s.id] is s and s.finished_at is None and peers[s.peer].live is s
    assert engine._live_count == len(live)
    assert all(peers[s.peer].live is s for s in ids.values() if s.finished_at is None)
    live.sort(key=lambda s: s.start_seq)
    idle = {peer: r for peer, r in peers.items() if r.live is None}
    return Tables(peers, live, idle, ids, engine._timers)


def pump(sender, receiver, out, now=0.0, drop=None, allow_ticks=False, hop=0.0):
    """Deliver every emitted packet to the other engine until quiet.

    Each round of deliveries (B's inbox, then A's) happens hop ms after the
    round before it.
    drop(packet) -> True consumes a packet silently, once per matching send.
    With allow_ticks, the clock jumps to the next retransmit deadline when
    both directions go silent, so dropped window-closing blocks recover.
    Returns all callback events in emission order.
    """
    events = list(out.events)
    inboxes = {"A": [], "B": [(p, pk) for p, pk in out.packets]}
    engines = {"A": sender, "B": receiver}
    # outputs addressed to peer name X are delivered to engine X; the sender
    # engine is peer "A", the receiver engine peer "B"
    for _ in range(100_000):
        if not inboxes["A"] and not inboxes["B"]:
            deadlines = [d for d in (sender.next_deadline(), receiver.next_deadline())
                         if d is not None]
            if not allow_ticks or not deadlines:
                break
            now = max(now, min(deadlines))
            for name, other in (("A", "B"), ("B", "A")):
                result = engines[name].tick(now)
                events.extend(result.events)
                inboxes[other].extend(result.packets)
            continue
        now += hop
        for name in ("B", "A"):
            queue, inboxes[name] = inboxes[name], []
            for to, packet in queue:
                assert to == name
                if drop is not None and drop(packet):
                    continue
                frm = "A" if name == "B" else "B"
                result = engines[name].packet_in(frm, packet, now=now)
                events.extend(result.events)
                inboxes[frm].extend(result.packets)
    else:
        raise AssertionError("pump did not quiesce")
    return events


# --- pure helpers ------------------------------------------------------------


def test_downscale_window():
    params = TransferParameters(window_size=80)
    seen = [params.window_size]
    for _ in range(6):
        params = params.downscaled()
        seen.append(params.window_size)
    assert seen == [80, 40, 20, 16, 16, 16, 16]
    # strictly decreasing until the clamp, then fixed
    assert TransferParameters(window_size=16).downscaled().window_size == 16
    assert TransferParameters(window_size=17).downscaled().window_size == 16
    assert TransferParameters(window_size=33).downscaled().window_size == 16


def test_parameter_validation():
    with pytest.raises(ValueError):
        TransferParameters(block_size=0)
    with pytest.raises(ValueError):
        TransferParameters(block_size=1201)
    with pytest.raises(ValueError):
        TransferParameters(window_size=0)
    with pytest.raises(ValueError):
        TransferParameters(window_size=306)
    with pytest.raises(ValueError):
        TransferParameters(retransmit_interval_ms=0)
    for interval in (math.nan, math.inf):  # a NaN deadline is never due: no timer fires
        with pytest.raises(ValueError, match="finite"):
            TransferParameters(retransmit_interval_ms=interval)
    with pytest.raises(ValueError):
        TransferParameters(max_attempts=0)


def test_an_interval_below_one_ms_is_refused():
    """Below 1 ms, now + rto can equal now on a clock in ms: with an interval
    of 1e-9 started at now=1e8, one tick re-armed each timer at the instant
    it fired, sent every re-send and failed the transfer. Such an interval is
    refused; at 1 ms a timer waits, so a tick at its deadline fires it once."""
    for interval in (1e-9, 0.5, 0.999):
        with pytest.raises(ValueError, match="at least 1"):
            TransferParameters(retransmit_interval_ms=interval, max_attempts=5)
    sender = Engine(TransferParameters(retransmit_interval_ms=1.0), rng=random.Random(1))
    tid, _ = sender.start_transfer("B", "x", bytes(10), now=1e8)
    out = sender.tick(now=1e8 + 1.0)
    assert out.packets == [("B", sender.transfer(tid).write_request)] and out.events == []
    assert sender.next_deadline() == 1e8 + 2.0


# --- lossless walkthrough ----------------------------------------------------


def test_lossless_five_block_walkthrough(announce):
    sender, receiver = make_pair()
    data = bytes(range(20))  # 5 blocks of 4, 3 windows of 2

    tid, wr, window = announce(sender, "B", data, info="demo")
    assert wr == WriteRequest(id=tid, info="demo", data_size=20, block_size=4,
                              window_size=2, block_count=5, nonce=wr.nonce)
    # window 0 rides right behind the announcement
    assert window == [Data(tid, 0, data[0:4]), Data(tid, 1, data[4:8])]
    assert sender.transfer(tid).window_index == 1
    assert sender.transfer(tid).phase is SenderPhase.AWAITING_WR_ACK
    out = receiver.packet_in("A", wr, now=1.0)
    assert acks(out) == [Acknowledgement(id=tid, window_index=0, unreceived=())]
    assert receiver.transfer(tid).phase is ReceiverPhase.RECEIVING

    # the announcement's ack only moves the sender on: window 0 is already out
    out = sender.packet_in("B", acks(out)[0], now=2.0)
    assert out.packets == [] and out.events == []
    assert sender.transfer(tid).phase is SenderPhase.SENDING

    out1 = receiver.packet_in("A", window[0], now=3.0)
    assert out1.packets == [] and out1.events == []
    assert receiver.transfer(tid).counters.blocks_received == 1
    out2 = receiver.packet_in("A", window[1], now=3.5)
    assert acks(out2) == [Acknowledgement(tid, 1, ())]
    assert out2.events == [] and receiver.transfer(tid).counters.blocks_received == 2

    out = sender.packet_in("B", acks(out2)[0], now=4.0)
    assert data_packets(out) == [Data(tid, 2, data[8:12]), Data(tid, 3, data[12:16])]
    receiver.packet_in("A", data_packets(out)[0], now=5.0)
    out = receiver.packet_in("A", data_packets(out)[1], now=5.5)
    assert acks(out) == [Acknowledgement(tid, 2, ())]

    out = sender.packet_in("B", acks(out)[0], now=6.0)
    assert data_packets(out) == [Data(tid, 4, data[16:20])]

    out = receiver.packet_in("A", data_packets(out)[0], now=7.0)
    assert acks(out) == [Acknowledgement(tid, 3, ())]
    assert out.events == [Complete(tid, data=data)]
    state = receiver.transfer(tid)
    assert state.phase is ReceiverPhase.DONE and state.counters.blocks_received == 5
    assert state.blocks is None  # the Complete event holds the only copy

    out = sender.packet_in("B", acks(out)[0], now=8.0)
    assert out.events == [Complete(tid)]
    state = sender.transfer(tid)
    assert state.phase is SenderPhase.DONE
    assert state.counters.blocks_sent == 5
    assert state.counters.lost_blocks == 0
    assert state.counters.window_retransmits == 0
    assert receiver.transfer(tid).counters.acks_sent == 4  # ceil(5/2)+1


def test_lossless_counts_random_sizes():
    rng = random.Random(7)
    for _ in range(25):
        block = rng.randrange(1, 40)
        window = rng.randrange(1, 9)
        size = rng.randrange(0, 900)
        params = TransferParameters(block_size=block, window_size=window)
        sender, receiver = make_pair(params, seed=rng.randrange(10**6))
        data = rng.randbytes(size)
        tid, out = sender.start_transfer("B", "x", data, now=0.0)
        counts = []  # the receiver's counters.blocks_received after each packet it takes in

        def packet_in(peer, packet, now, deliver=receiver.packet_in):
            result = deliver(peer, packet, now=now)
            counts.append(receiver.transfer(tid).counters.blocks_received)
            return result

        receiver.packet_in = packet_in
        events = pump(sender, receiver, out)
        block_count = block_count_for(size, block)
        windows = block_count_for(block_count, window)
        s = sender.transfer(tid)
        r = receiver.transfer(tid)
        assert s.phase is SenderPhase.DONE
        assert r.phase is ReceiverPhase.DONE
        assert s.counters.blocks_sent == block_count
        assert s.counters.lost_blocks == 0
        assert s.counters.window_retransmits == 0
        assert r.counters.acks_sent == windows + 1
        assert Complete(tid, data=data) in events
        assert Complete(tid) in events
        # progress is monotonic and complete happens exactly once per side
        assert counts == sorted(counts) and counts[-1] == block_count
        assert len([e for e in events if isinstance(e, Complete)]) == 2


# --- loss, piggybacking, drain ----------------------------------------------


def test_dropped_block_rides_next_window(sender_batches):
    sender, receiver = make_pair()
    data = bytes(range(20))
    tid, out = sender.start_transfer("B", "x", data, now=0.0)

    dropped = {0: True}
    events = pump(sender, receiver, out,
                  drop=lambda p: isinstance(p, Data) and dropped.pop(p.block_number, False))

    s = sender.transfer(tid)
    assert s.phase is SenderPhase.DONE
    assert s.counters.lost_blocks == 1
    assert s.counters.blocks_sent == 6  # 5 fresh + 1 piggybacked
    assert s.counters.window_retransmits == 0
    # window 0 went out with the announcement, whose ack opened nothing; the ack
    # closing window 0 listed block 0; the window 1 batch carried it
    assert sender_batches == [(s.write_request, (0, 1)),
                              (Acknowledgement(tid, 0, ()), ()),
                              (Acknowledgement(tid, 1, (0,)), (0, 2, 3)),
                              (Acknowledgement(tid, 2, ()), (4,)),
                              (Acknowledgement(tid, 3, ()), ())]
    assert Complete(tid, data=data) in events


def test_last_window_drain(sender_batches):
    sender, receiver = make_pair()
    data = bytes(range(20))
    tid, out = sender.start_transfer("B", "x", data, now=0.0)

    drops = {2: 2}  # drop block 2 twice: once fresh, once piggybacked

    def drop(p):
        if isinstance(p, Data) and drops.get(p.block_number, 0) > 0:
            drops[p.block_number] -= 1
            return True
        return False

    events = pump(sender, receiver, out, drop=drop)
    s = sender.transfer(tid)
    assert s.phase is SenderPhase.DONE
    assert s.counters.lost_blocks == 2
    assert s.counters.blocks_sent == 7  # 5 fresh + block 2 twice more
    # the final fresh window's ack still listed 2, forcing a drain round
    assert sender_batches[-2:] == [(Acknowledgement(tid, 3, (2,)), (2,)),
                                   (Acknowledgement(tid, 3, ()), ())]
    assert Complete(tid, data=data) in events
    assert receiver.transfer(tid).phase is ReceiverPhase.DONE


def test_every_listed_block_is_in_the_next_batch(sender_batches):
    rng = random.Random(21)
    params = TransferParameters(block_size=8, window_size=4)
    for _ in range(10):
        sender, receiver = make_pair(params, seed=rng.randrange(10**6))
        data = rng.randbytes(rng.randrange(100, 1200))
        sender_batches.clear()
        tid, out = sender.start_transfer("B", "x", data, now=0.0)
        events = pump(sender, receiver, out, allow_ticks=True,
                      drop=lambda p: isinstance(p, Data) and rng.random() < 0.25)
        s = sender.transfer(tid)
        assert s.phase is SenderPhase.DONE
        # the start opens the first batch, every accepted ack but the final one the rest
        (start, _), *opened = [(ack, blocks) for ack, blocks in sender_batches if blocks]
        assert start == s.write_request
        assert len(opened) == s.counters.acks_received - 1  # final ack opens no batch
        for ack, blocks in opened:
            assert set(ack.unreceived) <= set(blocks)
        assert Complete(tid, data=data) in events


# --- write request handling --------------------------------------------------


def test_zero_size_transfer():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "empty", b"", now=0.0)
    [(_, wr)] = out.packets
    assert wr.data_size == 0 and wr.block_count == 0
    out = receiver.packet_in("A", wr, now=1.0)
    assert acks(out) == [Acknowledgement(tid, 0, ())]
    assert out.events == [Complete(tid, data=b"")]
    assert receiver.transfer(tid).phase is ReceiverPhase.DONE
    out = sender.packet_in("B", acks(out)[0], now=2.0)
    assert out.events == [Complete(tid)]
    assert sender.transfer(tid).phase is SenderPhase.DONE


def test_duplicate_write_request_is_idempotent(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(range(20)))
    first = acks(receiver.packet_in("A", wr, now=1.0))
    again = acks(receiver.packet_in("A", wr, now=2.0))
    assert first == again == [Acknowledgement(tid, 0, ())]
    # no duplicate receiver state, no extra callbacks
    assert receiver.transfer(tid).phase is ReceiverPhase.RECEIVING
    # the sender's own announcement echoed back is dropped: only a receiver answers one
    state = sender.transfer(tid)
    before = repr(state)
    out = sender.packet_in("B", wr, now=3.0)
    assert out.packets == [] and out.events == []
    assert repr(state) == before and sender.live_transfer_with("B") == tid


def test_oversize_write_request_refused():
    receiver = Engine(params=TransferParameters(max_transfer_size=100), rng=random.Random(5))
    wr = WriteRequest(id=9, info="big", data_size=101, block_size=4, window_size=2,
                      block_count=block_count_for(101, 4), nonce=1)
    out = receiver.packet_in("A", wr, now=0.0)
    assert out.packets == [("A", ErrorPacket(9, ErrorCode.SIZE_EXCEEDED, "transfer size 101 exceeds cap 100"))]
    assert receiver.transfer(9) is None


def test_invalid_announced_parameters_refused():
    receiver = Engine(params=SMALL, rng=random.Random(5))
    for wr in (
        WriteRequest(id=9, info="", data_size=10, block_size=1201, window_size=2,
                     block_count=block_count_for(10, 1201), nonce=1),
        WriteRequest(id=9, info="", data_size=10, block_size=4, window_size=306,
                     block_count=3, nonce=1),
        WriteRequest(id=9, info="", data_size=10, block_size=4, window_size=0,
                     block_count=3, nonce=1),
        WriteRequest(id=9, info="", data_size=10, block_size=0, window_size=2,
                     block_count=3, nonce=1),
    ):
        out = receiver.packet_in("A", wr, now=0.0)
        [(_, err)] = out.packets
        assert isinstance(err, ErrorPacket) and err.code is ErrorCode.SIZE_EXCEEDED
        assert receiver.transfer(9) is None


def test_receiver_params_carry_the_announced_sizes():
    """An accepted receiver runs by its engine's interval, attempts and cap with
    the block and window size the announcement carried; when those match the
    engine's own, it holds the engine's params object itself."""
    receiver = Engine(params=SMALL, rng=random.Random(5))
    wr = WriteRequest(id=9, info="", data_size=10, block_size=3, window_size=4,
                      block_count=4, nonce=1)
    receiver.packet_in("A", wr, now=0.0)
    assert receiver.transfer(9).params == replace(SMALL, block_size=3, window_size=4)
    wr = WriteRequest(id=10, info="", data_size=10, block_size=4, window_size=2,
                      block_count=3, nonce=1)
    receiver.packet_in("B", wr, now=0.0)
    assert receiver.transfer(10).params is receiver.params


def test_transfer_states_have_no_instance_dict():
    """Every state field is a slot: a base record without slots would give
    each live and settled state a __dict__ of its own."""
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(20), now=0.0)
    pump(sender, receiver, out)
    for state in (sender.transfer(tid), receiver.transfer(tid)):
        assert not hasattr(state, "__dict__"), type(state).__name__


def test_busy_second_transfer_same_peer(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(20))
    receiver.packet_in("A", wr, now=1.0)
    wr2 = WriteRequest(id=tid + 1, info="x", data_size=8, block_size=4, window_size=2,
                       block_count=2, nonce=2)
    out = receiver.packet_in("A", wr2, now=2.0)
    [(_, err)] = out.packets
    assert err == ErrorPacket(tid + 1, ErrorCode.BUSY, err.message)
    # the sender that receives BUSY fails its transfer
    out = sender.packet_in("B", ErrorPacket(tid, ErrorCode.BUSY, "busy"), now=3.0)
    assert out.events == [Errored(tid, ErrorCode.BUSY)]
    assert sender.transfer(tid).phase is SenderPhase.FAILED


def test_collision_crossing_write_requests(announce):
    a, b = make_pair()
    tid_a, wr_a, window_a = announce(a, "B", bytes(20))
    tid_b, wr_b, window_b = announce(b, "A", bytes(20), info="y")
    # each side sees the other's request while awaiting its own first ack
    out = a.packet_in("B", wr_b, now=1.0)
    [(_, err_a)] = out.packets
    assert err_a.code is ErrorCode.COLLISION and err_a.id == tid_b
    out = b.packet_in("A", wr_a, now=1.0)
    [(_, err_b)] = out.packets
    assert err_b.code is ErrorCode.COLLISION and err_b.id == tid_a
    # the refused windows behind them meet no record: dropped, not answered
    for engine, peer, window in ((a, "B", window_b), (b, "A", window_a)):
        for d in window:
            out = engine.packet_in(peer, d, now=1.5)
            assert out.packets == [] and out.events == []
    # the crossing error packets kill both transfers
    out = a.packet_in("B", err_b, now=2.0)
    assert out.events == [Errored(tid_a, ErrorCode.COLLISION)]
    out = b.packet_in("A", err_a, now=2.0)
    assert out.events == [Errored(tid_b, ErrorCode.COLLISION)]
    assert a.transfer(tid_a).phase is SenderPhase.FAILED
    assert b.transfer(tid_b).phase is SenderPhase.FAILED


# --- data and ack handling edges ----------------------------------------------


def test_unknown_transfer_answered():
    engine = Engine(params=SMALL, rng=random.Random(3))
    # Data with no record may be ahead of its announcement: dropped, not answered
    out = engine.packet_in("A", Data(id=77, block_number=0, payload=b"abcd"), now=0.0)
    assert out.packets == [] and out.events == []
    out = engine.packet_in("A", Acknowledgement(id=78, window_index=0), now=0.0)
    [(_, err)] = out.packets
    assert err.code is ErrorCode.UNKNOWN_TRANSFER
    # errors about unknown ids are swallowed, not answered (no loops)
    out = engine.packet_in("A", ErrorPacket(id=79, code=ErrorCode.BUSY), now=0.0)
    assert out.packets == [] and out.events == []


def test_duplicate_block_no_double_progress(announce):
    sender, receiver = make_pair()
    tid, wr, window = announce(sender, "B", bytes(range(20)))
    receiver.packet_in("A", wr, now=1.0)
    block0 = window[0]
    receiver.packet_in("A", block0, now=3.0)
    assert receiver.transfer(tid).counters.blocks_received == 1
    second = receiver.packet_in("A", block0, now=4.0)
    assert second.events == [] and second.packets == []
    assert receiver.transfer(tid).counters.blocks_received == 1
    assert receiver.transfer(tid).counters.duplicate_blocks == 1


def test_early_block_stored_quietly(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(range(16)))  # 4 blocks
    receiver.packet_in("A", wr, now=1.0)
    out = receiver.packet_in("A", Data(tid, 2, bytes(range(8, 12))), now=2.0)
    assert acks(out) == []  # stored, but window 0 is still open
    assert out.events == [] and receiver.transfer(tid).counters.blocks_received == 1
    receiver.packet_in("A", Data(tid, 0, bytes(range(0, 4))), now=3.0)
    out = receiver.packet_in("A", Data(tid, 1, bytes(range(4, 8))), now=4.0)
    assert acks(out) == [Acknowledgement(tid, 1, ())]  # nothing missing below boundary
    out = receiver.packet_in("A", Data(tid, 3, bytes(range(12, 16))), now=5.0)
    assert acks(out) == [Acknowledgement(tid, 2, ())]
    assert receiver.transfer(tid).phase is ReceiverPhase.DONE


# --- window 0 with the announcement -------------------------------------------


def test_closing_block_ahead_of_its_announcement_closes_window_0_at_once(announce):
    """Window 0's closing block outruns the WriteRequest and meets no record:
    it is dropped and noted, and accepting the announcement closes window 0
    at once, listing every block the receiver lacks, so no timer fires."""
    sender, receiver = make_pair()
    data = bytes(range(20))  # 5 blocks, 3 windows
    tid, wr, (b0, b1) = announce(sender, "B", data)
    out = receiver.packet_in("A", b1, now=1.0)
    assert out.packets == [] and out.events == []
    out = receiver.packet_in("A", wr, now=1.5)
    assert acks(out) == [Acknowledgement(tid, 0, ()), Acknowledgement(tid, 1, (0, 1))]
    assert receiver.packet_in("A", b0, now=2.0).packets == []  # stored; window 1 is open
    batch = EngineOutput()
    for ack in acks(out):
        batch.extend(sender.packet_in("B", ack, now=3.0))
    assert [d.block_number for d in data_packets(batch)] == [0, 1, 2, 3]
    events = pump(sender, receiver, batch, now=3.0)  # no ticks: any timer would stall it
    assert Complete(tid, data=data) in events and Complete(tid) in events
    s, r = sender.transfer(tid).counters, receiver.transfer(tid).counters
    assert s.blocks_sent == s.blocks_due(5) == 7 and s.lost_blocks == 2
    assert (s.wr_retransmits, s.window_retransmits, r.ack_retransmits) == (0, 0, 0)


@pytest.mark.parametrize("size", [8, 20])  # one window of 2 blocks; 3 windows
def test_lost_announcement_recovers_window_0_without_a_probe(size):
    """Only the WriteRequest is lost. Window 0 behind it meets no record and
    is noted; the re-sent announcement closes window 0 at once, and the
    transfer ends no later than when window 0 waited for the announcement's
    ack: the interval plus one round trip per window and one more."""
    sender, receiver = make_pair()
    hop = 10.0
    data = bytes(range(size))
    tid, out = sender.start_transfer("B", "x", data, now=0.0)
    lost = [True]
    events = pump(sender, receiver, out, hop=hop, allow_ticks=True,
                  drop=lambda p: isinstance(p, WriteRequest) and lost and lost.pop())
    s = sender.transfer(tid)
    assert Complete(tid, data=data) in events and Complete(tid) in events
    assert s.counters.blocks_sent == s.counters.blocks_due(s.block_count)
    assert (s.counters.wr_retransmits, s.counters.window_retransmits) == (1, 0)
    assert s.counters.lost_blocks == 2  # window 0 once more, in the next batch
    assert s.finished_at <= SMALL.retransmit_interval_ms + (s.total_windows + 1) * 2 * hop


@pytest.mark.parametrize("ahead", [False, True])
def test_refused_announcement_and_its_window_draw_one_error(announce, ahead):
    """The window behind a refused announcement, or ahead of it, meets no
    record: only the refusal answers, so the sender fails with its code."""
    sender = Engine(params=SMALL, rng=random.Random(1))
    receiver = Engine(params=replace(SMALL, max_transfer_size=10), rng=random.Random(2))
    tid, wr, window = announce(sender, "B", bytes(range(20)))
    answers = EngineOutput()
    for packet in ([*window, wr] if ahead else [wr, *window]):
        answers.extend(receiver.packet_in("A", packet, now=1.0))
    [(to, err)] = answers.packets
    assert to == "A" and (err.id, err.code) == (tid, ErrorCode.SIZE_EXCEEDED)
    assert answers.events == [] and receiver.live_transfer_with("A") is None
    assert sender.packet_in("B", err, now=2.0).events == [Errored(tid, ErrorCode.SIZE_EXCEEDED)]


def test_stale_ack_ignored_but_resets_attempts(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(range(20)))
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    sender.packet_in("B", ack0, now=2.0)
    state = sender.transfer(tid)
    assert state.window_index == 1
    # two silent intervals spend attempts
    sender.tick(now=2002.0)
    sender.tick(now=4002.0)
    assert state.attempts_left == SMALL.max_attempts - 2
    out = sender.packet_in("B", ack0, now=4100.0)  # duplicate of the WR ack
    assert out.packets == [] and out.events == []
    assert state.attempts_left == SMALL.max_attempts
    assert state.window_index == 1
    assert state.counters.stale_acks == 1
    # an ack for a window never dispatched is dropped and changes nothing
    before = repr(state)
    out = sender.packet_in("B", Acknowledgement(tid, 2, ()), now=4200.0)
    assert out.packets == [] and out.events == []
    assert repr(state) == before


def test_wrong_payload_length_fails_transfer(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(range(20)))
    receiver.packet_in("A", wr, now=1.0)
    out = receiver.packet_in("A", Data(tid, 0, b"toolong-"), now=2.0)
    [(_, err)] = out.packets
    assert err.code is ErrorCode.DECODE_FAILURE
    assert receiver.transfer(tid).phase is ReceiverPhase.FAILED
    assert Errored(tid, ErrorCode.DECODE_FAILURE) in out.events


def test_out_of_range_block_number_fails_transfer(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(range(20)))
    receiver.packet_in("A", wr, now=1.0)
    out = receiver.packet_in("A", Data(tid, 5, b"abcd"), now=2.0)
    [(_, err)] = out.packets
    assert err.code is ErrorCode.DECODE_FAILURE
    assert receiver.transfer(tid).phase is ReceiverPhase.FAILED
    # so does an ack listing a block at or beyond the sender's block_count
    sender.packet_in("B", Acknowledgement(tid, 0, ()), now=3.0)
    out = sender.packet_in("B", Acknowledgement(tid, 1, (5,)), now=4.0)
    assert out.packets == [("B", ErrorPacket(tid, ErrorCode.DECODE_FAILURE,
                                             "unreceived list out of range"))]
    assert out.events == [Errored(tid, ErrorCode.DECODE_FAILURE)]
    assert sender.transfer(tid).phase is SenderPhase.FAILED


def test_an_ack_listing_an_unclosed_window_fails_the_sender(announce):
    """Block 2 lies in window 1, which an ack of window 1 has not closed.
    Taking the list would count block 2 lost, though it leaves only once,
    with window 1, and settle DONE with 4 blocks sent against blocks_due 5;
    the sender fails instead and tells the receiver."""
    sender, receiver = make_pair()
    tid, wr, window = announce(sender, "B", bytes(16))  # 4 blocks, 2 windows
    out = sender.packet_in("B", Acknowledgement(tid, 1, (2,)), now=1.0)
    out.packets[:0] = [("B", packet) for packet in (wr, *window)]
    events = pump(sender, receiver, out, now=1.0)
    s = sender.transfer(tid)
    assert (s.phase, s.counters.blocks_sent, s.counters.blocks_due(4)) == (
        SenderPhase.FAILED, 2, 4)
    assert events == [Errored(tid, ErrorCode.DECODE_FAILURE)] * 2
    assert receiver.transfer(tid).phase is ReceiverPhase.FAILED


@pytest.mark.parametrize("window, listed, refused", [
    (0, (0,), True),  # the announcement's ack lists nothing
    (1, (1,), False), (1, (0, 2), True),
    (2, (3,), False), (2, (4,), True),
    (3, (4,), False), (3, (5,), True),  # the drain's bound is block_count
    (9, (4,), False), (9, (5,), True),
])
def test_an_ack_lists_only_blocks_below_its_closed_windows(announce, window, listed, refused):
    sender, _ = make_pair()
    tid, _, _ = announce(sender, "B", bytes(20))  # 5 blocks, 3 windows of 2
    out = sender.packet_in("B", Acknowledgement(tid, window, listed), now=1.0)
    error = ErrorPacket(tid, ErrorCode.DECODE_FAILURE, "unreceived list out of range")
    assert (("B", error) in out.packets) is refused
    assert (sender.transfer(tid).phase is SenderPhase.FAILED) is refused


def test_done_receiver_reacks_duplicate_data(announce):
    sender, receiver = make_pair()
    data = bytes(range(8))  # 2 blocks, 1 window
    tid, wr, window = announce(sender, "B", data)
    receiver.packet_in("A", wr, now=1.0)
    for d in window:
        final = receiver.packet_in("A", d, now=3.0)
    assert acks(final) == [Acknowledgement(tid, 1, ())]
    # final ack lost; sender retransmits; the finished receiver answers again
    out = receiver.packet_in("A", Data(tid, 1, data[4:8]), now=4.0)
    assert acks(out) == [Acknowledgement(tid, 1, ())]
    assert out.events == []


def test_transfer_lookup_prefers_live_and_checks_peer():
    sender, receiver = make_pair()
    data = bytes(range(8))
    tid, out = sender.start_transfer("B", "x", data, now=0.0)
    assert Complete(tid, data=data) in pump(sender, receiver, out)
    finished = receiver.transfer(tid)
    assert finished.phase is ReceiverPhase.DONE and finished.peer == "A"
    assert receiver.transfer(tid ^ 1) is None

    # another address reusing the id gets no final ack for A's transfer, nor an answer
    out = receiver.packet_in("C", Data(tid, 0, data[:4]), now=1.0)
    assert out.packets == [] and out.events == []
    # a live transfer with the same id replaces the finished one
    wr = WriteRequest(tid, "y", len(data), 4, 2, 2, nonce=1)
    receiver.packet_in("C", wr, now=2.0)
    live = receiver.transfer(tid)
    assert live is not finished and live.peer == "C" and live.finished_at is None
    # while it is live, an announcement of its id from a third address is refused
    before = repr(live)
    out = receiver.packet_in("D", wr, now=2.5)
    assert out.packets == [("D", ErrorPacket(tid, ErrorCode.COLLISION, "transfer id in use"))]
    assert out.events == [] and receiver.live_transfer_with("D") is None
    assert receiver.transfer(tid) is live and repr(live) == before
    # once it settles, the newer record replaces the older one
    for d in (Data(tid, 0, data[:4]), Data(tid, 1, data[4:])):
        out = receiver.packet_in("C", d, now=3.0)
    assert Complete(tid, data=data) in out.events
    assert receiver.transfer(tid) is live


def test_a_live_id_replaces_another_peers_settled_record():
    """A state that goes live replaces the older record with its id, even
    another peer's settled one: receiver A completed transfer 77, C's
    transfer 77 goes live, and A's Data for 77 then meets no record and
    draws nothing, not A's final ack."""
    engine = Engine(params=SMALL, rng=random.Random(2))
    wr = WriteRequest(77, "x", 4, 4, 2, 1, nonce=1)
    engine.packet_in("A", wr, now=0.0)
    assert Complete(77, data=b"abcd") in engine.packet_in("A", Data(77, 0, b"abcd"), now=1.0).events
    final = Acknowledgement(77, 1, ())
    assert acks(engine.packet_in("A", Data(77, 0, b"abcd"), now=2.0)) == [final]
    out = engine.packet_in("C", replace(wr, nonce=2), now=3.0)
    assert acks(out) == [Acknowledgement(77, 0, ())]
    live = engine.transfer(77)
    assert live.peer == "C" and live.finished_at is None
    out = engine.packet_in("A", Data(77, 0, b"abcd"), now=4.0)
    assert out.packets == [] and out.events == []
    assert Complete(77, data=b"wxyz") in engine.packet_in("C", Data(77, 0, b"wxyz"), now=5.0).events
    out = engine.packet_in("A", Data(77, 0, b"abcd"), now=6.0)  # C's record is the settled one
    assert out.packets == [] and out.events == []
    assert engine.transfer(77) is live


# (role, outcome, packet) -> (answer to the settled transfer's own peer,
# answer to another peer). "final": the receiver's final ack; "unknown":
# UNKNOWN_TRANSFER; "accept": the WriteRequest goes live as a new receiver,
# which acks window 0; None: dropped without an answer. Data that meets no
# record may be ahead of its announcement, so it is dropped too.
STRAGGLERS = {
    ("receiver", "done", "data"): ("final", None),
    ("receiver", "done", "ack"): (None, "unknown"),
    ("receiver", "done", "write_request"): ("final", "accept"),
    ("receiver", "done", "error"): (None, None),
    ("receiver", "failed", "data"): (None, None),
    ("receiver", "failed", "ack"): (None, "unknown"),
    # from its own peer, only a DONE receiver answers its transfer's announcement
    ("receiver", "failed", "write_request"): (None, "accept"),
    ("receiver", "failed", "error"): (None, None),
    ("sender", "done", "data"): (None, None),
    ("sender", "done", "ack"): (None, "unknown"),
    ("sender", "done", "write_request"): (None, "accept"),
    ("sender", "done", "error"): (None, None),
    ("sender", "failed", "data"): (None, None),
    ("sender", "failed", "ack"): (None, "unknown"),
    ("sender", "failed", "write_request"): (None, "accept"),
    ("sender", "failed", "error"): (None, None),
}


@pytest.mark.parametrize("source", ["same_peer", "other_peer"])
@pytest.mark.parametrize("role, outcome, kind", list(STRAGGLERS))
def test_settled_transfer_answers_one_straggler(role, outcome, kind, source, announce):
    """One packet for a settled transfer, from its peer or another address:
    the answer and whether it makes a transfer live are pinned row by row."""
    sender, receiver = make_pair()
    data = bytes(range(8))  # 2 blocks, 1 window
    tid, wr, window = announce(sender, "B", data)
    engine, peer = (sender, "B") if role == "sender" else (receiver, "A")
    if outcome == "done":
        for packet in (wr, *window):
            got = receiver.packet_in("A", packet, now=1.0)
        sender.packet_in("B", acks(got)[-1], now=2.0)  # the final ack: taken while awaiting
    else:
        receiver.packet_in("A", wr, now=1.0)
        engine.cancel(tid, now=2.0)
    settled = engine.transfer(tid)
    assert settled.finished_at is not None and settled.phase.value == outcome

    packet = {
        "data": Data(tid, 0, data[:4]),
        "ack": Acknowledgement(tid, 1, ()),
        "write_request": wr,
        "error": ErrorPacket(tid, ErrorCode.BUSY, "busy"),
    }[kind]
    src = peer if source == "same_peer" else "C"
    answer = STRAGGLERS[role, outcome, kind][source == "other_peer"]
    out = engine.packet_in(src, packet, now=10.0)
    assert out.packets == {
        "final": [(src, Acknowledgement(tid, 1, ()))],
        "unknown": [(src, ErrorPacket(tid, ErrorCode.UNKNOWN_TRANSFER, f"no transfer {tid}"))],
        "accept": [(src, Acknowledgement(tid, 0, ()))],
        None: [],
    }[answer]
    assert out.events == []
    assert engine.live_transfer_with(src) == (tid if answer == "accept" else None)


def test_the_shared_empty_output_stays_empty(announce):
    """A block that draws no reply returns one shared EngineOutput: after a
    lossy transfer through the Pump and every straggler row, it is still empty."""
    sender, receiver = make_pair()
    _, wr, window = announce(sender, "B", bytes(range(16)))  # 4 blocks, 2 windows
    receiver.packet_in("A", wr, now=1.0)
    assert receiver.packet_in("A", window[0], now=1.0) is _NO_OUTPUT

    data = random.Random(8).randbytes(40_000)
    outcome = run_simulated_transfer(
        data, LinkModel(loss_probability=0.1, duplicate_probability=0.05,
                        latency_base_ms=5.0, latency_jitter_ms=2.0, seed=8),
        TransferParameters(block_size=500, window_size=8))
    assert outcome.completed and outcome.data == data
    for row in STRAGGLERS:
        for source in ("same_peer", "other_peer"):
            test_settled_transfer_answers_one_straggler(*row, source, announce)
    assert _NO_OUTPUT.packets == [] and _NO_OUTPUT.events == []


# --- timers -------------------------------------------------------------------


def test_sender_timeout_after_exactly_max_attempts_intervals():
    sender = Engine(params=SMALL, rng=random.Random(2))
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    state = sender.transfer(tid)

    out = sender.tick(now=1999.0)  # one short of the interval: nothing fires
    assert out.packets == [] and out.events == []
    assert state.attempts_left == 5

    # firings at 2000, 4000, 6000, 8000 retransmit the write request
    for i in range(1, 5):
        out = sender.tick(now=2000.0 * i)
        assert state.attempts_left == 5 - i
        assert [p for _, p in out.packets] == [state.write_request]
        assert state.phase is SenderPhase.AWAITING_WR_ACK
    # the fifth silent interval exhausts attempts: failed, no parting shot
    out = sender.tick(now=10000.0)
    assert state.phase is SenderPhase.FAILED
    assert out.packets == []
    assert Errored(tid, ErrorCode.TIMEOUT) in out.events
    assert state.attempts_left == 0
    assert state.counters.wr_retransmits == SMALL.max_attempts - 1
    # downscaled retry parameters attached: 2 -> max(2 // 2, min(16, 2))
    assert state.retry_params is not None
    assert state.retry_params.window_size == 2


def test_window_timeout_probes_with_the_closing_block(announce):
    sender, receiver = make_pair()
    tid, wr, (b0, b1) = announce(sender, "B", bytes(range(20)))
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    assert sender.packet_in("B", ack0, now=2.0).packets == []
    assert (b0.block_number, b1.block_number) == (0, 1)
    state = sender.transfer(tid)
    receiver.packet_in("A", b0, now=3.0)  # block 1, which closes window 0, is lost

    out = sender.tick(now=1999.9)
    assert out.packets == []
    out = sender.tick(now=2000.0)  # last_sent=0.0, when window 0 went out, + interval
    assert out.packets == [("B", b1)]  # the probe: the closing block alone, not the batch
    assert state.probe == 1
    assert state.counters.window_retransmits == 1
    assert state.counters.window_retransmit_blocks == 1
    assert state.counters.blocks_sent == 3
    assert state.attempts_left == 4
    # the probe closes the window, and its ack opens the next batch
    [ack1] = acks(receiver.packet_in("A", b1, now=2003.0))
    assert ack1 == Acknowledgement(tid, 1, ())
    assert [d.block_number for d in data_packets(sender.packet_in("B", ack1, now=2004.0))] == [2, 3]


def test_duplicate_closing_block_draws_the_last_ack_again(announce):
    sender, receiver = make_pair()
    tid, wr, (b0, b1) = announce(sender, "B", bytes(range(20)))  # 3 windows
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    assert sender.packet_in("B", ack0, now=2.0).packets == []
    receiver.packet_in("A", b0, now=3.0)
    [ack1] = acks(receiver.packet_in("A", b1, now=4.0))  # closes window 0; then lost
    state = receiver.transfer(tid)
    assert state.timed_at == 4.0

    # a copy of any block but the one that sent the last fresh ack draws nothing
    assert receiver.packet_in("A", b0, now=5.0).packets == []
    # the sender's probe is that block: the receiver answers with the same ack
    [(_, probe)] = sender.tick(now=sender.next_deadline()).packets
    assert probe == b1
    out = receiver.packet_in("A", probe, now=2003.0)
    assert out.packets == [("A", ack1)] and out.events == []
    assert state.counters.ack_retransmits == 1 and state.counters.acks_sent == 3
    assert state.counters.duplicate_blocks == 2 and state.counters.blocks_received == 2
    assert state.timed_at is None  # Karn's rule: the next fresh ack gives no sample
    assert receiver.next_deadline() == 2003.0 + state.rto
    # once the next window closes, the old closing block is just a duplicate
    b2, b3 = data_packets(sender.packet_in("B", ack1, now=2004.0))
    receiver.packet_in("A", b2, now=2005.0)
    assert acks(receiver.packet_in("A", b3, now=2006.0)) == [Acknowledgement(tid, 2, ())]
    assert receiver.packet_in("A", b1, now=2007.0).packets == []
    assert state.counters.ack_retransmits == 1


def test_duplicate_drain_trigger_draws_the_last_ack_again(announce):
    sender, receiver = make_pair()
    data = bytes(range(24))  # 6 blocks, 3 windows
    tid, wr, batch = announce(sender, "B", data)
    receiver.packet_in("A", wr, now=1.0)
    now = 2.0
    # blocks 0 and 2 are lost every time; each window's closing block arrives
    for delivered in ((1,), (3,), (4, 5)):
        for d in batch:
            if d.block_number in delivered:
                got = receiver.packet_in("A", d, now=now + 1.0)
        [ack] = acks(got)
        now += 2.0
        batch = data_packets(sender.packet_in("B", ack, now=now))
    assert ack == Acknowledgement(tid, 3, (0, 2))
    state, sent = receiver.transfer(tid), sender.transfer(tid)
    b0, b2 = batch
    assert sent.phase is SenderPhase.SENDING and sent.probe == 2
    assert sent.window_index == sent.total_windows  # the drain: every fresh window is out
    # block 0 is lost again; block 2, the drain trigger, draws an ack that is lost
    [last] = acks(receiver.packet_in("A", b2, now=now + 1.0))
    assert last == Acknowledgement(tid, 3, (0,)) and state.trigger == 0
    assert receiver.packet_in("A", Data(tid, 1, data[4:8]), now=now + 1.5).packets == []

    # the sender's probe is the drain trigger it sent last, which draws that ack again
    [(_, probe)] = sender.tick(now=sender.next_deadline()).packets
    assert probe == b2 and sent.counters.window_retransmit_blocks == 1
    out = receiver.packet_in("A", probe, now=now + 300.0)
    assert out.packets == [("A", last)]
    assert state.counters.ack_retransmits == 1 and state.timed_at is None
    [(_, resent)] = sender.packet_in("B", last, now=now + 301.0).packets
    assert resent == b0
    out = receiver.packet_in("A", resent, now=now + 302.0)
    assert Complete(tid, data=data) in out.events
    assert Complete(tid) in sender.packet_in("B", acks(out)[0], now=now + 303.0).events


def test_a_resent_drain_ack_moves_the_trigger_to_its_last_entry(announce):
    sender, receiver = make_pair()
    data = bytes(range(24))  # 6 blocks, 3 windows
    tid, wr, batch = announce(sender, "B", data)
    receiver.packet_in("A", wr, now=1.0)
    now = 2.0
    # the first block of every window is lost; each closing block arrives
    for closing in (1, 3, 5):
        [ack] = acks(receiver.packet_in("A", batch[-1], now=now + 1.0))
        assert batch[-1].block_number == closing
        now += 2.0
        batch = data_packets(sender.packet_in("B", ack, now=now))
    assert ack == Acknowledgement(tid, 3, (0, 2))  # 0, 2 and 4 are missing; W cuts it at 2
    state = receiver.transfer(tid)
    assert state.trigger == 2
    b0, _ = batch
    assert receiver.packet_in("A", b0, now=now + 1.0).packets == []  # block 2 is lost again

    # the timer re-sends what is still missing, so its last entry is the trigger now
    [resent] = acks(receiver.tick(now=receiver.next_deadline()))
    assert resent == Acknowledgement(tid, 3, (2, 4)) and state.trigger == 4
    b2, b4 = data_packets(sender.packet_in("B", resent, now=now + 2000.0))
    assert receiver.packet_in("A", b2, now=now + 2001.0).packets == []
    out = receiver.packet_in("A", b4, now=now + 2002.0)
    assert acks(out) == [Acknowledgement(tid, 3, ())]
    assert Complete(tid, data=data) in out.events


def test_done_receiver_answers_a_probe_with_its_final_ack(announce):
    sender, receiver = make_pair()
    data = bytes(range(8))  # 2 blocks, 1 window
    tid, wr, (b0, b1) = announce(sender, "B", data)
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    assert sender.packet_in("B", ack0, now=2.0).packets == []
    receiver.packet_in("A", b0, now=3.0)
    out = receiver.packet_in("A", b1, now=4.0)
    assert Complete(tid, data=data) in out.events  # the final ack is lost
    final = Acknowledgement(tid, 1, ())
    assert acks(out) == [final]
    [(_, probe)] = sender.tick(now=sender.next_deadline()).packets
    assert probe == b1
    # the settled receiver answers the probe, and any other block, with its final ack
    assert receiver.packet_in("A", probe, now=2003.0).packets == [("A", final)]
    assert receiver.packet_in("A", b0, now=2004.0).packets == [("A", final)]
    assert receiver.transfer(tid).counters.ack_retransmits == 0  # settled: no timer, no count
    assert Complete(tid) in sender.packet_in("B", final, now=2005.0).events


def test_receiver_timeout_and_reack(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(range(20)))
    receiver.packet_in("A", wr, now=1.0)
    state = receiver.transfer(tid)

    out = receiver.tick(now=2000.9)
    assert out.packets == []
    out = receiver.tick(now=2001.0)
    assert acks(out) == [Acknowledgement(tid, 0, ())]
    assert state.counters.ack_retransmits == 1
    for i in range(2, 5):
        out = receiver.tick(now=2001.0 + 2000.0 * (i - 1))
        assert acks(out)
    out = receiver.tick(now=2001.0 + 2000.0 * 4)
    assert state.phase is ReceiverPhase.FAILED
    assert Errored(tid, ErrorCode.TIMEOUT) in out.events
    assert state.counters.ack_retransmits == 4


def test_next_deadline_tracks_live_states():
    sender = Engine(params=SMALL, rng=random.Random(2))
    assert sender.next_deadline() is None
    tid, _ = sender.start_transfer("B", "x", bytes(range(20)), now=10.0)
    assert sender.next_deadline() == 10.0 + SMALL.retransmit_interval_ms
    sender.cancel(tid, now=11.0)
    assert sender.next_deadline() is None


@pytest.mark.parametrize("samples, expected", [
    # (srtt, rttvar, rto) after each ack; alpha = 1/8, beta = 1/4 after the first.
    # The estimator is RFC 6298's; the sender's timeout is the probe timeout 2 * SRTT
    ([300.0, 100.0, 10.0], [(300.0, 150.0, 600.0), (275.0, 162.5, 550.0),
                            (241.875, 188.125, 483.75)]),
    ([2.0], [(2.0, 1.0, PTO_MIN_MS)]),        # clamped up to the floor
    ([1000.0], [(1000.0, 500.0, 2000.0)]),    # clamped down to the interval
    ([60.0, 60.0], [(60.0, 30.0, 120.0), (60.0, 22.5, 120.0)]),  # below RTO_MIN_MS
])
def test_sender_rto_follows_rfc6298(samples, expected):
    sender = Engine(params=SMALL, rng=random.Random(2))
    tid, _ = sender.start_transfer("B", "x", bytes(8 * (len(samples) + 1)), now=30.0)
    state = sender.transfer(tid)
    # the announcement is not timed: its ack moves the sender on and gives no sample
    sender.packet_in("B", Acknowledgement(tid, 0, ()), now=30.0)
    assert (state.srtt, state.rto) == (None, SMALL.retransmit_interval_ms)
    now = 30.0
    for window, (rtt, (srtt, rttvar, rto)) in enumerate(zip(samples, expected), 1):
        now += rtt  # each ack comes rtt after the batch it accepts was sent
        sender.packet_in("B", Acknowledgement(tid, window, ()), now=now)
        assert (state.srtt, state.rttvar, state.rto) == (srtt, rttvar, rto)
        assert sender.next_deadline() == now + rto


def test_timed_batch_timeout_backs_off_to_the_interval(announce):
    sender, receiver = make_pair()
    tid, wr, (b0, b1) = announce(sender, "B", bytes(range(20)))
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    assert sender.packet_in("B", ack0, now=2.0).packets == []
    receiver.packet_in("A", b0, now=3.0)
    [ack1] = acks(receiver.packet_in("A", b1, now=3.0))
    out = sender.packet_in("B", ack1, now=4.0)  # batch 0 took 4 ms: the floor
    assert [d.block_number for d in data_packets(out)] == [2, 3]
    state = sender.transfer(tid)
    assert state.rto == PTO_MIN_MS

    assert sender.tick(now=4.0 + PTO_MIN_MS - 0.1).packets == []
    out = sender.tick(now=4.0 + PTO_MIN_MS)  # last_sent=4.0 + PTO_MIN_MS
    assert [d.block_number for d in data_packets(out)] == [3]  # the probe
    assert state.counters.window_retransmit_blocks == 1
    assert state.counters.blocks_sent == 5
    assert state.attempts_left == 5  # below the interval a firing spends nothing
    # each firing doubles the timeout up to the interval, which spends one
    sent_at = 4.0 + PTO_MIN_MS
    backoff = [(200.0, 5), (400.0, 5), (800.0, 5), (1600.0, 5), (2000.0, 4), (2000.0, 3)]
    assert PTO_MIN_MS == 100.0
    for rto, left in backoff:
        assert sender.tick(now=sent_at + rto - 0.1).packets == []
        out = sender.tick(now=sent_at + rto)
        assert [d.block_number for d in data_packets(out)] == [3]
        assert state.attempts_left == left
        sent_at += rto
    assert state.counters.window_retransmits == 7
    assert state.counters.window_retransmit_blocks == 7
    assert state.counters.blocks_sent == 4 + 7
    assert state.rto == SMALL.retransmit_interval_ms
    # a stale ack refills the attempts and changes nothing else
    out = sender.packet_in("B", ack0, now=sent_at + 1.0)
    assert out.packets == [] and out.events == []
    assert state.attempts_left == SMALL.max_attempts and state.window_index == 2
    assert state.counters.stale_acks == 1


def test_sender_skips_samples_of_retransmitted_units():
    # Karn's rule: the ack of a re-sent batch may answer either copy
    sender = Engine(params=SMALL, rng=random.Random(2))
    tid, _ = sender.start_transfer("B", "x", bytes(24), now=10.0)  # 3 windows
    state = sender.transfer(tid)
    sender.packet_in("B", Acknowledgement(tid, 0, ()), now=10.0)
    sender.packet_in("B", Acknowledgement(tid, 1, ()), now=20.0)  # a fresh batch: timed
    assert (state.srtt, state.rttvar, state.rto) == (10.0, 5.0, PTO_MIN_MS)
    probe = data_packets(sender.tick(now=20.0 + PTO_MIN_MS))  # a probe; the timeout doubles
    assert [d.block_number for d in probe] == [3] and state.timed_at is None
    sender.packet_in("B", Acknowledgement(tid, 2, ()), now=125.0)
    assert (state.srtt, state.rttvar, state.rto) == (10.0, 5.0, 2 * PTO_MIN_MS)
    assert sender.next_deadline() == 125.0 + 2 * PTO_MIN_MS


def test_receiver_times_ack_cycles_and_resends_a_lost_ack_after_the_rto(announce):
    sender, receiver = make_pair()
    tid, wr, window = announce(sender, "B", bytes(range(28)))  # 4 windows
    receiver.packet_in("A", wr, now=1.0)
    state = receiver.transfer(tid)
    # the announcement's ack is not timed: window 0 arrives right behind it
    for d in window:
        got = receiver.packet_in("A", d, now=1.0)
    [ack1] = acks(got)
    assert (state.srtt, state.timed_at) == (None, 1.0)
    b2, b3 = data_packets(sender.packet_in("B", ack1, now=2.0))

    # blocks do not sample: the cycle runs from one fresh ack to the next
    receiver.packet_in("A", b2, now=31.0)
    assert (state.srtt, state.rto) == (None, SMALL.retransmit_interval_ms)
    [ack2] = acks(receiver.packet_in("A", b3, now=32.0))  # closes window 1; then lost
    assert (state.srtt, state.rttvar, state.rto) == (31.0, 15.5, RTO_MIN_MS)
    assert receiver.next_deadline() == 32.0 + RTO_MIN_MS

    assert receiver.tick(now=231.9).packets == []
    assert acks(receiver.tick(now=232.0)) == [ack2]  # after the rto, not the interval
    assert state.counters.ack_retransmits == 1 and state.rto == 400.0
    # the fresh ack after a re-sent one gives no sample (Karn's rule)
    b4, b5 = data_packets(sender.packet_in("B", ack2, now=240.0))
    receiver.packet_in("A", b4, now=260.0)
    [ack3] = acks(receiver.packet_in("A", b5, now=261.0))
    assert (state.srtt, state.rto) == (31.0, 400.0)
    # silence: the timeout doubles up to the interval, which alone spends attempts
    sent_at = 261.0
    for rto, left in ((400.0, 5), (800.0, 5), (1600.0, 5), (2000.0, 4), (2000.0, 3)):
        assert receiver.tick(now=sent_at + rto - 0.1).packets == []
        assert acks(receiver.tick(now=sent_at + rto)) == [ack3]
        assert state.attempts_left == left
        sent_at += rto


def test_slow_window_is_not_resent_before_its_ack(announce):
    """Each 80-block window takes 500 ms to reach the receiver, far more than
    a 20 ms round trip: neither side may re-send anything before the ack."""
    params = TransferParameters()
    sender, receiver = make_pair(params)
    data = random.Random(4).randbytes(params.block_size * params.window_size * 6)
    latency, spacing = 10.0, 500.0 / params.window_size
    tid, wr, batch = announce(sender, "B", data)
    [ack] = acks(receiver.packet_in("A", wr, now=latency))
    # the announcement's ack reaches the sender while window 0 is still crossing
    assert sender.packet_in("B", ack, now=2 * latency).packets == []
    now, batches = 0.0, 0
    while batch:
        batches += 1
        for k, block in enumerate(batch, 1):
            at = now + latency + k * spacing
            assert sender.tick(at).packets == [] and receiver.tick(at).packets == []
            got = receiver.packet_in("A", block, now=at)
        [ack] = acks(got)
        now = at + latency
        assert sender.tick(now).packets == [] and receiver.tick(now).packets == []
        out = sender.packet_in("B", ack, now=now)
        batch = data_packets(out)
    assert batches == 6 and Complete(tid) in out.events
    assert Complete(tid, data=data) in got.events
    # both sides sampled the same whole cycle: 500 ms of blocks plus the round trip
    cycle = 500.0 + 2 * latency
    for state in (sender.transfer(tid), receiver.transfer(tid)):
        assert state.srtt == cycle and state.rto > cycle
    assert sender.transfer(tid).counters.window_retransmits == 0
    assert receiver.transfer(tid).counters.ack_retransmits == 0


@pytest.mark.parametrize("silent", ["receiver", "sender"])
def test_peer_silent_mid_transfer_times_out_within_the_budget(silent):
    """Two windows go through at t=0, then one direction goes dead: the side
    left waiting fails with TIMEOUT within (max_attempts + 2) intervals."""
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(40)), now=0.0)  # 5 windows
    if silent == "receiver":
        waiting, drop = sender, lambda p: isinstance(p, Acknowledgement) and p.window_index >= 2
    else:
        waiting, drop = receiver, lambda p: isinstance(p, Data) and p.block_number >= 4
    events = pump(sender, receiver, out, drop=drop, allow_ticks=True)
    state = waiting.transfer(tid)
    assert Errored(tid, ErrorCode.TIMEOUT) in events and state.error is ErrorCode.TIMEOUT
    interval, attempts = SMALL.retransmit_interval_ms, SMALL.max_attempts
    # the last valid inbound packet came at t=0; then the backoff up to the interval,
    # from the sender's probe timeout 100+200+...+1600 or the receiver's 200+...+1600,
    # then 5 x 2000
    assert state.finished_at == {"receiver": 13100.0, "sender": 13000.0}[silent]
    assert attempts * interval <= state.finished_at <= (attempts + 2) * interval
    # the receiver settles FAILED either way, and keeps none of the blocks it had
    settled = receiver.transfer(tid)
    assert settled.phase is ReceiverPhase.FAILED and settled.counters.blocks_received >= 4
    assert settled.blocks is None


def test_settled_transfers_retain_no_payload():
    """200 transfers of 64 KiB each through one engine pair: once the caller
    drops its payloads and the Complete events, the engines' settled tables
    hold phases, counters and logs only, not one payload per transfer."""
    params = TransferParameters(block_size=1024, window_size=16)
    sender, receiver = make_pair(params)
    rng = random.Random(11)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            data = rng.randbytes(64 * 1024)
            tid, out = sender.start_transfer("B", "x", data, now=0.0)
            assert Complete(tid, data=data) in pump(sender, receiver, out)
            assert receiver.transfer(tid).blocks is None
        del data, out
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tables(receiver).ids) == len(tables(sender).ids) == 200
    assert retained < 2 * 2**20, f"engines retain {retained / 2**20:.2f} MiB"


def test_sender_sends_the_bytes_it_was_started_with():
    """The sender keeps a snapshot of a bytearray it is handed: the caller may
    overwrite and resize its buffer while blocks of a batch are still in
    flight, and the original bytes arrive."""
    sender, receiver = make_pair()
    buffer = bytearray(b"0123456789")
    tid, out = sender.start_transfer("B", "x", buffer, now=0.0)
    buffer[:] = b"z" * len(buffer)

    def change_mid_batch(packet):
        if isinstance(packet, Data) and packet.block_number == 0:
            buffer.extend(b"grown")  # with the rest of the batch still queued
        return False

    assert Complete(tid, data=b"0123456789") in pump(sender, receiver, out,
                                                     drop=change_mid_batch)
    assert buffer == b"z" * 10 + b"grown"


# --- the per-peer RTT cache -----------------------------------------------------


def seeded_pair():
    """An engine pair after one 3-window transfer from A to B, 2 ms a round:
    each side has sampled cycles of a few ms, so a timeout seeded from them
    sits at the floor, PTO_MIN_MS for a sender and RTO_MIN_MS for a receiver.
    Returns the engines and the settled sender and receiver."""
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    assert Complete(tid) in pump(sender, receiver, out, hop=2.0)
    first, received = sender.transfer(tid), receiver.transfer(tid)
    assert 0 < first.srtt < 10 and 0 < received.srtt < 10
    return sender, receiver, first, received


def test_second_transfer_resends_a_lost_announcement_after_the_seeded_rto(announce):
    sender, receiver, first, _ = seeded_pair()
    tid, _, window = announce(sender, "B", bytes(range(20)), info="y", now=100.0)
    state = sender.transfer(tid)
    assert (state.srtt, state.rttvar, state.rto) == (first.srtt, first.rttvar, PTO_MIN_MS)
    # the announcement is lost, and window 0 behind it meets no record: dropped
    for d in window:
        assert receiver.packet_in("A", d, now=102.0).packets == []
    # the announcement goes again after the seeded timeout, not the interval
    assert sender.tick(now=100.0 + PTO_MIN_MS - 0.1).packets == []
    resent = sender.tick(now=100.0 + PTO_MIN_MS)
    assert [p for _, p in resent.packets] == [state.write_request]
    assert state.counters.wr_retransmits == 1 and state.attempts_left == SMALL.max_attempts
    assert state.rto == 2 * PTO_MIN_MS  # Karn's rule and the backoff are unchanged
    assert Complete(tid) in pump(sender, receiver, resent, now=100.0 + PTO_MIN_MS)


def test_second_announcement_reacks_a_lost_closing_block_after_the_seeded_rto(announce):
    sender, receiver, _, received = seeded_pair()
    tid, wr, (b0, _) = announce(sender, "B", bytes(range(20)), info="y", now=100.0)
    [ack0] = acks(receiver.packet_in("A", wr, now=102.0))
    state = receiver.transfer(tid)
    assert (state.srtt, state.rttvar, state.rto) == (received.srtt, received.rttvar, RTO_MIN_MS)
    receiver.packet_in("A", b0, now=106.0)  # block 1, which closes window 0, is lost
    assert receiver.tick(now=102.0 + RTO_MIN_MS - 0.1).packets == []
    assert acks(receiver.tick(now=102.0 + RTO_MIN_MS)) == [ack0]
    assert state.counters.ack_retransmits == 1 and state.attempts_left == SMALL.max_attempts


def test_only_the_same_peer_seeds_a_new_transfer():
    sender, receiver, first, _ = seeded_pair()
    tid, _ = sender.start_transfer("C", "y", bytes(20), now=100.0)
    other = sender.transfer(tid)
    assert (other.srtt, other.rto) == (None, SMALL.retransmit_interval_ms)
    receiver.packet_in("C", WriteRequest(id=7, info="z", data_size=20, block_size=4,
                                         window_size=2, block_count=5, nonce=1), now=100.0)
    assert (receiver.transfer(7).srtt, receiver.transfer(7).rto) == (None, SMALL.retransmit_interval_ms)
    # one cache serves both roles: the engine that received from A now sends to A
    tid, _ = receiver.start_transfer("A", "back", bytes(20), now=100.0)
    assert receiver.transfer(tid).rto == PTO_MIN_MS  # a sender's timeout from a receiver's SRTT
    sender.cancel(other.id, now=101.0)
    tid, _ = sender.start_transfer("B", "again", bytes(20), now=101.0)
    assert (sender.transfer(tid).srtt, sender.transfer(tid).rto) == (first.srtt, PTO_MIN_MS)


def test_seeded_rto_is_clamped_to_the_new_transfers_interval():
    sender = Engine(params=SMALL, rng=random.Random(2))
    tid, _ = sender.start_transfer("B", "x", bytes(16), now=10.0)  # 2 windows
    sender.packet_in("B", Acknowledgement(tid, 0, ()), now=10.0)
    sender.packet_in("B", Acknowledgement(tid, 1, ()), now=50.0)  # one 40 ms sample
    sender.cancel(tid, now=60.0)  # a failed transfer seeds the next one as well
    assert sender.transfer(tid).phase is SenderPhase.FAILED
    short = replace(SMALL, retransmit_interval_ms=60.0)
    tid, _ = sender.start_transfer("B", "y", bytes(16), params=short, now=100.0)
    state = sender.transfer(tid)
    # 2 * SRTT = 80 ms lies below the floor, and the floor above this interval
    assert (state.srtt, state.rttvar, state.rto) == (40.0, 20.0, 60.0)
    assert sender.next_deadline() == 100.0 + 60.0


def test_seeded_sender_with_a_silent_peer_still_times_out_within_the_budget():
    sender, _, _, _ = seeded_pair()
    tid, _ = sender.start_transfer("B", "y", bytes(range(20)), now=100.0)
    state = sender.transfer(tid)
    assert state.rto == PTO_MIN_MS
    events = []
    while (deadline := sender.next_deadline()) is not None:
        events.extend(sender.tick(deadline).events)
    assert events == [Errored(tid, ErrorCode.TIMEOUT)]
    interval, attempts = SMALL.retransmit_interval_ms, SMALL.max_attempts
    assert attempts * interval <= state.finished_at - 100.0 <= (attempts + 2) * interval
    assert state.counters.wr_retransmits >= attempts - 1


def test_rtt_cache_keeps_the_most_recently_settled_peers():
    sender = Engine(params=SMALL, rng=random.Random(2))

    def settle(peer, now):
        tid, _ = sender.start_transfer(peer, "x", bytes(8), now=now)  # one window
        sender.packet_in(peer, Acknowledgement(tid, 0, ()), now=now + 1.0)
        sender.packet_in(peer, Acknowledgement(tid, 1, ()), now=now + 5.0)  # sampled
        assert sender.transfer(tid).phase is SenderPhase.DONE

    for k in range(RTT_CACHE_PEERS):
        settle(f"P{k}", now=10.0 * k)
    settle("P0", now=1e5)  # settles again: now the most recent, not the oldest
    settle("Q", now=1e5 + 10.0)
    idle = tables(sender).idle
    assert len(idle) == RTT_CACHE_PEERS and all(r.rtt is not None for r in idle.values())
    assert "P1" not in idle and {"P0", "P2", "Q"} <= idle.keys()
    assert list(idle)[-2:] == ["P0", "Q"]


def test_stray_notes_keep_the_most_recent_peers():
    """Data that meets no record is noted per peer, its id only, in a table
    bounded like the RTT cache; an accepted announcement takes the note out,
    and closes window 0 at once only if the note carries its id."""
    engine = Engine(params=SMALL, rng=random.Random(2))
    for k in range(RTT_CACHE_PEERS + 1):
        assert engine.packet_in(f"P{k}", Data(k + 1, 0, b"abcd"), now=0.0).packets == []
    idle = tables(engine).idle
    assert len(idle) == RTT_CACHE_PEERS and "P0" not in idle
    assert [r.stray for r in idle.values()] == list(range(2, RTT_CACHE_PEERS + 2))
    engine.packet_in("P1", Data(99, 0, b"abcd"), now=1.0)  # P1's note is now 99, not 2
    wr = WriteRequest(id=2, info="x", data_size=8, block_size=4, window_size=2,
                      block_count=2, nonce=1)
    assert acks(engine.packet_in("P1", wr, now=2.0)) == [Acknowledgement(2, 0, ())]
    assert tables(engine).peers["P1"].stray is None
    wr = replace(wr, id=3)
    assert acks(engine.packet_in("P2", wr, now=2.0)) == [Acknowledgement(3, 0, ()),
                                                          Acknowledgement(3, 1, (0, 1))]


def test_a_live_record_outlasts_a_flood_of_strays(announce):
    """A transfer with A stays live and completes while more than twice
    RTT_CACHE_PEERS fresh addresses send strays: eviction steps past A's
    record, the least recently touched, and the idle records stay at the cap."""
    sender, receiver = make_pair()
    data = bytes(range(20))
    tid, wr, window = announce(sender, "B", data)
    receiver.packet_in("A", wr, now=1.0)
    flood = 2 * RTT_CACHE_PEERS + 1
    for k in range(flood):
        assert receiver.packet_in(f"S{k}", Data(k + 1, 0, b"abcd"), now=2.0).packets == []
    t = tables(receiver)
    assert t.live == [receiver.transfer(tid)] and list(t.peers)[0] == "A"
    assert list(t.idle) == [f"S{k}" for k in range(flood - RTT_CACHE_PEERS, flood)]
    out = EngineOutput()
    for d in window:
        out.extend(receiver.packet_in("A", d, now=3.0))
    batch = EngineOutput()
    for ack in acks(out):
        batch.extend(sender.packet_in("B", ack, now=4.0))
    assert Complete(tid, data=data) in pump(sender, receiver, batch, now=4.0)
    t = tables(receiver)
    assert t.live == [] and len(t.idle) == RTT_CACHE_PEERS and list(t.idle)[-1] == "A"


def test_one_record_carries_a_peers_rtt_and_its_stray(announce):
    """A's settled transfer leaves its RTT in A's record, and A's later stray
    its id in the same record: A's next transfer starts from that RTT, and
    accepting it closes window 0 at once and takes the note out."""
    sender, receiver, _, received = seeded_pair()
    tid, wr, (_, b1) = announce(sender, "B", bytes(range(20)), info="y", now=100.0)
    assert receiver.packet_in("A", b1, now=101.0).packets == []  # ahead of its announcement
    record = tables(receiver).peers["A"]
    assert (record.live, record.rtt, record.stray) == (None, (received.srtt, received.rttvar), tid)
    out = receiver.packet_in("A", wr, now=102.0)
    assert acks(out) == [Acknowledgement(tid, 0, ()), Acknowledgement(tid, 1, (0, 1))]
    state = receiver.transfer(tid)
    assert (state.srtt, state.rttvar, state.rto) == (received.srtt, received.rttvar, RTO_MIN_MS)
    assert (record.live, record.stray) == (state, None)


TIMED = TransferParameters(block_size=4, window_size=2, retransmit_interval_ms=100.0,
                           max_attempts=3)
ADAPTIVE = replace(TIMED, retransmit_interval_ms=1000.0)
PEERS = ["P0", "P1", "P2", "P3"]


def brute_deadline(state):
    return state.last_sent + state.rto


class TimerOracle(RuleBasedStateMachine):
    """Engine "E" against peer engines over a wire that drops, duplicates and
    reorders at will, checking the timer heap against a scan of the live records.

    With TIMED the interval lies below RTO_MIN_MS, so a receiver's timeout
    stays at the interval while a sender's probe timeout can fall below it;
    AdaptiveTimerOracle repeats this with an interval that samples shorten
    on both sides."""

    params = TIMED

    def __init__(self):
        super().__init__()
        self.engine = Engine(params=self.params, rng=random.Random(5))
        self.peers = {p: Engine(params=self.params, rng=random.Random(10 + i))
                      for i, p in enumerate(PEERS)}
        self.wire = []  # (src, dst, packet) in flight
        self.batches = {}  # (src, transfer id) -> block numbers of its latest batch
        self.payloads = {}  # transfer id -> the bytes its sender started with
        self.now = 0.0

    def send(self, src, out, fired=False):
        """Put out's packets on the wire from src, checking its Data per
        transfer. A batch ascends, so it sends no block twice, and lies below
        the sender's next fresh window: the listed losses, all below the
        window it sends, then that window. A fired timer sends the last
        block of the transfer's latest batch alone. A receiver completes
        with exactly its sender's bytes."""
        engine = self.engine if src == "E" else self.peers[src]
        for event in out.events:
            if isinstance(event, Complete) and event.data is not None:
                assert event.data == self.payloads[event.id]
        sent = {}
        for _, packet in out.packets:
            if isinstance(packet, Data):
                sent.setdefault(packet.id, []).append(packet.block_number)
        for tid, blocks in sent.items():
            if fired:
                assert blocks == self.batches[src, tid][-1:]
                continue
            s = engine.transfer(tid)
            assert all(map(lt, blocks, blocks[1:]))
            assert blocks[-1] < min(s.window_index * s.params.window_size, s.block_count)
            self.batches[src, tid] = blocks
        self.wire.extend((src, dst, packet) for dst, packet in out.packets)

    @rule(peer=st.sampled_from(PEERS), size=st.integers(0, 24), outbound=st.booleans())
    def start(self, peer, size, outbound):
        src, dst, engine = ("E", peer, self.engine) if outbound else (peer, "E", self.peers[peer])
        # bytes of their own for each start, so a misplaced block shows
        data = random.Random(len(self.payloads)).randbytes(size)
        try:
            tid, out = engine.start_transfer(dst, "x", data, now=self.now)
        except TransferRefused:
            return
        self.payloads[tid] = data
        self.send(src, out)

    def deliver(self, src, dst, packet):
        engine = self.engine if dst == "E" else self.peers[dst]
        self.send(dst, engine.packet_in(src, packet, now=self.now))

    @rule(index=st.integers(0, 1000), copies=st.sampled_from([0, 1, 1, 1, 2, 20]))
    def packet_in(self, index, copies):
        """Deliver a packet `copies` times: 0 drops it, more than 1 replays it."""
        if not self.wire:
            return
        src, dst, packet = self.wire.pop(index % len(self.wire))
        for _ in range(copies):
            self.deliver(src, dst, packet)

    @rule(drops=st.sets(st.integers(0, 30), max_size=4))
    def settle(self, drops):
        """Deliver in order, dropping the packets at the given positions, and
        tick at the next deadline whenever the wire falls quiet, until nothing
        is live: transfers of several windows settle, probed ones among them."""
        engines = (self.engine, *self.peers.values())
        for k in range(1000):
            if self.wire:
                packet = self.wire.pop(0)
                if k not in drops:
                    self.deliver(*packet)
                continue
            deadlines = [d for d in (e.next_deadline() for e in engines) if d is not None]
            if not deadlines:
                break
            self.advance(min(deadlines) - self.now)

    @rule(which=st.integers(0, 1000), shift=st.integers(-1, 1) | st.integers(0, 2**32 - 1),
          listed=st.lists(st.integers(0, 5), unique=True, max_size=3)
          | st.lists(st.integers(0, 2**32 - 1), unique=True, max_size=ACK_MAX_UNRECEIVED))
    def forge_ack(self, which, shift, listed):
        """Deliver to a live sender, from its own peer, an ack of its transfer
        with any strictly increasing list and any window_index, most often
        one within a window of the sender's own."""
        senders = [(name, s) for name, engine in (("E", self.engine), *self.peers.items())
                   for s in tables(engine).live if isinstance(s, SenderState)]
        if senders:
            name, s = senders[which % len(senders)]
            window = (s.window_index + shift) % 2**32
            self.deliver(s.peer, name, Acknowledgement(s.id, window, tuple(sorted(listed))))

    @rule(index=st.integers(0, 1000), src=st.sampled_from(PEERS))
    def spoof(self, index, src):
        """Deliver a copy of a packet bound for E as if src had sent it."""
        inbound = [packet for _, dst, packet in self.wire if dst == "E"]
        if inbound:
            self.send("E", self.engine.packet_in(src, inbound[index % len(inbound)], now=self.now))

    @rule(step=st.sampled_from([0.0, 1.0, 40.0, 99.0, 100.0, 250.0]))
    def tick(self, step):
        self.advance(step)

    def advance(self, step):
        self.now += step
        live = tables(self.engine).live
        attempts = [s.attempts_left for s in live]
        due = [s for s in live if brute_deadline(s) <= self.now]
        spending = [s for s in due if s.rto == s.params.retransmit_interval_ms]
        fired = sorted(due, key=brute_deadline)  # stable: live-table order at one instant
        out = self.engine.tick(self.now)
        # a firing at the full interval costs an attempt; nothing else a tick
        # does touches attempts
        assert [s for s, a in zip(live, attempts) if s.attempts_left != a] == spending
        # fired earliest deadline first, ties in live-table order: each survivor
        # sends to its own peer, each failure emits Errored, and no two live
        # transfers share a peer
        runs = [peer for k, (peer, _) in enumerate(out.packets)
                if k == 0 or out.packets[k - 1][0] != peer]
        assert runs == [s.peer for s in fired if s.finished_at is None]
        assert out.events == [Errored(s.id, ErrorCode.TIMEOUT)
                              for s in fired if s.finished_at is not None]
        self.send("E", out, fired=True)
        for name, peer_engine in self.peers.items():
            self.send(name, peer_engine.tick(self.now), fired=True)

    @rule(which=st.integers(0, len(PEERS)))
    def cancel(self, which):
        live = tables(self.engine).live
        tid = live[which].id if which < len(live) else 12345
        self.send("E", self.engine.cancel(tid, now=self.now))

    @invariant()
    def next_deadline_is_the_live_minimum(self):
        expected = min((brute_deadline(s) for s in tables(self.engine).live), default=None)
        assert self.engine.next_deadline() == expected

    @invariant()
    def live_transfers_are_indexed_by_id(self):
        """The peer records and the id table agree (tables() checks it),
        transfer(id) returns each live state, and no two share an id."""
        for engine in (self.engine, *self.peers.values()):
            live = tables(engine).live
            assert len({s.id for s in live}) == len(live)
            for s in live:
                assert engine.transfer(s.id) is s

    @invariant()
    def tables_stay_bounded(self):
        """The heap holds at most twice the live count plus TIMER_SLACK
        entries, and the peer table at most RTT_CACHE_PEERS idle records."""
        for engine in (self.engine, *self.peers.values()):
            t = tables(engine)
            assert len(t.timers) <= 2 * len(t.live) + TIMER_SLACK
            assert len(t.idle) <= RTT_CACHE_PEERS

    @invariant()
    def done_senders_conserve_blocks(self):
        """Each DONE sender sent each block once, each listed loss once more
        and one block per probe."""
        for engine in (self.engine, *self.peers.values()):
            for s in tables(engine).ids.values():
                if isinstance(s, SenderState) and s.phase is SenderPhase.DONE:
                    assert s.counters.blocks_sent == s.counters.blocks_due(s.block_count)

    @invariant()
    def deadline_is_last_send_plus_rto(self):
        for engine in (self.engine, *self.peers.values()):
            for s in tables(engine).live:
                assert s.deadline() == s.last_sent + s.rto
                floor = PTO_MIN_MS if isinstance(s, SenderState) else RTO_MIN_MS
                interval = s.params.retransmit_interval_ms
                assert min(floor, interval) <= s.rto <= interval


class AdaptiveTimerOracle(TimerOracle):
    """TimerOracle with an interval above RTO_MIN_MS, and steps that reach it."""

    params = ADAPTIVE

    @rule(step=st.sampled_from([0.0, 1.0, 40.0, 199.0, 200.0, 400.0, 1000.0]))
    def tick(self, step):
        self.advance(step)


ORACLE_SETTINGS = settings(
    max_examples=150, stateful_step_count=60, deadline=None, derandomize=True,
    database=None, suppress_health_check=[HealthCheck.too_slow])
TimerOracle.TestCase.settings = ORACLE_SETTINGS
AdaptiveTimerOracle.TestCase.settings = ORACLE_SETTINGS
test_timer_oracle = TimerOracle.TestCase
test_adaptive_timer_oracle = AdaptiveTimerOracle.TestCase


@seed(3)
class TimerOracleSecondSeed(TimerOracle):
    """TimerOracle under a second fixed seed, so what one seed's examples
    miss another may reach: with the sender's old `>= block_count` ack check
    restored, this seed and the derandomized one both fail on a forged ack."""


TimerOracleSecondSeed.TestCase.settings = settings(ORACLE_SETTINGS, max_examples=100)
test_timer_oracle_second_seed = TimerOracleSecondSeed.TestCase


# --- cancel, scheduling, determinism -------------------------------------------


def test_cancel_notifies_peer_and_fails(announce):
    sender, receiver = make_pair()
    tid, wr, _ = announce(sender, "B", bytes(range(20)))
    receiver.packet_in("A", wr, now=1.0)
    out = sender.cancel(tid, now=2.0)
    [(_, err)] = out.packets
    assert err.code is ErrorCode.TIMEOUT and err.id == tid
    assert Errored(tid, ErrorCode.TIMEOUT) in out.events
    assert sender.transfer(tid).phase is SenderPhase.FAILED
    # the peer's receiver dies on the error packet
    out = receiver.packet_in("A", err, now=3.0)
    assert Errored(tid, ErrorCode.TIMEOUT) in out.events
    assert receiver.transfer(tid).phase is ReceiverPhase.FAILED
    # an id with no live transfer, unknown or settled, cancels nothing
    for unknown in (tid ^ 1, tid):
        out = sender.cancel(unknown, now=4.0)
        assert out.packets == [] and out.events == []


def test_start_transfer_refusals():
    sender = Engine(params=SMALL, rng=random.Random(2))
    sender.start_transfer("B", "x", bytes(20), now=0.0)
    with pytest.raises(BusyError):
        sender.start_transfer("B", "y", bytes(20), now=1.0)
    with pytest.raises(SizeExceededError):
        sender.start_transfer("C", "z", bytes(20),
                              params=TransferParameters(block_size=4, window_size=2,
                                                        max_transfer_size=10),
                              now=2.0)
    # an info the wire cannot carry is refused before anything goes live, so
    # the peer's one slot stays free; 32 two-byte characters still fit
    with pytest.raises(ValueError, match="info exceeds 64 UTF-8 bytes"):
        sender.start_transfer("C", "\u00e9" * 33, bytes(20), now=3.0)
    assert sender.live_transfer_with("C") is None
    sender.start_transfer("C", "\u00e9" * 32, bytes(20), now=4.0)


def test_scheduler_fifo_and_conditions():
    engine = Engine(params=SMALL, rng=random.Random(4))
    sched = TransferScheduler()
    connected = {"P1": True, "P2": False}
    sched.schedule_transfer(ScheduledTransfer("P1", "a", bytes(8)))
    sched.schedule_transfer(ScheduledTransfer("P1", "b", bytes(8)))
    sched.schedule_transfer(ScheduledTransfer("P2", "c", bytes(8)))
    oversize = TransferParameters(block_size=4, window_size=2, max_transfer_size=4)
    sched.schedule_transfer(ScheduledTransfer("P3", "d", bytes(8), params=oversize))

    started, out = sched.poll_scheduled(engine, lambda p: connected.get(p, False), now=0.0)
    # P1's first starts; P1's second waits (slot busy); P2 disconnected; P3 oversize dropped
    assert len(started) == 1
    assert engine.live_transfer_with("P1") == started[0]
    assert [e for e in out.events if isinstance(e, Errored)] == [Errored(0, ErrorCode.SIZE_EXCEEDED)]
    assert len(sched) == 2

    started2, _ = sched.poll_scheduled(engine, lambda p: connected.get(p, False), now=1.0)
    assert started2 == []  # P1 still busy, P2 still disconnected
    assert len(sched) == 2

    engine.cancel(started[0], now=2.0)
    connected["P2"] = True
    started3, _ = sched.poll_scheduled(engine, lambda p: connected.get(p, False), now=3.0)
    assert len(started3) == 2  # P1's second and P2's, FIFO respected
    assert engine.transfer(started3[0]).info == "b"
    assert engine.transfer(started3[1]).info == "c"
    assert len(sched) == 0


def test_scheduler_refuses_an_info_no_announcement_can_carry():
    """An info past INFO_MAX is refused when queued: in the queue it would make
    every poll raise after starting the requests ahead of it."""
    engine = Engine(params=SMALL, rng=random.Random(4))
    sched = TransferScheduler()
    sched.schedule_transfer(ScheduledTransfer("P1", "a", bytes(8)))
    with pytest.raises(ValueError, match="info exceeds"):
        sched.schedule_transfer(ScheduledTransfer("P2", "é" * 33, bytes(8)))  # 66 UTF-8 bytes
    sched.schedule_transfer(ScheduledTransfer("P3", "é" * 32, bytes(8)))  # 64: at the cap
    assert len(sched) == 2

    started, out = sched.poll_scheduled(engine, lambda p: True, now=0.0)
    assert [engine.transfer(tid).info for tid in started] == ["a", "é" * 32]
    assert sum(isinstance(p, WriteRequest) for _, p in out.packets) == 2
    assert len(sched) == 0


def test_identical_seeds_identical_bytes():
    def run():
        sender, receiver = make_pair(seed=42)
        data = bytes(i % 251 for i in range(100))
        tid, out = sender.start_transfer("B", "x", data, now=0.0)
        wire_log = []
        drop_first = {2: True}  # inside window 1 but not its closing block
        inbox = list(out.packets)
        now = 0.0
        while inbox:
            (to, packet), *inbox = inbox
            wire_log.append(encode_packet(packet))
            if isinstance(packet, Data) and drop_first.pop(packet.block_number, False):
                continue
            target = receiver if to == "B" else sender
            frm = "A" if to == "B" else "B"
            now += 1.0
            result = target.packet_in(frm, packet, now=now)
            inbox.extend(result.packets)
        return wire_log

    first, second = run(), run()
    assert first == second
    assert len(first) > 10
