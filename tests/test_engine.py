"""State machine tests that hand-drive two engines packet by packet.

Expected packet sequences in the walkthroughs were worked out by hand from
the window rules, then asserted literally.
"""

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from blockfer.engine import (
    TIMER_SLACK,
    Complete,
    Engine,
    Errored,
    Progress,
    ReceiverPhase,
    ScheduledTransfer,
    SenderPhase,
    SenderState,
    SizeExceededError,
    BusyError,
    TransferParameters,
    TransferRefused,
    TransferScheduler,
)
from blockfer.wire import (
    Acknowledgement,
    Data,
    ErrorCode,
    ErrorPacket,
    WriteRequest,
    block_count_for,
    encode_packet,
)

SMALL = TransferParameters(block_size=4, window_size=2, retransmit_interval_ms=2000,
                           max_attempts=5, min_window=1)


def make_pair(params=SMALL, seed=1):
    return Engine(params=params, rng=random.Random(seed)), Engine(params=params, rng=random.Random(seed + 99))


def data_packets(out):
    return [p for _, p in out.packets if isinstance(p, Data)]


def acks(out):
    return [p for _, p in out.packets if isinstance(p, Acknowledgement)]


def pump(sender, receiver, out, now=0.0, drop=None, allow_ticks=False):
    """Deliver every emitted packet to the other engine until quiet.

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
    params = TransferParameters(window_size=80, min_window=16)
    seen = [params.window_size]
    for _ in range(6):
        params = params.downscaled()
        seen.append(params.window_size)
    assert seen == [80, 40, 20, 16, 16, 16, 16]
    # strictly decreasing until the clamp, then fixed
    assert TransferParameters(window_size=16, min_window=16).downscaled().window_size == 16
    assert TransferParameters(window_size=17, min_window=16).downscaled().window_size == 16
    assert TransferParameters(window_size=33, min_window=16).downscaled().window_size == 16


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
    with pytest.raises(ValueError):
        TransferParameters(max_attempts=0)
    with pytest.raises(ValueError):
        TransferParameters(min_window=0)
    with pytest.raises(ValueError):
        TransferParameters(window_size=8, min_window=9)


# --- lossless walkthrough ----------------------------------------------------


def test_lossless_five_block_walkthrough():
    sender, receiver = make_pair()
    data = bytes(range(20))  # 5 blocks of 4, 3 windows of 2

    tid, out = sender.start_transfer("B", "demo", data, now=0.0)
    [(to, wr)] = out.packets
    assert to == "B"
    assert wr == WriteRequest(id=tid, info="demo", data_size=20, block_size=4,
                              window_size=2, block_count=5, nonce=wr.nonce)
    out = receiver.packet_in("A", wr, now=1.0)
    assert acks(out) == [Acknowledgement(id=tid, window_index=0, unreceived=())]
    assert receiver.transfer(tid).phase is ReceiverPhase.RECEIVING

    out = sender.packet_in("B", acks(out)[0], now=2.0)
    assert data_packets(out) == [Data(tid, 0, data[0:4]), Data(tid, 1, data[4:8])]
    assert sender.transfer(tid).window_index == 1

    out1 = receiver.packet_in("A", data_packets(out)[0], now=3.0)
    assert out1.packets == [] and out1.events == [Progress(tid, 1, 5)]
    out2 = receiver.packet_in("A", data_packets(out)[1], now=3.5)
    assert acks(out2) == [Acknowledgement(tid, 1, ())]
    assert out2.events == [Progress(tid, 2, 5)]

    out = sender.packet_in("B", acks(out2)[0], now=4.0)
    assert data_packets(out) == [Data(tid, 2, data[8:12]), Data(tid, 3, data[12:16])]
    receiver.packet_in("A", data_packets(out)[0], now=5.0)
    out = receiver.packet_in("A", data_packets(out)[1], now=5.5)
    assert acks(out) == [Acknowledgement(tid, 2, ())]

    out = sender.packet_in("B", acks(out)[0], now=6.0)
    assert data_packets(out) == [Data(tid, 4, data[16:20])]

    out = receiver.packet_in("A", data_packets(out)[0], now=7.0)
    assert acks(out) == [Acknowledgement(tid, 3, ())]
    assert out.events == [Progress(tid, 5, 5), Complete(tid, data=data)]
    assert receiver.transfer(tid).phase is ReceiverPhase.DONE

    out = sender.packet_in("B", acks(out)[0], now=8.0)
    assert out.events == [Complete(tid, sent=True)]
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
        params = TransferParameters(block_size=block, window_size=window, min_window=1)
        sender, receiver = make_pair(params, seed=rng.randrange(10**6))
        data = rng.randbytes(size)
        tid, out = sender.start_transfer("B", "x", data, now=0.0)
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
        assert Complete(tid, sent=True) in events
        # progress is monotonic and complete happens exactly once per side
        progresses = [e.received_blocks for e in events if isinstance(e, Progress)]
        assert progresses == sorted(progresses)
        assert len([e for e in events if isinstance(e, Complete)]) == 2


# --- loss, piggybacking, drain ----------------------------------------------


def test_dropped_block_rides_next_window():
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
    # ack closing window 0 listed block 0; the window 1 batch carried it
    assert s.ack_log[1].unreceived == (0,)
    assert s.batch_log[1].blocks == (0, 2, 3)
    assert Complete(tid, data=data) in events


def test_last_window_drain():
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
    assert s.ack_log[-2].unreceived == (2,)
    assert s.batch_log[-1].blocks == (2,)
    assert Complete(tid, data=data) in events
    assert receiver.transfer(tid).phase is ReceiverPhase.DONE


def test_every_listed_block_is_in_the_next_batch():
    rng = random.Random(21)
    params = TransferParameters(block_size=8, window_size=4, min_window=1)
    for _ in range(10):
        sender, receiver = make_pair(params, seed=rng.randrange(10**6))
        data = rng.randbytes(rng.randrange(100, 1200))
        tid, out = sender.start_transfer("B", "x", data, now=0.0)
        pump(sender, receiver, out, allow_ticks=True,
             drop=lambda p: isinstance(p, Data) and rng.random() < 0.25)
        s = sender.transfer(tid)
        assert s.phase is SenderPhase.DONE
        assert len(s.batch_log) == len(s.ack_log) - 1  # final ack opens no batch
        for ack, batch in zip(s.ack_log, s.batch_log):
            assert ack.window_index == batch.window_index
            assert set(ack.unreceived) <= set(batch.blocks)
        assert receiver.transfer(tid).data == data


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
    assert out.events == [Complete(tid, sent=True)]
    assert sender.transfer(tid).phase is SenderPhase.DONE


def test_duplicate_write_request_is_idempotent():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
    first = acks(receiver.packet_in("A", wr, now=1.0))
    again = acks(receiver.packet_in("A", wr, now=2.0))
    assert first == again == [Acknowledgement(tid, 0, ())]
    # no duplicate receiver state, no extra callbacks
    assert receiver.transfer(tid).phase is ReceiverPhase.RECEIVING


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
    ):
        out = receiver.packet_in("A", wr, now=0.0)
        [(_, err)] = out.packets
        assert isinstance(err, ErrorPacket) and err.code is ErrorCode.SIZE_EXCEEDED


def test_busy_second_transfer_same_peer():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(20), now=0.0)
    [(_, wr)] = out.packets
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


def test_collision_crossing_write_requests():
    a, b = make_pair()
    tid_a, out_a = a.start_transfer("B", "x", bytes(20), now=0.0)
    tid_b, out_b = b.start_transfer("A", "y", bytes(20), now=0.0)
    [(_, wr_a)] = out_a.packets
    [(_, wr_b)] = out_b.packets
    # each side sees the other's request while awaiting its own first ack
    out = a.packet_in("B", wr_b, now=1.0)
    [(_, err_a)] = out.packets
    assert err_a.code is ErrorCode.COLLISION and err_a.id == tid_b
    out = b.packet_in("A", wr_a, now=1.0)
    [(_, err_b)] = out.packets
    assert err_b.code is ErrorCode.COLLISION and err_b.id == tid_a
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
    out = engine.packet_in("A", Data(id=77, block_number=0, payload=b"abcd"), now=0.0)
    assert out.packets == [("A", ErrorPacket(77, ErrorCode.UNKNOWN_TRANSFER, "no transfer 77"))]
    out = engine.packet_in("A", Acknowledgement(id=78, window_index=0), now=0.0)
    [(_, err)] = out.packets
    assert err.code is ErrorCode.UNKNOWN_TRANSFER
    # errors about unknown ids are swallowed, not answered (no loops)
    out = engine.packet_in("A", ErrorPacket(id=79, code=ErrorCode.BUSY), now=0.0)
    assert out.packets == [] and out.events == []


def test_duplicate_block_no_double_progress():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    out = sender.packet_in("B", ack0, now=2.0)
    block0 = data_packets(out)[0]
    first = receiver.packet_in("A", block0, now=3.0)
    assert first.events == [Progress(tid, 1, 5)]
    second = receiver.packet_in("A", block0, now=4.0)
    assert second.events == [] and second.packets == []
    assert receiver.transfer(tid).counters.duplicate_blocks == 1


def test_early_block_stored_quietly():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(16)), now=0.0)  # 4 blocks
    [(_, wr)] = out.packets
    receiver.packet_in("A", wr, now=1.0)
    out = receiver.packet_in("A", Data(tid, 2, bytes(range(8, 12))), now=2.0)
    assert acks(out) == []  # stored, but window 0 is still open
    assert out.events == [Progress(tid, 1, 4)]
    receiver.packet_in("A", Data(tid, 0, bytes(range(0, 4))), now=3.0)
    out = receiver.packet_in("A", Data(tid, 1, bytes(range(4, 8))), now=4.0)
    assert acks(out) == [Acknowledgement(tid, 1, ())]  # nothing missing below boundary
    out = receiver.packet_in("A", Data(tid, 3, bytes(range(12, 16))), now=5.0)
    assert acks(out) == [Acknowledgement(tid, 2, ())]
    assert receiver.transfer(tid).phase is ReceiverPhase.DONE


def test_stale_ack_ignored_but_resets_attempts():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
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


def test_wrong_payload_length_fails_transfer():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
    receiver.packet_in("A", wr, now=1.0)
    out = receiver.packet_in("A", Data(tid, 0, b"toolong-"), now=2.0)
    [(_, err)] = out.packets
    assert err.code is ErrorCode.DECODE_FAILURE
    assert receiver.transfer(tid).phase is ReceiverPhase.FAILED
    assert Errored(tid, ErrorCode.DECODE_FAILURE) in out.events


def test_out_of_range_block_number_fails_transfer():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
    receiver.packet_in("A", wr, now=1.0)
    out = receiver.packet_in("A", Data(tid, 5, b"abcd"), now=2.0)
    [(_, err)] = out.packets
    assert err.code is ErrorCode.DECODE_FAILURE
    assert receiver.transfer(tid).phase is ReceiverPhase.FAILED


def test_done_receiver_reacks_duplicate_data():
    sender, receiver = make_pair()
    data = bytes(range(8))  # 2 blocks, 1 window
    tid, out = sender.start_transfer("B", "x", data, now=0.0)
    [(_, wr)] = out.packets
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    out = sender.packet_in("B", ack0, now=2.0)
    for d in data_packets(out):
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

    # another address reusing the id gets no final ack for A's transfer
    out = receiver.packet_in("C", Data(tid, 0, data[:4]), now=1.0)
    assert out.packets == [("C", ErrorPacket(tid, ErrorCode.UNKNOWN_TRANSFER,
                                             f"no transfer {tid}"))]
    # a live transfer with the same id is preferred over the finished one
    wr = WriteRequest(tid, "y", len(data), 4, 2, 2, nonce=1)
    receiver.packet_in("C", wr, now=2.0)
    live = receiver.transfer(tid)
    assert live is not finished and live.peer == "C" and live.finished_at is None
    # once it settles, the newer record replaces the older one
    for d in (Data(tid, 0, data[:4]), Data(tid, 1, data[4:])):
        out = receiver.packet_in("C", d, now=3.0)
    assert Complete(tid, data=data) in out.events
    assert receiver.transfer(tid) is live


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
    # downscaled retry parameters attached: 2 -> max(1, min_window=1)
    assert state.retry_params is not None
    assert state.retry_params.window_size == 1


def test_window_timeout_retransmits_pending_batch():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
    ack0 = acks(receiver.packet_in("A", wr, now=1.0))[0]
    out = sender.packet_in("B", ack0, now=2.0)
    assert [d.block_number for d in data_packets(out)] == [0, 1]
    state = sender.transfer(tid)

    out = sender.tick(now=2001.9)
    assert out.packets == []
    out = sender.tick(now=2002.0)  # last_send_time=2.0 + interval
    assert [d.block_number for d in data_packets(out)] == [0, 1]
    assert state.counters.window_retransmits == 1
    assert state.counters.window_retransmit_blocks == 2
    assert state.counters.blocks_sent == 4
    assert state.attempts_left == 4


def test_receiver_timeout_and_reack():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
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


TIMED = TransferParameters(block_size=4, window_size=2, retransmit_interval_ms=100.0,
                           max_attempts=3, min_window=1)
PEERS = ["P0", "P1", "P2", "P3"]


def brute_deadline(state):
    if isinstance(state, SenderState):
        return state.last_send_time + state.params.retransmit_interval_ms
    return state.last_ack_time + state.interval_ms


class TimerOracle(RuleBasedStateMachine):
    """Engine "E" against peer engines over a wire that drops, duplicates and
    reorders at will, checking the timer heap against a scan of the live table."""

    def __init__(self):
        super().__init__()
        self.engine = Engine(params=TIMED, rng=random.Random(5))
        self.peers = {p: Engine(params=TIMED, rng=random.Random(10 + i))
                      for i, p in enumerate(PEERS)}
        self.wire = []  # (src, dst, packet) in flight
        self.now = 0.0

    def send(self, src, out):
        self.wire.extend((src, dst, packet) for dst, packet in out.packets)

    @rule(peer=st.sampled_from(PEERS), size=st.integers(0, 24), outbound=st.booleans())
    def start(self, peer, size, outbound):
        src, dst, engine = ("E", peer, self.engine) if outbound else (peer, "E", self.peers[peer])
        try:
            _, out = engine.start_transfer(dst, "x", bytes(size), now=self.now)
        except TransferRefused:
            return
        self.send(src, out)

    @rule(index=st.integers(0, 1000), copies=st.sampled_from([0, 1, 1, 1, 2, 20]))
    def packet_in(self, index, copies):
        """Deliver a packet `copies` times: 0 drops it, more than 1 replays it."""
        if not self.wire:
            return
        src, dst, packet = self.wire.pop(index % len(self.wire))
        engine = self.engine if dst == "E" else self.peers[dst]
        for _ in range(copies):
            self.send(dst, engine.packet_in(src, packet, now=self.now))

    @rule(step=st.sampled_from([0.0, 1.0, 40.0, 99.0, 100.0, 250.0]))
    def tick(self, step):
        self.now += step
        live = list(self.engine._live.values())
        attempts = [s.attempts_left for s in live]
        due = [s for s in live if brute_deadline(s) <= self.now]
        out = self.engine.tick(self.now)
        # firing costs an attempt; nothing else a tick does touches attempts
        assert [s for s, a in zip(live, attempts) if s.attempts_left != a] == due
        # fired in live-table order: each survivor sends to its own peer, each
        # failure emits Errored, and no two live transfers share a peer
        runs = [peer for k, (peer, _) in enumerate(out.packets)
                if k == 0 or out.packets[k - 1][0] != peer]
        assert runs == [s.peer for s in due if s.finished_at is None]
        assert out.events == [Errored(s.id, ErrorCode.TIMEOUT)
                              for s in due if s.finished_at is not None]
        self.send("E", out)
        for name, peer_engine in self.peers.items():
            self.send(name, peer_engine.tick(self.now))

    @rule(which=st.integers(0, len(PEERS)))
    def cancel(self, which):
        live = list(self.engine._live.values())
        tid = live[which].id if which < len(live) else 12345
        self.send("E", self.engine.cancel(tid, now=self.now))

    @invariant()
    def next_deadline_is_the_live_minimum(self):
        expected = min((brute_deadline(s) for s in self.engine._live.values()), default=None)
        assert self.engine.next_deadline() == expected

    @invariant()
    def timer_heap_stays_bounded(self):
        assert len(self.engine._timers) <= 2 * len(self.engine._live) + TIMER_SLACK


TimerOracle.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None, derandomize=True,
    database=None, suppress_health_check=[HealthCheck.too_slow])
test_timer_oracle = TimerOracle.TestCase


# --- cancel, scheduling, determinism -------------------------------------------


def test_cancel_notifies_peer_and_fails():
    sender, receiver = make_pair()
    tid, out = sender.start_transfer("B", "x", bytes(range(20)), now=0.0)
    [(_, wr)] = out.packets
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


def test_start_transfer_refusals():
    sender = Engine(params=SMALL, rng=random.Random(2))
    sender.start_transfer("B", "x", bytes(20), now=0.0)
    with pytest.raises(BusyError):
        sender.start_transfer("B", "y", bytes(20), now=1.0)
    with pytest.raises(SizeExceededError):
        sender.start_transfer("C", "z", bytes(20),
                              params=TransferParameters(block_size=4, window_size=2,
                                                        max_transfer_size=10, min_window=1),
                              now=2.0)


def test_scheduler_fifo_and_conditions():
    engine = Engine(params=SMALL, rng=random.Random(4))
    sched = TransferScheduler()
    connected = {"P1": True, "P2": False}
    sched.schedule_transfer(ScheduledTransfer("P1", "a", bytes(8)))
    sched.schedule_transfer(ScheduledTransfer("P1", "b", bytes(8)))
    sched.schedule_transfer(ScheduledTransfer("P2", "c", bytes(8)))
    oversize = TransferParameters(block_size=4, window_size=2, max_transfer_size=4, min_window=1)
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
