"""Acceptance checks, one test per criterion.

Each test covers one numbered criterion end to end and finishes by printing
one "criterion N: PASS" line (visible with -s; pytest -v shows the same
verdict per test either way). Tolerances and budgets are pinned in the
asserts, not configurable.
"""

import random
import resource
import statistics
import time
from pathlib import Path

import pytest

from blockfer.bench import (
    ExperimentConfig,
    cell_seed,
    evaluate_large,
    sweep,
)
from blockfer.crypto import AuthenticationError, PeerKeyPair, SealedCipher
from blockfer.engine import (
    Engine,
    Errored,
    SizeExceededError,
    TransferParameters,
)
from blockfer.transport import LinkModel, run_simulated_transfer
from blockfer.wire import (
    Acknowledgement,
    Data,
    DecodeError,
    ErrorCode,
    ErrorPacket,
    WriteRequest,
    block_count_for,
    decode_packet,
    encode_packet,
)

GOLDEN = Path(__file__).parent / "golden" / "three_block_trace.txt"


def _passed(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})", flush=True)


def _trace_types(trace):
    out = []
    for line in trace:
        _, arrow, wire = line.split(" ")
        out.append((arrow, type(decode_packet(bytes.fromhex(wire)))))
    return out


def test_criterion_1_lossless_exactness():
    rng = random.Random(0xACC1)
    start = time.monotonic()
    for trial in range(50):
        size = 0 if trial == 0 else rng.randrange(1, 5_000_000 + 1)
        block = rng.randrange(200, 1201)
        window = rng.choice((1, 2, 4, 8, 16, 32, 64, 128, 256))
        params = TransferParameters(block_size=block, window_size=window)
        model = LinkModel(latency_base_ms=rng.uniform(0.0, 30.0), seed=trial)
        data = rng.randbytes(size)

        outcome = run_simulated_transfer(data, model, params,
                                         info=f"t{trial}", record_trace=True)
        assert outcome.completed and outcome.data == data

        kinds = _trace_types(outcome.trace)
        datas = sum(1 for a, k in kinds if k is Data and a == "A->B")
        acks = sum(1 for a, k in kinds if k is Acknowledgement and a == "B->A")
        blocks = block_count_for(size, block)
        assert datas == blocks, (trial, size, block, window)
        assert acks == block_count_for(blocks, window) + 1

        s, r = outcome.sender.counters, outcome.receiver.counters
        assert s.blocks_sent == blocks and s.lost_blocks == 0
        assert s.window_retransmits == 0 and s.wr_retransmits == 0
        assert r.ack_retransmits == 0 and r.duplicate_blocks == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passed(1, f"50 lossless transfers exact in {elapsed:.1f}s")


def test_criterion_2_loss_recovery_piggyback(sender_batches):
    rng = random.Random(0xACC2)
    start = time.monotonic()
    moved = 0
    for trial in range(200):
        size = rng.randrange(0, 2_000_000 + 1)
        model = LinkModel(
            loss_probability=rng.choice((0.05, 0.2)),
            latency_base_ms=rng.uniform(5.0, 30.0),
            latency_jitter_ms=rng.uniform(0.0, 30.0),
            reorder_probability=0.05,
            seed=trial)
        window = rng.choice((8, 16, 32, 64))
        params = TransferParameters(
            block_size=rng.randrange(600, 1201), window_size=window,
            retransmit_interval_ms=200.0, max_attempts=8)
        data = rng.randbytes(size)

        sender_batches.clear()
        outcome = run_simulated_transfer(data, model, params, info=f"t{trial}")
        assert outcome.completed, (trial, outcome.error)
        assert outcome.data == data
        moved += size

        # every block reported missing rides in the very next batch; the start
        # opens the first batch, with the announcement, and every ack the
        # sender accepts opens one, except the final ack
        (first, _), *opened = [(opener, blocks) for opener, blocks in sender_batches
                               if blocks]
        assert isinstance(first, WriteRequest), trial
        assert len(opened) == outcome.sender.counters.acks_received - 1, trial
        for ack, blocks in opened:
            assert set(ack.unreceived) <= set(blocks), trial
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _passed(2, f"200/200 lossy transfers intact, {moved} bytes in {elapsed:.1f}s")


def test_criterion_3_golden_trace():
    data = random.Random(9).randbytes(1800)  # exactly 3 blocks of 600
    model = LinkModel(latency_base_ms=10.0, seed=42)
    params = TransferParameters(block_size=600, window_size=4)
    outcome = run_simulated_transfer(data, model, params, info="golden",
                                     record_trace=True)
    assert outcome.completed and outcome.data == data

    # window 0 rides right behind the announcement: one round trip in all
    kinds = [k for _, k in _trace_types(outcome.trace)]
    assert kinds == [WriteRequest, Data, Data, Data, Acknowledgement,
                     Acknowledgement]
    assert outcome.duration_ms == 2 * model.latency_base_ms
    first = decode_packet(bytes.fromhex(outcome.trace[4].split(" ")[2]))
    last = decode_packet(bytes.fromhex(outcome.trace[-1].split(" ")[2]))
    assert (first.window_index, first.unreceived) == (0, ())
    assert (last.window_index, last.unreceived) == (1, ())

    stored = GOLDEN.read_text()
    assert "\n".join(outcome.trace) + "\n" == stored
    _passed(3, "3-block trace matches the stored log byte for byte")


def test_criterion_4_refusal_and_timeout():
    def wr(tid, size, block=1200, window=80):
        return WriteRequest(tid, "x", size, block, window,
                            block_count_for(size, block), nonce=7)

    # SIZE_EXCEEDED: announced size above the local cap is refused
    engine = Engine(params=TransferParameters(max_transfer_size=10_000),
                    rng=random.Random(1))
    out = engine.packet_in("p", wr(5, 10_001), now=0.0)
    assert [type(p) for _, p in out.packets] == [ErrorPacket]
    assert out.packets[0][1].code is ErrorCode.SIZE_EXCEEDED
    with pytest.raises(SizeExceededError):
        engine.start_transfer("q", "x", b"y" * 10_001, now=0.0)

    # BUSY: a second transfer on a pairing that already has a live one
    engine = Engine(params=TransferParameters(), rng=random.Random(2))
    assert not any(isinstance(p, ErrorPacket)
                   for _, p in engine.packet_in("p", wr(5, 600), now=0.0).packets)
    out = engine.packet_in("p", wr(6, 600), now=1.0)
    assert out.packets[-1][1].code is ErrorCode.BUSY

    # COLLISION: their WriteRequest crosses ours in flight
    engine = Engine(params=TransferParameters(), rng=random.Random(3))
    engine.start_transfer("p", "mine", b"z" * 600, now=0.0)
    out = engine.packet_in("p", wr(9, 600), now=1.0)
    assert out.packets[-1][1].code is ErrorCode.COLLISION

    # TIMEOUT: exactly max_attempts silent intervals, then downscale
    params = TransferParameters(window_size=80, retransmit_interval_ms=2000.0,
                                max_attempts=5)
    engine = Engine(params=params, rng=random.Random(4))
    tid, _ = engine.start_transfer("p", "x", b"z" * 5000, now=0.0)
    for k in range(1, 5):
        out = engine.tick(now=2000.0 * k)
        assert out.packets and not out.events, f"failed early at interval {k}"
    out = engine.tick(now=10_000.0)
    assert not out.packets  # no parting retransmit
    assert [e for e in out.events if isinstance(e, Errored)]
    assert out.events[-1].code is ErrorCode.TIMEOUT
    state = engine.transfer(tid)
    assert state.counters.wr_retransmits == 4
    assert state.retry_params.window_size == max(80 // 2, 16) == 40
    _passed(4, "SIZE_EXCEEDED, BUSY, COLLISION, TIMEOUT each asserted")


def test_criterion_5_sweep_block_size_monotonic(tmp_path):
    config = ExperimentConfig()  # full default grid
    cells = len(config.block_grid) * len(config.window_grid)
    assert cells == 56 and config.iterations == 5
    assert config.link.loss_probability == 0.01
    assert config.link.latency_base_ms == 20.0

    start = time.monotonic()
    rows = sweep(config, tmp_path / "sweep.csv")
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    assert len(rows) == 280
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 281  # header + one row per run
    assert all(row.completed for row in rows)

    cells: dict = {}
    for row in rows:
        cells.setdefault((row.block_size, row.window_size), []).append(row)
    means = {cell: statistics.fmean([r.throughput_Bps for r in runs if r.completed] or [0.0])
             for cell, runs in cells.items()}
    for w in config.window_grid:
        curve = [means[(b, w)] for b in config.block_grid]
        assert curve == sorted(curve), f"throughput dips with B at W={w}"

    # window curve at the largest block size: exploratory, not asserted
    shape = {w: round(means[(1200, w)] / 1e6, 2) for w in config.window_grid}
    _passed(5, f"280 rows in {elapsed:.0f}s, monotone in B; W curve {shape}")


def test_criterion_6_large_transfer():
    size = 250 * 2**20

    report = evaluate_large(data_size=size, block_size=1200, window_size=80,
                            repetitions=1, mode="loopback", seed=2)
    assert all(s.completed for s in report.stats)
    assert report.total_retx_windows == 0

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert peak < 2.5 * 2**30  # data plus bookkeeping, not data squared

    lossy = LinkModel(loss_probability=2.6e-4, latency_base_ms=20.0)
    report = evaluate_large(data_size=size, block_size=1200, window_size=80,
                            repetitions=1, mode="sim", link=lossy, seed=2)
    stats = report.stats[0]
    assert stats.completed
    blocks = block_count_for(size, 1200)
    assert blocks == 218_454
    assert 20 <= report.total_lost_blocks <= 120, report.total_lost_blocks
    _passed(6, f"loopback clean, sim lost {report.total_lost_blocks} "
               f"of {blocks} blocks")


def test_criterion_7_codec_and_cipher_fuzz():
    rng = random.Random(0xACC7)

    def valid_packet():
        kind = rng.randrange(4)
        tid = rng.randrange(1, 2**64)
        if kind == 0:
            block = rng.randrange(1, 1201)
            size = rng.randrange(0, 2**32)  # keeps block_count inside u32
            return WriteRequest(
                tid, "f" * rng.randrange(0, 65), size, block,
                rng.randrange(1, 2**32), block_count_for(size, block),
                nonce=rng.randrange(2**64),
                metadata=rng.randbytes(rng.randrange(0, 513)))
        if kind == 1:
            listed = sorted(rng.sample(range(2**32), rng.randrange(0, 306)))
            return Acknowledgement(tid, rng.randrange(2**32), tuple(listed))
        if kind == 2:
            return Data(tid, rng.randrange(2**32),
                        rng.randbytes(rng.randrange(0, 1201)))
        return ErrorPacket(tid, ErrorCode(rng.randrange(6)),
                           "m" * rng.randrange(0, 129))

    for _ in range(10_000):
        packet = valid_packet()
        assert decode_packet(encode_packet(packet)) == packet

    for i in range(10_000):
        raw = rng.randbytes(rng.randrange(0, 1400))
        if i % 2:  # half get a plausible prefix to reach deeper paths
            raw = b"\xeb\x01\x01" + bytes([rng.randrange(8)]) + raw
        try:
            packet = decode_packet(raw)
        except DecodeError:
            continue
        assert encode_packet(packet) == raw

    ours, theirs = PeerKeyPair.generate(), PeerKeyPair.generate()
    sender = SealedCipher(ours, theirs.public_key)
    opener = SealedCipher(theirs, ours.public_key)
    for length in range(0, 1301):
        plain = rng.randbytes(length)
        sealed = sender.seal(plain)
        assert opener.open(sealed) == plain
        spot = rng.randrange(len(sealed))
        tampered = bytearray(sealed)
        tampered[spot] ^= 1 + rng.randrange(255)
        with pytest.raises(AuthenticationError):
            opener.open(bytes(tampered))
    _passed(7, "10k roundtrips, 10k fuzz inputs, 1301 sealed lengths")


def test_criterion_8_determinism(tmp_path):
    params = TransferParameters(block_size=800, window_size=16,
                                retransmit_interval_ms=200.0, max_attempts=8)
    model = LinkModel(loss_probability=0.1, latency_base_ms=12.0,
                      latency_jitter_ms=6.0, reorder_probability=0.05,
                      duplicate_probability=0.01, seed=123)
    data = random.Random(5).randbytes(300_000)
    first = run_simulated_transfer(data, model, params, record_trace=True)
    second = run_simulated_transfer(data, model, params, record_trace=True)
    assert first.completed and second.completed
    assert first.trace == second.trace
    assert first.duration_ms == second.duration_ms

    config = ExperimentConfig(block_grid=(600, 1200), window_grid=(16,),
                              iterations=2, data_size=100_000,
                              link=LinkModel(loss_probability=0.03,
                                             latency_base_ms=5.0),
                              seed=11, interval_ms=200.0, max_attempts=8)
    sweep(config, tmp_path / "a.csv")
    sweep(config, tmp_path / "b.csv")
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert cell_seed(11, 600, 16, 0) == cell_seed(11, 600, 16, 0)
    _passed(8, "traces and CSV byte-identical across reruns")
