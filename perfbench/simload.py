"""The two simulated workloads: one bulk transfer at a time, and many small ones.

Simulated-clock figures (goodput, completion percentiles, engine counters,
the analytic bound and the stall beyond it) are taken over a fixed number of
transfers, so that they depend on the seed alone; the wall-clock figures
cover everything run in the time budget. Import this module only after
common.use_sources().
"""

from __future__ import annotations

import random
import time

from blockfer import (Complete, Engine, Errored, LinkModel, SimClock, SimulatedLink,
                      TransferParameters, TransferScheduler, WriteRequest,
                      run_simulated_transfer)
from blockfer.engine import ScheduledTransfer
from blockfer.transport import sim

import spans
from common import (LINK_LATENCY_MS, LINK_LOSS, MiB, Tally, completion, conservation_error,
                    derive, median, own_peak_rss_mib)

BULK_SIZE = 8 * MiB          # the sweep's transfer size
BULK_POOL = 12 * MiB         # each payload is an 8 MiB slice of this at a seeded offset
BULK_FIXED = 130             # transfers behind the simulated-clock figures

SMALL_SIZE = 64 * 1024
SMALL_CLIENTS = 100
SMALL_PAYLOADS = 64          # distinct payloads the clients draw from
SMALL_FIXED = 3000           # completions behind the simulated-clock figures

SETUP_REPEATS = 15


def _bound_ms(total_windows: int) -> float:
    """Simulated time of a transfer with no stall: one round trip per window,
    plus one for the announcement."""
    return (total_windows + 1) * 2 * LINK_LATENCY_MS


def _record(sender, receiver, size: int) -> dict:
    duration = sender.finished_at - sender.started_at
    bound = _bound_ms(sender.total_windows)
    return {
        "bytes": size, "duration_ms": duration, "bound_ms": bound,
        "stall_ms": duration - bound, "block_count": sender.block_count,
        **vars(sender.counters),
        "ack_retransmits": receiver.counters.ack_retransmits,
        "duplicate_blocks": receiver.counters.duplicate_blocks,
    }


def engine_metrics(records) -> dict:
    """Per-transfer means of the engine's public counters over the fixed transfers."""
    n = len(records) or 1
    total = lambda key: sum(r[key] for r in records)  # noqa: E731
    sent = total("blocks_sent")
    return {
        "engine.blocks_sent": (sent / n, "count/transfer"),
        "engine.block_efficiency": (total("block_count") / sent if sent else 0.0, "share"),
        "engine.lost_blocks": (total("lost_blocks") / n, "count/transfer"),
        "engine.window_retransmits": (total("window_retransmits") / n, "count/transfer"),
        "engine.wr_retransmits": (total("wr_retransmits") / n, "count/transfer"),
        "engine.ack_retransmits": (total("ack_retransmits") / n, "count/transfer"),
        "engine.duplicate_blocks": (total("duplicate_blocks") / n, "count/transfer"),
        "engine.bound_s": (total("bound_ms") / n / 1000.0, "s/transfer"),
        "engine.stall_s": (total("stall_ms") / n / 1000.0, "s/transfer"),
    }


def summarize(tally: Tally, setups, peak_rss_mib: float, simulated_ms: float) -> dict:
    """End-to-end figures of a run.

    The goodput is the payload of the fixed transfers over the simulated
    time they took from the first start to the last settlement."""
    mib = tally.payload_bytes / MiB
    durations = [r["duration_ms"] for r in tally.records]
    simulated_s = simulated_ms / 1000.0
    return {
        "tally": tally,
        "e2e": {
            "wall_MiBps": mib / tally.wall_s if tally.wall_s > 0 else 0.0,
            "cpu_ms_per_MiB": tally.cpu_s * 1000.0 / mib if mib else 0.0,
            "goodput_MiBps": (sum(r["bytes"] for r in tally.records) / MiB / simulated_s
                              if simulated_s > 0 else 0.0),
            "peak_rss_MiB": peak_rss_mib,
            "setup_s": median(setups),
        },
        "completion": completion(durations),
    }


# --- sim_bulk_lossy ---------------------------------------------------------------


def _bulk_setup(seed: int):
    pool = random.Random(derive(seed, "bulk-pool")).randbytes(BULK_POOL)
    return pool, TransferParameters()


def _bulk_transfer(seed: int, index: int, pool: bytes, params, tally: Tally):
    offset = derive(seed, "bulk-offset", index) % (BULK_POOL - BULK_SIZE + 1)
    payload = pool[offset:offset + BULK_SIZE]
    model = LinkModel(loss_probability=LINK_LOSS, latency_base_ms=LINK_LATENCY_MS,
                      seed=derive(seed, "bulk-link", index))
    wall, cpu = time.perf_counter(), time.process_time()
    outcome = run_simulated_transfer(payload, model=model, params=params)
    tally.wall_s += time.perf_counter() - wall
    tally.cpu_s += time.process_time() - cpu

    label = f"bulk transfer {index}"
    ok = (tally.check(label, outcome.completed, f"did not complete ({outcome.error})")
          and tally.check(label, outcome.data == payload, "delivered bytes differ")
          and tally.check(label, not conservation_error(outcome.sender),
                          conservation_error(outcome.sender)))
    tally.settle(ok, len(payload))
    if ok:
        return _record(outcome.sender, outcome.receiver, len(payload))
    return None


def run_bulk(seed: int, seconds: float, traced_seconds: float = 0.0,
             fixed: int = BULK_FIXED) -> dict:
    """Back-to-back 8 MiB transfers, each on a fresh lossy link."""
    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        pool, params = _bulk_setup(seed)
        setups.append(time.perf_counter() - began)

    tally = Tally()
    rss = None
    started = time.perf_counter()
    index = 0
    while index < fixed or time.perf_counter() - started < seconds:
        record = _bulk_transfer(seed, index, pool, params, tally)
        if index < fixed and record is not None:
            tally.records.append(record)
        index += 1
        if index == fixed:
            rss = own_peak_rss_mib()

    # one transfer at a time: the simulated time elapsed is the sum of durations
    result = summarize(tally, setups, rss, sum(r["duration_ms"] for r in tally.records))
    if traced_seconds:
        def transfers(traced_tally):
            started = time.perf_counter()
            index = 0
            while index == 0 or time.perf_counter() - started < traced_seconds:
                _bulk_transfer(seed, index, pool, params, traced_tally)
                index += 1
        result["traced"] = _traced(transfers)
    return result


def _traced(drive) -> dict:
    """Run drive(tally) with every layer traced.

    The layers' shares are taken of the wall time inside the timed transfer
    calls, less the tracer's own bookkeeping, so that making payloads and
    checking them counts for no layer and not as driver time either."""
    tracer = spans.Tracer()
    traced_tally = Tally()
    restore = spans.install(tracer)
    try:
        drive(traced_tally)
    finally:
        restore()
        tracer.finish()
    summary = tracer.summary()
    summary["wall_s"] = traced_tally.wall_s - tracer.bookkeeping
    return {"tally": traced_tally, "summary": summary, "tracer": tracer,
            "wall_MiBps": traced_tally.payload_bytes / MiB / traced_tally.wall_s}


# --- sim_many_small ---------------------------------------------------------------


class ManySmall:
    """A closed loop of simulated clients sharing one sender and one receiver engine.

    Client c appears to the sender as peer ("B", c) and to the receiver as
    ("A", c), so each engine holds up to one live transfer per client. A
    client schedules its next transfer when its previous one settles; the
    scheduler starts it at once, at the same simulated instant.
    """

    def __init__(self, seed: int):
        draws = random.Random(derive(seed, "small-payloads"))
        self.payloads = [draws.randbytes(SMALL_SIZE) for _ in range(SMALL_PAYLOADS)]
        self.choice = random.Random(derive(seed, "small-choice"))
        self.clock = SimClock()
        self.link = SimulatedLink(
            LinkModel(loss_probability=LINK_LOSS, latency_base_ms=LINK_LATENCY_MS,
                      seed=derive(seed, "small-link")), self.clock)
        self.engines = {
            "A": Engine(rng=random.Random(derive(seed, "small-sender"))),
            "B": Engine(rng=random.Random(derive(seed, "small-receiver"))),
        }
        self.scheduler = TransferScheduler()
        self.next_payload: dict = {}   # client -> payload its queued transfer carries
        self.inflight: dict = {}       # transfer id -> (client, payload, sender state)
        self.receivers: dict = {}      # transfer id -> receiver state
        self.delivered: dict = {}      # transfer id -> bytes the receiver completed with
        self.fixed_at = 0.0            # simulated time of the fixed-th settlement
        self.rss_at_fixed = 0.0

    def queue(self, client: int) -> None:
        payload = self.payloads[self.choice.randrange(SMALL_PAYLOADS)]
        self.next_payload[client] = payload
        self.scheduler.schedule_transfer(
            ScheduledTransfer(peer=("B", client), info=f"client-{client}", data=payload))

    def run(self, seconds: float, tally: Tally, fixed: int = 0) -> None:
        """Drive the loop until `seconds` of wall time and `fixed` settlements."""
        engines, clock, link = self.engines, self.clock, self.link
        sender, receiver = engines["A"], engines["B"]
        connected = lambda peer: True  # noqa: E731
        settled = []  # (transfer id, ok) of the sender settlements in one batch

        def dispatch(side: str, out, now: float) -> None:
            for peer, packet in out.packets:
                link.send((side, peer[1]), peer, sim.encode_packet(packet), now)
            for event in out.events:
                if side == "B":
                    if isinstance(event, Complete):
                        self.delivered[event.id] = event.data
                elif isinstance(event, (Complete, Errored)):
                    settled.append((event.id, isinstance(event, Complete)))

        def start_queued(now: float) -> None:
            started, out = self.scheduler.poll_scheduled(sender, connected, now)
            for tid in started:
                state = sender.transfer(tid)
                client = state.peer[1]
                self.inflight[tid] = (client, self.next_payload.pop(client), state)
            dispatch("A", out, now)

        def finish(now: float) -> None:
            for tid, completed in settled:
                entry = self.inflight.pop(tid, None)
                if entry is None:
                    continue  # an Errored(0) refusal; nothing was started
                client, payload, state = entry
                data = self.delivered.pop(tid, None)
                receiver_state = self.receivers.pop(tid, None)
                label = f"small transfer {tid:#x}"
                ok = (tally.check(label, completed, "sender did not complete")
                      and tally.check(label, data == payload, "delivered bytes differ")
                      and tally.check(label, not conservation_error(state),
                                      conservation_error(state)))
                tally.settle(ok, len(payload))
                if tally.attempted <= fixed:
                    if ok:
                        tally.records.append(_record(state, receiver_state, len(payload)))
                    if tally.attempted == fixed:
                        self.fixed_at = now
                        self.rss_at_fixed = own_peak_rss_mib()
                self.queue(client)
            settled.clear()
            start_queued(now)

        wall, cpu = time.perf_counter(), time.process_time()
        for client in range(SMALL_CLIENTS):
            self.queue(client)
        start_queued(0.0)
        steps = 0
        while True:
            steps += 1
            if steps & 255 == 0 and tally.attempted >= fixed \
                    and time.perf_counter() - wall >= seconds:
                break
            deadline = sender.next_deadline()
            other = receiver.next_deadline()
            if deadline is None or (other is not None and other < deadline):
                deadline = other
            delivery_at = clock.peek_time()
            if delivery_at is not None and (deadline is None or delivery_at <= deadline):
                now, (dst, src, datagram) = clock.pop()
                packet = sim.decode_packet(datagram)
                engine = engines[dst[0]]
                dispatch(dst[0], engine.packet_in(src, packet, now=now), now)
                if dst[0] == "B" and isinstance(packet, WriteRequest) \
                        and packet.id not in self.receivers:
                    self.receivers[packet.id] = receiver.transfer(packet.id)
            elif deadline is not None:
                now = deadline
                dispatch("A", sender.tick(now), now)
                dispatch("B", receiver.tick(now), now)
            else:
                break
            if settled:
                finish(now)
        tally.wall_s += time.perf_counter() - wall
        tally.cpu_s += time.process_time() - cpu


def run_many_small(seed: int, seconds: float, traced_seconds: float = 0.0,
                   fixed: int = SMALL_FIXED) -> dict:
    """100 closed-loop clients, each sending 64 KiB transfers back to back."""
    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        world = ManySmall(seed)
        setups.append(time.perf_counter() - began)

    tally = Tally()
    world.run(seconds, tally, fixed)
    result = summarize(tally, setups, world.rss_at_fixed, world.fixed_at)
    del world
    if traced_seconds:
        world = ManySmall(seed)
        result["traced"] = _traced(lambda traced_tally: world.run(traced_seconds, traced_tally))
    return result
