"""Parameter sweeps and large-transfer evaluation over simulated or real links.

A sweep runs one transfer per (block size, window size, iteration) cell on a
fresh simulated link whose seed is derived from the cell coordinates, so any
cell can be reproduced in isolation and a re-run yields a byte-identical
CSV. Metrics come straight from the engine counters rather than parsed logs.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, replace
from typing import Optional

from .engine import TransferParameters
from .transport import LinkModel, run_loopback_transfer, run_simulated_transfer
from .wire import block_count_for

CSV_HEADER = ("B,W,iteration,seed,duration_ms,throughput_Bps,"
              "lost_blocks,retx_windows,retx_acks,completed")

DEFAULT_BLOCK_GRID = (600, 700, 800, 900, 1000, 1100, 1200)
DEFAULT_WINDOW_GRID = (16, 32, 48, 64, 80, 96, 112, 128)
DEFAULT_SWEEP_LINK = LinkModel(loss_probability=0.01, latency_base_ms=20.0)

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def cell_seed(seed: int, block_size: int, window_size: int, iteration: int) -> int:
    """Stable 64-bit seed for one sweep cell, well spread across the grid."""
    mixed = _splitmix64(seed ^ (block_size << 32))
    mixed = _splitmix64(mixed ^ (window_size << 16))
    return _splitmix64(mixed ^ iteration)


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep grid plus the link and transfer tunables shared by its cells."""

    # 8 MiB per transfer and a 100 ms interval keep the RTT-per-window signal
    # well above timeout-stall noise, so per-cell means order cleanly by B
    block_grid: tuple = DEFAULT_BLOCK_GRID
    window_grid: tuple = DEFAULT_WINDOW_GRID
    iterations: int = 5
    data_size: int = 8 * 2**20
    link: LinkModel = DEFAULT_SWEEP_LINK
    seed: int = 0
    interval_ms: float = 100.0
    max_attempts: int = 5

    def __post_init__(self):
        if not self.block_grid or not self.window_grid:
            raise ValueError("parameter grids must not be empty")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.data_size < 0:
            raise ValueError("data_size must not be negative")

    def cells(self):
        for block_size in self.block_grid:
            for window_size in self.window_grid:
                for iteration in range(self.iterations):
                    yield block_size, window_size, iteration


@dataclass(frozen=True)
class TransferStats:
    """One transfer's metrics: speed, loss, and retransmission counts."""

    block_size: int
    window_size: int
    iteration: int
    seed: int
    duration_ms: float
    throughput_Bps: float
    lost_blocks: int
    retx_windows: int
    retx_acks: int
    blocks_sent: int
    completed: bool

    def csv_row(self) -> str:
        return (f"{self.block_size},{self.window_size},{self.iteration},"
                f"{self.seed},{self.duration_ms:.3f},{self.throughput_Bps:.1f},"
                f"{self.lost_blocks},{self.retx_windows},{self.retx_acks},"
                f"{1 if self.completed else 0}")

    @classmethod
    def from_csv_row(cls, line: str) -> "TransferStats":
        # blocks_sent is not serialized; resumed rows carry 0 there
        b, w, it, seed, dur, tput, lost, rw, ra, done = line.strip().split(",")
        return cls(block_size=int(b), window_size=int(w), iteration=int(it),
                   seed=int(seed), duration_ms=float(dur), throughput_Bps=float(tput),
                   lost_blocks=int(lost), retx_windows=int(rw), retx_acks=int(ra),
                   blocks_sent=0, completed=done == "1")


def _params_for(config: ExperimentConfig, block_size: int,
                window_size: int) -> TransferParameters:
    return TransferParameters(
        block_size=block_size, window_size=window_size,
        retransmit_interval_ms=config.interval_ms,
        max_attempts=config.max_attempts,
        min_window=min(16, window_size))


def _stats_from(outcome, data_size: int, block_size: int, window_size: int,
                iteration: int, seed: int) -> TransferStats:
    sender = outcome.sender.counters
    receiver = outcome.receiver.counters if outcome.receiver is not None else None
    if outcome.completed:
        expected = block_count_for(data_size, block_size) \
            + sender.lost_blocks + sender.window_retransmit_blocks
        if sender.blocks_sent != expected:
            raise RuntimeError(
                f"block conservation violated: sent {sender.blocks_sent}, "
                f"expected {expected}")
    throughput = 0.0
    if outcome.completed and outcome.duration_ms > 0:
        throughput = data_size / (outcome.duration_ms / 1000.0)
    return TransferStats(
        block_size=block_size, window_size=window_size, iteration=iteration,
        seed=seed, duration_ms=outcome.duration_ms, throughput_Bps=throughput,
        lost_blocks=sender.lost_blocks, retx_windows=sender.window_retransmits,
        retx_acks=receiver.ack_retransmits if receiver is not None else 0,
        blocks_sent=sender.blocks_sent, completed=outcome.completed)


def run_experiment(config: ExperimentConfig, block_size: int, window_size: int,
                   iteration: int) -> TransferStats:
    """Run one cell to completion or failure on a fresh simulated link."""
    seed = cell_seed(config.seed, block_size, window_size, iteration)
    data = random.Random(config.seed).randbytes(config.data_size)
    outcome = run_simulated_transfer(
        data, replace(config.link, seed=seed),
        _params_for(config, block_size, window_size),
        info=f"cell-{block_size}-{window_size}-{iteration}")
    return _stats_from(outcome, config.data_size, block_size, window_size,
                       iteration, seed)


def sweep(config: ExperimentConfig, csv_path) -> list:
    """Run the whole grid, writing one CSV row per cell iteration.

    Cells already present in the file are not re-run, so an interrupted
    sweep resumes where it stopped; a complete file is left as is. Rows are
    written in grid order regardless of interruption, and identical seeds
    produce identical bytes.
    """
    existing: dict = {}
    try:
        with open(csv_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if lines and lines[0] == CSV_HEADER:
            for line in lines[1:]:
                try:
                    row = TransferStats.from_csv_row(line)
                except ValueError:
                    continue  # torn tail line from an interrupted run
                existing[(row.block_size, row.window_size, row.iteration)] = row
    except FileNotFoundError:
        pass

    rows = []
    fresh = 0
    for block_size, window_size, iteration in config.cells():
        row = existing.get((block_size, window_size, iteration))
        if row is None:
            row = run_experiment(config, block_size, window_size, iteration)
            fresh += 1
        rows.append(row)
    if fresh or len(existing) != len(rows):
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(CSV_HEADER + "\n")
            for row in rows:
                handle.write(row.csv_row() + "\n")
    return rows


def summarize(rows) -> str:
    """Aligned per-cell means over completed runs, one line per (B, W)."""
    cells: dict = {}
    for row in rows:
        cells.setdefault((row.block_size, row.window_size), []).append(row)
    lines = [f"{'B':>5} {'W':>4} {'runs':>4} {'ok':>4} {'mean_ms':>12} "
             f"{'mean_Bps':>14} {'lost':>8} {'retx_w':>7} {'retx_a':>7}"]
    for (block_size, window_size), cell in cells.items():
        done = [r for r in cell if r.completed]
        def mean(pick):
            return statistics.fmean(pick(r) for r in done) if done else 0.0
        lines.append(
            f"{block_size:>5} {window_size:>4} {len(cell):>4} {len(done):>4} "
            f"{mean(lambda r: r.duration_ms):>12.3f} "
            f"{mean(lambda r: r.throughput_Bps):>14.1f} "
            f"{mean(lambda r: r.lost_blocks):>8.1f} "
            f"{mean(lambda r: r.retx_windows):>7.1f} "
            f"{mean(lambda r: r.retx_acks):>7.1f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class LargeEvalReport:
    """Aggregate of repeated identical large transfers."""

    stats: tuple
    mean_throughput_Bps: float
    min_throughput_Bps: float
    max_throughput_Bps: float
    total_lost_blocks: int
    total_retx_windows: int
    total_retx_acks: int

    def text(self) -> str:
        done = sum(1 for s in self.stats if s.completed)
        return "\n".join([
            f"transfers            {len(self.stats)} ({done} completed)",
            f"throughput mean Bps  {self.mean_throughput_Bps:.1f}",
            f"throughput min Bps   {self.min_throughput_Bps:.1f}",
            f"throughput max Bps   {self.max_throughput_Bps:.1f}",
            f"lost blocks total    {self.total_lost_blocks}",
            f"window retransmits   {self.total_retx_windows}",
            f"ack retransmits      {self.total_retx_acks}",
        ])


def evaluate_large(data_size: int = 250 * 2**20, block_size: int = 1200,
                   window_size: int = 80, repetitions: int = 10,
                   mode: str = "sim", link: Optional[LinkModel] = None,
                   interval_ms: float = 2000.0, max_attempts: int = 5,
                   seed: int = 0) -> LargeEvalReport:
    """Repeat one large transfer and aggregate its stats.

    mode "sim" runs over a simulated link (lossless unless given), "loopback"
    over two real UDP sockets on this host. A lossless simulated link cannot
    legitimately retransmit a window, so that is enforced here.
    """
    if mode not in ("sim", "loopback"):
        raise ValueError(f"unknown mode {mode!r}")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    link = link if link is not None else LinkModel()
    params = TransferParameters(
        block_size=block_size, window_size=window_size,
        retransmit_interval_ms=interval_ms, max_attempts=max_attempts,
        min_window=min(16, window_size))
    data = random.Random(seed).randbytes(data_size)

    collected = []
    for rep in range(repetitions):
        rep_seed = cell_seed(seed, block_size, window_size, rep)
        if mode == "sim":
            outcome = run_simulated_transfer(
                data, replace(link, seed=rep_seed), params, info=f"eval-{rep}")
        else:
            outcome = run_loopback_transfer(data, params, info=f"eval-{rep}",
                                            seed=rep_seed)
        stats = _stats_from(outcome, data_size, block_size, window_size,
                            rep, rep_seed)
        healthy_sim = (mode == "sim" and link.loss_probability == 0.0)
        if healthy_sim and stats.retx_windows:
            raise RuntimeError(
                f"window retransmissions on a lossless link (rep {rep})")
        collected.append(stats)

    throughputs = [s.throughput_Bps for s in collected if s.completed] or [0.0]
    return LargeEvalReport(
        stats=tuple(collected),
        mean_throughput_Bps=statistics.fmean(throughputs),
        min_throughput_Bps=min(throughputs),
        max_throughput_Bps=max(throughputs),
        total_lost_blocks=sum(s.lost_blocks for s in collected),
        total_retx_windows=sum(s.retx_windows for s in collected),
        total_retx_acks=sum(s.retx_acks for s in collected))
