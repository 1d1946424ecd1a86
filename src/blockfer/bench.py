"""Parameter sweeps and large-transfer evaluation over simulated or real links.

A sweep runs one transfer per (block size, window size, iteration) cell on a
fresh simulated link whose seed is derived from the cell coordinates, so any
cell can be reproduced in isolation and a re-run yields a byte-identical
CSV. Every transfer, a sweep cell or an evaluation repetition, goes through
one runner, and each sweep or evaluation builds its payload once. A rerun
into the same CSV reuses each row whose block size, window size, iteration
and seed match a cell of the grid, and an interrupted sweep keeps the rows
it finished: the file is rewritten whole, in grid order, after each fresh
cell. The link, the data size and the timer settings have no CSV column,
so a change to any of them needs a fresh file. Metrics come straight from
the engine counters rather than parsed logs.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Optional

from .engine import DEFAULT_MAX_TRANSFER_SIZE, TransferParameters
from .transport import LinkModel, run_loopback_transfer, run_simulated_transfer

CSV_HEADER = ("B,W,iteration,seed,duration_ms,throughput_Bps,"
              "lost_blocks,retx_windows,retx_acks,completed")

DEFAULT_BLOCK_GRID = (600, 700, 800, 900, 1000, 1100, 1200)
DEFAULT_WINDOW_GRID = (16, 32, 48, 64, 80, 96, 112, 128)
DEFAULT_SWEEP_LINK = LinkModel(loss_probability=0.01, latency_base_ms=20.0)
_DEFAULTS = TransferParameters()

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
    """A sweep grid plus the link and transfer tunables shared by its cells.

    Construction checks every cell's TransferParameters, so a bad grid or
    timer setting fails before any cell runs."""

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
        for block_size, window_size in product(self.block_grid, self.window_grid):
            TransferParameters(block_size=block_size, window_size=window_size,
                               retransmit_interval_ms=self.interval_ms,
                               max_attempts=self.max_attempts)

    def cells(self):
        """Each (B, W, iteration) of the grid, in grid order, iterations innermost."""
        return product(self.block_grid, self.window_grid, range(self.iterations))


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
    completed: bool

    def csv_row(self) -> str:
        return (f"{self.block_size},{self.window_size},{self.iteration},"
                f"{self.seed},{self.duration_ms:.3f},{self.throughput_Bps:.1f},"
                f"{self.lost_blocks},{self.retx_windows},{self.retx_acks},"
                f"{1 if self.completed else 0}")

    @classmethod
    def from_csv_row(cls, line: str) -> "TransferStats":
        b, w, it, seed, dur, tput, lost, rw, ra, done = line.strip().split(",")
        return cls(int(b), int(w), int(it), int(seed), float(dur), float(tput),
                   int(lost), int(rw), int(ra), done == "1")


def _stats_from(outcome, data_size: int, cell: tuple, seed: int) -> TransferStats:
    sender, receiver = outcome.sender.counters, outcome.receiver
    if outcome.completed:
        expected = sender.blocks_due(outcome.sender.block_count)
        if sender.blocks_sent != expected:
            raise RuntimeError(
                f"block conservation violated: sent {sender.blocks_sent}, "
                f"expected {expected}")
    throughput = (data_size / (outcome.duration_ms / 1000.0)
                  if outcome.completed and outcome.duration_ms > 0 else 0.0)
    return TransferStats(
        *cell, seed=seed, duration_ms=outcome.duration_ms, throughput_Bps=throughput,
        lost_blocks=sender.lost_blocks, retx_windows=sender.window_retransmits,
        retx_acks=receiver.counters.ack_retransmits if receiver is not None else 0,
        completed=outcome.completed)


def _payload(config: ExperimentConfig) -> bytes:
    return random.Random(config.seed).randbytes(config.data_size)


def _run_cell(config: ExperimentConfig, data: bytes, cell: tuple,
              mode: str = "sim") -> TransferStats:
    """Send data once as one (B, W, iteration) cell of config, on the cell's seed."""
    block_size, window_size, iteration = cell
    seed = cell_seed(config.seed, *cell)
    params = TransferParameters(block_size=block_size, window_size=window_size,
                                retransmit_interval_ms=config.interval_ms,
                                max_attempts=config.max_attempts)
    info = f"cell-{block_size}-{window_size}-{iteration}"
    if mode == "sim":
        outcome = run_simulated_transfer(
            data, replace(config.link, seed=seed), params, info=info)
    else:
        outcome = run_loopback_transfer(data, params, info=info, seed=seed)
    return _stats_from(outcome, len(data), cell, seed)


def run_experiment(config: ExperimentConfig, block_size: int, window_size: int,
                   iteration: int) -> TransferStats:
    """Run one cell to completion or failure on a fresh simulated link."""
    return _run_cell(config, _payload(config), (block_size, window_size, iteration))


def _write_csv(csv_path, rows, old_text: str = "") -> None:
    """Write the header and the rows that are not None unless the file already
    reads so; the file is replaced in one step, so an interruption leaves the
    old one whole."""
    lines = [CSV_HEADER, *(row.csv_row() for row in rows if row is not None)]
    text = "".join(f"{line}\n" for line in lines)
    if text != old_text:
        Path(f"{csv_path}.part").write_text(text, encoding="utf-8", newline="\n")
        Path(f"{csv_path}.part").replace(csv_path)


def sweep(config: ExperimentConfig, csv_path) -> list:
    """Run the whole grid, writing one CSV row per cell iteration.

    A rerun into the same file reuses each row whose block size, window
    size, iteration and seed match a cell of the grid and runs only the
    rest; the link, data size and timer settings have no column, so a change
    to any of them needs a fresh file. The file is written one way: the
    header and every known row, in grid order, into a .part file that then
    replaces it. That happens once the old rows are read, which drops a torn
    tail line and leaves a complete file as is, and again after each fresh
    cell, so an interrupted sweep keeps its finished rows. Identical seeds
    produce identical bytes. Every row comes back as its CSV line reads,
    with the CSV's rounding, so a rerun summarizes exactly as the fresh run
    did.
    """
    cells = list(config.cells())
    rows: dict = dict.fromkeys(cells)
    try:
        text = Path(csv_path).read_text(encoding="utf-8")
    except FileNotFoundError:
        text = ""
    lines = text.split("\n")[:-1]  # a tail with no newline is torn
    if lines[:1] == [CSV_HEADER]:
        for line in lines[1:]:
            try:
                row = TransferStats.from_csv_row(line)
            except ValueError:
                continue
            cell = (row.block_size, row.window_size, row.iteration)
            if cell in rows and row.seed == cell_seed(config.seed, *cell):
                rows[cell] = row

    fresh = [cell for cell in cells if rows[cell] is None]
    data = _payload(config) if fresh else b""
    _write_csv(csv_path, rows.values(), text)
    for cell in fresh:
        line = _run_cell(config, data, cell).csv_row()
        rows[cell] = TransferStats.from_csv_row(line)  # as a rerun reads it
        _write_csv(csv_path, rows.values())
    return list(rows.values())


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


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


@dataclass(frozen=True)
class LargeEvalReport:
    """Aggregate of repeated identical large transfers; completion times are
    nearest-rank percentiles over the completed ones."""

    stats: tuple
    mean_throughput_Bps: float
    min_throughput_Bps: float
    max_throughput_Bps: float
    completion_ms_p50: float
    completion_ms_p90: float
    completion_ms_p99: float
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
            f"completion p50 ms    {self.completion_ms_p50:.1f}",
            f"completion p90 ms    {self.completion_ms_p90:.1f}",
            f"completion p99 ms    {self.completion_ms_p99:.1f}",
            f"lost blocks total    {self.total_lost_blocks}",
            f"window retransmits   {self.total_retx_windows}",
            f"ack retransmits      {self.total_retx_acks}",
        ])


def evaluate_large(data_size: int = DEFAULT_MAX_TRANSFER_SIZE,
                   block_size: int = _DEFAULTS.block_size,
                   window_size: int = _DEFAULTS.window_size, repetitions: int = 10,
                   mode: str = "sim", link: Optional[LinkModel] = None,
                   interval_ms: float = _DEFAULTS.retransmit_interval_ms,
                   max_attempts: int = _DEFAULTS.max_attempts,
                   seed: int = 0) -> LargeEvalReport:
    """Repeat one large transfer and aggregate its stats.

    mode "sim" runs over a simulated link (lossless unless given), "loopback"
    over two real UDP sockets on this host. The repetitions share one payload
    and run as the cells of a one-cell ExperimentConfig. A simulated link with
    no loss, no jitter and no rate limit, under an interval of at least its
    round trip, gives the sender no cause to re-send a window, so a re-sent
    window there raises RuntimeError.
    """
    if mode not in ("sim", "loopback"):
        raise ValueError(f"unknown mode {mode!r}")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    config = ExperimentConfig(
        block_grid=(block_size,), window_grid=(window_size,),
        iterations=repetitions, data_size=data_size, link=link or LinkModel(),
        seed=seed, interval_ms=interval_ms, max_attempts=max_attempts)
    link = config.link
    clean = (mode == "sim" and interval_ms >= 2 * link.latency_base_ms and not (
        link.loss_probability or link.latency_jitter_ms or link.rate_kbps))
    data = _payload(config)

    collected = []
    for rep, cell in enumerate(config.cells()):
        stats = _run_cell(config, data, cell, mode)
        if clean and stats.retx_windows:
            raise RuntimeError(f"window retransmissions on a lossless link (rep {rep})")
        collected.append(stats)

    throughputs = [s.throughput_Bps for s in collected if s.completed] or [0.0]
    durations = [s.duration_ms for s in collected if s.completed] or [0.0]
    return LargeEvalReport(
        stats=tuple(collected),
        mean_throughput_Bps=statistics.fmean(throughputs),
        min_throughput_Bps=min(throughputs),
        max_throughput_Bps=max(throughputs),
        completion_ms_p50=percentile(durations, 50),
        completion_ms_p90=percentile(durations, 90),
        completion_ms_p99=percentile(durations, 99),
        total_lost_blocks=sum(s.lost_blocks for s in collected),
        total_retx_windows=sum(s.retx_windows for s in collected),
        total_retx_acks=sum(s.retx_acks for s in collected))
