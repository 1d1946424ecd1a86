"""Benchmark harness: per-cell stats, CSV sweeps, large-transfer evaluation."""

import random

import pytest

from blockfer import bench, engine
from blockfer.bench import (
    CSV_HEADER,
    ExperimentConfig,
    TransferStats,
    cell_seed,
    evaluate_large,
    percentile,
    run_experiment,
    summarize,
    sweep,
)
from blockfer.transport import LinkModel

QUIET = LinkModel(latency_base_ms=5.0, seed=1)


def tiny_config(**kwargs):
    defaults = dict(block_grid=(600, 1200), window_grid=(16, 32), iterations=2,
                    data_size=60_000,
                    link=LinkModel(loss_probability=0.02, latency_base_ms=5.0),
                    seed=3)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(block_grid=())
    with pytest.raises(ValueError):
        tiny_config(window_grid=())
    with pytest.raises(ValueError):
        tiny_config(iterations=0)
    with pytest.raises(ValueError):
        tiny_config(data_size=-1)
    # every cell's transfer parameters are checked before any cell runs
    for bad in (dict(block_grid=(600, 1201)), dict(window_grid=(16, 306)),
                dict(interval_ms=0.0), dict(max_attempts=0)):
        with pytest.raises(ValueError):
            tiny_config(**bad)


def test_cell_seed_is_deterministic_and_spreads():
    config = ExperimentConfig()
    seeds = {cell_seed(config.seed, b, w, i)
             for b in config.block_grid for w in config.window_grid
             for i in range(config.iterations)}
    assert len(seeds) == 7 * 8 * 5
    assert all(0 <= s < 2**64 for s in seeds)
    assert cell_seed(42, 600, 16, 0) == cell_seed(42, 600, 16, 0)
    assert cell_seed(42, 600, 16, 0) != cell_seed(43, 600, 16, 0)


def test_lossless_cell_has_exact_counts():
    config = tiny_config(link=QUIET, data_size=100_000)
    stats = run_experiment(config, block_size=600, window_size=16, iteration=0)
    assert stats.completed
    assert stats.lost_blocks == 0
    assert stats.retx_windows == 0
    assert stats.retx_acks == 0  # with run_experiment's conservation check: each block once
    assert stats.duration_ms > 0
    assert stats.throughput_Bps > 0
    assert stats.block_size == 600 and stats.window_size == 16


def test_lossy_cell_conserves_blocks():
    config = tiny_config(data_size=120_000,
                         link=LinkModel(loss_probability=0.05, latency_base_ms=5.0))
    stats = run_experiment(config, block_size=600, window_size=16, iteration=1)
    assert stats.completed
    # run_experiment raises unless the sender sent each block once, each listed
    # loss once more and one block per probe
    assert stats.lost_blocks > 0


def test_dead_link_cell_records_failure():
    config = tiny_config(data_size=5_000, link=LinkModel(loss_probability=1.0),
                         interval_ms=50.0, max_attempts=3)
    stats = run_experiment(config, block_size=600, window_size=16, iteration=0)
    assert not stats.completed
    assert stats.throughput_Bps == 0.0
    assert stats.duration_ms == 3 * 50.0


def test_sweep_writes_deterministic_csv(tmp_path):
    config = tiny_config()
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    rows = sweep(config, one)
    sweep(config, two)
    assert one.read_bytes() == two.read_bytes()
    lines = one.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == ("B,W,iteration,seed,duration_ms,throughput_Bps,"
                          "lost_blocks,retx_windows,retx_acks,completed")
    assert len(lines) == 1 + 2 * 2 * 2
    assert len(rows) == 8
    # rows come out in grid order, iterations innermost
    assert [(r.block_size, r.window_size, r.iteration) for r in rows[:3]] == [
        (600, 16, 0), (600, 16, 1), (600, 32, 0)]


def test_sweep_resumes_from_partial_csv(tmp_path):
    config = tiny_config()
    path = tmp_path / "s.csv"
    sweep(config, path)
    complete = path.read_bytes()
    lines = complete.decode().splitlines(keepends=True)
    path.write_text("".join(lines[:4]))  # header + first 3 rows survive
    resumed = sweep(config, path)
    assert path.read_bytes() == complete
    assert len(resumed) == 8
    # an already-complete file is left untouched
    sweep(config, path)
    assert path.read_bytes() == complete


def test_sweep_reuses_only_rows_of_its_own_seed(tmp_path):
    """A row is reused only when its seed column is the cell's seed, so a
    sweep under another seed into the same file reruns every cell."""
    shared, fresh = tmp_path / "shared.csv", tmp_path / "fresh.csv"
    sweep(tiny_config(seed=3), shared)
    sweep(tiny_config(seed=4), shared)
    sweep(tiny_config(seed=4), fresh)
    assert shared.read_bytes() == fresh.read_bytes()


def test_interrupted_sweep_keeps_its_finished_rows(tmp_path, monkeypatch):
    config = tiny_config()
    whole, path = tmp_path / "whole.csv", tmp_path / "s.csv"
    sweep(config, whole)
    calls = []
    run = bench.run_simulated_transfer

    def interrupted_on_the_fourth(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise KeyboardInterrupt
        return run(*args, **kwargs)

    monkeypatch.setattr(bench, "run_simulated_transfer", interrupted_on_the_fourth)
    with pytest.raises(KeyboardInterrupt):
        sweep(config, path)
    assert path.read_text().splitlines() == whole.read_text().splitlines()[:4]
    sweep(config, path)
    assert len(calls) == 4 + 5  # the rerun reuses the 3 finished rows of 8
    assert path.read_bytes() == whole.read_bytes()


def test_sweep_drops_a_torn_tail_and_restores_grid_order(tmp_path):
    config = tiny_config()
    path = tmp_path / "s.csv"
    sweep(config, path)
    complete = path.read_bytes()
    header, *rows = complete.decode().splitlines(keepends=True)
    path.write_text(header + "".join(reversed(rows[2:])) + rows[0].rstrip("\n"))
    assert len(sweep(config, path)) == 8
    assert path.read_bytes() == complete


def test_bigger_blocks_transfer_faster():
    # fewer windows means fewer ack round trips on a 20 ms link
    config = tiny_config(data_size=2 * 2**20, iterations=1,
                         link=LinkModel(loss_probability=0.01, latency_base_ms=20.0),
                         seed=5)
    slow = run_experiment(config, block_size=600, window_size=80, iteration=0)
    fast = run_experiment(config, block_size=1200, window_size=80, iteration=0)
    assert slow.completed and fast.completed
    assert fast.throughput_Bps > slow.throughput_Bps


def test_summarize_emits_aligned_means(tmp_path):
    config = tiny_config()
    rows = sweep(config, tmp_path / "s.csv")
    text = summarize(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["B", "W", "runs", "ok", "mean_ms",
                                "mean_Bps", "lost", "retx_w", "retx_a"]
    assert len(lines) == 1 + 4  # one line per cell
    first = lines[1].split()
    assert first[0] == "600" and first[1] == "16" and first[2] == "2"


def test_evaluate_large_scaled_down_sim():
    report = evaluate_large(data_size=1 * 2**20, repetitions=2, mode="sim",
                            link=QUIET, seed=11)
    assert len(report.stats) == 2
    assert all(s.completed for s in report.stats)
    assert report.total_retx_windows == 0
    assert report.total_lost_blocks == 0
    assert report.min_throughput_Bps <= report.mean_throughput_Bps <= report.max_throughput_Bps
    assert "throughput" in report.text()


def test_evaluate_large_reports_completion_percentiles():
    """Nearest rank over the completed repetitions: on a lossless 20 ms link a
    one-window transfer takes one round trip, every time."""
    report = evaluate_large(data_size=65536, repetitions=3, mode="sim",
                            link=LinkModel(latency_base_ms=20.0), seed=5)
    assert [s.duration_ms for s in report.stats] == [40.0] * 3
    assert (report.completion_ms_p50, report.completion_ms_p90,
            report.completion_ms_p99) == (40.0, 40.0, 40.0)
    assert "completion p90 ms    40.0" in report.text()
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert [percentile(range(1, 101), q) for q in (50, 90, 99, 100)] == [50, 90, 99, 100]
    assert percentile([7.0], 99) == 7.0


def test_evaluate_large_scaled_down_loopback():
    report = evaluate_large(data_size=300_000, repetitions=1, mode="loopback",
                            interval_ms=500.0, seed=12)
    assert all(s.completed for s in report.stats)
    assert report.total_retx_windows == 0


def test_evaluate_large_lossy_sim_counts_losses():
    link = LinkModel(loss_probability=0.01, latency_base_ms=5.0, seed=6)
    report = evaluate_large(data_size=1 * 2**20, repetitions=1, mode="sim",
                            link=link, interval_ms=200.0, seed=13)
    assert all(s.completed for s in report.stats)
    assert report.total_lost_blocks > 0


def test_evaluate_large_lets_a_rate_limited_lossless_link_probe():
    """A window that takes longer to cross a 250 kbit/s link than the sender's
    timeout draws probes, though nothing is lost."""
    report = evaluate_large(data_size=2**20, repetitions=1, mode="sim",
                            link=LinkModel(latency_base_ms=20.0, rate_kbps=250.0))
    assert all(s.completed for s in report.stats)
    assert report.total_retx_windows > 0
    assert report.total_lost_blocks == 0


def test_evaluate_large_lets_a_short_interval_probe():
    """An interval under the round trip fires before window 0's ack arrives."""
    link = LinkModel(latency_base_ms=20.0)
    report = evaluate_large(data_size=2**20, repetitions=1, link=link, interval_ms=30.0)
    assert report.total_retx_windows > 0
    report = evaluate_large(data_size=2**20, repetitions=1, link=link, interval_ms=40.0)
    assert report.total_retx_windows == 0


def test_evaluate_large_catches_a_probe_on_a_clean_link(monkeypatch):
    """A sender whose timeout falls below the round trip re-sends on a link
    that gives it no cause: the check still raises there."""
    set_rto = engine._set_rto

    def hasty(state):
        set_rto(state)
        if isinstance(state, engine.SenderState):
            state.rto = 1.0

    monkeypatch.setattr(engine, "_set_rto", hasty)
    with pytest.raises(RuntimeError, match="lossless link"):
        evaluate_large(data_size=2**20, repetitions=1, mode="sim",
                       link=LinkModel(latency_base_ms=20.0))


def test_transfer_stats_row_roundtrip():
    row = TransferStats(block_size=600, window_size=16, iteration=0, seed=9,
                        duration_ms=12.5, throughput_Bps=100.0, lost_blocks=1,
                        retx_windows=0, retx_acks=0, completed=True)
    line = row.csv_row()
    assert line.split(",")[0] == "600"
    assert TransferStats.from_csv_row(line) == row
