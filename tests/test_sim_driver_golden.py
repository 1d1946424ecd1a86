"""Golden outcomes of run_simulated_transfer over a grid of link conditions.

Each case runs one transfer and reduces it to the SHA-256 of its whole
record_trace output plus completed, duration_ms, error and both sides'
counters. The grid crosses loss (0, 1%, 10%, 30%), base latency (0, 5,
20 ms) with and without 3 ms of jitter, reordering and duplication on and
off, and window sizes 4, 16 and 80; a zero-size transfer and a fully dead
link come on top. Any change to how the simulator interleaves deliveries, deadlines
and ticks shows up here as a changed digest or counter.

Regenerate tests/golden/sim_driver_digest.json (only for an intended change
of behaviour) with
    PYTHONPATH=src python tests/test_sim_driver_golden.py
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from blockfer.engine import TransferParameters
from blockfer.transport import LinkModel, run_simulated_transfer

GOLDEN = Path(__file__).parent / "golden" / "sim_driver_digest.json"

LOSSES = (0.0, 0.01, 0.1, 0.3)
LATENCIES = (0.0, 5.0, 20.0)
JITTERS = (False, True)
JITTER_MS = 3.0  # at zero latency, half the draws clamp to immediate delivery
SHUFFLES = (False, True)  # reordering and duplication together
WINDOWS = (4, 16, 80)
SIZE = 40_000
BLOCK = 500


def cases():
    """(name, payload, link, params) for every case of the grid."""
    grid = itertools.product(LOSSES, LATENCIES, JITTERS, SHUFFLES, WINDOWS)
    for seed, (loss, latency, jitter, shuffle, window) in enumerate(grid):
        model = LinkModel(loss_probability=loss, latency_base_ms=latency,
                          latency_jitter_ms=JITTER_MS if jitter else 0.0,
                          reorder_probability=0.1 if shuffle else 0.0,
                          duplicate_probability=0.05 if shuffle else 0.0,
                          seed=seed)
        params = TransferParameters(block_size=BLOCK, window_size=window,
                                    retransmit_interval_ms=150.0, max_attempts=6,
                                    min_window=min(4, window))
        name = (f"loss={loss} latency={latency} jitter={jitter} "
                f"shuffle={shuffle} W={window}")
        yield name, random.Random(seed).randbytes(SIZE), model, params
    params = TransferParameters(block_size=BLOCK, window_size=16,
                                retransmit_interval_ms=150.0, max_attempts=4)
    yield "zero-size", b"", LinkModel(latency_base_ms=5.0, seed=7), params
    yield ("dead link", random.Random(8).randbytes(SIZE),
           LinkModel(loss_probability=1.0, latency_base_ms=5.0, seed=8), params)


def _counters(state):
    return vars(state.counters) if state is not None else None


def run_case(payload, model, params) -> dict:
    outcome = run_simulated_transfer(payload, model, params, info="golden",
                                     record_trace=True)
    return {
        "packets": len(outcome.trace),
        "sha256": hashlib.sha256("\n".join(outcome.trace).encode()).hexdigest(),
        "completed": outcome.completed,
        "delivered": outcome.data == payload,
        "duration_ms": outcome.duration_ms,
        "error": outcome.error.name if outcome.error is not None else None,
        "sender": _counters(outcome.sender),
        "receiver": _counters(outcome.receiver),
    }


def summarize() -> dict:
    return {name: run_case(payload, model, params)
            for name, payload, model, params in cases()}


def test_simulated_transfers_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = summarize()
    assert list(got) == list(want)
    for name, record in got.items():
        assert record == want[name], name
    # the grid exercises what it claims to
    assert got["dead link"]["error"] == "TIMEOUT" and not got["dead link"]["completed"]
    assert got["zero-size"]["completed"] and got["zero-size"]["delivered"]
    assert any(r["sender"]["lost_blocks"] for r in got.values() if r["sender"])
    assert any(r["receiver"]["duplicate_blocks"] for r in got.values() if r["receiver"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(summarize(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
