#!/usr/bin/env python3
"""Determinism self-check of the simulated workloads.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed N]

Runs sim_bulk_lossy and sim_many_small twice with seed N and once with seed
N+1, each over its fixed transfer count only. The simulated-clock figures
(goodput, completion p50 and p99, the engine counters, the analytic bound and
the stall) must be identical for the same seed. For the other seed the
per-transfer durations and the engine counters must differ; single figures
may coincide, because every simulated event falls on a multiple of the 20 ms
link latency and the bound depends on the transfer size alone. Exits 0 when
both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from common import sources_present, use_sources


def fingerprint(result: dict) -> dict:
    import simload
    records = result["tally"].records
    return {
        "goodput_MiBps": result["e2e"]["goodput_MiBps"],
        "completion": result["completion"],
        "engine": simload.engine_metrics(records),
        "durations_ms": [r["duration_ms"] for r in records],
        "bounds_ms": [r["bound_ms"] for r in records],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not sources_present():
        print("selfcheck: blockfer's sources (src/blockfer) are not in this checkout",
              file=sys.stderr)
        return 2
    use_sources()
    import simload

    ok = True
    for name, run in (("sim_bulk_lossy", simload.run_bulk),
                      ("sim_many_small", simload.run_many_small)):
        first, again, other = (fingerprint(run(seed, 0.0))
                               for seed in (args.seed, args.seed, args.seed + 1))
        same = first == again
        differs = all(first[key] != other[key] for key in ("durations_ms", "engine"))
        print(f"{name}: seed {args.seed} twice {'identical' if same else 'DIFFERENT'}, "
              f"seed {args.seed + 1} {'different' if differs else 'IDENTICAL'} "
              f"(goodput {first['goodput_MiBps']:.6f} vs {other['goodput_MiBps']:.6f} MiB/s)")
        ok = ok and same and differs
    print("determinism self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
