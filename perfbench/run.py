#!/usr/bin/env python3
"""The blockfer benchmark: one workload, one seed, one time budget.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

    sim_bulk_lossy  run_simulated_transfer, 8 MiB at a time, 1% loss, 20 ms
    sim_many_small  100 closed-loop clients of one engine pair, 64 KiB each
    udp_identity    `blockfer recv` and `blockfer send` over 127.0.0.1, 32 MiB
    udp_sealed      the same with --cipher sealed

Every delivered byte is checked. The report lists each metric with its unit;
the last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones. With --trace 1 the budget is split: half untraced, half with every
layer traced, and the metrics are the per-layer ones, including the traced
and untraced wall-clock rates whose ratio is the tracing overhead. A fuller
record of each run, with the machine description and the per-transfer
simulated durations beside their analytic bounds, goes to
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import sys

import os
import time

from common import WORK, machine, sources_present, steal_seconds, use_sources, work_dir

WORKLOADS = ("sim_bulk_lossy", "sim_many_small", "udp_identity", "udp_sealed")
MAX_PROBLEMS_SHOWN = 20

E2E_UNITS = {
    "wall_MiBps": "MiB/s",
    "cpu_ms_per_MiB": "ms/MiB",
    "goodput_MiBps": "MiB/s",
    "peak_rss_MiB": "MiB",
    "setup_s": "s",
}


def _run(workload: str, seed: int, seconds: float, traced_seconds: float, work) -> dict:
    if workload == "sim_bulk_lossy":
        import simload
        return simload.run_bulk(seed, seconds, traced_seconds)
    if workload == "sim_many_small":
        import simload
        return simload.run_many_small(seed, seconds, traced_seconds)
    import udpload
    return udpload.run_loopback(seed, seconds, workload == "udp_sealed", work, traced_seconds)


def per_layer(workload: str, result: dict) -> dict:
    import simload
    import spans
    import udpload
    traced = result["traced"]
    tally = traced["tally"]
    if workload.startswith("udp"):
        summary = spans.merge(json.loads(text) for text in traced["traces"])
        engine_records = udpload.engine_records(summary["settled"], tally)
    else:
        summary = traced["summary"]
        engine_records = result["tally"].records
    metrics = spans.layer_metrics(summary, tally.attempted)
    metrics.update(simload.engine_metrics(engine_records))
    completion = result["completion"]
    untraced_rate, traced_rate = result["e2e"]["wall_MiBps"], traced["wall_MiBps"]
    attempted = result["tally"].attempted + tally.attempted
    failed = result["tally"].failed + tally.failed
    metrics.update({
        "transfer.completion_ms_p50": (completion["p50"], "ms"),
        "transfer.completion_ms_p99": (completion["p99"], "ms"),
        "transfer.failed_share": (failed / attempted if attempted else 0.0, "share"),
        "trace.untraced_wall_MiBps": (untraced_rate, "MiB/s"),
        "trace.traced_wall_MiBps": (traced_rate, "MiB/s"),
        "trace.overhead_share": (1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
                                 "share"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not sources_present():
        print("perfbench: blockfer's sources (src/blockfer) are not in this checkout",
              file=sys.stderr)
        return 2
    use_sources()

    work = work_dir(f"{args.workload}-{args.seed}")
    traffic = "loopback" if args.workload.startswith("udp") else "simulator"
    seconds = args.seconds / 2 if args.trace else args.seconds
    began, stolen = time.perf_counter(), steal_seconds()
    result = _run(args.workload, args.seed, seconds, seconds if args.trace else 0.0, work)
    # share of this machine's CPU time taken by the hypervisor during the run:
    # wall-clock figures slow down with it, CPU-time figures much less
    steal_share = ((steal_seconds() - stolen)
                   / ((time.perf_counter() - began) * len(os.sched_getaffinity(0))))

    tally = result["tally"]
    attempted, failed = tally.attempted, tally.failed
    completion = result["completion"]
    report = {name: (value, E2E_UNITS[name]) for name, value in result["e2e"].items()}
    report.update({
        "completion_ms_p50": (completion["p50"], "ms"),
        "completion_ms_p99": (completion["p99"], "ms"),
        "completion_samples": (completion["samples"], "count"),
        "failed_share": (failed / attempted if attempted else 0.0, "share"),
        "host_steal_share": (steal_share, "share"),
    })
    metrics = {name: value for name, (value, _) in report.items() if name in E2E_UNITS}
    units = dict(E2E_UNITS)
    if args.trace:
        layers = per_layer(args.workload, result)
        layers["host.steal_share"] = (steal_share, "share")
        traced = result["traced"]["tally"]
        attempted += traced.attempted
        failed += traced.failed
        report.update(layers)
        metrics = {name: value for name, (value, _) in layers.items()}
        units = {name: unit for name, (_, unit) in layers.items()}
        if "tracer" in result["traced"]:
            result["traced"]["tracer"].dump(work / "trace.spans")

    problems = tally.problems + (result["traced"]["tally"].problems if args.trace else [])
    description = machine(traffic)
    clock = "simulated" if traffic == "simulator" else "wall"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  traffic {traffic}  completion clock {clock}")
    print("machine " + json.dumps(description, sort_keys=True))
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"FAILED ... and {len(problems) - MAX_PROBLEMS_SHOWN} more")
    for name, (value, unit) in report.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(f"  {'transfers attempted':32s} {attempted:14d}")
    print(f"  {'transfers failed':32s} {failed:14d}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": description, "attempted": attempted,
        "failed": failed, "problems": problems[:1000],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
        "transfers": tally.records,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
