#!/usr/bin/env python3
"""Run every workload of the benchmark, one after another, and print their reports.

Usage, from the root of a checkout:

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Exits 0 when every workload ran and every transfer passed its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import HERE
from run import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
