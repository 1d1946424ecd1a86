"""Helpers shared by the workloads: seeds, paths, statistics, the machine record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

MiB = 2**20

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent           # the checkout: blockfer's sources live in ROOT/src
SRC = ROOT / "src"
WORK = HERE / ".work"        # scratch files of a run; listed in .gitignore

# Every link in the simulated workloads: the sweep's default lossy path.
LINK_LOSS = 0.01
LINK_LATENCY_MS = 20.0


def derive(seed: int, *labels) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and the labels."""
    text = repr((seed, *labels)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


def sources_present() -> bool:
    return (SRC / "blockfer" / "__init__.py").is_file()


def use_sources() -> None:
    """Import blockfer from this checkout's sources, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for blockfer subprocesses: this checkout's sources, library defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BLOCKFER_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def work_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def completion(durations_ms) -> dict:
    """Completion-time percentiles of a run's transfers."""
    if not durations_ms:
        return {"p50": 0.0, "p99": 0.0, "samples": 0}
    return {"p50": percentile(durations_ms, 50), "p99": percentile(durations_ms, 99),
            "samples": len(durations_ms)}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others while this machine's CPUs were
    runnable, summed over CPUs, from /proc/stat; 0 where it is not reported."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine(traffic: str) -> dict:
    """What produced a result: interpreter, libraries, CPU, commit and link kind."""
    try:
        import cryptography
        crypto_version = cryptography.__version__
    except ImportError:
        crypto_version = "absent"
    return {
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _commit(),
        "traffic": traffic,
    }


class Tally:
    """Transfers of one run: checks, wall and CPU time, simulated durations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.payload_bytes = 0       # verified bytes delivered in timed phases
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.records: list = []      # first fixed transfers, in order

    def check(self, label, ok: bool, why: str) -> bool:
        if not ok:
            self.problems.append(f"{label}: {why}")
        return ok

    def settle(self, ok: bool, size: int) -> None:
        self.attempted += 1
        if ok:
            self.payload_bytes += size
        else:
            self.failed += 1


def conservation_error(sender) -> str:
    """Empty when the sender's public counters conserve blocks, else the reason."""
    c = sender.counters
    expected = sender.block_count + c.lost_blocks + c.window_retransmit_blocks
    if c.blocks_sent == expected:
        return ""
    return f"blocks_sent {c.blocks_sent} != block_count + lost + retransmitted {expected}"

