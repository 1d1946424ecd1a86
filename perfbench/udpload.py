"""The two loopback workloads: `blockfer recv` and `blockfer send` as two processes.

Each transfer launches a receiver on a free port, waits until the port is
bound, launches the sender and times it from its `sending` line to its
exit. The receiver lingers for a second after completion by design and
writes its file only then. That second is outside the timed phase: the next
transfer starts meanwhile, and the receiver is collected, and its file
checked against a hash of the payload, only after the next sender has
exited. The lingering receiver is idle, but its closing file write can fall
in the next timed phase; it is moved off the transfer's CPU first.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time

from blockfer import IdentityCipher, SealedCipher, max_block_size

from common import HERE, MiB, Tally, child_env, completion, derive, median

UDP_SIZE = 32 * MiB
UDP_POOL = 40 * MiB            # each payload is a 32 MiB slice of this at a seeded offset
TRANSFER_TIMEOUT_S = 60.0      # a wedged pair is killed after this long
PORT_WAIT_S = 30.0

_COMPLETE = re.compile(r"complete: (\d+) blocks sent, (\d+) lost")


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _port_bound(port: int) -> bool:
    """Whether some socket is bound to the UDP port, read from /proc/net/udp."""
    suffix = f":{port:04X}"
    with open("/proc/net/udp") as handle:
        next(handle)
        return any(line.split()[1].endswith(suffix) for line in handle)


def _cpus():
    """The CPU that runs the transfer in progress and the one for everything else.

    Sender and receiver take turns (a window out, an ack back), so on one CPU
    the transfer's wall time is the pair's own work and idle waits. Spread over
    two vCPUs it also pays each cross-CPU wake-up, which a shared host makes
    erratic. The benchmark process and the lingering receiver of the previous
    transfer go to the other CPU. None when there is only one."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) > 1 else None


def _pin(pid: int, cpu) -> None:
    if cpu is None:
        return
    try:
        os.sched_setaffinity(pid, {cpu})
    except ProcessLookupError:   # already exited
        pass


def _cli(args, trace_out=None) -> list:
    if trace_out is None:
        return [sys.executable, "-m", "blockfer", *map(str, args)]
    return [sys.executable, str(HERE / "launch.py"), str(trace_out), *map(str, args)]


def _reap(proc: subprocess.Popen):
    """Wait for proc; returns its exit code and resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class LoopbackRun:
    """Inputs and key files of one loopback workload run."""

    def __init__(self, seed: int, sealed: bool, work):
        self.seed = seed
        self.work = work
        self.pool = random.Random(derive(seed, "udp-pool")).randbytes(UDP_POOL)
        self.env = child_env()
        self.transfer_cpu, self.other_cpu = _cpus() or (None, None)
        self.send_flags: list = []
        self.recv_flags: list = []
        if sealed:
            for name in ("sender", "receiver"):
                subprocess.run(_cli(["keygen", "--out", work / name]), env=self.env,
                               check=True, capture_output=True, timeout=60)
            self.send_flags = ["--cipher", "sealed", "--key", work / "sender.key",
                               "--peer-key", work / "receiver.pub"]
            self.recv_flags = ["--cipher", "sealed", "--key", work / "receiver.key",
                               "--peer-key", work / "sender.pub"]
        # the command line's default block size: the largest the cipher can carry
        block_size = max_block_size(SealedCipher if sealed else IdentityCipher)
        self.block_count = -(-UDP_SIZE // block_size)

    def start(self, index: int, traced: bool) -> dict:
        """Run transfer `index` up to the sender's exit; finish() collects the receiver."""
        offset = derive(self.seed, "udp-offset", index) % (UDP_POOL - UDP_SIZE + 1)
        payload = self.pool[offset:offset + UDP_SIZE]
        pending = {"index": index, "digest": hashlib.sha256(payload).digest(),
                   "sink": self.work / f"received-{index % 2}.bin", "traces": []}
        source = self.work / "payload.bin"
        source.write_bytes(payload)
        del payload
        pending["sink"].unlink(missing_ok=True)
        trace_outs = [None, None]
        if traced:
            trace_outs = pending["traces"] = [self.work / f"trace-{index}-recv.json",
                                              self.work / f"trace-{index}-send.json"]

        port = _free_port()
        seed = derive(self.seed, "udp-ids", index)
        began = time.perf_counter()
        recv = subprocess.Popen(
            _cli(["recv", "--port", port, "--out", pending["sink"],
                  "--wait-s", TRANSFER_TIMEOUT_S, "--seed", seed, *self.recv_flags],
                 trace_outs[0]),
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        _pin(recv.pid, self.transfer_cpu)
        procs = pending["procs"] = [recv]
        pending["watchdog"] = threading.Timer(
            TRANSFER_TIMEOUT_S, lambda: [p.kill() for p in procs if p.returncode is None])
        pending["watchdog"].start()
        try:
            while not _port_bound(port):
                if recv.poll() is not None or time.perf_counter() - began > PORT_WAIT_S:
                    raise RuntimeError(f"receiver did not bind port {port}")
                time.sleep(0.002)
            send = subprocess.Popen(
                _cli(["send", "--to", f"127.0.0.1:{port}", "--seed", seed + 1,
                      *self.send_flags, source], trace_outs[1]),
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            procs.append(send)
            _pin(send.pid, self.transfer_cpu)
            sending = complete = counts = None
            for line in send.stderr:
                if sending is None and line.startswith("sending "):
                    sending = time.perf_counter()
                elif (match := _COMPLETE.match(line)) is not None:
                    complete = time.perf_counter()
                    counts = int(match[1]), int(match[2])
            pending["send_code"], pending["send_usage"] = _reap(send)
            _pin(recv.pid, self.other_cpu)
            ended = time.perf_counter()
        except BaseException:
            self.stop(pending)
            raise
        pending.update(began=began, sending=sending, complete=complete, ended=ended,
                       counts=counts)
        return pending

    @staticmethod
    def stop(pending: dict) -> None:
        watchdog = pending["watchdog"]
        watchdog.cancel()
        watchdog.join()
        for proc in pending["procs"]:
            if proc.returncode is None:
                proc.kill()
                _reap(proc)

    def finish(self, pending: dict, tally: Tally, traces=None) -> None:
        """Collect the receiver, check the transfer and add its record to the tally."""
        recv = pending["procs"][0]
        try:
            recv_log = recv.stderr.read()
            recv_code, recv_usage = _reap(recv)
        finally:
            self.stop(pending)
        send_code, counts = pending["send_code"], pending["counts"]
        sending, complete, sink = pending["sending"], pending["complete"], pending["sink"]
        label = f"loopback transfer {pending['index']}"
        ok = (tally.check(label, send_code == 0 and None not in (sending, complete),
                          f"sender exited {send_code}")
              and tally.check(label, recv_code == 0,
                              f"receiver exited {recv_code}: {recv_log.strip()[-200:]}")
              and tally.check(label, sink.is_file() and hashlib.sha256(
                  sink.read_bytes()).digest() == pending["digest"],
                  "received file differs from the payload")
              and tally.check(label, counts[0] >= self.block_count + counts[1],
                              f"{counts[0]} blocks sent, fewer than {self.block_count} "
                              f"blocks plus {counts[1]} lost"))
        sink.unlink(missing_ok=True)
        tally.settle(ok, UDP_SIZE)
        if traces is not None:
            traces.extend(out.read_text() for out in pending["traces"] if out.is_file())
        if not ok:
            return
        wall = pending["ended"] - sending
        tally.wall_s += wall
        cpu = sum(u.ru_utime + u.ru_stime for u in (pending["send_usage"], recv_usage))
        tally.cpu_s += cpu
        tally.records.append({
            "bytes": UDP_SIZE, "setup_s": sending - pending["began"], "wall_s": wall,
            "duration_ms": (complete - sending) * 1000.0, "cpu_s": cpu,
            "recv_rss_MiB": recv_usage.ru_maxrss / 1024.0,
            "blocks_sent": counts[0], "lost_blocks": counts[1]})

    def run(self, first: int, seconds: float, tally: Tally, traces=None) -> int:
        """Transfers from index `first` for `seconds`; returns the next index."""
        allowed = os.sched_getaffinity(0)
        _pin(0, self.other_cpu)
        started = time.perf_counter()
        index, pending = first, []
        try:
            while index == first or time.perf_counter() - started < seconds:
                pending.append(self.start(index, traces is not None))
                index += 1
                if len(pending) == 2:
                    self.finish(pending.pop(0), tally, traces)
            while pending:
                self.finish(pending.pop(0), tally, traces)
        finally:
            for left in pending:
                self.stop(left)
            os.sched_setaffinity(0, allowed)
        return index


def run_loopback(seed: int, seconds: float, sealed: bool, work,
                 traced_seconds: float = 0.0) -> dict:
    """Transfers of 32 MiB files between two command-line processes.

    Rates and CPU cost are totals over the run's transfers, not medians of
    per-transfer figures. On a shared two-core host each vCPU runs fast or
    up to about 1.7 times slower in spells of a second or so, so a transfer's rate
    falls in one of two modes; the median of such a sample jumps between the
    modes from run to run, while total bytes over total time moves smoothly
    with the share of slow spells."""
    run = LoopbackRun(seed, sealed, work)
    tally = Tally()
    index = run.run(0, seconds, tally)
    records = tally.records
    durations = [r["duration_ms"] for r in records]
    mib = tally.payload_bytes / MiB
    result = {
        "tally": tally,
        "e2e": {
            "wall_MiBps": _rate(tally),
            "cpu_ms_per_MiB": tally.cpu_s * 1000.0 / mib if mib else 0.0,
            "goodput_MiBps": mib / (sum(durations) / 1000.0) if durations else 0.0,
            "peak_rss_MiB": median([r["recv_rss_MiB"] for r in records]),
            "setup_s": median([r["setup_s"] for r in records]),
        },
        "completion": completion(durations),
    }
    if traced_seconds:
        traced_tally, traces = Tally(), []
        run.run(index, traced_seconds, traced_tally, traces)
        result["traced"] = {"tally": traced_tally, "traces": traces,
                            "wall_MiBps": _rate(traced_tally)}
    return result


def _rate(tally: Tally) -> float:
    """Verified MiB per second of the timed phases."""
    return tally.payload_bytes / MiB / tally.wall_s if tally.wall_s > 0 else 0.0


def engine_records(settled: list, tally: Tally) -> list:
    """Pair each traced sender's counters with its receiver's; check conservation.

    The loopback has no latency model, so no analytic bound or stall applies."""
    receivers = {r["id"]: r for r in settled if r["role"] == "ReceiverState"}
    records = []
    for s in settled:
        if s["role"] != "SenderState":
            continue
        r = receivers.get(s["id"], {})
        expected = s["block_count"] + s["lost_blocks"] + s["window_retransmit_blocks"]
        if not tally.check(f"traced loopback transfer {s['id']:#x}",
                           s["blocks_sent"] == expected,
                           f"blocks_sent {s['blocks_sent']} != {expected}"):
            tally.failed += 1
        records.append({**s, "ack_retransmits": r.get("ack_retransmits", 0),
                        "duplicate_blocks": r.get("duplicate_blocks", 0),
                        "bound_ms": 0.0, "stall_ms": 0.0})
    return records
