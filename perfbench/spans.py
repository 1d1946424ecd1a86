"""Span tracing around blockfer's public callables, from outside the package.

install() replaces each traced callable at the name its callers look up
(module globals for the codec, class attributes for methods) with a wrapper
that records a span: name, start, end, parent span and transfer id. Calls,
inclusive time and self time are summed per span name as the spans close;
the first SPAN_CAP spans are also kept whole and written out by dump().
A layer's busy time is the self time of its spans: a span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import json
import time
import weakref
from array import array
from collections import Counter

SPAN_CAP = 200_000

# Traced span names by layer. The udp.poll span is time spent waiting in
# select, so it counts as waiting rather than as transport.udp busy time.
LAYERS = {
    "wire": ("wire.",),
    "engine": ("engine.",),
    "crypto": ("crypto.",),
    "sim": ("sim.",),
    "udp": ("udp.send", "udp.drain"),
}


class Tracer:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self):
        self.clock = time.perf_counter
        self.began = self.clock()
        self.ended = None
        self._ids: dict = {}
        self.names: list = []
        self.calls: list = []
        self.total: list = []
        self.self_time: list = []
        self.covered = 0.0      # time under some top-level span
        self.bookkeeping = 0.0  # time spent in the wrappers' own state tracking
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self.settled: list = []  # counters of every transfer seen to settle
        self._stack: list = []
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._tid = array("Q")

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def open(self, name: str) -> list:
        nid = self._name_id(name)
        parent = self._stack[-1][1] if self._stack else -1
        index = len(self._start)
        now = self.clock()
        if index < SPAN_CAP:
            self._start.append(now)
            self._end.append(now)
            self._name.append(nid)
            self._parent.append(parent)
            self._tid.append(0)
        else:
            index = -1
        frame = [nid, index, now, 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, tid: int = 0, name: str = None) -> None:
        now = self.clock()
        self._stack.pop()
        nid = frame[0] if name is None else self._name_id(name)
        duration = now - frame[2]
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.covered += duration
        index = frame[1]
        if index >= 0:
            self._end[index] = now
            self._name[index] = nid
            self._tid[index] = tid & 0xFFFFFFFFFFFFFFFF

    def note_max(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def finish(self) -> None:
        self.ended = self.clock()

    def summary(self) -> dict:
        ended = self.ended if self.ended is not None else self.clock()
        return {
            "wall_s": ended - self.began - self.bookkeeping,
            "covered_s": self.covered,
            "spans": {name: [self.calls[i], self.total[i], self.self_time[i]]
                      for i, name in enumerate(self.names)},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "settled": self.settled,
        }

    def dump(self, path) -> None:
        """Write the kept spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self._start),
                  "arrays": [["start", "d"], ["end", "d"], ["name", "i"],
                             ["parent", "i"], ["tid", "Q"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self._start, self._end, self._name, self._parent, self._tid):
                column.tofile(handle)


def merge(summaries) -> dict:
    """Sum the summaries of several processes or phases."""
    merged = {"wall_s": 0.0, "covered_s": 0.0, "spans": {}, "counters": Counter(),
              "maxima": {}, "settled": []}
    for s in summaries:
        merged["wall_s"] += s["wall_s"]
        merged["covered_s"] += s["covered_s"]
        for name, (calls, total, self_s) in s["spans"].items():
            acc = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        merged["counters"].update(s["counters"])
        for key, value in s["maxima"].items():
            merged["maxima"][key] = max(value, merged["maxima"].get(key, 0))
        merged["settled"].extend(s["settled"])
    return merged


def layer_metrics(s: dict, transfers: int) -> dict:
    """Per-layer figures of a merged summary covering `transfers` transfers.

    Call counts are per transfer, times are means per call, and shares are
    of the traced wall time."""
    spans, wall = s["spans"], s["wall_s"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def per_transfer(count):
        return (count / transfers if transfers else 0.0, "count/transfer")

    def mean_time(name, scale):
        count, total, _ = spans.get(name, (0, 0.0, 0.0))
        return total / count * scale if count else 0.0

    def busy(prefixes):
        self_s = sum(v[2] for name, v in spans.items() if name.startswith(prefixes))
        return self_s / wall if wall > 0 else 0.0

    out = {}
    for op in ("encode", "decode"):
        for kind in ("data", "ack", "other"):
            name = f"wire.{op}.{kind}"
            out[f"{name}.calls"] = per_transfer(calls(name))
            out[f"{name}.ns"] = (mean_time(name, 1e9), "ns")
    out["wire.decode.errors"] = (s["counters"].get("wire.decode.errors", 0), "count")
    out["wire.busy_share"] = (busy(LAYERS["wire"]), "share")

    for name in ("packet_in", "tick", "next_deadline"):
        out[f"engine.{name}.calls"] = per_transfer(calls(f"engine.{name}"))
        out[f"engine.{name}.us"] = (mean_time(f"engine.{name}", 1e6), "us")
    out["engine.start_transfer.us"] = (mean_time("engine.start_transfer", 1e6), "us")
    out["engine.scheduler_poll.us"] = (mean_time("engine.scheduler_poll", 1e6), "us")
    out["engine.live_max"] = (s["maxima"].get("engine.live", 0), "count")
    out["engine.busy_share"] = (busy(LAYERS["engine"]), "share")

    for name in ("seal", "open"):
        out[f"crypto.{name}.calls"] = per_transfer(calls(f"crypto.{name}"))
        out[f"crypto.{name}.us"] = (mean_time(f"crypto.{name}", 1e6), "us")
    out["crypto.auth_failures"] = (s["counters"].get("crypto.auth_failures", 0), "count")
    out["crypto.busy_share"] = (busy(LAYERS["crypto"]), "share")

    out["sim.link.send.calls"] = per_transfer(calls("sim.link.send"))
    out["sim.link.send.us"] = (mean_time("sim.link.send", 1e6), "us")
    out["sim.link.drops"] = per_transfer(s["counters"].get("sim.link.drops", 0))
    out["sim.clock.pop.us"] = (mean_time("sim.clock.pop", 1e6), "us")
    out["sim.clock.max_depth"] = (s["maxima"].get("sim.clock.depth", 0), "count")
    out["sim.busy_share"] = (busy(LAYERS["sim"]), "share")

    for name in ("send", "drain"):
        out[f"udp.{name}.calls"] = per_transfer(calls(f"udp.{name}"))
        out[f"udp.{name}.us"] = (mean_time(f"udp.{name}", 1e6), "us")
    drains = calls("udp.drain")
    out["udp.datagrams_per_drain"] = (
        s["counters"].get("udp.datagrams", 0) / drains if drains else 0.0, "count")
    poll_wait = spans.get("udp.poll", (0, 0.0, 0.0))[2]
    out["udp.poll.wait_s"] = (poll_wait / transfers if transfers else 0.0, "s/transfer")
    out["udp.busy_share"] = (busy(LAYERS["udp"]), "share")

    out["cli.driver_self_share"] = (
        (wall - s["covered_s"]) / wall if wall > 0 else 0.0, "share")
    return out


def install(tracer: Tracer):
    """Wrap blockfer's public callables; returns a function that unwraps them."""
    from blockfer import cli
    from blockfer.crypto import AuthenticationError, SealedCipher
    from blockfer.engine import Complete, Engine, Errored, TransferScheduler
    from blockfer.transport import sim
    from blockfer.transport.udp import UdpEndpoint
    from blockfer.wire import Acknowledgement, Data, DecodeError, WriteRequest

    patches = []

    def patch(owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        patches.append((owner, attr, original))

    kinds = {Data: "data", Acknowledgement: "ack"}

    def make_encode(fn):
        def encode_packet(packet):
            frame = tracer.open(f"wire.encode.{kinds.get(type(packet), 'other')}")
            try:
                return fn(packet)
            finally:
                tracer.close(frame, packet.id)
        return encode_packet

    def make_decode(fn):
        def decode_packet(data):
            frame = tracer.open("wire.decode.other")
            try:
                packet = fn(data)
            except DecodeError:
                tracer.counters["wire.decode.errors"] += 1
                tracer.close(frame)
                raise
            except BaseException:
                tracer.close(frame)
                raise
            tracer.close(frame, packet.id, f"wire.decode.{kinds.get(type(packet), 'other')}")
            return packet
        return decode_packet

    for module in (sim, cli):
        patch(module, "encode_packet", make_encode)
        patch(module, "decode_packet", make_decode)

    # Engine bookkeeping, done outside every span and excluded from wall time:
    # which peers each engine has a live transfer with, and the state object
    # of each transfer, captured while it is live so that reading its
    # counters when it settles does not scan the engine's finished table.
    live_with = Engine.__dict__["live_transfer_with"]
    lookup = Engine.__dict__["transfer"]
    live_peers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    states: dict = {}

    def track(engine, peer=None, tid=None, events=()):
        began = tracer.clock()
        peers = live_peers.setdefault(engine, set())
        if tid is not None and (id(engine), tid) not in states:
            state = lookup(engine, tid)
            if state is not None and state.finished_at is None:
                states[(id(engine), tid)] = state
        check = list(peers) if any(isinstance(e, Errored) for e in events) else []
        if peer is not None:
            check.append(peer)
        for p in check:
            if live_with(engine, p) is None:
                peers.discard(p)
            else:
                peers.add(p)
        tracer.note_max("engine.live", len(peers))
        for event in events:
            if isinstance(event, (Complete, Errored)):
                state = states.pop((id(engine), event.id), None)
                if state is not None:
                    tracer.settled.append({
                        "role": type(state).__name__, "id": state.id,
                        "block_count": state.block_count, **vars(state.counters)})
        tracer.bookkeeping += tracer.clock() - began

    def make_method(name, after=None):
        def make(fn):
            def method(self, *args, **kwargs):
                frame = tracer.open(name)
                try:
                    result = fn(self, *args, **kwargs)
                except BaseException:
                    tracer.close(frame)
                    raise
                tracer.close(frame)
                if after is not None:
                    after(self, args, result)
                return result
            method.__name__ = fn.__name__
            return method
        return make

    def after_start(engine, args, result):
        track(engine, peer=args[0], tid=result[0])

    def after_packet(engine, args, out):
        peer, packet = args[0], args[1]
        tid = packet.id if isinstance(packet, WriteRequest) else None
        track(engine, peer=peer, tid=tid, events=out.events)

    def after_timer(engine, args, out):
        if out.events:
            track(engine, events=out.events)

    def after_send(link, args, times):
        if not times:
            tracer.counters["sim.link.drops"] += 1

    def after_drain(endpoint, args, received):
        tracer.counters["udp.datagrams"] += len(received)

    def make_pop(fn):
        traced = make_method("sim.clock.pop")(fn)

        def pop(self):
            tracer.note_max("sim.clock.depth", len(self))
            return traced(self)
        return pop

    def make_open(fn):
        def open_(self, ciphertext):
            frame = tracer.open("crypto.open")
            try:
                return fn(self, ciphertext)
            except AuthenticationError:
                tracer.counters["crypto.auth_failures"] += 1
                raise
            finally:
                tracer.close(frame)
        return open_

    patch(Engine, "start_transfer", make_method("engine.start_transfer", after_start))
    patch(Engine, "packet_in", make_method("engine.packet_in", after_packet))
    patch(Engine, "tick", make_method("engine.tick", after_timer))
    patch(Engine, "cancel", make_method("engine.cancel", after_timer))
    patch(Engine, "next_deadline", make_method("engine.next_deadline"))
    patch(Engine, "live_transfer_with", make_method("engine.live_transfer_with"))
    patch(Engine, "transfer", make_method("engine.transfer"))
    patch(TransferScheduler, "schedule_transfer", make_method("engine.scheduler_schedule"))
    patch(TransferScheduler, "poll_scheduled", make_method("engine.scheduler_poll"))
    patch(SealedCipher, "seal", make_method("crypto.seal"))
    patch(SealedCipher, "open", make_open)
    patch(sim.SimulatedLink, "send", make_method("sim.link.send", after_send))
    patch(sim.SimClock, "pop", make_pop)
    patch(UdpEndpoint, "send", make_method("udp.send"))
    patch(UdpEndpoint, "drain", make_method("udp.drain", after_drain))
    patch(UdpEndpoint, "poll", make_method("udp.poll"))

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return restore
