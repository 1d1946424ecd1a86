"""Golden packet stream of one engine carrying many concurrent transfers.

A hub engine sends to ten peers and receives from ten others over one
seeded 1%-loss, 20 ms link, with staggered starts and one cancel. It also
announces three transfers at the same instant to addresses where nobody
answers, so their retransmit timers fall due together until they time out.
Every time on the link is a multiple of 10 ms, so timers of live transfers
coincide as well; the order in which one tick fires them decides which
packets the link drops. The SHA-256 of the whole encoded packet sequence
and the settled counters of every transfer are stored in
tests/golden/multi_peer_stream.json.

Regenerate the golden file (only for an intended change of behaviour) with
    PYTHONPATH=src python tests/test_multi_peer_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from blockfer.engine import Complete, Engine, TransferParameters
from blockfer.transport.sim import LinkModel, SimClock, SimulatedLink
from blockfer.wire import decode_packet, encode_packet

GOLDEN = Path(__file__).parent / "golden" / "multi_peer_stream.json"

PARAMS = TransferParameters(block_size=512, window_size=8,
                            retransmit_interval_ms=100.0, max_attempts=5)
HUB = "H"
OUTBOUND = [f"P{k:02d}" for k in range(10)]       # the hub sends to these
INBOUND = [f"P{k:02d}" for k in range(10, 20)]    # these send to the hub
UNREACHABLE = ["X1", "X0", "X2"]                  # the hub announces to these at 0 ms
CANCEL_PEER, CANCEL_AT = "P03", 200.0             # the hub cancels its transfer to P03


def run_scenario():
    """Drive the scenario until nothing is pending.

    Returns the packet lines ("time src->dst hex", at send time, lost or
    not), the started transfers as (sender, receiver, id, payload), the
    payloads receivers completed with, keyed by (receiver, id), and the
    engines by name. On a time tie the script runs first, then deliveries,
    then timers.
    """
    rng = random.Random(2024)
    clock = SimClock()
    link = SimulatedLink(LinkModel(loss_probability=0.01, latency_base_ms=20.0, seed=37),
                         clock)
    names = [HUB] + OUTBOUND + INBOUND
    engines = {name: Engine(params=PARAMS, rng=random.Random(1000 + i))
               for i, name in enumerate(names)}

    script = [(0.0, HUB, peer) for peer in UNREACHABLE]
    script += [(20.0 * k, HUB, peer) for k, peer in enumerate(OUTBOUND)]
    script += [(10.0 + 30.0 * k, peer, HUB) for k, peer in enumerate(INBOUND)]
    script = [(at, src, dst, rng.randbytes(rng.randrange(6_000, 30_000)))
              for at, src, dst in script]
    script.append((CANCEL_AT, HUB, CANCEL_PEER, None))  # None marks the cancel
    script.sort(key=lambda entry: entry[0])

    lines, started, delivered = [], [], {}

    def dispatch(src, out, now):
        for dst, packet in out.packets:
            wire = encode_packet(packet)
            lines.append(f"{now:.3f} {src}->{dst} {wire.hex()}")
            link.send(src, dst, wire, now)
        for event in out.events:
            if isinstance(event, Complete) and event.data is not None:
                delivered[(src, event.id)] = event.data

    while True:
        deadlines = [d for e in engines.values() if (d := e.next_deadline()) is not None]
        deadline = min(deadlines) if deadlines else None
        delivery_at = clock.peek_time()
        scripted_at = script[0][0] if script else None
        if scripted_at is not None and all(
                t is None or scripted_at <= t for t in (delivery_at, deadline)):
            now, src, dst, payload = script.pop(0)
            engine = engines[src]
            if payload is None:
                dispatch(src, engine.cancel(engine.live_transfer_with(dst), now=now), now)
            else:
                tid, out = engine.start_transfer(dst, f"{src}->{dst}", payload, now=now)
                started.append((src, dst, tid, payload))
                dispatch(src, out, now)
        elif delivery_at is not None and (deadline is None or delivery_at <= deadline):
            now, (dst, src, datagram) = clock.pop()
            if dst in engines:
                dispatch(dst, engines[dst].packet_in(src, decode_packet(datagram), now=now), now)
        elif deadline is not None:
            for name in names:
                dispatch(name, engines[name].tick(deadline), deadline)
        else:
            break
    return lines, started, delivered, engines


def _side(state):
    return {"phase": state.phase.value, "started_at": state.started_at,
            "finished_at": state.finished_at, **vars(state.counters)}


def summarize():
    """The digest of the packet stream and the settled record of every transfer."""
    lines, started, delivered, engines = run_scenario()
    transfers = []
    for src, dst, tid, payload in started:
        transfers.append({
            "sender": src, "receiver": dst, "bytes": len(payload),
            "delivered": delivered.get((dst, tid)) == payload,
            "sender_state": _side(engines[src].transfer(tid)),
            "receiver_state": _side(engines[dst].transfer(tid)) if dst in engines else None,
        })
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"packets": len(lines), "sha256": digest, "transfers": transfers}


def test_multi_peer_stream_matches_golden():
    got = summarize()
    want = json.loads(GOLDEN.read_text())
    assert got["transfers"] == want["transfers"]
    assert (got["packets"], got["sha256"]) == (want["packets"], want["sha256"])
    # the scenario itself: every transfer but the cancelled and unanswered ones delivers
    for record in got["transfers"]:
        lost = record["receiver"] in UNREACHABLE + [CANCEL_PEER]
        assert record["delivered"] is not lost
        assert record["sender_state"]["phase"] == ("failed" if lost else "done")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(summarize(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
