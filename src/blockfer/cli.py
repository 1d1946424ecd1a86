"""Operator entry points: file transfer over UDP, sweeps, and evaluation runs.

Subcommands: send, recv, sweep, eval, keygen. These flags fall back to a
BLOCKFER_<NAME> environment variable (dashes become underscores, upper
case), e.g. BLOCKFER_BLOCK_SIZE=600:

  send, recv  --block-size --window --interval-ms --attempts --max-size
              --cipher --key --peer-key --seed, and recv's --bind
  sweep       --csv --seed
  eval        --block-size --window --interval-ms --attempts --seed

The others are set by flag only: --to, --port, --out, --info, --wait-s,
the link flags, sweep's --blocks --windows --iterations --data-size
--interval-ms --attempts, and eval's --mode --size --reps. Standard output
carries only requested data and reports; progress and diagnostics go to
standard error.

Exit codes: 0 success, 2 usage error, 3 transfer failure (timeout or peer
refusal), 4 input/output error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from .crypto import (
    IdentityCipher,
    PeerKeyPair,
    SealedCipher,
    load_private_key,
    load_public_key,
    max_block_size,
    save_keypair,
)
from .engine import (
    Complete,
    Engine,
    EngineOutput,
    Errored,
    TransferParameters,
    TransferRefused,
)
from .transport.pump import Pump
from .transport.udp import TransportError, UdpEndpoint, UdpTransport
from .wire import (
    INFO_MAX,
    ErrorCode,
    ErrorPacket,
    WriteRequest,
    decode_packet,
    encode_packet,
)

ENV_PREFIX = "BLOCKFER_"
LINGER_S = 1.0  # keep answering duplicate data after completion


class UsageError(ValueError):
    """Bad flags or option combinations; maps to exit code 2."""


def _env(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {ENV_PREFIX}{name}={raw!r}: {exc}") from exc


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_address(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise UsageError(f"address {text!r} is not host:port")
    try:
        return host, int(port)
    except ValueError as exc:
        raise UsageError(f"bad port in {text!r}") from exc


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc
    if not values:
        raise UsageError(f"empty integer list {text!r}")
    return values


def _build_cipher(args):
    if args.cipher == "identity":
        return IdentityCipher()
    if not args.key or not args.peer_key:
        raise UsageError("--cipher sealed needs --key and --peer-key")
    try:
        return SealedCipher(load_private_key(args.key), load_public_key(args.peer_key))
    except (OSError, ValueError) as exc:
        raise _IoError(f"cannot load keys: {exc}") from exc


class _IoError(Exception):
    """File or socket trouble; maps to exit code 4."""


def _build_params(args, cipher) -> TransferParameters:
    cap = max_block_size(cipher)
    block_size = args.block_size if args.block_size is not None else cap
    if block_size > cap:
        raise UsageError(
            f"block size {block_size} does not fit a sealed datagram (cap {cap})")
    try:
        return TransferParameters(
            block_size=block_size, window_size=args.window,
            retransmit_interval_ms=args.interval_ms, max_attempts=args.attempts,
            max_transfer_size=args.max_size)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_transfer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--block-size", type=int,
                        default=_env("BLOCK_SIZE", int, None),
                        help="payload bytes per data packet "
                             "(default: largest the cipher can carry)")
    parser.add_argument("--window", type=int, default=_env("WINDOW", int, 80),
                        help="blocks per window (default 80)")
    parser.add_argument("--interval-ms", type=float,
                        default=_env("INTERVAL_MS", float, 2000.0),
                        help="ceiling of the retransmit timeout in ms, which "
                             "follows the measured round trip below it (default 2000)")
    parser.add_argument("--attempts", type=int, default=_env("ATTEMPTS", int, 5),
                        help="consecutive retransmits before giving up (default 5)")
    parser.add_argument("--max-size", type=int,
                        default=_env("MAX_SIZE", int, 250 * 2**20),
                        help="largest accepted transfer in bytes (default 250 MiB)")
    parser.add_argument("--cipher", choices=("identity", "sealed"),
                        default=_env("CIPHER", str, "identity"),
                        help="datagram protection (default identity)")
    parser.add_argument("--key", default=_env("KEY", str, None),
                        help="own private key file (sealed mode)")
    parser.add_argument("--peer-key", default=_env("PEER_KEY", str, None),
                        help="peer public key file (sealed mode)")
    parser.add_argument("--seed", type=int, default=_env("SEED", int, None),
                        help="seed for transfer ids (default: fresh entropy)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockfer",
        description="Reliable bulk transfer over unreliable datagram links.")
    sub = parser.add_subparsers(dest="command", required=True)

    send = sub.add_parser("send", help="transfer a file to a listening peer")
    send.add_argument("--to", required=True, help="peer address as host:port")
    send.add_argument("--info", default=None,
                      help="application tag announced with the transfer "
                           "(default: file name)")
    _add_transfer_flags(send)
    send.add_argument("file", help="file to send")
    send.set_defaults(func=_cmd_send)

    recv = sub.add_parser("recv", help="accept one transfer and store it")
    recv.add_argument("--port", type=int, required=True, help="UDP port to bind")
    recv.add_argument("--bind", default=_env("BIND", str, "127.0.0.1"),
                      help="address to bind (default 127.0.0.1)")
    recv.add_argument("--out", required=True, help="path for the received bytes")
    recv.add_argument("--wait-s", type=float, default=None,
                      help="give up if no transfer starts within this many seconds")
    _add_transfer_flags(recv)
    recv.set_defaults(func=_cmd_recv)

    sweep_cmd = sub.add_parser("sweep", help="run the parameter sweep grid")
    sweep_cmd.add_argument("--csv", default=_env("CSV", str, "sweep.csv"),
                           help="CSV output path (default sweep.csv)")
    sweep_cmd.add_argument("--blocks", type=_int_list, default=None,
                           help="comma separated block sizes")
    sweep_cmd.add_argument("--windows", type=_int_list, default=None,
                           help="comma separated window sizes")
    sweep_cmd.add_argument("--iterations", type=int, default=None)
    sweep_cmd.add_argument("--data-size", type=int, default=None,
                           help="bytes per transfer")
    _add_link_flags(sweep_cmd, loss_default=0.01, latency_default=20.0)
    sweep_cmd.add_argument("--interval-ms", type=float, default=None)
    sweep_cmd.add_argument("--attempts", type=int, default=None)
    sweep_cmd.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    sweep_cmd.set_defaults(func=_cmd_sweep)

    eval_cmd = sub.add_parser("eval", help="repeat one large transfer and report")
    eval_cmd.add_argument("--mode", choices=("sim", "loopback"), default="sim")
    eval_cmd.add_argument("--size", type=int, default=250 * 2**20,
                          help="transfer size in bytes (default 250 MiB)")
    eval_cmd.add_argument("--block-size", type=int,
                          default=_env("BLOCK_SIZE", int, 1200))
    eval_cmd.add_argument("--window", type=int, default=_env("WINDOW", int, 80))
    eval_cmd.add_argument("--reps", type=int, default=10)
    _add_link_flags(eval_cmd, loss_default=0.0, latency_default=0.0)
    eval_cmd.add_argument("--interval-ms", type=float,
                          default=_env("INTERVAL_MS", float, 2000.0))
    eval_cmd.add_argument("--attempts", type=int, default=_env("ATTEMPTS", int, 5))
    eval_cmd.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    eval_cmd.set_defaults(func=_cmd_eval)

    keygen = sub.add_parser("keygen", help="write a fresh key pair")
    keygen.add_argument("--out", required=True,
                        help="base path; writes <base>.key and <base>.pub")
    keygen.set_defaults(func=_cmd_keygen)
    return parser


def _add_link_flags(parser, loss_default: float, latency_default: float) -> None:
    parser.add_argument("--loss", type=float, default=loss_default,
                        help="simulated loss probability")
    parser.add_argument("--latency-ms", type=float, default=latency_default,
                        help="simulated one-way latency")
    parser.add_argument("--jitter-ms", type=float, default=0.0)
    parser.add_argument("--reorder", type=float, default=0.0)
    parser.add_argument("--duplicate", type=float, default=0.0)


def _link_from(args):
    from .transport.sim import LinkModel

    try:
        return LinkModel(loss_probability=args.loss, latency_base_ms=args.latency_ms,
                         latency_jitter_ms=args.jitter_ms,
                         reorder_probability=args.reorder,
                         duplicate_probability=args.duplicate)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# --- transfer loops ----------------------------------------------------------


def _pump(endpoint: UdpEndpoint, engine: Engine, cipher) -> Pump:
    return Pump({endpoint.address: engine}, UdpTransport(endpoint),
                encode_packet, decode_packet, cipher)


def _report(done: int, total: int, reported: int) -> int:
    """Print a progress line if the whole percentage moved since reported; return it."""
    percent = 100 * done // total if total else 100
    if percent != reported:
        _err(f"{percent:3d}% ({done}/{total} blocks)")
    return percent


def _cmd_send(args) -> int:
    cipher = _build_cipher(args)
    params = _build_params(args, cipher)
    peer = _parse_address(args.to)
    try:
        with open(args.file, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _IoError(f"cannot read {args.file}: {exc}") from exc

    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    engine = Engine(params=params, rng=rng)
    info = args.info if args.info is not None else os.path.basename(args.file)
    # the wire caps info at INFO_MAX bytes: cut on a character boundary
    info = info.encode("utf-8", "replace")[:INFO_MAX].decode("utf-8", "ignore")

    with UdpEndpoint(bind=("0.0.0.0", 0)) as endpoint:
        pump = _pump(endpoint, engine, cipher)
        tid, out = engine.start_transfer(peer, info, data, now=pump.transport.now())
        pump.flush(endpoint.address, out)
        _err(f"sending {args.file} ({len(data)} bytes) to {args.to}")
        reported = -1
        while True:
            pump.step()
            for event in pump.take_events():
                if isinstance(event, Complete) and event.sent:
                    counters = engine.transfer(tid).counters
                    _err(f"complete: {counters.blocks_sent} blocks sent, "
                         f"{counters.lost_blocks} lost on the way")
                    return 0
                if isinstance(event, Errored):
                    _err(f"transfer failed: {event.code.name}")
                    return 3
            state = engine.transfer(tid)
            reported = _report(min(state.window_index * params.window_size,
                                   state.block_count), state.block_count, reported)


def _cmd_recv(args) -> int:
    cipher = _build_cipher(args)
    params = _build_params(args, cipher)
    try:
        endpoint = UdpEndpoint(bind=(args.bind, args.port))
    except TransportError as exc:
        raise _IoError(str(exc)) from exc

    engine = Engine(params=params, rng=random.Random(args.seed)
                    if args.seed is not None else random.Random())
    pump = _pump(endpoint, engine, cipher)
    peer = tid = offer = None  # the claimed sender and its transfer; an unjudged announcement

    def judge_offer() -> None:
        """Claim the receiver if the engine took the announcement let through."""
        nonlocal peer, tid, offer
        if offer is not None:
            (addr, wr), offer = offer, None
            taken = engine.transfer(wr.id) is not None
            _err(f"{'accepting' if taken else 'refused'} {wr.info!r} "
                 f"({wr.data_size} bytes) from {addr[0]}:{addr[1]}")
            if taken:
                peer, tid = addr, wr.id

    def accept(addr, packet) -> bool:
        nonlocal offer
        judge_offer()  # every datagram before this one has reached the engine
        if peer is None:
            if isinstance(packet, WriteRequest):
                offer = (addr, packet)
                return True
            return False  # strays before any transfer: ignore
        if addr == peer:
            return True
        if isinstance(packet, WriteRequest):  # second sender: turn it away
            out = EngineOutput()
            out.packets.append((addr, ErrorPacket(packet.id, ErrorCode.BUSY, "receiver busy")))
            pump.flush(endpoint.address, out)
        return False

    started = time.monotonic()
    finished_at = None
    received = None
    code = None
    reported = -1
    with endpoint:
        while True:
            pump.step(accept=accept)
            judge_offer()
            for event in pump.take_events():
                if isinstance(event, Complete):
                    received = event.data
                    finished_at = time.monotonic()
                elif isinstance(event, Errored):
                    _err(f"transfer failed: {event.code.name}")
                    code = 3
            if received is not None:
                # linger so a lost final ack still gets answered
                if time.monotonic() - finished_at >= LINGER_S:
                    break
            elif code is not None:
                return code
            elif tid is not None:
                state = engine.transfer(tid)
                reported = _report(state.received_count, state.block_count, reported)
            elif args.wait_s is not None and time.monotonic() - started > args.wait_s:
                failed = (f" ({pump.dropped} datagrams failed to open or decode)"
                          if pump.dropped else "")
                _err(f"no transfer arrived in time{failed}")
                return 3

    try:
        with open(args.out, "wb") as handle:
            handle.write(received)
    except OSError as exc:
        raise _IoError(f"cannot write {args.out}: {exc}") from exc
    _err(f"received {len(received)} bytes into {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from .bench import ExperimentConfig, summarize, sweep

    overrides = {}
    if args.blocks is not None:
        overrides["block_grid"] = args.blocks
    if args.windows is not None:
        overrides["window_grid"] = args.windows
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.data_size is not None:
        overrides["data_size"] = args.data_size
    if args.interval_ms is not None:
        overrides["interval_ms"] = args.interval_ms
    if args.attempts is not None:
        overrides["max_attempts"] = args.attempts
    try:
        config = ExperimentConfig(link=_link_from(args), seed=args.seed, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _err(f"sweeping {len(config.block_grid) * len(config.window_grid)} cells "
         f"x {config.iterations} iterations into {args.csv}")
    try:
        rows = sweep(config, args.csv)
    except OSError as exc:
        raise _IoError(f"cannot write {args.csv}: {exc}") from exc
    print(summarize(rows))
    return 0


def _cmd_eval(args) -> int:
    from .bench import evaluate_large

    try:
        report = evaluate_large(
            data_size=args.size, block_size=args.block_size,
            window_size=args.window, repetitions=args.reps, mode=args.mode,
            link=_link_from(args), interval_ms=args.interval_ms,
            max_attempts=args.attempts, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(report.text())
    if not all(stats.completed for stats in report.stats):
        _err("at least one repetition failed")
        return 3
    return 0


def _cmd_keygen(args) -> int:
    try:
        private_path, public_path = save_keypair(PeerKeyPair.generate(), args.out)
    except OSError as exc:
        raise _IoError(f"cannot write key pair: {exc}") from exc
    _err(f"wrote {private_path} (private, keep safe) and {public_path} (share)")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:  # bad BLOCKFER_* values surface during parsing
        _err(str(exc))
        return 2
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        _err(str(exc))
        return 2
    except TransferRefused as exc:
        _err(str(exc))
        return 3
    except (_IoError, TransportError, OSError) as exc:
        _err(str(exc))
        return 4
    except KeyboardInterrupt:
        _err("interrupted")
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
