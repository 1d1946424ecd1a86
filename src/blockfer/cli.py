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
import contextlib
import dataclasses
import math
import os
import random
import sys
import tempfile
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
    DEFAULT_MAX_TRANSFER_SIZE,
    Complete,
    Engine,
    EngineOutput,
    Errored,
    SenderPhase,
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
LINGER_S = 1.0  # recv answers stragglers this long after completion, plus its interval
_DEFAULTS = TransferParameters()  # the flags' fallbacks, stated once
_MAX_SIZE_MIB = DEFAULT_MAX_TRANSFER_SIZE // 2**20


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
        number = int(port)
    except ValueError as exc:
        raise UsageError(f"bad port in {text!r}") from exc
    if not 1 <= number <= 65535:
        raise UsageError(f"port in {text!r} is not in 1-65535")
    return host, number


def _int_list(text: str) -> tuple:
    """A type= callable: argparse shows an ArgumentTypeError's own message."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {text!r}")
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
    _add_window_flags(parser)
    parser.add_argument("--max-size", type=int,
                        default=_env("MAX_SIZE", int, DEFAULT_MAX_TRANSFER_SIZE),
                        help=f"largest accepted transfer in bytes (default {_MAX_SIZE_MIB} MiB)")
    parser.add_argument("--cipher", choices=("identity", "sealed"),
                        default=_env("CIPHER", str, "identity"),
                        help="datagram protection (default identity)")
    parser.add_argument("--key", default=_env("KEY", str, None),
                        help="own private key file (sealed mode)")
    parser.add_argument("--peer-key", default=_env("PEER_KEY", str, None),
                        help="peer public key file (sealed mode)")
    parser.add_argument("--seed", type=int, default=_env("SEED", int, None),
                        help="seed for transfer ids (default: fresh entropy)")


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    """--window, --interval-ms and --attempts, which send, recv and eval share."""
    parser.add_argument("--window", type=int,
                        default=_env("WINDOW", int, _DEFAULTS.window_size),
                        help=f"blocks per window (default {_DEFAULTS.window_size})")
    parser.add_argument("--interval-ms", type=float,
                        default=_env("INTERVAL_MS", float, _DEFAULTS.retransmit_interval_ms),
                        help="ceiling of the retransmit timeout in ms, which "
                             "follows the measured round trip below it "
                             f"(default {_DEFAULTS.retransmit_interval_ms:g})")
    parser.add_argument("--attempts", type=int,
                        default=_env("ATTEMPTS", int, _DEFAULTS.max_attempts),
                        help="consecutive retransmits before giving up "
                             f"(default {_DEFAULTS.max_attempts})")


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
    # the grid and timer flags are ExperimentConfig fields, left unset unless given
    unset = argparse.SUPPRESS
    sweep_cmd.add_argument("--blocks", type=_int_list, default=unset, dest="block_grid",
                           metavar="BLOCKS", help="comma separated block sizes")
    sweep_cmd.add_argument("--windows", type=_int_list, default=unset, dest="window_grid",
                           metavar="WINDOWS", help="comma separated window sizes")
    sweep_cmd.add_argument("--iterations", type=int, default=unset)
    sweep_cmd.add_argument("--data-size", type=int, default=unset,
                           help="bytes per transfer")
    _add_link_flags(sweep_cmd, loss_default=0.01, latency_default=20.0)
    sweep_cmd.add_argument("--interval-ms", type=float, default=unset)
    sweep_cmd.add_argument("--attempts", type=int, default=unset, dest="max_attempts",
                           metavar="ATTEMPTS")
    sweep_cmd.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    sweep_cmd.set_defaults(func=_cmd_sweep)

    eval_cmd = sub.add_parser("eval", help="repeat one large transfer and report")
    eval_cmd.add_argument("--mode", choices=("sim", "loopback"), default="sim")
    eval_cmd.add_argument("--size", type=int, default=DEFAULT_MAX_TRANSFER_SIZE,
                          help=f"transfer size in bytes (default {_MAX_SIZE_MIB} MiB)")
    eval_cmd.add_argument("--block-size", type=int,
                          default=_env("BLOCK_SIZE", int, _DEFAULTS.block_size))
    _add_window_flags(eval_cmd)
    eval_cmd.add_argument("--reps", type=int, default=10)
    _add_link_flags(eval_cmd, loss_default=0.0, latency_default=0.0)
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


def _pump(endpoint: UdpEndpoint, engine, cipher) -> Pump:
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

    engine = Engine(params=params, rng=random.Random(args.seed))
    info = args.info if args.info is not None else os.path.basename(args.file)
    # the wire caps info at INFO_MAX bytes: cut on a character boundary
    info = info.encode("utf-8", "replace")[:INFO_MAX].decode("utf-8", "ignore")

    with UdpEndpoint(bind=("0.0.0.0", 0)) as endpoint:
        pump = _pump(endpoint, engine, cipher)
        tid, out = engine.start_transfer(peer, info, data, now=pump.transport.now())
        pump.flush(endpoint.address, out)
        _err(f"sending {args.file} ({len(data)} bytes) to {args.to}")
        state, reported = engine.transfer(tid), -1  # the same object once it settles
        while state.finished_at is None:
            pump.step()
            reported = _report(min(state.window_index * params.window_size,
                                   state.block_count), state.block_count, reported)
    if state.phase is SenderPhase.FAILED:
        _err(f"transfer failed: {state.error.name}")
        return 3
    _err(f"complete: {state.counters.blocks_sent} blocks sent, "
         f"{state.counters.lost_blocks} lost on the way")
    return 0


class _OneClaim(Engine):
    """recv's engine: the Engine with one rule on top.

    The first announcement the engine accepts claims recv for its (peer,
    id); from then on every other announcement, from any address, draws
    BUSY. Every other datagram meets the engine's own rules.
    """

    claimed = None  # (peer, id) of the one transfer recv takes

    def packet_in(self, peer, packet, now: float) -> EngineOutput:
        if not isinstance(packet, WriteRequest) or self.claimed == (peer, packet.id):
            return Engine.packet_in(self, peer, packet, now)  # per datagram: cheaper than super()
        if self.claimed is not None:
            out = EngineOutput()
            out.packets.append((peer, ErrorPacket(packet.id, ErrorCode.BUSY, "receiver busy")))
            return out
        out = Engine.packet_in(self, peer, packet, now)
        if self.transfer(packet.id) is not None:  # nothing else ever went live
            self.claimed = peer, packet.id
        _err(f"{'accepting' if self.claimed else 'refused'} {packet.info!r} "
             f"({packet.data_size} bytes) from {peer[0]}:{peer[1]}")
        return out


@contextlib.contextmanager
def _stage(path: str):
    """A temporary file next to path, made at once, so that a path recv
    cannot write fails before any peer is answered. Yields store(data),
    which writes data there and renames the file onto path; every other
    way out removes the file."""
    if os.path.isdir(path):  # the rename onto it would fail only after the final ack
        raise _IoError(f"cannot write {path}: it is a directory")
    try:
        fd, part = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.", suffix=".part",
                                    dir=os.path.dirname(os.path.abspath(path)))
    except OSError as exc:
        raise _IoError(f"cannot write {path}: {exc}") from exc
    os.close(fd)

    def store(data: bytes) -> None:
        try:
            with open(part, "wb") as handle:
                handle.write(data)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(part, 0o666 & ~umask)  # the mode a plain open() would have given
            os.replace(part, path)
        except OSError as exc:
            raise _IoError(f"cannot write {path}: {exc}") from exc

    try:
        yield store
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)  # gone already once stored


def _cmd_recv(args) -> int:
    cipher = _build_cipher(args)
    params = _build_params(args, cipher)
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port {args.port} is not in 0-65535")
    if args.wait_s is not None and not (math.isfinite(args.wait_s) and args.wait_s >= 0):
        raise UsageError("--wait-s must be finite and not negative")
    with _stage(args.out) as store, UdpEndpoint(bind=(args.bind, args.port)) as endpoint:
        engine = _OneClaim(params=params, rng=random.Random(args.seed))
        pump = _pump(endpoint, engine, cipher)
        started = time.monotonic()
        linger_until = None
        reported = -1
        while True:
            pump.step()
            for event in pump.take_events():
                if isinstance(event, Complete):
                    store(event.data)
                    _err(f"received {len(event.data)} bytes into {args.out}")
                    # linger so a lost final ack still gets answered: a sender
                    # with no RTT sample probes only after its whole interval
                    linger_until = (time.monotonic() + LINGER_S
                                    + params.retransmit_interval_ms / 1000.0)
                elif isinstance(event, Errored):
                    _err(f"transfer failed: {event.code.name}")
                    return 3
            if linger_until is not None:
                if time.monotonic() >= linger_until:
                    return 0
            elif engine.claimed is not None:
                state = engine.transfer(engine.claimed[1])
                reported = _report(state.counters.blocks_received, state.block_count, reported)
            elif args.wait_s is not None and time.monotonic() - started > args.wait_s:
                failed = (f" ({pump.dropped} datagrams failed to open or decode)"
                          if pump.dropped else "")
                _err(f"no transfer arrived in time{failed}")
                return 3


def _cmd_sweep(args) -> int:
    from .bench import ExperimentConfig, summarize, sweep

    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {name: value for name, value in vars(args).items() if name in fields}
    try:
        config = ExperimentConfig(link=_link_from(args), **overrides)
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
