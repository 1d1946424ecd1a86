"""End-to-end command line tests, driving real subprocesses over loopback."""

import os
import random
import re
import socket
import stat
import subprocess
import sys
import time

from blockfer.crypto import PeerKeyPair, save_keypair
from blockfer.wire import (
    Acknowledgement,
    Data,
    ErrorCode,
    ErrorPacket,
    WriteRequest,
    decode_packet,
    encode_packet,
)

CLI = [sys.executable, "-m", "blockfer.cli"]


def run_cli(*args, env_extra=None, timeout=90):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run([*CLI, *map(str, args)], capture_output=True,
                          text=True, env=env, timeout=timeout)


def free_port() -> int:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_no_arguments_is_a_usage_error():
    result = run_cli()
    assert result.returncode == 2
    assert result.stdout == ""


def test_bad_flag_value_is_a_usage_error():
    result = run_cli("send", "--to", "127.0.0.1:9", "--block-size", "0", "/dev/null")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "block" in result.stderr.lower()


def test_send_missing_file_is_an_io_error(tmp_path):
    result = run_cli("send", "--to", "127.0.0.1:9", tmp_path / "absent.bin")
    assert result.returncode == 4
    assert result.stdout == ""


def test_keygen_writes_locked_down_keypair(tmp_path):
    base = tmp_path / "alice"
    result = run_cli("keygen", "--out", base)
    assert result.returncode == 0
    assert result.stdout == ""
    private, public = base.with_suffix(".key"), base.with_suffix(".pub")
    assert private.read_bytes() != public.read_bytes()
    assert len(private.read_bytes()) == 32 and len(public.read_bytes()) == 32
    assert stat.S_IMODE(private.stat().st_mode) == 0o600


def test_send_to_dead_port_exits_3(tmp_path):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x" * 500)
    started = time.monotonic()
    result = run_cli("send", "--to", f"127.0.0.1:{free_port()}",
                     "--interval-ms", "100", "--attempts", "3", payload)
    assert result.returncode == 3
    assert "timeout" in result.stderr.lower()
    assert time.monotonic() - started < 15


def test_multibyte_info_is_cut_on_a_character_boundary(tmp_path):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x" * 500)
    # 40 two-byte characters: 80 bytes, past the 64-byte wire limit
    result = run_cli("send", "--to", f"127.0.0.1:{free_port()}", "--info", "\u00e9" * 40,
                     "--interval-ms", "50", "--attempts", "1", payload)
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr


def send_receive(tmp_path, size, extra_send=(), extra_recv=(), env_extra=None):
    data = random.Random(size).randbytes(size)
    source = tmp_path / "in.bin"
    sink = tmp_path / "out.bin"
    source.write_bytes(data)
    port = free_port()
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(sink),
         "--wait-s", "30", *map(str, extra_recv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, **(env_extra or {})})
    try:
        send = run_cli("send", "--to", f"127.0.0.1:{port}",
                       "--interval-ms", "200", "--attempts", "20",
                       *extra_send, source, env_extra=env_extra)
        recv_out, recv_err = recv.communicate(timeout=60)
    finally:
        if recv.poll() is None:
            recv.kill()
            recv.communicate()
    assert send.returncode == 0, send.stderr
    assert recv.returncode == 0, recv_err
    assert send.stdout == "" and recv_out == ""
    assert sink.read_bytes() == data
    return send, recv_err


def test_loopback_transfer_end_to_end(tmp_path):
    send, _ = send_receive(tmp_path, 300_000)
    assert "100%" in send.stderr or "complete" in send.stderr.lower()


def test_loopback_transfer_sealed(tmp_path):
    assert run_cli("keygen", "--out", tmp_path / "alice").returncode == 0
    assert run_cli("keygen", "--out", tmp_path / "bob").returncode == 0
    send_receive(
        tmp_path, 100_000,
        extra_send=["--cipher", "sealed", "--key", tmp_path / "alice.key",
                    "--peer-key", tmp_path / "bob.pub"],
        extra_recv=["--cipher", "sealed", "--key", tmp_path / "bob.key",
                    "--peer-key", tmp_path / "alice.pub"])


def test_sealed_transfer_to_the_wrong_peer_key_fails_closed(tmp_path):
    """A sender sealing to a key that is not the receiver's is noise to it:
    every datagram fails authentication, both sides time out and no file
    is written. The receiver says how many datagrams it could not open, so
    a wrong key can be told from silence."""
    rng = random.Random(13)
    keys = {name: save_keypair(PeerKeyPair.generate(rng), tmp_path / name)
            for name in ("alice", "bob", "carol")}
    source, sink = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(b"z" * 5000)
    port = free_port()
    started = time.monotonic()
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(sink), "--wait-s", "2",
         "--cipher", "sealed", "--key", str(keys["bob"][0]),
         "--peer-key", str(keys["alice"][1])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        send = run_cli("send", "--to", f"127.0.0.1:{port}",
                       "--interval-ms", "100", "--attempts", "2",
                       "--cipher", "sealed", "--key", keys["alice"][0],
                       "--peer-key", keys["carol"][1], source)
        _, recv_err = recv.communicate(timeout=20)
    finally:
        if recv.poll() is None:
            recv.kill()
            recv.communicate()
    assert send.returncode == 3, send.stderr
    assert "TIMEOUT" in send.stderr
    assert recv.returncode == 3, recv_err
    assert "no transfer arrived in time" in recv_err
    failed = re.search(r"\((\d+) datagrams failed to open or decode\)", recv_err)
    assert failed is not None and int(failed[1]) >= 1, recv_err
    assert not sink.exists()
    assert time.monotonic() - started < 10


def test_sealed_requires_key_files():
    result = run_cli("send", "--to", "127.0.0.1:9", "--cipher", "sealed", "/dev/null")
    assert result.returncode == 2


def test_environment_prefix_feeds_defaults(tmp_path):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"y" * 100)
    result = run_cli("send", "--to", "127.0.0.1:9", payload,
                     env_extra={"BLOCKFER_BLOCK_SIZE": "4000"})
    assert result.returncode == 2
    assert "block" in result.stderr.lower()


def test_recv_gives_up_after_wait(tmp_path):
    result = run_cli("recv", "--port", str(free_port()),
                     "--out", tmp_path / "o.bin", "--wait-s", "0.3")
    assert result.returncode == 3
    assert not (tmp_path / "o.bin").exists()


def test_sweep_writes_deterministic_csv_and_summary(tmp_path):
    args = ("sweep", "--blocks", "600,1200", "--windows", "16", "--iterations", "1",
            "--data-size", "30000", "--loss", "0.02", "--latency-ms", "2",
            "--seed", "7")
    first = run_cli(*args, "--csv", tmp_path / "a.csv")
    second = run_cli(*args, "--csv", tmp_path / "b.csv")
    assert first.returncode == 0, first.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 3
    assert "mean_Bps" in first.stdout
    assert first.stdout == second.stdout


def test_eval_sim_prints_report(tmp_path):
    result = run_cli("eval", "--mode", "sim", "--size", "200000", "--reps", "1",
                     "--latency-ms", "2", "--seed", "3")
    assert result.returncode == 0, result.stderr
    assert "throughput" in result.stdout
    assert "window retransmits" in result.stdout


def test_recv_refusal_keeps_waiting_for_a_valid_sender(tmp_path):
    """An announcement over --max-size is refused without claiming the
    receiver: the next sender's file arrives and recv exits 0."""
    oversize, valid, sink = tmp_path / "big.bin", tmp_path / "ok.bin", tmp_path / "out.bin"
    oversize.write_bytes(b"b" * 5000)
    data = random.Random(5).randbytes(800)
    valid.write_bytes(data)
    port = free_port()
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(sink),
         "--max-size", "1000", "--wait-s", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        send_args = ("send", "--to", f"127.0.0.1:{port}", "--interval-ms", "200",
                     "--attempts", "20")
        refused = run_cli(*send_args, oversize)
        accepted = run_cli(*send_args, valid)
        _, recv_err = recv.communicate(timeout=30)
    finally:
        if recv.poll() is None:
            recv.kill()
            recv.communicate()
    assert refused.returncode == 3 and "SIZE_EXCEEDED" in refused.stderr
    assert accepted.returncode == 0, accepted.stderr
    assert recv.returncode == 0, recv_err
    assert "refused 'big.bin' (5000 bytes)" in recv_err
    assert "accepting 'ok.bin' (800 bytes)" in recv_err
    assert sink.read_bytes() == data


def wait_until_bound(port: int, deadline_s: float = 20.0) -> None:
    """Return once some socket is bound to the UDP port, read from /proc/net/udp."""
    suffix = f":{port:04X}"
    give_up = time.monotonic() + deadline_s
    while True:
        with open("/proc/net/udp") as table:
            next(table)
            if any(line.split()[1].endswith(suffix) for line in table):
                return
        assert time.monotonic() < give_up, f"nothing bound port {port}"
        time.sleep(0.01)


def test_recv_claims_the_first_announcement_and_times_out_when_it_goes_silent(tmp_path):
    """Raw sockets against recv: a stray Data before any announcement is
    ignored, the first WriteRequest claims the receiver, a second sender is
    turned away BUSY, and the silent claimed sender ends recv with TIMEOUT."""
    port = free_port()
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(tmp_path / "o.bin"),
         "--interval-ms", "100", "--attempts", "2", "--wait-s", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    second = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for sock in (first, second):
            sock.bind(("127.0.0.1", 0))
            sock.settimeout(10.0)
        wait_until_bound(port)
        to = ("127.0.0.1", port)
        announce = dict(info="doc", data_size=10, block_size=5, window_size=2,
                        block_count=2, nonce=1)
        # recv takes datagrams in order, so an answer to the stray Data
        # would reach the first socket ahead of the announcement's ack
        first.sendto(encode_packet(Data(id=6, block_number=0, payload=b"x" * 5)), to)
        first.sendto(encode_packet(WriteRequest(id=7, **announce)), to)
        assert decode_packet(first.recv(2048)) == Acknowledgement(7, 0, ())
        second.sendto(encode_packet(WriteRequest(id=8, **announce)), to)
        refusal = decode_packet(second.recv(2048))
        assert isinstance(refusal, ErrorPacket)
        assert (refusal.id, refusal.code) == (8, ErrorCode.BUSY)
        _, recv_err = recv.communicate(timeout=20)
    finally:
        first.close()
        second.close()
        if recv.poll() is None:
            recv.kill()
            recv.communicate()
    assert recv.returncode == 3, recv_err
    assert "accepting 'doc' (10 bytes)" in recv_err
    assert "transfer failed: TIMEOUT" in recv_err
    assert not (tmp_path / "o.bin").exists()
