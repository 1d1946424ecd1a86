"""End-to-end command line tests, driving real subprocesses over loopback."""

import os
import random
import socket
import stat
import subprocess
import sys
import time

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
