"""End-to-end command line tests, driving real subprocesses over loopback."""

import os
import random
import re
import select
import socket
import stat
import subprocess
import sys
import time

import pytest

from blockfer import cli
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


def cli_env(env_extra=None) -> dict:
    """This environment, which conftest cleared of BLOCKFER_* variables, then
    env_extra: a child reads only the defaults a test gives it."""
    return {**os.environ, **(env_extra or {})}


def run_cli(*args, env_extra=None, timeout=90):
    return subprocess.run([*CLI, *map(str, args)], capture_output=True,
                          text=True, env=cli_env(env_extra), timeout=timeout)


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


def test_bad_flag_value_is_a_usage_error(tmp_path):
    csv = tmp_path / "s.csv"
    for args in (("send", "--to", "127.0.0.1:9", "--block-size", "0", "/dev/null"),
                 ("sweep", "--blocks", "5000,600", "--csv", csv),
                 ("eval", "--block-size", "5000")):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert "block" in result.stderr.lower()
    assert not csv.exists()  # the sweep's grid is checked before any cell runs


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
        env=cli_env(env_extra))
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
    keys = {name: save_keypair(PeerKeyPair(rng.randbytes(32)), tmp_path / name)
            for name in ("alice", "bob", "carol")}
    source, sink = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(b"z" * 5000)
    port = free_port()
    started = time.monotonic()
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(sink), "--wait-s", "2",
         "--cipher", "sealed", "--key", str(keys["bob"][0]),
         "--peer-key", str(keys["alice"][1])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env())
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


def test_a_variable_is_read_only_by_the_command_that_runs_without_its_flag(
        tmp_path, monkeypatch, capsys):
    """A bad BLOCKFER_WINDOW stops only a command that would use it: keygen
    has no --window, --help converts nothing, and a given --window wins."""
    monkeypatch.setenv("BLOCKFER_WINDOW", "abc")
    assert cli.main(["keygen", "--out", str(tmp_path / "k")]) == 0
    assert cli.main(["--help"]) == 0
    assert cli.main(["send", "--help"]) == 0
    assert cli.main(["send", "--window", "80", "--to", "127.0.0.1:9",
                     str(tmp_path / "absent.bin")]) == 4  # past parsing, to the read
    assert "cannot read" in capsys.readouterr().err


def test_a_variable_must_meet_its_flags_choices(tmp_path, monkeypatch, capsys):
    """BLOCKFER_CIPHER=bogus is refused as --cipher bogus is, before any
    datagram leaves; with keys at hand it must not run a sealed transfer."""
    for name in ("alice", "bob"):
        save_keypair(PeerKeyPair.generate(), str(tmp_path / name))
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"c" * 300)
    monkeypatch.setenv("BLOCKFER_CIPHER", "bogus")
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
        peer.bind(("127.0.0.1", 0))
        code = cli.main(["send", "--to", f"127.0.0.1:{peer.getsockname()[1]}",
                         "--key", str(tmp_path / "alice.key"),
                         "--peer-key", str(tmp_path / "bob.pub"),
                         "--interval-ms", "10", "--attempts", "1", str(payload)])
        assert select.select([peer], [], [], 0)[0] == []
    assert code == 2
    assert "bad BLOCKFER_CIPHER='bogus'" in capsys.readouterr().err


def test_recv_gives_up_after_wait(tmp_path):
    result = run_cli("recv", "--port", str(free_port()),
                     "--out", tmp_path / "o.bin", "--wait-s", "0.3")
    assert result.returncode == 3
    assert not (tmp_path / "o.bin").exists()


def count_selects(monkeypatch, before=None):
    """Record the timeout of every select.select call; before(readers), if
    given, runs ahead of each one."""
    timeouts, real_select = [], select.select

    def counted(readers, writers, errors, timeout=None):
        if before is not None:
            before(readers)
        timeouts.append(timeout)
        return real_select(readers, writers, errors, timeout)

    monkeypatch.setattr(select, "select", counted)
    return timeouts


def test_an_idle_recv_sleeps_in_one_wait_until_wait_s_ends(tmp_path, monkeypatch, capsys):
    """recv waits for the claim with --wait-s as its deadline: one select for
    the whole 0.3 s, not a wake-up every 0.2 s, and it gives up when it ends."""
    timeouts = count_selects(monkeypatch)
    started = time.monotonic()
    code = cli.main(["recv", "--port", "0", "--out", str(tmp_path / "o.bin"),
                     "--wait-s", "0.3"])
    elapsed = time.monotonic() - started
    assert code == 3
    assert "no transfer arrived in time" in capsys.readouterr().err
    assert len(timeouts) == 1 and 0.25 < timeouts[0] <= 0.3
    assert elapsed >= 0.3
    assert not (tmp_path / "o.bin").exists()


def test_recv_with_wait_s_0_still_takes_an_announcement_already_queued(
        tmp_path, monkeypatch, capsys):
    """--wait-s 0 looks once at what has arrived: an announcement queued
    before that first, zero-length wait claims recv, whose transfer then
    times out on its own timer as its sender stays silent."""
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    peer.settimeout(5.0)
    announcement = WriteRequest(id=7, info="doc", data_size=10, block_size=5,
                                window_size=2, block_count=2, nonce=1)
    real_select = select.select

    def queue_announcement(readers):
        if not timeouts:
            [endpoint] = readers
            peer.sendto(encode_packet(announcement), endpoint.address)
            assert real_select(readers, [], [], 5.0)[0]  # queued by now

    timeouts = count_selects(monkeypatch, queue_announcement)
    try:
        code = cli.main(["recv", "--port", "0", "--out", str(tmp_path / "o.bin"),
                         "--wait-s", "0", "--interval-ms", "1", "--attempts", "1"])
        assert decode_packet(peer.recv(2048)) == Acknowledgement(7, 0, ())
    finally:
        peer.close()
    err = capsys.readouterr().err
    assert code == 3
    assert "accepting 'doc' (10 bytes)" in err and "transfer failed: TIMEOUT" in err
    assert timeouts[0] == 0
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


def test_eval_over_a_jittered_lossless_link_completes():
    """Jitter of 500 ms around 20 ms delays blocks past the sender's timeout,
    so it probes, yet nothing is lost: eval reports and exits 0."""
    result = run_cli("eval", "--mode", "sim", "--size", "1048576", "--reps", "3",
                     "--latency-ms", "20", "--jitter-ms", "500")
    assert result.returncode == 0, result.stderr
    assert "transfers            3 (3 completed)" in result.stdout


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
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env())
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
    """Raw sockets against recv: a stray Data before any announcement draws
    nothing and a stray Acknowledgement draws UNKNOWN_TRANSFER, as the
    engine answers them; the first WriteRequest claims the receiver. A second
    address's Data then draws nothing, its Acknowledgement UNKNOWN_TRANSFER
    and its WriteRequest BUSY, and the silent claimed sender ends recv with
    TIMEOUT."""
    port = free_port()
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(tmp_path / "o.bin"),
         "--interval-ms", "100", "--attempts", "2", "--wait-s", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env())
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
        # recv takes datagrams in order, so an answer to a stray Data would
        # reach the socket ahead of the answer to the datagram behind it
        first.sendto(encode_packet(Data(id=6, block_number=0, payload=b"x" * 5)), to)
        first.sendto(encode_packet(Acknowledgement(5, 0, ())), to)
        unknown = decode_packet(first.recv(2048))
        assert isinstance(unknown, ErrorPacket)
        assert (unknown.id, unknown.code) == (5, ErrorCode.UNKNOWN_TRANSFER)
        first.sendto(encode_packet(WriteRequest(id=7, **announce)), to)
        assert decode_packet(first.recv(2048)) == Acknowledgement(7, 0, ())
        second.sendto(encode_packet(Data(id=7, block_number=0, payload=b"z" * 5)), to)
        second.sendto(encode_packet(Acknowledgement(7, 0, ())), to)
        unknown = decode_packet(second.recv(2048))
        assert isinstance(unknown, ErrorPacket)
        assert (unknown.id, unknown.code) == (7, ErrorCode.UNKNOWN_TRANSFER)
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


def test_recv_takes_one_transfer_and_turns_its_peers_next_one_away(tmp_path):
    """After Complete, while recv lingers, a new announcement from the
    claimed address draws BUSY and its Data draws nothing: the file keeps
    the first transfer's bytes and recv reports one receipt."""
    port = free_port()
    sink = tmp_path / "o.bin"
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(sink),
         "--interval-ms", "200", "--wait-s", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env())
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(10.0)
        wait_until_bound(port)
        to = ("127.0.0.1", port)
        announce = dict(data_size=10, block_size=5, window_size=2, block_count=2, nonce=1)
        claimed = WriteRequest(id=7, info="doc", **announce)
        sock.sendto(encode_packet(claimed), to)
        sock.sendto(encode_packet(Data(id=7, block_number=0, payload=b"x" * 5)), to)
        sock.sendto(encode_packet(Data(id=7, block_number=1, payload=b"y" * 5)), to)
        assert decode_packet(sock.recv(2048)) == Acknowledgement(7, 0, ())
        assert decode_packet(sock.recv(2048)) == Acknowledgement(7, 1, ())
        sock.sendto(encode_packet(WriteRequest(id=8, info="next", **announce)), to)
        refusal = decode_packet(sock.recv(2048))
        assert isinstance(refusal, ErrorPacket)
        assert (refusal.id, refusal.code) == (8, ErrorCode.BUSY)
        sock.sendto(encode_packet(Data(id=8, block_number=0, payload=b"z" * 5)), to)
        sock.sendto(encode_packet(Data(id=8, block_number=1, payload=b"z" * 5)), to)
        # the claimed announcement again draws the final ack, and nothing before it
        sock.sendto(encode_packet(claimed), to)
        assert decode_packet(sock.recv(2048)) == Acknowledgement(7, 1, ())
        _, recv_err = recv.communicate(timeout=20)
    finally:
        sock.close()
        if recv.poll() is None:
            recv.kill()
            recv.communicate()
    assert recv.returncode == 0, recv_err
    assert sink.read_bytes() == b"x" * 5 + b"y" * 5
    assert recv_err.count("received ") == 1, recv_err


def test_recv_lingers_a_whole_interval_for_a_lost_final_ack(tmp_path):
    """A sender with no RTT sample probes only after its whole interval, so
    recv keeps answering for that long after completion: a block re-sent about
    2 s after the final ack, against a 3 s interval, draws the final ack
    again. The file is already written while recv lingers."""
    port = free_port()
    sink = tmp_path / "o.bin"
    recv = subprocess.Popen(
        [*CLI, "recv", "--port", str(port), "--out", str(sink),
         "--interval-ms", "3000", "--wait-s", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env())
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(10.0)
        wait_until_bound(port)
        to = ("127.0.0.1", port)
        sock.sendto(encode_packet(WriteRequest(id=7, info="doc", data_size=10, block_size=5,
                                               window_size=2, block_count=2, nonce=1)), to)
        assert decode_packet(sock.recv(2048)) == Acknowledgement(7, 0, ())
        last = Data(id=7, block_number=1, payload=b"y" * 5)
        sock.sendto(encode_packet(Data(id=7, block_number=0, payload=b"x" * 5)), to)
        sock.sendto(encode_packet(last), to)
        assert decode_packet(sock.recv(2048)) == Acknowledgement(7, 1, ())
        time.sleep(2.0)  # the final ack was lost; the sender's probe comes late
        sock.sendto(encode_packet(last), to)
        assert decode_packet(sock.recv(2048)) == Acknowledgement(7, 1, ())
        assert recv.poll() is None and sink.read_bytes() == b"x" * 5 + b"y" * 5
        _, recv_err = recv.communicate(timeout=20)
    finally:
        sock.close()
        if recv.poll() is None:
            recv.kill()
            recv.communicate()
    assert recv.returncode == 0, recv_err
    assert sink.read_bytes() == b"x" * 5 + b"y" * 5


def test_a_bad_integer_list_says_what_is_wrong_with_it(tmp_path):
    """argparse keeps an ArgumentTypeError's own message, where a ValueError
    would read "invalid _int_list value"."""
    for blocks, message in (("600,x", "bad integer list '600,x'"),
                            (",", "empty integer list ','")):
        result = run_cli("sweep", "--blocks", blocks, "--csv", tmp_path / "s.csv")
        assert result.returncode == 2
        assert f"argument --blocks: {message}" in result.stderr
    assert not (tmp_path / "s.csv").exists()


def test_a_sweep_rerun_prints_the_summary_of_the_fresh_run(tmp_path):
    """Fresh rows carry the CSV's rounding as reused rows do, so a rerun that
    reuses every row prints what the run that wrote them printed."""
    args = ("sweep", "--blocks", "600,1200", "--windows", "16,80", "--iterations", "2",
            "--data-size", "200000", "--loss", "0.02", "--latency-ms", "5",
            "--seed", "9", "--csv", tmp_path / "s.csv")
    fresh = run_cli(*args)
    written = (tmp_path / "s.csv").read_bytes()
    rerun = run_cli(*args)
    assert fresh.returncode == 0 and rerun.returncode == 0, fresh.stderr + rerun.stderr
    assert (tmp_path / "s.csv").read_bytes() == written
    assert rerun.stdout == fresh.stdout


def test_recv_to_an_unwritable_path_fails_before_it_binds(tmp_path):
    for out in (tmp_path / "missing" / "x", tmp_path):
        started = time.monotonic()
        result = run_cli("recv", "--port", free_port(), "--out", out, "--wait-s", "5")
        assert result.returncode == 4
        assert f"cannot write {out}" in result.stderr
        assert time.monotonic() - started < 2
    assert list(tmp_path.iterdir()) == []


def test_recv_leaves_only_the_file_it_stored(tmp_path):
    """The bytes wait in a temporary file next to --out: a received file is
    renamed into place with the mode a plain open() gives, and a run that
    stores nothing, timed out or unable to bind, leaves nothing behind."""
    gave_up = tmp_path / "gave_up"
    gave_up.mkdir()
    assert run_cli("recv", "--port", free_port(), "--out", gave_up / "o.bin",
                   "--wait-s", "0.3").returncode == 3
    held = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        held.bind(("127.0.0.1", 0))
        result = run_cli("recv", "--port", held.getsockname()[1],
                         "--out", gave_up / "o.bin", "--wait-s", "5")
    finally:
        held.close()
    assert result.returncode == 4 and "cannot bind" in result.stderr
    assert list(gave_up.iterdir()) == []

    send_receive(tmp_path, 3000)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gave_up", "in.bin", "out.bin"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("args, env_extra, code, message", [
    (("send", "--to", "127.0.0.1:9", "--max-size", "1000", "{payload}"), None, 3,
     "transfer size 5000 exceeds cap 1000"),
    (("send", "--to", "localhost", "{payload}"), None, 2, "'localhost' is not host:port"),
    (("eval", "--reps", "1"), {"BLOCKFER_WINDOW": "abc"}, 2, "bad BLOCKFER_WINDOW='abc'"),
    (("eval", "--mode", "sim", "--size", "20000", "--reps", "1", "--loss", "1.0",
      "--latency-ms", "1", "--interval-ms", "10", "--attempts", "1"), None, 3,
     "at least one repetition failed"),
    (("send", "--to", "127.0.0.1:70000", "{payload}"), None, 2, "is not in 1-65535"),
    (("send", "--to", "127.0.0.1:-5", "{payload}"), None, 2, "is not in 1-65535"),
    (("recv", "--port", "70000", "--out", "{payload}.out"), None, 2,
     "--port 70000 is not in 0-65535"),
    (("send", "--to", "127.0.0.1:9", "--interval-ms", "nan", "--attempts", "1", "{payload}"),
     None, 2, "retransmit_interval_ms must be finite and at least 1"),
    (("recv", "--port", "0", "--out", "{payload}.out", "--wait-s", "nan"), None, 2,
     "--wait-s must be finite and not negative"),
    (("eval", "--mode", "sim", "--size", "20000", "--reps", "2", "--latency-ms", "nan"),
     None, 2, "latency_base_ms must be finite"),
    (("eval", "--reps", "1", "--jitter-ms", "-1"), None, 2,
     "latency_jitter_ms must be finite and not negative"),
    (("send", "--to", "127.0.0.1:9", "--cipher", "sealed", "--key", "{payload}",
      "--peer-key", "{payload}", "{payload}"), None, 4, "cannot load keys"),
    (("send", "--to", "127.0.0.1:9", "--interval-ms", "0.5", "{payload}"), None, 2,
     "retransmit_interval_ms must be finite and at least 1"),
    (("recv", "--port", "0", "--out", "{payload}.out", "--interval-ms", "0.5"), None, 2,
     "retransmit_interval_ms must be finite and at least 1"),
    (("eval", "--size", "20000", "--reps", "1", "--interval-ms", "0.5"), None, 2,
     "retransmit_interval_ms must be finite and at least 1"),
    (("sweep", "--blocks", "600", "--windows", "16", "--iterations", "1", "--data-size",
      "20000", "--interval-ms", "0.5", "--csv", "{payload}.csv"), None, 2,
     "retransmit_interval_ms must be finite and at least 1"),
    (("eval", "--size", "300000000", "--reps", "1"), None, 2,
     "data_size must be in 0-262144000"),
    (("eval", "--mode", "loopback", "--size", "30000", "--reps", "2", "--loss", "0.9",
      "--latency-ms", "500"), None, 2, "loopback mode runs over real sockets and takes no link"),
])
def test_a_failed_run_exits_with_its_code_and_says_why(tmp_path, args, env_extra, code,
                                                        message):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"z" * 5000)
    result = run_cli(*(arg.format(payload=payload) for arg in args), env_extra=env_extra)
    assert result.returncode == code
    assert message in result.stderr


def test_ctrl_c_exits_130(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_keygen", interrupted)
    assert cli.main(["keygen", "--out", "unused"]) == 130
    assert "interrupted" in capsys.readouterr().err
