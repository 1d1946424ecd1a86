"""What a process loads: lazy package exports and the import set of the CLI.

Each `blockfer send` and `blockfer recv` is a fresh process, so every module
it imports is start-up latency the user waits for. The children here start
from a clean interpreter, since this process has long since loaded
everything.
"""

import importlib
import json
import subprocess
import sys

import pytest

import blockfer
import blockfer.transport

# what send and recv with the identity cipher may load, and must not
CLI_MODULES = {
    "blockfer", "blockfer.cli", "blockfer.crypto", "blockfer.engine", "blockfer.wire",
    "blockfer.transport", "blockfer.transport.pump", "blockfer.transport.udp",
}
NEVER_ON_THE_UDP_PATH = ("cryptography", "blockfer.bench", "blockfer.transport.sim",
                         "statistics")

_REPORT = """
import json, sys
def report():
    return {"blockfer": sorted(m for m in sys.modules if m.split(".")[0] == "blockfer"),
            "never": [m for m in %r if m in sys.modules]}
""" % (NEVER_ON_THE_UDP_PATH,)


def run_child(code: str) -> list:
    """Run code in a fresh interpreter; returns the JSON lines it printed."""
    result = subprocess.run([sys.executable, "-c", _REPORT + code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


def test_identity_send_and_recv_load_neither_cryptography_nor_the_simulator(tmp_path):
    source, sink = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(bytes(range(256)) * 20)
    [imported, ran] = run_child(f"""
import socket, threading
from blockfer import cli
print(json.dumps(report()))
probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
probe.bind(("127.0.0.1", 0))
port = probe.getsockname()[1]
probe.close()
codes = []
recv = threading.Thread(target=lambda: codes.append(cli.main(
    ["recv", "--port", str(port), "--out", {str(sink)!r}, "--wait-s", "10"])))
recv.start()
codes.append(cli.main(["send", "--to", f"127.0.0.1:{{port}}", "--interval-ms", "100",
                       {str(source)!r}]))
recv.join()
assert codes == [0, 0], codes
print(json.dumps(report()))
""")
    assert sink.read_bytes() == source.read_bytes()
    for loaded in (imported, ran):
        assert loaded["never"] == []
        assert set(loaded["blockfer"]) <= CLI_MODULES


def test_identity_transfer_runs_without_cryptography():
    [outcome] = run_child("""
sys.modules["cryptography"] = None  # any import of it now fails
from blockfer import TransferParameters, run_loopback_transfer
data = bytes(range(256)) * 16
result = run_loopback_transfer(data, TransferParameters(retransmit_interval_ms=200.0), seed=4)
print(json.dumps({"completed": result.completed, "exact": result.data == data}))
""")
    assert outcome == {"completed": True, "exact": True}


@pytest.mark.parametrize("package", [blockfer, blockfer.transport],
                         ids=lambda package: package.__name__)
def test_lazy_exports_are_the_defining_modules_objects(package):
    for name in package.__all__:
        if name == "__version__":
            continue
        value = getattr(package, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("blockfer."), name
        assert getattr(home, name) is value, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export


def test_submodules_still_import_from_the_package():
    from blockfer.transport import sim

    assert sim is sys.modules["blockfer.transport.sim"]
