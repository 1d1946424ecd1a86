"""Reliable windowed bulk transfer over unreliable datagram links.

The protocol engine is sans-I/O: time, entropy, and packets are injected
as events, so the same state machine runs deterministically under the
bundled link simulator and over real UDP sockets. Lost blocks ride along
with the next window instead of stalling it. A transfer that times out
fails with TIMEOUT, and the sender's failed record carries retry
parameters with a halved window; retrying is up to the caller.

Every name in __all__ is imported from the module that defines it on first
access (PEP 562), so a process loads only what it uses: `blockfer send` and
`blockfer recv` with the identity cipher never load the sweep harness, the
simulator or the cryptography package.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, modules: dict):
    """__getattr__ and __dir__ (PEP 562) and __all__ of the package whose globals are namespace.

    modules maps each module, named relative to the package, to the names it
    exports through the package. The first access to a name imports its
    module and caches the object in the package's globals, so later ones
    never come back here.
    """
    package = namespace["__name__"]
    origins = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        origin = origins.get(name)
        if origin is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_import_module(origin, package), name)
        return value

    def __dir__():
        return sorted({*namespace, *origins})

    return __getattr__, __dir__, sorted(origins)


__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".bench": (
        "ExperimentConfig",
        "LargeEvalReport",
        "TransferStats",
        "evaluate_large",
        "summarize",
        "sweep",
    ),
    ".crypto": (
        "AuthenticationError",
        "IdentityCipher",
        "PeerKeyPair",
        "SealedCipher",
        "load_private_key",
        "load_public_key",
        "max_block_size",
        "save_keypair",
    ),
    ".engine": (
        "BusyError",
        "Complete",
        "Engine",
        "Errored",
        "SizeExceededError",
        "TransferParameters",
        "TransferRefused",
        "TransferScheduler",
    ),
    ".transport.pump": ("TransferOutcome",),
    ".transport.sim": ("LinkModel", "SimClock", "SimulatedLink", "run_simulated_transfer"),
    ".transport.udp": ("TransportError", "UdpEndpoint", "run_loopback_transfer"),
    ".wire": (
        "Acknowledgement",
        "Data",
        "DecodeError",
        "ErrorCode",
        "ErrorPacket",
        "MtuError",
        "WriteRequest",
        "decode_packet",
        "encode_packet",
    ),
})
__all__.append("__version__")
