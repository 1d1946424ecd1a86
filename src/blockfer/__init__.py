"""Reliable windowed bulk transfer over unreliable datagram links.

The protocol engine is sans-I/O: time, entropy, and packets are injected
as events, so the same state machine runs deterministically under the
bundled link simulator and over real UDP sockets. Lost blocks ride along
with the next window instead of stalling it. A transfer that times out
fails with TIMEOUT, and the sender's failed record carries retry
parameters with a halved window; retrying is up to the caller.
"""

from .bench import (
    ExperimentConfig,
    LargeEvalReport,
    TransferStats,
    evaluate_large,
    summarize,
    sweep,
)
from .crypto import (
    AuthenticationError,
    IdentityCipher,
    PeerKeyPair,
    SealedCipher,
    load_private_key,
    load_public_key,
    max_block_size,
    save_keypair,
)
from .engine import (
    BusyError,
    Complete,
    Engine,
    Errored,
    SizeExceededError,
    TransferParameters,
    TransferRefused,
    TransferScheduler,
)
from .transport import (
    LinkModel,
    MtuError,
    SimClock,
    SimulatedLink,
    TransferOutcome,
    TransportError,
    UdpEndpoint,
    run_loopback_transfer,
    run_simulated_transfer,
)
from .wire import (
    Acknowledgement,
    Data,
    DecodeError,
    ErrorCode,
    ErrorPacket,
    WriteRequest,
    decode_packet,
    encode_packet,
)

__version__ = "0.1.0"

__all__ = [
    "Acknowledgement",
    "AuthenticationError",
    "BusyError",
    "Complete",
    "Data",
    "DecodeError",
    "Engine",
    "ErrorCode",
    "ErrorPacket",
    "Errored",
    "ExperimentConfig",
    "IdentityCipher",
    "LargeEvalReport",
    "LinkModel",
    "MtuError",
    "PeerKeyPair",
    "SealedCipher",
    "SimClock",
    "SimulatedLink",
    "SizeExceededError",
    "TransferOutcome",
    "TransferParameters",
    "TransferRefused",
    "TransferScheduler",
    "TransferStats",
    "TransportError",
    "UdpEndpoint",
    "WriteRequest",
    "decode_packet",
    "encode_packet",
    "evaluate_large",
    "load_private_key",
    "load_public_key",
    "max_block_size",
    "run_loopback_transfer",
    "run_simulated_transfer",
    "save_keypair",
    "summarize",
    "sweep",
    "__version__",
]
