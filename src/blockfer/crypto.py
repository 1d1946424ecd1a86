"""Sealed payload boundary between peer key pairs.

Datagrams are sealed after encoding and opened before decoding, so the
transfer engine never sees key material. Two interchangeable ciphers:

  * IdentityCipher: no-op, zero overhead. Default for simulation and
    benchmarks.
  * SealedCipher: X25519 static-static agreement, HKDF-SHA256 key
    derivation, AES-256-GCM with an explicit random 96-bit nonce. Constant
    28 bytes of overhead (12 nonce + 16 tag), authenticated both ways: only
    the holder of either private key can produce or open a box. The key
    derivation label names the construction, so a peer on an older one
    fails authentication instead of being misread.

Key files are raw 32-byte scalars; private files are written 0600.

The cryptography package is imported only where a key is made or derived:
derive_public_key (so PeerKeyPair and the key loaders) and SealedCipher.
Importing this module, the identity cipher and max_block_size need none of
it, so a run with the identity cipher never loads it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from .wire import DATA_WIRE_OVERHEAD, DATAGRAM_BUDGET, PAYLOAD_MAX

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

NONCE_SIZE = 12
TAG_SIZE = 16
SEALED_OVERHEAD = NONCE_SIZE + TAG_SIZE  # 28, well under the 41-byte budget
_HKDF_INFO = b"blockfer datagram seal v2"


class AuthenticationError(Exception):
    """Sealed payload failed authentication; distinct from wire DecodeError."""


def derive_public_key(private_key: bytes) -> bytes:
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
    from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

    priv = X25519PrivateKey.from_private_bytes(private_key)
    return priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


class PeerKeyPair:
    """32-byte X25519 key pair, the public half always derived from the private
    one. repr never exposes the private half."""

    __slots__ = ("private_key", "public_key")

    def __init__(self, private_key: bytes):
        if len(private_key) != 32:
            raise ValueError("private key must be 32 bytes")
        self.private_key = private_key
        self.public_key = derive_public_key(private_key)

    @classmethod
    def generate(cls) -> "PeerKeyPair":
        return cls(os.urandom(32))

    def __eq__(self, other):
        return isinstance(other, PeerKeyPair) and self.private_key == other.private_key

    def __repr__(self):
        return f"PeerKeyPair(public_key={self.public_key.hex()})"


def _pair_key(private_key: bytes, public_key: bytes) -> AESGCM:
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey,
        X25519PublicKey,
    )
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    from cryptography.hazmat.primitives.hashes import SHA256
    from cryptography.hazmat.primitives.kdf.hkdf import HKDF

    shared = X25519PrivateKey.from_private_bytes(private_key).exchange(
        X25519PublicKey.from_public_bytes(public_key)
    )
    key = HKDF(algorithm=SHA256(), length=32, salt=None, info=_HKDF_INFO).derive(shared)
    return AESGCM(key)


class IdentityCipher:
    """Pass-through cipher; the simulator and benchmarks default to this."""

    overhead = 0

    def seal(self, plaintext: bytes) -> bytes:
        return plaintext

    def open(self, ciphertext: bytes) -> bytes:
        return ciphertext


class SealedCipher:
    """Cipher bound to one peer pair: our key pair plus their public key.

    Both directions share one AES-256-GCM key, and every box carries a fresh
    random 12-byte nonce. NIST SP 800-38D section 8.3 bounds random nonces
    to 2**32 invocations per key, so one static key pair should seal no more
    than about 2**32 datagrams.
    """

    overhead = SEALED_OVERHEAD

    def __init__(self, local_keypair: PeerKeyPair, remote_public_key: bytes):
        from cryptography.exceptions import InvalidTag

        self._aead = _pair_key(local_keypair.private_key, remote_public_key)
        self._invalid_tag = InvalidTag  # open's except clause reads it only on a failure

    def seal(self, plaintext: bytes) -> bytes:
        """nonce || ciphertext+tag: always len(plaintext) + SEALED_OVERHEAD."""
        nonce = os.urandom(NONCE_SIZE)
        return nonce + self._aead.encrypt(nonce, plaintext, None)

    def open(self, ciphertext: bytes) -> bytes:
        """Reverse of seal. Raises AuthenticationError on any forgery or damage.

        The length check also pins the nonce to 12 bytes: AESGCM itself
        would take a shorter box's head as a shorter nonce."""
        if len(ciphertext) < SEALED_OVERHEAD:
            raise AuthenticationError("sealed payload shorter than its overhead")
        try:
            return self._aead.decrypt(ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:], None)
        except self._invalid_tag:
            raise AuthenticationError("sealed payload failed authentication") from None


def max_block_size(cipher) -> int:
    """Largest block size whose sealed Data packet fits the datagram budget."""
    return min(PAYLOAD_MAX, DATAGRAM_BUDGET - DATA_WIRE_OVERHEAD - cipher.overhead)


def save_keypair(pair: PeerKeyPair, base_path) -> tuple[Path, Path]:
    """Write base.key (private, mode 0600) and base.pub next to each other."""
    base = Path(base_path)
    private_path = base.with_suffix(".key")
    public_path = base.with_suffix(".pub")
    private_path.touch(mode=0o600, exist_ok=True)
    os.chmod(private_path, 0o600)
    private_path.write_bytes(pair.private_key)
    public_path.write_bytes(pair.public_key)
    return private_path, public_path


def load_private_key(path) -> PeerKeyPair:
    raw = Path(path).read_bytes()
    if len(raw) != 32:
        raise ValueError(f"{path}: expected 32 bytes of private key, found {len(raw)}")
    return PeerKeyPair(raw)


def load_public_key(path) -> bytes:
    raw = Path(path).read_bytes()
    if len(raw) != 32:
        raise ValueError(f"{path}: expected 32 bytes of public key, found {len(raw)}")
    return raw
