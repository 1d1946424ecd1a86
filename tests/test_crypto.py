import os
import random
import stat

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from blockfer.crypto import (
    SEALED_OVERHEAD,
    AuthenticationError,
    IdentityCipher,
    PeerKeyPair,
    SealedCipher,
    derive_public_key,
    load_private_key,
    load_public_key,
    max_block_size,
    save_keypair,
)
from blockfer.wire import DecodeError


def test_identity_cipher_is_passthrough():
    cipher = IdentityCipher()
    assert cipher.overhead == 0
    for blob in (b"", b"x", os.urandom(1300)):
        assert cipher.seal(blob) == blob
        assert cipher.open(blob) == blob


def test_keypair_generation_and_derivation():
    pair = PeerKeyPair.generate()
    assert len(pair.private_key) == 32
    assert len(pair.public_key) == 32
    assert derive_public_key(pair.private_key) == pair.public_key
    # fresh os.urandom keys each time; the same private key, the same pair
    assert PeerKeyPair.generate() != pair
    assert PeerKeyPair(pair.private_key) == pair


def test_keypair_repr_hides_private_key():
    pair = PeerKeyPair(random.Random(1).randbytes(32))
    shown = repr(pair)
    assert pair.private_key.hex() not in shown
    assert pair.private_key not in shown.encode()


def test_seal_open_roundtrip_all_lengths():
    rng = random.Random(2)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    sealer = SealedCipher(sender, recipient.public_key)
    opener = SealedCipher(recipient, sender.public_key)
    for length in range(0, 1301):
        plaintext = bytes(length * b"\xa5")[:length]
        box = sealer.seal(plaintext)
        assert len(box) == length + SEALED_OVERHEAD
        assert opener.open(box) == plaintext


def test_overhead_is_constant_and_within_budget():
    assert SEALED_OVERHEAD <= 41
    rng = random.Random(3)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    sealer = SealedCipher(sender, recipient.public_key)
    for length in (0, 1, 17, 1200, 1300):
        box = sealer.seal(os.urandom(length))
        assert len(box) - length == SEALED_OVERHEAD


def test_single_byte_tamper_rejected():
    rng = random.Random(4)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    sealer = SealedCipher(sender, recipient.public_key)
    opener = SealedCipher(recipient, sender.public_key)
    for length in range(0, 1301, 101):
        box = bytearray(sealer.seal(os.urandom(length)))
        box[rng.randrange(len(box))] ^= 1 << rng.randrange(8)
        with pytest.raises(AuthenticationError):
            opener.open(bytes(box))


def test_auth_error_distinct_from_decode_error():
    assert not issubclass(AuthenticationError, DecodeError)
    assert not issubclass(DecodeError, AuthenticationError)


def test_wrong_recipient_cannot_open():
    rng = random.Random(5)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    other = PeerKeyPair(rng.randbytes(32))
    box = SealedCipher(sender, recipient.public_key).seal(b"secret")
    with pytest.raises(AuthenticationError):
        SealedCipher(other, sender.public_key).open(box)
    with pytest.raises(AuthenticationError):
        SealedCipher(recipient, other.public_key).open(box)


def test_sealed_cipher_objects_pair_up():
    rng = random.Random(6)
    alice = PeerKeyPair(rng.randbytes(32))
    bob = PeerKeyPair(rng.randbytes(32))
    a_side = SealedCipher(alice, bob.public_key)
    b_side = SealedCipher(bob, alice.public_key)
    assert a_side.overhead == SEALED_OVERHEAD
    for blob in (b"", b"hello", os.urandom(1218)):
        assert b_side.open(a_side.seal(blob)) == blob
        assert a_side.open(b_side.seal(blob)) == blob
    with pytest.raises(AuthenticationError):
        b_side.open(b"\x00" * 40)


def test_sealing_never_repeats_nonces_bitwise():
    rng = random.Random(7)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    sealer = SealedCipher(sender, recipient.public_key)
    boxes = {sealer.seal(b"same message")[:12] for _ in range(200)}
    assert len(boxes) == 200


def test_truncated_box_rejected():
    rng = random.Random(8)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    box = SealedCipher(sender, recipient.public_key).seal(b"payload")
    opener = SealedCipher(recipient, sender.public_key)
    for cut in (0, 5, 11, len(box) - 1):
        with pytest.raises(AuthenticationError):
            opener.open(box[:cut])


def test_key_files_roundtrip_and_mode(tmp_path):
    pair = PeerKeyPair(random.Random(9).randbytes(32))
    base = tmp_path / "peer"
    private_path, public_path = save_keypair(pair, base)
    assert private_path.read_bytes() == pair.private_key
    assert public_path.read_bytes() == pair.public_key
    mode = stat.S_IMODE(os.stat(private_path).st_mode)
    assert mode == 0o600
    assert load_private_key(private_path) == pair
    assert load_public_key(public_path) == pair.public_key


def test_max_block_size_budget():
    assert max_block_size(IdentityCipher()) == 1200
    rng = random.Random(10)
    pair = PeerKeyPair(rng.randbytes(32))
    sealed = SealedCipher(pair, PeerKeyPair(rng.randbytes(32)).public_key)
    # sealed datagrams must still fit the budget, so blocks shrink
    assert max_block_size(sealed) == min(1200, 1241 - 18 - SEALED_OVERHEAD)
    assert max_block_size(sealed) + 18 + sealed.overhead <= 1241


def hand_built_aead(aead_class, label, private_key, public_key):
    """The sealed construction rebuilt from cryptography primitives alone:
    X25519 exchange, HKDF-SHA256 with no salt and the given label, then the
    AEAD."""
    shared = X25519PrivateKey.from_private_bytes(private_key).exchange(
        X25519PublicKey.from_public_bytes(public_key))
    key = HKDF(algorithm=SHA256(), length=32, salt=None, info=label).derive(shared)
    return aead_class(key)


def test_sealed_cipher_is_aes_256_gcm_under_the_v2_label():
    rng = random.Random(11)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    reference = hand_built_aead(AESGCM, b"blockfer datagram seal v2",
                                sender.private_key, recipient.public_key)
    plaintext = rng.randbytes(1218)
    nonce = rng.randbytes(12)
    box = nonce + reference.encrypt(nonce, plaintext, None)
    assert SealedCipher(recipient, sender.public_key).open(box) == plaintext

    sealed = SealedCipher(sender, recipient.public_key).seal(plaintext)
    assert reference.decrypt(sealed[:12], sealed[12:], None) == plaintext


def test_box_of_the_v1_framing_fails_authentication():
    """ChaCha20-Poly1305 under the v1 label has the same layout and size, but
    a v2 peer derives another key and drops it as noise."""
    rng = random.Random(12)
    sender = PeerKeyPair(rng.randbytes(32))
    recipient = PeerKeyPair(rng.randbytes(32))
    old = hand_built_aead(ChaCha20Poly1305, b"blockfer datagram seal v1",
                          sender.private_key, recipient.public_key)
    plaintext = rng.randbytes(100)
    nonce = rng.randbytes(12)
    box = nonce + old.encrypt(nonce, plaintext, None)
    assert len(box) == len(plaintext) + SEALED_OVERHEAD
    with pytest.raises(AuthenticationError):
        SealedCipher(recipient, sender.public_key).open(box)
