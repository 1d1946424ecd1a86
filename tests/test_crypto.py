import os
import random
import stat

import pytest

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
    rng = random.Random(1)
    pair = PeerKeyPair.generate(rng)
    assert len(pair.private_key) == 32
    assert len(pair.public_key) == 32
    assert derive_public_key(pair.private_key) == pair.public_key
    # same entropy stream, same keys
    assert PeerKeyPair.generate(random.Random(1)) == pair
    assert PeerKeyPair.generate(random.Random(2)) != pair


def test_keypair_repr_hides_private_key():
    pair = PeerKeyPair.generate(random.Random(1))
    shown = repr(pair)
    assert pair.private_key.hex() not in shown
    assert pair.private_key not in shown.encode()


def test_seal_open_roundtrip_all_lengths():
    rng = random.Random(2)
    sender = PeerKeyPair.generate(rng)
    recipient = PeerKeyPair.generate(rng)
    sealer = SealedCipher(sender, recipient.public_key, entropy=rng)
    opener = SealedCipher(recipient, sender.public_key)
    for length in range(0, 1301):
        plaintext = bytes(length * b"\xa5")[:length]
        box = sealer.seal(plaintext)
        assert len(box) == length + SEALED_OVERHEAD
        assert opener.open(box) == plaintext


def test_overhead_is_constant_and_within_budget():
    assert SEALED_OVERHEAD <= 41
    rng = random.Random(3)
    sender = PeerKeyPair.generate(rng)
    recipient = PeerKeyPair.generate(rng)
    sealer = SealedCipher(sender, recipient.public_key, entropy=rng)
    for length in (0, 1, 17, 1200, 1300):
        box = sealer.seal(os.urandom(length))
        assert len(box) - length == SEALED_OVERHEAD


def test_single_byte_tamper_rejected():
    rng = random.Random(4)
    sender = PeerKeyPair.generate(rng)
    recipient = PeerKeyPair.generate(rng)
    sealer = SealedCipher(sender, recipient.public_key, entropy=rng)
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
    sender = PeerKeyPair.generate(rng)
    recipient = PeerKeyPair.generate(rng)
    other = PeerKeyPair.generate(rng)
    box = SealedCipher(sender, recipient.public_key, entropy=rng).seal(b"secret")
    with pytest.raises(AuthenticationError):
        SealedCipher(other, sender.public_key).open(box)
    with pytest.raises(AuthenticationError):
        SealedCipher(recipient, other.public_key).open(box)


def test_sealed_cipher_objects_pair_up():
    rng = random.Random(6)
    alice = PeerKeyPair.generate(rng)
    bob = PeerKeyPair.generate(rng)
    a_side = SealedCipher(alice, bob.public_key, entropy=rng)
    b_side = SealedCipher(bob, alice.public_key, entropy=rng)
    assert a_side.overhead == SEALED_OVERHEAD
    for blob in (b"", b"hello", os.urandom(1218)):
        assert b_side.open(a_side.seal(blob)) == blob
        assert a_side.open(b_side.seal(blob)) == blob
    with pytest.raises(AuthenticationError):
        b_side.open(b"\x00" * 40)


def test_sealing_never_repeats_nonces_bitwise():
    rng = random.Random(7)
    sender = PeerKeyPair.generate(rng)
    recipient = PeerKeyPair.generate(rng)
    sealer = SealedCipher(sender, recipient.public_key, entropy=rng)
    boxes = {sealer.seal(b"same message")[:12] for _ in range(200)}
    assert len(boxes) == 200


def test_truncated_box_rejected():
    rng = random.Random(8)
    sender = PeerKeyPair.generate(rng)
    recipient = PeerKeyPair.generate(rng)
    box = SealedCipher(sender, recipient.public_key, entropy=rng).seal(b"payload")
    opener = SealedCipher(recipient, sender.public_key)
    for cut in (0, 5, 11, len(box) - 1):
        with pytest.raises(AuthenticationError):
            opener.open(box[:cut])


def test_key_files_roundtrip_and_mode(tmp_path):
    pair = PeerKeyPair.generate(random.Random(9))
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
    pair = PeerKeyPair.generate(rng)
    sealed = SealedCipher(pair, PeerKeyPair.generate(rng).public_key)
    # sealed datagrams must still fit the budget, so blocks shrink
    assert max_block_size(sealed) == min(1200, 1241 - 18 - SEALED_OVERHEAD)
    assert max_block_size(sealed) + 18 + sealed.overhead <= 1241
