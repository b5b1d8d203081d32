"""Keyed streams and party keys."""

import hashlib

import numpy as np
import pytest

from mpgram.seeds import KEY_BYTES, party_key, stream_words


def test_stream_is_shake256_of_key_and_label():
    key = party_key(3, 1)
    words = stream_words(key, ("re", 2, 5), 4)
    want = hashlib.shake_256(key + b'["re",2,5]').digest(32)
    assert words.dtype == np.dtype("<u8") and words.tobytes() == want


def test_fewer_words_are_a_prefix_of_more():
    key = party_key(3, 1)
    assert stream_words(key, "mask", 0).size == 0
    assert stream_words(key, "mask", 5).tolist() == stream_words(key, "mask", 50)[:5].tolist()


def test_labels_encode_injectively():
    key = party_key(3, 1)
    labels = ["mask", "alpha", ("re", 2, 5), ("re", 25), ("re", "2", 5), ("re2", 5), 25, "25"]
    assert len({stream_words(key, label, 1)[0] for label in labels}) == len(labels)


def test_keys_are_fixed_length():
    assert len(party_key(0, 1)) == KEY_BYTES
    with pytest.raises(ValueError, match="32 bytes, got 8"):
        stream_words(b"\0" * 8, "mask", 1)


def test_one_seed_bit_changes_about_half_of_every_party_key():
    # a one-way function of the seed; an XOR of the seed would flip one key bit
    seed = 0x5EED0FC0FFEE

    def flipped(a: bytes, b: bytes) -> int:
        return bin(int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).count("1")

    counts = [
        flipped(party_key(seed, i), party_key(seed ^ (1 << bit), i))
        for bit in range(64)
        for i in range(1, 5)
    ]
    assert all(80 <= c <= 176 for c in counts)  # 256-bit keys: 128 +- 6 sigma
    assert abs(sum(counts) / len(counts) - 128) < 4


def test_party_keys_differ_between_parties_and_seeds():
    keys = {party_key(seed, i) for seed in (0, 1, -1, 2**70) for i in range(5)}
    assert len(keys) == 20
