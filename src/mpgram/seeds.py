"""Keyed randomness: one counter-labelled stream per (key, label), and party keys.

Every random quantity of the protocols is read from ``stream_words(key,
label, count)``: the first ``count`` 64-bit words of SHAKE-256(key ||
label) (FIPS 202), where ``label`` is a structural name such as ``"mask"``,
``"alpha"`` or ``("re", bob, u)``, in the manner of the counter-based
generators of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11).  Keys are ``KEY_BYTES`` long and labels encode injectively, so
distinct (key, label) pairs name distinct streams, and reading more words of
one stream extends it: fewer words are a prefix of more.

Each input party holds only its own key.  The simulation derives party i's
key from the run seed with ``party_key``, a SHA-256 of (seed, "party", i);
a hash is one-way, so a party key reveals neither the run seed nor any other
party's key, and identical configs still reproduce identical runs bit for
bit.  A deployment would give each party an independent key instead.

``derive_seed`` seeds numpy's generator for synthetic data only.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

KEY_BYTES = 32


def derive_seed(base_seed: int, *labels) -> int:
    tag = ":".join(str(x) for x in labels).encode()
    h = hashlib.sha256(tag).digest()
    return (base_seed & 0xFFFFFFFFFFFFFFFF) ^ int.from_bytes(h[:8], "little")


def _label_bytes(label) -> bytes:
    """An injective encoding of a label: a string or int, or a tuple of them."""
    return json.dumps(label, separators=(",", ":")).encode()


def party_key(run_seed: int, party_id: int) -> bytes:
    """Party ``party_id``'s ``KEY_BYTES``-byte key: SHA-256 of (run seed, "party", id)."""
    return hashlib.sha256(_label_bytes((run_seed, "party", party_id))).digest()


def stream_words(key: bytes, label, count: int) -> np.ndarray:
    """The first ``count`` little-endian uint64 words of SHAKE-256(key || label)."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"a stream key is {KEY_BYTES} bytes, got {len(key)}")
    xof = hashlib.shake_256(key + _label_bytes(label))
    return np.frombuffer(xof.digest(8 * count), dtype="<u8")
