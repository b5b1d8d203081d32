"""Arithmetic domains for the protocol math.

Two interchangeable domains:

* ``FieldDomain`` -- the prime field Z_p for any prime p < 2^64
  (production prime: the Mersenne prime M61 = 2^61 - 1) together with a
  fixed-point codec that embeds reals by scaling and rounding.  All
  arithmetic is exact, which is what the uniform-mask security checks rely
  on.  Elements are plain Python ints in [0, p), so scalar products never
  overflow.  Matrix products run on float64 BLAS instead: ``matmul_t``
  splits the elements into 16-bit limbs, whose products are below 2^32, and
  sums at most 2^20 of them per BLAS call, so every partial sum stays below
  2^52 and is an exact integer; the limb sums are carried into 16-bit
  digits in uint64, and only the at most three 64-bit words that hold them
  are joined in Python ints and reduced mod p once.  The 8-byte wire codec
  and the uint64 limb split are why p must be below 2^64.
* ``FloatDomain`` -- IEEE double arithmetic, provided so the protocols
  can also be run directly on real-valued data.  No security properties
  are claimed for it.

Small test primes (Z_5, Z_251) are supported by passing ``p`` explicitly;
exhaustive distribution checks are only feasible over tiny fields.

Each domain has one bulk sampler, ``uniform_rows(rngs, n)``: row i holds
exactly the values that n calls of ``uniform(rngs[i])`` would return, and
each generator ends in the state those calls would leave it in.  It works
because ``Random.getrandbits(k)`` consumes ceil(k/32) 32-bit Mersenne
Twister words, lowest word first, and drops the low bits of the last one,
while ``Random.randbytes(4w)`` returns the next w words, little-endian.  So
one ``randbytes`` call per generator yields every word that n draws use,
and numpy cuts them into draws; a field draw at or above p is rejected, and
only the shortfall is drawn again from the same generator, so no word is
drawn that the scalar loop would not draw.

Besides the scalar operations, each domain owns the arithmetic of whole
matrices: ``reduce`` maps the result of an array expression over Python
scalars back into the domain, ``matmul_t`` is the product A^T B of two
entry arrays, and ``pack``/``unpack`` are the wire codec of a vector of
elements.  ``encode_array`` is ``encode`` of every entry of a 2-D sequence
of reals as one float64 expression.  ``decode`` and ``decode_dot`` take
single scalars (exact Python-int arithmetic) or entry arrays, which return
float64 arrays of the same values.
"""

from __future__ import annotations

import math
from random import Random

import numpy as np

from .errors import DomainError, EncodingOverflowError

M61 = (1 << 61) - 1  # 2^61 - 1 = 2305843009213693951

# The field kernel splits elements into 16-bit limbs held as float64.  A
# product of two limbs is below 2^32, so a sum of up to 2^20 of them stays
# below 2^52 and every BLAS partial sum is an exact integer.
_LIMB_BITS = 16
_CHUNK_ROWS = 1 << 20
# Below this magnitude a float64 copy of an int is exact.
_EXACT_INT = 2.0**53


class FixedPointCodec:
    """Embedding of reals into Z_p by scaling with 2**scale_bits.

    encode(x) = round(x * 2**scale_bits) mod p, with negative values
    mapped onto the upper half of the field (p - |.|).  A product of two
    encoded values therefore carries a factor 2**(2*scale_bits), which
    ``decode_dot`` divides out again.
    """

    def __init__(self, scale_bits: int = 16, modulus: int = M61):
        if scale_bits < 0:
            raise DomainError(f"scale_bits must be non-negative, got {scale_bits}")
        self.scale_bits = scale_bits
        self.modulus = modulus
        self.scale = 1 << scale_bits
        # |x| must stay clear of the wrap-around point; for M61 that is
        # 2^(60 - scale_bits) so that sums of products still fit.
        self.max_abs = 2.0 ** (modulus.bit_length() - 1 - scale_bits)

    def encode(self, x: float) -> int:
        if not abs(x) < self.max_abs:  # also rejects NaN, which compares false
            raise EncodingOverflowError(
                f"{x} cannot be represented at this scale: |x| must be below "
                f"2^{self.modulus.bit_length() - 1 - self.scale_bits}"
            )
        v = round(x * self.scale)
        return v % self.modulus

    def encode_array(self, rows) -> np.ndarray:
        """Object array of ``encode`` of every entry of a 2-D sequence of reals.

        One float64 expression: x 2^s is exact, ``np.rint`` breaks ties to
        even as ``round`` does, and a negative v maps to p - |v|.  An entry
        that is not finite, not below ``max_abs`` or at least 2^53 in
        magnitude (where a float64 copy of an int may have rounded) goes to
        ``encode`` on its original value, in row-major order; so the values
        and the first error, with its text, are those of the scalar codec.
        """
        try:
            x = np.asarray(rows, dtype=np.float64)
        except OverflowError:  # an int beyond float64; let encode name it
            return np.array([[self.encode(v) for v in r] for r in rows], dtype=object)
        ok = np.abs(x) < min(self.max_abs, _EXACT_INT)
        v = np.rint(np.where(ok, x, 0.0) * self.scale).astype(np.int64)
        p = np.uint64(self.modulus)
        u = v.astype(np.uint64)  # a negative v wraps to 2^64 + v, and u + p to p + v
        out = (np.where(v < 0, u + p, u) % p).astype(object)
        for i, j in np.argwhere(~ok):
            out[i, j] = self.encode(rows[i][j])
        return out

    def decode(self, v):
        return self._unscale(v, self.scale_bits)

    def decode_dot(self, v):
        """Decode a sum of products of two encoded reals.

        Values above p/2 are interpreted as negative.  A true value whose
        magnitude exceeds the headroom wraps silently here; callers are
        responsible for the range precondition, and a verified run checks
        the decoded gram against a float64 one to catch a wrap.
        """
        return self._unscale(v, 2 * self.scale_bits)

    def _unscale(self, v, bits: int):
        """signed(v) / 2^bits, where signed(v) is v for v <= p // 2, else v - p.

        A scalar is decoded in Python ints.  An entry array is cast to uint64
        and v - p is formed there; it wraps mod 2^64, and its int64 view is
        v - p exactly, since -p/2 < v - p < 0 for every p < 2^64.
        """
        half = (self.modulus - 1) // 2
        if isinstance(v, np.ndarray):
            u = v.astype(np.uint64)
            signed = np.where(u > half, u - np.uint64(self.modulus), u).view(np.int64)
            return np.ldexp(signed, -bits)
        return ((v + half) % self.modulus - half) / (1 << bits)


class FieldDomain:
    """Prime field Z_p with a fixed-point codec for real data."""

    kind = "field"

    def __init__(self, scale_bits: int = 16, p: int = M61):
        if p < 2:
            raise DomainError(f"modulus must be >= 2, got {p}")
        if p >= 1 << 64:
            raise DomainError(f"modulus must be < 2^64 (8-byte wire elements), got {p}")
        self.p = p
        self.scale_bits = scale_bits
        self.codec = FixedPointCodec(scale_bits, p)
        self.zero = 0
        self.one = 1 % p
        self._bits = p.bit_length()
        self._nlimbs = -(-self._bits // _LIMB_BITS)

    # -- field arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        s = a - b
        return s + self.p if s < 0 else s

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat: a^(p-2) mod p."""
        if a == 0:
            raise DomainError("no inverse of zero")
        return pow(a, self.p - 2, self.p)

    # -- real <-> field --------------------------------------------------

    def encode(self, x: float) -> int:
        return self.codec.encode(x)

    def encode_array(self, rows) -> np.ndarray:
        return self.codec.encode_array(rows)

    def decode(self, v):
        return self.codec.decode(v)

    def decode_dot(self, v):
        return self.codec.decode_dot(v)

    # -- sampling --------------------------------------------------------

    def uniform(self, rng: Random) -> int:
        """Uniform element of Z_p via rejection on p.bit_length() bits."""
        while True:
            v = rng.getrandbits(self._bits)
            if v < self.p:
                return v

    def uniform_nonzero(self, rng: Random) -> int:
        while True:
            v = self.uniform(rng)
            if v:
                return v

    def uniform_rows(self, rngs, n: int) -> np.ndarray:
        """(len(rngs), n) object array; row i is n calls of ``uniform(rngs[i])``.

        A draw of k <= 32 bits is the top k bits of one word; a wider draw is
        w0 | (w1 >> (64 - k)) << 32.  Rows with a rejected draw keep the
        accepted values in order and draw only the shortfall again.
        """
        k = self._bits
        if k <= 32:
            v = _words(rngs, n) >> np.uint64(32 - k)
        else:
            w = _words(rngs, 2 * n)
            v = w[:, 0::2] | (w[:, 1::2] >> np.uint64(64 - k)) << np.uint64(32)
        out = v.astype(object)
        for i in np.flatnonzero((v >= self.p).any(axis=1)):
            kept = out[i][v[i] < self.p]
            out[i] = np.concatenate((kept, self.uniform_rows([rngs[i]], n - kept.size)[0]))
        return out

    # -- arrays: reduction and wire codec (8-byte little-endian unsigned) --

    def reduce(self, values):
        """Residues mod p of an object array of Python ints."""
        return values % self.p

    def matmul_t(self, a, b):
        """A^T B mod p for entry arrays a (f x n1) and b (f x n2), exactly.

        A delayed-reduction kernel: with L = ceil(bits(p) / 16), each operand
        is split into L limbs of 16 bits, A = sum_i A_i 2^(16 i), held as
        float64.  Per chunk of at most 2^20 feature rows the BLAS products
        A_i^T B_j are exact integers below 2^52 (see ``_CHUNK_ROWS``), and
        Q_k = sum_{i+j=k} A_i^T B_j, a sum of at most L <= 4 of them, is below
        2^54 in uint64.  ``_carry_words`` carries sum_k Q_k 2^(16 k) into
        16-bit digits, four to a 64-bit word (three words for L = 4); only
        those words are joined in Python ints, and the sum over the chunks is
        reduced mod p once.
        """
        count = self._nlimbs
        a, b = a.astype(np.uint64), b.astype(np.uint64)
        total = None
        for lo in range(0, max(a.shape[0], 1), _CHUNK_ROWS):
            la = _limbs(a[lo : lo + _CHUNK_ROWS], count)
            lb = _limbs(b[lo : lo + _CHUNK_ROWS], count)
            q = np.zeros((2 * count - 1, a.shape[1], b.shape[1]), dtype=np.uint64)
            for i in range(count):
                for j in range(count):
                    q[i + j] += (la[i].T @ lb[j]).astype(np.uint64)
            words = _carry_words(q)
            part = words[-1].astype(object)
            for w in reversed(words[:-1]):
                part = (part << 64) + w.astype(object)
            total = part if total is None else total + part
        return total % self.p

    def pack(self, values) -> bytes:
        return np.asarray(values, dtype="<u8").tobytes()

    def unpack(self, buf) -> np.ndarray:
        """Flat object array of the elements in ``buf``; each must be < p."""
        values = np.frombuffer(buf, dtype="<u8")
        if values.size and values.max() >= self.p:
            raise DomainError(f"serialized value {values.max()} >= modulus {self.p}")
        return values.astype(object)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldDomain)
            and other.p == self.p
            and other.scale_bits == self.scale_bits
        )

    def __hash__(self):
        return hash(("field", self.p, self.scale_bits))

    def __repr__(self):
        return f"FieldDomain(p={self.p}, scale_bits={self.scale_bits})"


def _words(rngs, count: int) -> np.ndarray:
    """(len(rngs), count) uint64 array of each generator's next ``count`` 32-bit words."""
    buf = b"".join(rng.randbytes(4 * count) for rng in rngs)
    return np.frombuffer(buf, dtype="<u4").reshape(len(rngs), count).astype(np.uint64)


def _carry_words(q) -> list:
    """The 16-bit digits of sum_k q[k] 2^(16 k), four to a uint64 word, lowest word first.

    Every q[k] is below 2^54, so q[k] plus the carry from the digit below
    stays below 2^55; the carry out of the last q[k] is below 2^39 and fills
    three more digits.  So len(q) + 3 digits hold the sum.
    """
    digit = np.uint64((1 << _LIMB_BITS) - 1)
    ndigits = len(q) + 3
    words = [np.zeros_like(q[0]) for _ in range(-(-ndigits // 4))]
    carry = 0
    for k in range(ndigits):
        s = carry + q[k] if k < len(q) else carry
        words[k // 4] |= (s & digit) << np.uint64(_LIMB_BITS * (k % 4))
        carry = s >> np.uint64(_LIMB_BITS)
    return words


def _limbs(x, count):
    """The ``count`` 16-bit limbs of a uint64 array, lowest first, as float64 arrays."""
    mask = np.uint64((1 << _LIMB_BITS) - 1)
    return [((x >> np.uint64(_LIMB_BITS * i)) & mask).astype(np.float64) for i in range(count)]


class FloatDomain:
    """IEEE binary64 domain, for running the protocols on raw reals.

    Masks are drawn uniformly from [0, 1) and nonzero scalar masks from
    [0.5, 2.0); the latter keeps 1/alpha well conditioned.  Exactness and
    mask-uniformity checks do not apply here.
    """

    kind = "float64"
    zero = 0.0
    one = 1.0

    def add(self, a: float, b: float) -> float:
        return a + b

    def sub(self, a: float, b: float) -> float:
        return a - b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def inv(self, a: float) -> float:
        if a == 0.0:
            raise DomainError("no inverse of zero")
        return 1.0 / a

    def encode(self, x: float) -> float:
        v = float(x)
        if not math.isfinite(v):
            raise EncodingOverflowError(f"{x} cannot be represented: reals must be finite")
        return v

    def encode_array(self, rows) -> np.ndarray:
        """Object array of ``encode`` of every entry of a 2-D sequence of reals;
        the first entry that is not finite, in row-major order, raises as ``encode``."""
        x = np.asarray(rows, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(x))
        if bad.size:
            i, j = bad[0]
            self.encode(rows[i][j])
        return x.astype(object)

    def decode(self, v: float) -> float:
        return v

    def decode_dot(self, v: float) -> float:
        return v

    def uniform(self, rng: Random) -> float:
        return rng.random()

    def uniform_rows(self, rngs, n: int) -> np.ndarray:
        """(len(rngs), n) object array; row i is n calls of ``uniform(rngs[i])``.

        ``Random.random()`` is ((w0 >> 5) 2^26 + (w1 >> 6)) / 2^53 of two
        words, which float64 computes exactly.
        """
        w = _words(rngs, 2 * n)
        v = ((w[:, 0::2] >> np.uint64(5)) * 67108864.0 + (w[:, 1::2] >> np.uint64(6))) * (
            1.0 / 9007199254740992.0
        )
        return v.astype(object)

    def uniform_nonzero(self, rng: Random) -> float:
        return 0.5 + 1.5 * rng.random()

    # -- arrays: reduction and wire codec (IEEE binary64) ----------------

    def reduce(self, values):
        return values

    def matmul_t(self, a, b):
        """A^T B of object arrays of floats, summed in the order of a plain loop.

        The sum starts at +0.0, so a sum whose products are all -0.0 is +0.0.
        """
        return self.zero + a.T @ b

    def pack(self, values) -> bytes:
        return np.asarray(values, dtype="<f8").tobytes()

    def unpack(self, buf) -> np.ndarray:
        return np.frombuffer(buf, dtype="<f8").astype(object)

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatDomain)

    def __hash__(self):
        return hash("float64")

    def __repr__(self):
        return "FloatDomain()"


def make_domain(kind: str, scale_bits: int = 16, p: int = M61):
    """Build a domain from its config name ('field' or 'float')."""
    if kind == "field":
        return FieldDomain(scale_bits=scale_bits, p=p)
    if kind in ("float", "float64"):
        return FloatDomain()
    raise DomainError(f"unknown domain kind {kind!r}")
