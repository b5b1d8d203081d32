"""Arithmetic domains for the protocol math.

Two interchangeable domains:

* ``FieldDomain`` -- the prime field Z_p for any odd prime p < 2^64
  (production prime: the Mersenne prime M61 = 2^61 - 1) together with a
  fixed-point codec that embeds reals by scaling and rounding.  All
  arithmetic is exact, which is what the uniform-mask security checks rely
  on.  Elements are uint64 residues in [0, p).  Matrix products run on
  float64 BLAS: ``matmul_t`` splits the elements into 16-bit limbs, whose
  products are below 2^32, and sums at most 2^20 of them per BLAS call, so
  every partial sum stays below 2^52 and is an exact integer; the limb sums
  are carried into 16-bit digits in uint64, and only the at most three
  64-bit words that hold them are joined in Python ints and reduced mod p
  once.  The 8-byte wire codec and the uint64 limb split are why p must be
  below 2^64.
* ``FloatDomain`` -- IEEE double arithmetic, provided so the protocols
  can also be run directly on real-valued data.  No security properties
  are claimed for it.

Small test primes (Z_5, Z_251) are supported by passing ``p`` explicitly;
exhaustive distribution checks are only feasible over tiny fields.

Each domain has one bulk sampler, ``sample(key, label, n)``, which turns
the words of the keyed stream ``seeds.stream_words(key, label, .)`` into n
uniform elements: over the field each word is cut to its top bits(p) bits
and values at or above p are rejected, with a shortfall filled by reading
further into the same stream; over floats a word w gives (w >> 11) 2^-53.
So fewer draws of one (key, label) are a prefix of more.
``sample_nonzero(key, label)`` draws a nonzero scalar from a label of its
own.  Each domain also has ``check_gram_range``, which the field uses to
reject, before anything is sent, encoded data whose dot products could
wrap around.

Every entry array is held in the domain's fixed-width ``dtype``: uint64
residues in [0, p) over the field, float64 over floats.  ``sample``,
``encode_array`` and ``unpack`` return that dtype, and the domain owns all
arithmetic on such arrays: ``array_add``, ``array_sub`` and ``array_mul``
(elementwise, broadcasting, scalars allowed), ``array_sum`` (over the last
axis, in index order from zero), ``matmul_t`` (the product A^T B) and
``pack``/``unpack`` (the wire codec of a vector of elements).  Field add and
sub stay in uint64 with one compare.  The field product is Montgomery's
(Math. Comp. 1985) with R = 2^64, also in uint64: the 128-bit product is
formed from 32-bit halves and reduced without leaving uint64.  The
reduction needs p^-1 mod 2^64, which is why p must be odd.  Over floats
every operation runs in the order of a scalar loop, so results are
bit-identical to it.  The per-scalar operations (``add``, ``sub``, ``mul``,
``inv``) take single elements, which the field computes in Python ints;
they are the reference the array operations are checked against.
``decode`` and ``decode_dot`` take single scalars (exact Python-int
arithmetic) or entry arrays, which return float64 arrays of the same values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EncodingOverflowError
from .seeds import stream_words

M61 = (1 << 61) - 1  # 2^61 - 1 = 2305843009213693951

# The field kernel splits elements into 16-bit limbs held as float64.  A
# product of two limbs is below 2^32, so a sum of up to 2^20 of them stays
# below 2^52 and every BLAS partial sum is an exact integer.
_LIMB_BITS = 16
_CHUNK_ROWS = 1 << 20
# Below this magnitude a float64 copy of an int is exact.
_EXACT_INT = 2.0**53


def _sum_in_order(dom, a) -> np.ndarray:
    """Sum over the last axis of an entry array, added in index order from zero
    with ``dom.array_add``; so a float sum is that of a scalar loop (numpy's
    own float sums are pairwise)."""
    a = np.asarray(a, dtype=dom.dtype)
    total = np.zeros(a.shape[:-1], dtype=dom.dtype)
    for k in range(a.shape[-1]):
        total = dom.array_add(total, a[..., k])
    return total


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
        """uint64 array of ``encode`` of every entry of a 2-D sequence of reals.

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
            return np.array([[self.encode(v) for v in r] for r in rows], dtype=np.uint64)
        ok = np.abs(x) < min(self.max_abs, _EXACT_INT)
        v = np.rint(np.where(ok, x, 0.0) * self.scale).astype(np.int64)
        p = np.uint64(self.modulus)
        u = v.astype(np.uint64)  # a negative v wraps to 2^64 + v, and u + p to p + v
        out = np.where(v < 0, u + p, u) % p
        for i, j in np.argwhere(~ok):
            out[i, j] = self.encode(rows[i][j])
        return out

    def decode(self, v):
        return self._unscale(v, self.scale_bits)

    def decode_dot(self, v):
        """Decode a sum of products of two encoded reals.

        Values above p/2 are interpreted as negative.  A true value whose
        magnitude exceeds the headroom wraps silently here; input parties
        check the range precondition with ``check_gram_range`` before they
        send anything, and a verified run also checks the decoded gram
        against a float64 one.
        """
        return self._unscale(v, 2 * self.scale_bits)

    def _unscale(self, v, bits: int):
        """signed(v) / 2^bits, where signed(v) is v for v <= p // 2, else v - p.

        A Python scalar is decoded in Python ints.  An entry array (or numpy
        scalar) is cast to uint64 and v - p is formed there; it wraps mod
        2^64, and its int64 view is v - p exactly, since -p/2 < v - p < 0 for
        every p < 2^64.
        """
        if isinstance(v, (np.ndarray, np.generic)):
            return np.ldexp(self.centred(v), -bits)
        half = (self.modulus - 1) // 2
        return ((v + half) % self.modulus - half) / (1 << bits)

    def centred(self, entries) -> np.ndarray:
        """int64 array of signed(v) for an entry array (see ``_unscale``)."""
        u = np.asarray(entries, dtype=np.uint64)
        half = np.uint64((self.modulus - 1) // 2)
        return np.where(u > half, u - np.uint64(self.modulus), u).view(np.int64)

    def check_gram_range(self, entries, party_id: int) -> None:
        """Raise ``EncodingOverflowError`` unless every column x of the f x n
        entry array has ||signed(x)||^2 <= (p - 1) / 2.

        (p - 1) / 2 is the largest magnitude that decodes, and by
        Cauchy-Schwarz |<x, y>| <= ||x|| ||y||, so when every party's columns
        pass, no entry of the pooled gram wraps around, and each party checks
        its own data alone.  The squared norms are summed in float64, within
        a relative (f + 3) 2^-53 of the exact sum; a column within twice that
        margin of the limit is summed again in Python ints, so the verdict is
        exact.
        """
        limit = (self.modulus - 1) // 2
        signed = self.centred(entries)
        x = signed.astype(np.float64)
        margin = (signed.shape[0] + 3) * 2.0**-52
        for u in np.flatnonzero((x * x).sum(axis=0) > limit * (1.0 - margin)):
            norm2 = sum(v * v for v in signed[:, u].tolist())
            if norm2 > limit:
                raise EncodingOverflowError(
                    f"sample {u} of party {party_id} has encoded squared norm {norm2} > "
                    f"(p - 1) / 2 = {limit} (norm {math.sqrt(norm2) / self.scale:.6g} > "
                    f"{math.sqrt(limit) / self.scale:.6g} in real units), so its dot "
                    f"products could wrap around mod p"
                )


class FieldDomain:
    """Prime field Z_p with a fixed-point codec for real data."""

    kind = "field"
    dtype = np.dtype(np.uint64)

    def __init__(self, scale_bits: int = 16, p: int = M61):
        if p < 2:
            raise DomainError(f"modulus must be >= 2, got {p}")
        if p >= 1 << 64:
            raise DomainError(f"modulus must be < 2^64 (8-byte wire elements), got {p}")
        if p % 2 == 0:
            raise DomainError(f"modulus must be odd (Montgomery's product needs it), got {p}")
        self.p = p
        self.scale_bits = scale_bits
        self.codec = FixedPointCodec(scale_bits, p)
        self.zero = 0
        self.one = 1 % p
        self._p = np.uint64(p)
        self._p_inv = np.uint64(pow(p, -1, 1 << 64))  # p^-1 mod 2^64, for ``_redc``
        self._r2 = np.uint64((1 << 128) % p)  # R^2 mod p, R = 2^64
        self._bits = p.bit_length()
        self._nlimbs = -(-self._bits // _LIMB_BITS)

    # -- field arithmetic: single elements (Python ints or numpy scalars) --

    def add(self, a: int, b: int) -> int:
        s = int(a) + int(b)
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        s = int(a) - int(b)
        return s + self.p if s < 0 else s

    def mul(self, a: int, b: int) -> int:
        return (int(a) * int(b)) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat: a^(p-2) mod p."""
        if a == 0:
            raise DomainError("no inverse of zero")
        return pow(int(a), self.p - 2, self.p)

    # -- real <-> field --------------------------------------------------

    def encode(self, x: float) -> int:
        return self.codec.encode(x)

    def encode_array(self, rows) -> np.ndarray:
        return self.codec.encode_array(rows)

    def decode(self, v):
        return self.codec.decode(v)

    def decode_dot(self, v):
        return self.codec.decode_dot(v)

    def check_gram_range(self, entries, party_id: int) -> None:
        self.codec.check_gram_range(entries, party_id)

    # -- sampling --------------------------------------------------------

    def sample(self, key: bytes, label, n: int) -> np.ndarray:
        """(n,) uint64 array of uniform elements of Z_p from the stream (key, label).

        Each word's top bits(p) bits are one candidate, kept if below p.  The
        first read takes the expected number of words for n values; each
        shortfall reads the stream again, further, and keeps the accepted
        values in stream order.
        """
        shift = np.uint64(64 - self._bits)
        count, v = 0, np.empty(0, dtype=np.uint64)
        while v.size < n:
            count -= ((v.size - n) << self._bits) // self.p  # += ceil(shortfall 2^bits / p)
            v = stream_words(key, label, count) >> shift
            v = v[v < self._p]
        return v[:n]

    def sample_nonzero(self, key: bytes, label) -> int:
        """The first nonzero value of ``sample(key, label, .)``."""
        n = 1
        while True:
            v = self.sample(key, label, n)
            if v.any():
                return int(v[v != 0][0])
            n *= 2

    # -- arrays: arithmetic and wire codec (8-byte little-endian unsigned) --

    def array_add(self, a, b) -> np.ndarray:
        """(a + b) mod p, elementwise: a - (p - b), which never leaves uint64."""
        return self.array_sub(a, np.subtract(self._p, np.asarray(b, dtype=np.uint64)))

    def array_sub(self, a, b) -> np.ndarray:
        """(a - b) mod p, elementwise: a - b wraps mod 2^64 when a < b, and adding
        p then wraps it back to a - b + p."""
        a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
        d = np.subtract(a, b)
        return np.where(a >= b, d, np.add(d, self._p))

    def array_mul(self, a, b) -> np.ndarray:
        """(a b) mod p, elementwise, for entries in [0, p): Montgomery's product
        with R = 2^64, in uint64 throughout.

        ``_mul_hi`` and numpy's wrapping uint64 product give the two words of
        the 128-bit product, and ``_redc`` takes it to a b R^-1 mod p.  Two
        arrays take a second reduction, of that times the constant R^2 mod p.
        A scalar operand (a Python int, numpy scalar or 0-d array) is first
        moved to s R mod p in Python ints, so its product takes one reduction.
        Operands are lifted to at least one dimension, since numpy hands back
        numpy scalars for 0-d ones, whose arithmetic warns on wrap-around; the
        result has the broadcast shape.
        """
        if np.ndim(a) == 0:
            a, b = b, a
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        x = np.atleast_1d(np.asarray(a, dtype=np.uint64))
        if np.ndim(b) == 0:
            s = np.uint64((int(b) << 64) % self.p)
            return self._redc(_mul_hi(x, s), np.multiply(x, s)).reshape(shape)
        y = np.atleast_1d(np.asarray(b, dtype=np.uint64))
        t = self._redc(_mul_hi(x, y), np.multiply(x, y))
        return self._redc(_mul_hi(t, self._r2), np.multiply(t, self._r2)).reshape(shape)

    def _redc(self, hi, lo) -> np.ndarray:
        """(hi 2^64 + lo) 2^-64 mod p for uint64 arrays with hi < p; overwrites both.

        m = lo p^-1 mod 2^64 (numpy's wrapping product) makes the low word of
        m p equal lo, so (hi 2^64 + lo - m p) / 2^64 = hi - mulhi(m, p)
        exactly.  Both terms are below p, so adding p where hi < mulhi(m, p)
        lands on the residue, and no sum leaves uint64, also for p > 2^63.
        """
        lo *= self._p_inv
        mh = _mul_hi(lo, self._p)
        borrow = hi < mh
        hi -= mh
        np.add(hi, self._p, out=hi, where=borrow)
        return hi

    array_sum = _sum_in_order

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
        a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
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
        return np.asarray(total % self.p, dtype=np.uint64)

    def pack(self, values) -> bytes:
        return np.asarray(values, dtype="<u8").tobytes()

    def unpack(self, buf) -> np.ndarray:
        """Read-only flat uint64 array of the elements in ``buf``; each must be < p."""
        values = np.frombuffer(buf, dtype="<u8")
        values.flags.writeable = False  # frombuffer over a bytearray is writable
        if values.size and values.max() >= self._p:
            raise DomainError(f"serialized value {values.max()} >= modulus {self.p}")
        return values

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


_HALF = np.uint64(32)
_LO32 = np.uint64((1 << 32) - 1)


def _mul_hi(a, b) -> np.ndarray:
    """floor(a b / 2^64), elementwise, for a uint64 array a and a uint64 array or scalar b.

    From 32-bit halves, a = a1 2^32 + a0 and b likewise: floor(a b / 2^32) is
    (a1 b1 + floor(a0 b1 / 2^32)) 2^32 + mid, with mid = floor(a0 b0 / 2^32)
    + (a0 b1 mod 2^32) + a1 b0 < 2^32 + 2^32 + (2^32 - 1)^2 < 2^64, so mid
    fits a word.  Each product of halves is a new array of the broadcast
    shape, which the sums then update in place.
    """
    a0, a1 = a & _LO32, a >> _HALF
    b0, b1 = b & _LO32, b >> _HALF
    mid = a0 * b0
    mid >>= _HALF
    cross = a0 * b1
    mid += cross & _LO32
    cross >>= _HALF
    mid += a1 * b0
    mid >>= _HALF
    hi = a1 * b1
    hi += cross
    hi += mid
    return hi


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
    dtype = np.dtype(np.float64)
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
        """float64 array of ``encode`` of every entry of a 2-D sequence of reals;
        the first entry that is not finite, in row-major order, raises as ``encode``."""
        x = np.asarray(rows, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(x))
        if bad.size:
            i, j = bad[0]
            self.encode(rows[i][j])
        return x

    def decode(self, v: float) -> float:
        return v

    def decode_dot(self, v: float) -> float:
        return v

    def sample(self, key: bytes, label, n: int) -> np.ndarray:
        """(n,) float64 array in [0, 1): (w >> 11) 2^-53 of each stream word."""
        return (stream_words(key, label, n) >> np.uint64(11)) * 2.0**-53

    def sample_nonzero(self, key: bytes, label) -> float:
        """0.5 + 1.5 u, u the first float of ``sample(key, label, .)``: in [0.5, 2.0)."""
        return 0.5 + 1.5 * float(self.sample(key, label, 1)[0])

    def check_gram_range(self, entries, party_id: int) -> None:
        """Floats do not wrap around, so any finite data passes."""

    # -- arrays: arithmetic and wire codec (IEEE binary64) ----------------

    def array_add(self, a, b) -> np.ndarray:
        return np.add(a, b, dtype=np.float64)

    def array_sub(self, a, b) -> np.ndarray:
        return np.subtract(a, b, dtype=np.float64)

    def array_mul(self, a, b) -> np.ndarray:
        return np.multiply(a, b, dtype=np.float64)

    array_sum = _sum_in_order

    def matmul_t(self, a, b):
        """A^T B, each entry summed over the rows in order, as a scalar loop does.

        BLAS may sum in another order, so the outer products of the rows are
        accumulated one by one.  The sum starts at +0.0, so a sum whose
        products are all -0.0 is +0.0.
        """
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        total = np.zeros((a.shape[1], b.shape[1]))
        for k in range(a.shape[0]):
            total += np.multiply.outer(a[k], b[k])
        return total

    def pack(self, values) -> bytes:
        return np.asarray(values, dtype="<f8").tobytes()

    def unpack(self, buf) -> np.ndarray:
        """Read-only flat float64 array of the elements in ``buf``."""
        values = np.frombuffer(buf, dtype="<f8")
        values.flags.writeable = False  # frombuffer over a bytearray is writable
        return values

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
