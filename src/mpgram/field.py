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
  2^52 and is an exact integer; the limb products are recombined in
  Python ints and reduced mod p once.  The 8-byte wire codec and the uint64
  limb split are why p must be below 2^64.
* ``FloatDomain`` -- IEEE double arithmetic, provided so the protocols
  can also be run directly on real-valued data.  No security properties
  are claimed for it.

Small test primes (Z_5, Z_251) are supported by passing ``p`` explicitly;
exhaustive distribution checks are only feasible over tiny fields.

Besides the scalar operations, each domain owns the arithmetic of whole
matrices: ``reduce`` maps the result of an array expression over Python
scalars back into the domain, ``matmul_t`` is the product A^T B of two
entry arrays, and ``pack``/``unpack`` are the wire codec of a vector of
elements.  ``decode`` and ``decode_dot`` apply elementwise to
object arrays as well as to single scalars.
"""

from __future__ import annotations

from random import Random

import numpy as np

from .errors import DomainError, EncodingOverflowError

M61 = (1 << 61) - 1  # 2^61 - 1 = 2305843009213693951

# The field kernel splits elements into 16-bit limbs held as float64.  A
# product of two limbs is below 2^32, so a sum of up to 2^20 of them stays
# below 2^52 and every BLAS partial sum is an exact integer.
_LIMB_BITS = 16
_CHUNK_ROWS = 1 << 20


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
        if abs(x) >= self.max_abs:
            raise EncodingOverflowError(
                f"|{x}| >= 2^{self.modulus.bit_length() - 1 - self.scale_bits} "
                "cannot be represented at this scale"
            )
        v = round(x * self.scale)
        return v % self.modulus

    def decode(self, v: int) -> float:
        return self._signed(v) / self.scale

    def decode_dot(self, v: int) -> float:
        """Decode a sum of products of two encoded reals.

        Values above p/2 are interpreted as negative.  A true value whose
        magnitude exceeds the headroom wraps silently here; callers are
        responsible for the range precondition, and a verified run checks
        the decoded gram against a float64 one to catch a wrap.
        """
        return self._signed(v) / (self.scale * self.scale)

    def _signed(self, v):
        """v for v <= p // 2, else v - p; elementwise on object arrays too."""
        half = (self.modulus - 1) // 2
        return (v + half) % self.modulus - half


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

    def neg(self, a: int) -> int:
        return self.p - a if a else 0

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat: a^(p-2) mod p."""
        if a == 0:
            raise DomainError("no inverse of zero")
        return pow(a, self.p - 2, self.p)

    # -- real <-> field --------------------------------------------------

    def encode(self, x: float) -> int:
        return self.codec.encode(x)

    def decode(self, v: int) -> float:
        return self.codec.decode(v)

    def decode_dot(self, v: int) -> float:
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

    # -- arrays: reduction and wire codec (8-byte little-endian unsigned) --

    def reduce(self, values):
        """Residues mod p of an object array of Python ints."""
        return values % self.p

    def matmul_t(self, a, b):
        """A^T B mod p for entry arrays a (f x n1) and b (f x n2), exactly.

        With L = ceil(bits(p) / 16), each operand is split into L limbs of
        16 bits, A = sum_i A_i 2^(16 i), held as float64.  The BLAS products
        A_i^T B_j are exact integers below 2^52 (see ``_CHUNK_ROWS``), so
        they are summed as int64 into Q_k = sum_{i+j=k} A_i^T B_j, below
        L 2^52; then sum_k Q_k 2^(16 k) is formed in Python ints and reduced
        mod p once.  The feature axis is cut into chunks of 2^20 rows, which
        keeps every float64 sum exact for any f.
        """
        count = self._nlimbs
        n1, n2 = a.shape[1], b.shape[1]
        a, b = a.astype(np.uint64), b.astype(np.uint64)
        total = np.zeros((n1, n2), dtype=object)
        for lo in range(0, a.shape[0], _CHUNK_ROWS):
            la = _limbs(a[lo : lo + _CHUNK_ROWS], count)
            lb = _limbs(b[lo : lo + _CHUNK_ROWS], count)
            q = np.zeros((2 * count - 1, n1, n2), dtype=np.int64)
            for i in range(count):
                for j in range(count):
                    q[i + j] += (la[i].T @ lb[j]).astype(np.int64)
            part = q[-1].astype(object)
            for k in range(2 * count - 3, -1, -1):
                part = (part << _LIMB_BITS) + q[k]
            total = total + part
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

    def neg(self, a: float) -> float:
        return -a

    def inv(self, a: float) -> float:
        if a == 0.0:
            raise DomainError("no inverse of zero")
        return 1.0 / a

    def encode(self, x: float) -> float:
        return float(x)

    def decode(self, v: float) -> float:
        return v

    def decode_dot(self, v: float) -> float:
        return v

    def uniform(self, rng: Random) -> float:
        return rng.random()

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
