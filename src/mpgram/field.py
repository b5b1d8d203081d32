"""The prime field Z_p for the protocol math.

``FieldDomain`` is the prime field Z_p, which is also the fixed-point codec
that embeds reals by scaling and rounding.  Every run uses the Mersenne
prime M61 = 2^61 - 1; a modulus below 2^32 (Z5 and Z251 among them) serves
the exhaustive checks, which are only feasible over tiny fields.  No other
modulus is accepted.  All arithmetic is exact, which is what the
uniform-mask security checks rely on.  Elements are uint64 residues in
[0, p).  Matrix products run on float64 BLAS: ``matmul_t`` splits each
operand by the width of its own centred values, into one limb (the values
themselves) when they fit 21 bits, as encoded data does, and else into
ceil(bits / 21) limbs of equal width; it sums in chunks of feature rows
short enough that every BLAS sum is an exact integer of at most 2^53,
reduces each chunk's sums to residues in uint64 and adds the chunks mod p,
with no Python ints.  A product takes few numpy passes, and apart from the
split their number does not grow with the limb counts: each operand's
limbs in one stacked array, every limb product from one batched
``np.matmul`` call, one sum for the products that share a shift, one
reduction per chunk and one scaling of every shift.  The count matters
because each pass over more than 500 elements releases the GIL, which the
party threads of a loopback run then hand between cores.

The domain has one bulk sampler, ``sample(key, label, n)``, which turns
the words of the keyed stream ``seeds.stream_words(key, label, .)`` into n
uniform elements: each word is cut to its top bits(p) bits and values at
or above p are rejected, with a shortfall filled by reading further into
the same stream.  So fewer draws of one (key, label) are a prefix of more.
A list of labels gives one row per label, each row exactly the draw of its
label alone: a party draws a whole pair block of RE randoms in one call.
``sample_nonzero(key, label)`` draws a nonzero scalar from a label of its
own.  ``check_gram_range`` rejects, before anything is sent, encoded data
whose dot products could wrap around.

Every entry array is held in the domain's fixed-width ``dtype``, uint64
residues in [0, p).  ``sample``, ``encode_array`` and ``unpack`` return
that dtype, and the domain owns all arithmetic on such arrays:
``array_add``, ``array_sub`` and ``array_mul`` (elementwise, broadcasting,
scalars allowed), ``array_sum`` (over the last axis), ``matmul_t`` (the
product A^T B) and ``pack``/``unpack`` (the wire codec of a vector of
elements).  The array arithmetic never leaves uint64, and ``__init__``
picks one exact form per operation for each kind of prime:

* a sum of two residues fits a word, so add is min(a + b, a + b - p) and
  sub is min(a - b, a - b + p), one pass and one correction each (a wrapped
  difference is the larger of the two);
* a product over M61 is Mersenne reduction (Crandall and Pomerance, Prime
  Numbers, 9.2.3): the products of 32-bit halves are folded by 2^61 = 1 and
  2^64 = 8 mod p, in about 24 passes.  Below 2^32 the product of two
  residues fits a word, so it is x y % p.  A scalar operand is reduced mod
  p and broadcast;
* ``matmul_t`` multiplies the sum of each limb shift s by 2^s mod p: over
  M61 a 61-bit rotation by s mod 61, in 4 passes; below 2^32 the word
  product with the constant 2^s mod p;
* the sum uses delayed reduction (Dumas, Giorgi and Pernet, ACM TOMS 2008):
  runs of floor((2^64 - 1) / (p - 1)) residues (8 for M61) are added in
  uint64 with one ``% p`` per run;
* an int64 value, such as an encoded real or a chunk's BLAS sum, is below
  M61 in magnitude, and then takes its residue as min(u, u + p) on its
  uint64 view, with no division; below 2^32 it takes ``np.mod``.

The per-scalar operations (``add``, ``sub``, ``mul``, ``inv``) take single
elements, which the field computes in Python ints; they are the reference
the array operations are checked against.
``decode`` and ``decode_dot`` take single scalars (exact Python-int
arithmetic) or entry arrays, which return float64 arrays of the same values.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, EncodingOverflowError
from .seeds import stream_words

M61 = (1 << 61) - 1  # 2^61 - 1 = 2305843009213693951

# Below this magnitude a float64 copy of an int is exact.
_EXACT_INT = 2.0**53
# The field kernel's limbs are at most this many bits wide, so an operand
# whose centred values fit it is one limb: the values themselves.  Three
# limbs cover any centred value of M61, below 2^60, and a product of two
# limbs is at most 2^42, which leaves at least 2^10 rows per exact chunk.
_LIMB_MAX_BITS = 21


def _count(n) -> int:
    """A sample count ``n`` as a Python int; DomainError if it is negative.

    A numpy integer would keep the sampler's shortfall arithmetic in int64,
    where ``shortfall << bits`` wraps.
    """
    n = operator.index(n)
    if n < 0:
        raise DomainError(f"cannot sample a negative number of elements, got {n}")
    return n


class FieldDomain:
    """Prime field Z_p, for p = M61 or a p below 2^32, with a fixed-point codec for reals.

    encode(x) = round(x * 2**scale_bits) mod p, with negative values mapped
    onto the upper half of the field (p - |.|).  A product of two encoded
    values therefore carries a factor 2**(2*scale_bits), which ``decode_dot``
    divides out again.
    """

    dtype = np.dtype(np.uint64)

    def __init__(self, scale_bits: int = 16, p: int = M61):
        if p != M61 and not 2 <= p < 1 << 32:
            raise DomainError(
                f"modulus must be M61 = 2^61 - 1 or at least 2 and below 2^32 (where a "
                f"product of two residues fits a uint64), got {p}"
            )
        if scale_bits < 0:
            raise DomainError(f"scale_bits must be non-negative, got {scale_bits}")
        self.p = p
        self.scale_bits = scale_bits
        self.scale = 1 << scale_bits
        self.zero = 0
        self._p = np.uint64(p)
        self._bits = p.bit_length()
        self._sum_run = ((1 << 64) - 1) // (p - 1)  # residues per uint64 partial sum
        # The exact forms, picked once from p: shifts and masks over M61, and
        # below 2^32 words that hold any product of two residues.
        if p == M61:
            self._product, self._scale_pow2 = _m61_product, _m61_rotate
            self._residues = self._residues_below_p
        else:
            self._product, self._scale_pow2 = self._word_product, self._word_pow2
            self._residues = self._residues_mod
        # |x| must stay clear of the wrap-around point; for M61 that is
        # 2^(60 - scale_bits) so that sums of products still fit.
        self.max_abs = 2.0 ** (self._bits - 1 - scale_bits)

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
        """The multiplicative inverse of a mod p; DomainError if a has none."""
        if a == 0:
            raise DomainError("no inverse of zero")
        try:
            return pow(int(a), -1, self.p)
        except ValueError:  # gcd(a, p) > 1: a multiple of p, or p is not prime
            raise DomainError(f"{a} has no inverse mod {self.p}") from None

    # -- real <-> field --------------------------------------------------

    def encode(self, x: float) -> int:
        if not abs(x) < self.max_abs:  # also rejects NaN, which compares false
            raise EncodingOverflowError(
                f"{x} cannot be represented at this scale: |x| must be below "
                f"2^{self._bits - 1 - self.scale_bits}"
            )
        return round(x * self.scale) % self.p

    def encode_array(self, rows) -> np.ndarray:
        """uint64 array of ``encode`` of every entry of a 2-D sequence of reals.

        One float64 expression: x 2^s is exact, ``np.rint`` breaks ties to
        even as ``round`` does, and ``_residues`` maps a negative v to p - |v|.
        An entry that is not finite, not below ``max_abs`` or at least 2^53 in
        magnitude (where a float64 copy of an int may have rounded) goes to
        ``encode`` on its original value, in row-major order; so the values
        and the first error, with its text, are those of the scalar codec.
        """
        try:
            x = np.asarray(rows, dtype=np.float64)
        except OverflowError:  # an int beyond float64; let encode name it
            return np.array([[self.encode(v) for v in r] for r in rows], dtype=np.uint64)
        ok = np.abs(x) < min(self.max_abs, _EXACT_INT)
        out = self._residues(np.rint(np.where(ok, x, 0.0) * self.scale).astype(np.int64))
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

        A Python scalar is decoded in Python ints, an entry array (or numpy
        scalar) through ``centred``.
        """
        if isinstance(v, (np.ndarray, np.generic)):
            return np.ldexp(self.centred(v), -bits)
        half = (self.p - 1) // 2
        return ((v + half) % self.p - half) / (1 << bits)

    def centred(self, entries) -> np.ndarray:
        """int64 array of signed(v) for an entry array (see ``_unscale``).

        v - p is formed in uint64, where it wraps mod 2^64, and its int64 view
        is v - p exactly, since -p/2 < v - p < 0.
        """
        u = np.asarray(entries, dtype=np.uint64)
        half = np.uint64((self.p - 1) // 2)
        return np.where(u > half, u - self._p, u).view(np.int64)

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
        limit = (self.p - 1) // 2
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

    def gram_headroom(self, entries) -> tuple:
        """(largest ||signed(x)||^2 over the columns x of the f x n entry array,
        (p - 1) / 2): how close the data comes to the limit of ``check_gram_range``.

        The norms are summed in float64, and every column within twice their
        error of the largest is summed again in Python ints, so the value is
        exact.
        """
        signed = self.centred(entries)
        x = signed.astype(np.float64)
        norms = (x * x).sum(axis=0)
        margin = (signed.shape[0] + 3) * 2.0**-52
        near = np.flatnonzero(norms >= norms.max(initial=0.0) * (1.0 - margin))
        largest = max((sum(v * v for v in signed[:, u].tolist()) for u in near), default=0)
        return largest, (self.p - 1) // 2

    # -- sampling --------------------------------------------------------

    def sample(self, key: bytes, label, n: int) -> np.ndarray:
        """(n,) uint64 array of uniform elements of Z_p from the stream (key, label).

        Each word's top bits(p) bits are one candidate, kept if below p, so the
        draw is the first n candidates below p, in stream order.  A list of
        labels gives one such row per label, in a (len(labels), n) array: the
        first n words of every label's stream are shifted into one block as
        they are read, the block is checked at once, and only a row that
        holds a candidate of p or more is drawn again on its own
        (``_accepted``).  ``n`` may be any integer that is not negative, a
        numpy one included.
        """
        n = _count(n)
        labels = label if isinstance(label, list) else [label]
        block = np.empty((len(labels), n), dtype=np.uint64)
        for row, one in zip(block, labels):
            np.right_shift(stream_words(key, one, n), np.uint64(64 - self._bits), out=row)
        for i in np.flatnonzero((block >= self._p).any(axis=1)):
            block[i] = self._accepted(key, labels[i], n, block[i])
        return block if isinstance(label, list) else block[0]

    def _accepted(self, key: bytes, label, n: int, head) -> np.ndarray:
        """The first n candidates below p of the stream (key, label), whose first
        candidates are ``head``.  Each shortfall reads the stream again, the
        expected number of words further, until n are kept."""
        shift = np.uint64(64 - self._bits)
        v, count = head[head < self._p], head.size
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
        """(a + b) mod p, elementwise, for entries in [0, p).

        s = a + b < 2p fits a uint64, and min(s, s - p) is the residue: s - p
        wraps above s when s < p.
        """
        s = np.add(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
        return np.minimum(s, np.subtract(s, self._p))

    def array_sub(self, a, b) -> np.ndarray:
        """(a - b) mod p, elementwise, for entries in [0, p).

        d = a - b wraps mod 2^64 when a < b, and d + p then wraps back to
        a - b + p.  The residue is min(d, d + p), since d + p stays in [p, 2p)
        when a >= b.
        """
        d = np.subtract(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
        return np.minimum(d, np.add(d, self._p))

    def array_mul(self, a, b) -> np.ndarray:
        """(a b) mod p, elementwise, for entries in [0, p).

        The product is ``_m61_product`` over M61 and ``_word_product`` below
        2^32.  A scalar operand (a Python int, numpy scalar or 0-d array) is
        reduced mod p first, so it may be any integer, and broadcast.
        Operands are lifted to at least one dimension, since numpy hands back
        numpy scalars for 0-d ones, whose arithmetic warns on wrap-around; the
        result has the broadcast shape.
        """
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        x, y = (np.atleast_1d(np.asarray(int(v) % self.p if np.ndim(v) == 0 else v,
                                         dtype=np.uint64)) for v in (a, b))
        return self._product(x, y).reshape(shape)

    def _word_product(self, x, y) -> np.ndarray:
        """x y mod p, elementwise, for uint64 arrays of residues below p < 2^32, whose
        product fits a word."""
        r = np.multiply(x, y)
        r %= self._p
        return r

    def _word_pow2(self, res, shifts: list) -> np.ndarray:
        """res[i] 2^shifts[i] mod p for an (S, n1, n2) uint64 array of residues below
        p < 2^32: one ``_word_product`` with a constant per slice."""
        w = np.array([pow(2, s, self.p) for s in shifts], dtype=np.uint64)
        return self._word_product(res, w.reshape(-1, 1, 1))

    def array_sum(self, a) -> np.ndarray:
        """Sum mod p over the last axis of an entry array, with delayed reduction
        (Dumas, Giorgi and Pernet, ACM TOMS 2008).

        k = floor((2^64 - 1) / (p - 1)) residues sum to at most 2^64 - 1, so
        each level adds runs of k entries in uint64 (``np.add.reduceat``) and
        takes one ``% p``, until one entry is left: k = 8 for M61, and a sum of
        d entries takes ceil(log_k d) levels.
        """
        a = np.asarray(a, dtype=np.uint64)
        if a.shape[-1] == 0:
            return np.zeros(a.shape[:-1], dtype=np.uint64)
        while a.shape[-1] > 1:
            a = np.add.reduceat(a, np.arange(0, a.shape[-1], self._sum_run), axis=-1)
            a %= self._p
        return a[..., 0].copy()

    def matmul_t(self, a, b):
        """A^T B mod p for entry arrays a (f x n1) and b (f x n2), exactly.

        Error-free splitting (Ozaki, Ogita, Oishi and Rump, 2012) on float64
        BLAS, with delayed reduction (Dumas, Giorgi and Pernet, 2008).  Each
        operand is split by the width of its own centred values c
        (``_split_width``): one limb, c itself, when max |c| fits 21 bits,
        else k = ceil(bits / 21) limbs of w = ceil(bits / k) bits, c =
        sum_i c_i 2^(w i).  Every limb is at most 2^w in magnitude.  With t
        the most limb products that share a shift w_a i + w_b j, chunks of r
        feature rows with r t 2^(w_a + w_b) <= 2^53 keep every BLAS sum, and
        every sum of one shift's products, an exact integer, and r >= 1024
        rows share one reduction.

        A chunk takes few numpy passes, and apart from the split (two per
        limb after the first), their number does not grow with the limb
        counts.  Each operand's limbs are one stacked array (``_split``).
        One ``np.matmul`` call forms every product A_i^T B_j, each the GEMM
        that BLAS would be given for it alone.  Where products share a
        shift, one sum over a skewed array adds them.  One ``_residues``
        reduces the chunk's shift sums, and the chunks are added mod p.
        Then one scaling multiplies the sum of every shift s by 2^s mod p,
        a 61-bit rotation over M61 (``_m61_rotate``) and a word product
        below 2^32 (``_word_pow2``), and one uint64 sum and ``% p`` add the
        shifts (delayed reduction, as in ``array_sum``).
        A product of one-limb operands, such as a gram of encoded data, has
        the one shift 0: one GEMM, one reduction and no scaling.  A self
        gram (``b is a``) splits its array once.

        The count of passes matters because each numpy pass over more than
        500 elements releases the GIL and takes it back.  When the parties of
        a loopback run call this from threads on several cores, each pass
        can hand the GIL to another core and wait for it.  A wide x wide
        product of one chunk over M61 takes about 28 such passes, where a
        GEMM per limb product and a scaling per shift took 90.
        """
        same = b is a
        ca = self.centred(a)
        cb = ca if same else self.centred(b)
        wa, ka = _split_width(ca)
        wb, kb = (wa, ka) if same else _split_width(cb)
        n1, n2 = ca.shape[1], cb.shape[1]
        # With w_a = w_b = w, the products (i, j) with one i + j share the
        # shift w (i + j), at most min(ka, kb) of them.  Otherwise no two
        # share one: a limb count above 1 has a width of 11 to 21 bits, and
        # i, j < 3, so w_a i + w_b j = w_a i' + w_b j' would need one width
        # twice the other.
        share = wa == wb and min(ka, kb) > 1
        if share:
            shifts = [wa * s for s in range(ka + kb - 1)]
            slots = np.zeros((ka, ka + kb, n1, n2))  # see the loop
        else:
            shifts = [wa * i + wb * j for i in range(ka) for j in range(kb)]
        # r rows of t products of at most 2^(w_a + w_b) sum to at most 2^53
        rows = (1 << 53) // ((min(ka, kb) if share else 1) << (wa + wb))
        res = np.zeros((len(shifts), n1, n2), dtype=np.uint64)  # the gram of no feature rows
        for lo in range(0, ca.shape[0], rows):
            la = _split(ca[lo : lo + rows], wa, ka)
            lb = la if same else _split(cb[lo : lo + rows], wb, kb)
            lat = la.swapaxes(1, 2)[:, None]
            if share:
                # product (i, j) goes to slot j of row i of ``slots``, whose
                # other slots stay zero.  Read as ka rows one slot shorter,
                # that slot is slot i + j of row i, so the sum over the rows
                # adds the products of each shift.
                np.matmul(lat, lb[None], out=slots[:, :kb])
                flat = slots.reshape(ka * (ka + kb), n1, n2)[: ka * len(shifts)]
                sums = flat.reshape(ka, len(shifts), n1, n2).sum(axis=0)
            else:
                sums = np.matmul(lat, lb[None]).reshape(len(shifts), n1, n2)
            chunk = self._residues(sums.astype(np.int64))
            res = self.array_add(res, chunk) if lo else chunk
        if len(shifts) == 1:  # shift 0 needs no scaling
            return res[0]
        scaled = self._scale_pow2(res, shifts)
        if len(shifts) > self._sum_run:  # more shifts than residues that fit a word
            return self.array_sum(np.moveaxis(scaled, 0, -1))
        total = scaled.sum(axis=0)  # adds whole slices, unlike array_sum's reduceat
        total %= self._p
        return total

    def _residues_mod(self, acc) -> np.ndarray:
        """uint64 array of v mod p, in [0, p), for an int64 array of values v."""
        return np.mod(acc, np.int64(self.p)).view(np.uint64)

    def _residues_below_p(self, acc) -> np.ndarray:
        """uint64 array of v mod p, in [0, p), for an int64 array of values v
        with |v| < p, which every caller's values are over M61: a chunk's BLAS
        sums are at most 2^53, and an encoded real is below 2^60.

        On the uint64 view u, a v >= 0 is u itself and u + p does not wrap; a
        v < 0 is u = v + 2^64, and u + p wraps to v + p.  So min(u, u + p) is
        the residue, with no division.
        """
        u = acc.view(np.uint64)
        t = u + self._p
        return np.minimum(u, t, out=t)

    def pack(self, values, prefix: bytes = b"") -> tuple:
        """(prefix, a byte view of the 8-byte elements of ``values``): the view is of
        the array's own buffer when it is C-contiguous in that dtype, and of one
        copy otherwise."""
        return prefix, memoryview(np.ascontiguousarray(values, dtype="<u8")).cast("B")

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
_P61 = np.uint64(M61)
_BITS61 = np.uint64(61)
_LO29 = np.uint64((1 << 29) - 1)


def _m61_product(x, y) -> np.ndarray:
    """x y mod M61, elementwise, for uint64 arrays of residues below M61 = 2^61 - 1.

    Mersenne reduction (Crandall and Pomerance, Prime Numbers, 9.2.3): with
    32-bit halves x = x1 2^32 + x0 and y likewise, x1 and y1 are below 2^29,
    and x y = x1 y1 2^64 + m 2^32 + x0 y0 with m = x1 y0 + x0 y1 < 2^62.
    Since 2^61 = 1 and 2^64 = 8 mod p, each term folds below 2^61: x1 y1 2^64
    to 8 x1 y1; m 2^32, with m split at bit 29 into m1 2^29 + m0, to
    m0 2^32 + m1 (m1 < 2^33); and x0 y0, split at bit 61 into h 2^61 + l, to
    l + h (h < 8).  Their total s < 3 2^61 + 2^34 fits a word; one fold
    (s & p) + (s >> 61) <= p + 3 and min(s, s - p) then give the residue.
    About 24 numpy passes, on three arrays of the broadcast shape, each
    updated in place.
    """
    x0, x1 = x & _LO32, x >> _HALF
    y0, y1 = y & _LO32, y >> _HALF
    s = x1 * y1
    s <<= np.uint64(3)
    mid = x1 * y0
    t = x0 * y1
    mid += t
    np.bitwise_and(mid, _LO29, out=t)
    t <<= _HALF
    s += t
    mid >>= np.uint64(29)
    s += mid
    np.multiply(x0, y0, out=t)
    np.bitwise_and(t, _P61, out=mid)
    s += mid
    t >>= _BITS61
    s += t
    np.bitwise_and(s, _P61, out=t)
    s >>= _BITS61
    s += t
    np.subtract(s, _P61, out=t)
    return np.minimum(s, t, out=s)


def _m61_rotate(res, shifts: list) -> np.ndarray:
    """res[i] 2^shifts[i] mod M61 for an (S, n1, n2) uint64 array of residues below
    M61; overwrites res.

    2^61 = 1 mod p, so with k = shifts[i] mod 61 the product is r 2^k =
    ((r << k) mod 2^61) + (r >> (61 - k)): the 61-bit rotation of r by k,
    ((r << k) & p) | (r >> (61 - k)).  A rotation keeps the count of set
    bits, so a residue below p, which has a clear bit, stays below p.  Four
    numpy passes, with k broadcast over the first axis.
    """
    k = np.array([s % 61 for s in shifts], dtype=np.uint64).reshape(-1, 1, 1)
    out = res << k
    out &= _P61
    res >>= _BITS61 - k
    out |= res
    return out


def _split_width(c) -> tuple:
    """(w, k) for an int64 array c of centred values: k limbs of w bits each.

    With bits the width of max |c|, an operand of at most ``_LIMB_MAX_BITS``
    bits is one limb of w = bits; a wider one is k = ceil(bits / 21) limbs of
    w = ceil(bits / k) <= 21 bits.  Either way every limb of ``_split`` is at
    most 2^w in magnitude.
    """
    bits = max(int(c.max(initial=0)), -int(c.min(initial=0))).bit_length()
    if bits <= _LIMB_MAX_BITS:
        return bits, 1
    k = -(-bits // _LIMB_MAX_BITS)
    return -(-bits // k), k


def _split(c, w: int, k: int) -> np.ndarray:
    """The k limbs of w bits of an int64 array c, lowest first, stacked in one
    float64 array of shape (k,) + c.shape.

    c = sum_i c_i 2^(w i): the lower limbs are the unsigned bits
    [w i, w (i + 1)) of c's two's complement, in [0, 2^w), and the top limb
    is c shifted arithmetically, signed, with |c_(k-1)| <= 2^(bits - w (k - 1))
    <= 2^w.  One limb is c itself.  Each limb's last integer step casts its
    result straight into the stack: a stacked int64 array of every limb, in
    three passes, made the split of a 10000 x 200 operand 1.6 times slower.
    """
    if k == 1:
        return c.astype(np.float64)[None]
    limbs = np.empty((k,) + c.shape)
    mask = np.int64((1 << w) - 1)
    np.bitwise_and(c, mask, out=limbs[0], casting="unsafe")
    for i in range(1, k - 1):
        np.bitwise_and(c >> np.int64(w * i), mask, out=limbs[i], casting="unsafe")
    np.right_shift(c, np.int64(w * (k - 1)), out=limbs[-1], casting="unsafe")
    return limbs


def make_domain(kind: str, scale_bits: int = 16) -> FieldDomain:
    """The field over M61 for the config name 'field', the only domain."""
    if kind != "field":
        raise DomainError(f"unknown domain kind {kind!r}")
    return FieldDomain(scale_bits=scale_bits)
