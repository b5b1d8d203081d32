"""The prime field Z_p for the protocol math.

``FieldDomain`` is the prime field Z_p, which is also the fixed-point codec
that embeds reals by scaling and rounding.  Every run uses the Mersenne
prime M61 = 2^61 - 1; a modulus below 2^32 (Z5 and Z251 among them) serves
the exhaustive checks, which are only feasible over tiny fields.  No other
modulus is accepted.  All arithmetic is exact, which is what the
uniform-mask security checks rely on.  Elements are uint64 residues in
[0, p).  Matrix products run on float64 BLAS: ``matmul_t`` splits each
operand by the width of its own centred values, into one limb (the values
themselves) when they fit 21 bits, as encoded data does, into 2 limbs when
they fit 42, and, over M61, a wider operand, such as a uniform mask, into
unsigned limbs of 20, 20 and 21 bits taken straight from its residues; it
sums in chunks of feature rows short enough, for the limbs' largest
values, that every BLAS sum is an exact integer of at most 2^53, reduces
each chunk's sums to residues in uint64 (the sums of two operands of
residues, which are not negative, are residues already) and adds the
chunks mod p, with no Python ints.  A product takes few numpy passes,
and apart from the split their number does not grow with the limb counts:
each operand's limbs in one stacked array, every limb product from one
batched ``np.matmul`` call, one sum for the products that share a shift,
one reduction per chunk and one scaling of every shift.  The count matters
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
* an int64 value, such as an encoded real or a chunk's signed BLAS sum, is below
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
# whose centred values fit it is one limb: the values themselves, and one
# that fits twice as many bits is two.  A wider one, which only M61 has, is
# cut from its residues, which are below 2^61, into unsigned limbs of 20, 20
# and 21 bits, at shifts 0, 20 and 40: (spacing, largest value of each limb).
_LIMB_MAX_BITS = 21
_TWO_LIMBS = 2 * _LIMB_MAX_BITS
_M61_LIMBS = (20, ((1 << 20) - 1, (1 << 20) - 1, (M61 - 1) >> 40))


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
        entry array has ||signed(x)||^2 <= (p - 1) / 2; the lowest such column is named.

        (p - 1) / 2 is the largest magnitude that decodes, and by
        Cauchy-Schwarz |<x, y>| <= ||x|| ||y||, so when every party's columns
        pass, no entry of the pooled gram wraps around, and each party checks
        its own data alone.  The columns near the limit are summed exactly
        (``_exact_norms``), so the verdict is exact.
        """
        limit = (self.p - 1) // 2
        for u, norm2 in self._exact_norms(entries, limit).items():
            if norm2 > limit:
                raise EncodingOverflowError(
                    f"sample {u} of party {party_id} has encoded squared norm {norm2} > "
                    f"(p - 1) / 2 = {limit} (norm {math.sqrt(norm2) / self.scale:.6g} > "
                    f"{math.sqrt(limit) / self.scale:.6g} in real units), so its dot "
                    f"products could wrap around mod p"
                )

    def gram_headroom(self, entries) -> tuple:
        """(largest ||signed(x)||^2 over the columns x of the f x n entry array, exact,
        (p - 1) / 2): how close the data comes to the limit of ``check_gram_range``."""
        return max(self._exact_norms(entries).values(), default=0), (self.p - 1) // 2

    def _exact_norms(self, entries, threshold=None) -> dict:
        """{u: ||signed(x_u)||^2}, in column order, for each column x_u of the f x n entry
        array whose float64 squared norm, within a relative (f + 3) 2^-53 of the exact one,
        comes within twice that of ``threshold`` (the largest if None) or above it."""
        signed = self.centred(entries)
        x = signed.astype(np.float64)
        norms = (x * x).sum(axis=0)
        if threshold is None:
            threshold = norms.max(initial=0.0)
        margin = (signed.shape[0] + 3) * 2.0**-52
        near = np.flatnonzero(norms >= threshold * (1.0 - margin))
        return {int(u): sum(v * v for v in signed[:, u].tolist()) for u in near}

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
        operand is cut into limbs, v = sum_i v_i 2^(w i), by the width of its
        centred values c (``_operand``): one limb, c itself, when max |c|
        fits 21 bits, as encoded data does; 2 limbs of c when it fits 42;
        and a wider, full-width one, which only M61 has (a uniform mask),
        into unsigned limbs of its residues at bits 20 and 40, with no
        centred copy.  Chunks of feature rows short enough that every BLAS
        sum, and every sum of the products that share a shift, is an exact
        integer of at most 2^53 follow from the limbs' largest magnitudes
        (``_product_plan``): 1638 rows for two full-width operands, 2048 for
        two of 21 bits.

        A chunk takes few numpy passes, and apart from the split their
        number does not grow with the limb counts.  Each operand's limbs
        are one stacked array (``_split``).  One ``np.matmul`` call forms
        every product A_i^T B_j, each the GEMM that BLAS would be given for
        it alone.  Where products share a shift, one sum over a skewed array
        adds them.  The chunk's shift sums then become residues: those of
        two full-width operands are not negative and are below p already,
        so they are only cast to uint64; others take ``_residues``.  The
        chunks are added mod p.  Then one scaling multiplies the sum of
        every shift s by 2^s mod p, a 61-bit rotation over M61
        (``_m61_rotate``) and a word product below 2^32 (``_word_pow2``),
        and one uint64 sum and ``% p`` add the shifts (at most 6, where 8
        residues fit a word).  A product of one-limb operands, such as a
        gram of encoded data, has the one shift 0: one GEMM, one reduction
        and no scaling.  A self gram (``b is a``) splits its array once.

        The count of passes matters because each numpy pass over more than
        500 elements releases the GIL and takes it back.  When the parties of
        a loopback run call this from threads on several cores, each pass
        can hand the GIL to another core and wait for it.  A wide x wide
        product of one chunk over M61 takes about 17 such passes.
        """
        same = b is a
        va, wa, ba = self._operand(a)
        vb, wb, bb = (va, wa, ba) if same else self._operand(b)
        ka, kb = len(ba), len(bb)
        n1, n2 = va.shape[1], vb.shape[1]
        shifts, share, rows = _product_plan(wa, ba, wb, bb)
        if share:
            slots = np.zeros((ka, ka + kb, n1, n2))  # see the loop
        unsigned = va.dtype == vb.dtype == np.uint64  # both are residues
        res = np.zeros((len(shifts), n1, n2), dtype=np.uint64)  # the gram of no feature rows
        for lo in range(0, va.shape[0], rows):
            la = _split(va[lo : lo + rows], wa, ka)
            lb = la if same else _split(vb[lo : lo + rows], wb, kb)
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
            if unsigned:  # in [0, 2^53], below p: only full-width operands are residues
                chunk = sums.astype(np.uint64)
            else:
                chunk = self._residues(sums.astype(np.int64))
            res = self.array_add(res, chunk) if lo else chunk
        if len(shifts) == 1:  # shift 0 needs no scaling
            return res[0]
        total = self._scale_pow2(res, shifts).sum(axis=0)  # adds whole slices
        total %= self._p
        return total

    def _operand(self, x) -> tuple:
        """(v, w, bounds) for an entry array x: the array whose limbs ``_split`` cuts,
        their spacing w, and the largest magnitude of each limb, lowest first.

        With bits the width of the largest centred value, an operand of at
        most 21 bits is one limb, its centred values c; one of at most 42 bits
        is 2 limbs of c, the lower one of w = ceil(bits / 2) bits and the top
        one at most 2^(bits - w) in magnitude.  A wider one, which only M61
        has, is full-width: v is x itself, cut into the unsigned limbs of
        ``_M61_LIMBS``, with no centred copy.  A uniform mask shows its width
        in its first row, which is read first, so only operands that do not
        are centred.
        """
        x = np.asarray(x, dtype=np.uint64)
        first = np.minimum(x[0], self._p - x[0]) if x.shape[0] else x  # centred magnitudes
        if int(first.max(initial=0)).bit_length() > _TWO_LIMBS:
            return (x, *_M61_LIMBS)
        c = self.centred(x)
        bits = max(int(c.max(initial=0)), -int(c.min(initial=0))).bit_length()
        if bits <= _LIMB_MAX_BITS:
            return c, bits, ((1 << bits) - 1,)
        if bits <= _TWO_LIMBS:
            w = -(-bits // 2)
            return c, w, ((1 << w) - 1, 1 << (bits - w))
        return (x, *_M61_LIMBS)

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


def _product_plan(wa: int, bounds_a: tuple, wb: int, bounds_b: tuple) -> tuple:
    """(shifts, share, rows) for the product of operands whose limbs are spaced wa
    and wb bits apart and are at most ``bounds_a`` and ``bounds_b`` in magnitude.

    Limb i sits at shift w i.  With wa = wb = w, the products (i, j) with one
    i + j share the shift w (i + j), and ``share`` is true: one sum adds them.
    Otherwise no two share one, and ``shifts`` lists one per product, i
    major: a limb count above 1 has a spacing of 11 to 21 bits, and i, j < 3,
    so wa i + wb j = wa i' + wb j' would need one spacing twice the other.
    ``rows`` is the most feature rows of a chunk whose every BLAS sum, and
    every sum of one shift's products, is an exact float64 integer: rows
    times the largest sum of one shift's limb bounds is at most 2^53.
    """
    ka, kb = len(bounds_a), len(bounds_b)
    share = wa == wb and min(ka, kb) > 1
    if share:
        shifts = [wa * s for s in range(ka + kb - 1)]
        per_row = np.convolve(bounds_a, bounds_b)
    else:
        shifts = [wa * i + wb * j for i in range(ka) for j in range(kb)]
        per_row = np.outer(bounds_a, bounds_b)
    return shifts, share, (1 << 53) // max(int(per_row.max()), 1)


def _split(v, w: int, k: int) -> np.ndarray:
    """The k limbs of w bits of an int64 or uint64 array v, lowest first, stacked in
    one float64 array of shape (k,) + v.shape.

    v = sum_i v_i 2^(w i): the lower limbs are the bits [w i, w (i + 1)) of v
    (of its two's complement, if it is signed), in [0, 2^w), and the top limb
    is v shifted right, arithmetically if it is signed.  One limb is v itself.
    Each limb's last integer step casts its result straight into the stack: a
    stacked integer array of every limb, in three passes, made the split of a
    10000 x 200 operand 1.6 times slower.
    """
    if k == 1:
        return v.astype(np.float64)[None]
    word = v.dtype.type
    limbs = np.empty((k,) + v.shape)
    mask = word((1 << w) - 1)
    np.bitwise_and(v, mask, out=limbs[0], casting="unsafe")
    for i in range(1, k - 1):
        np.bitwise_and(v >> word(w * i), mask, out=limbs[i], casting="unsafe")
    np.right_shift(v, word(w * (k - 1)), out=limbs[-1], casting="unsafe")
    return limbs


def make_domain(kind: str, scale_bits: int = 16) -> FieldDomain:
    """The field over M61 for the config name 'field', the only domain."""
    if kind != "field":
        raise DomainError(f"unknown domain kind {kind!r}")
    return FieldDomain(scale_bits=scale_bits)
