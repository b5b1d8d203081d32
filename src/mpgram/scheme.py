"""Randomized-encoding scheme for a length-d dot product.

``generate_scheme`` runs the recursive generator: the largest power of
two P strictly below d splits the index range, one fresh "split" random
is booked with sign +1 on the first leaf of the left half and -1 on the
first leaf of the right half (so the split contributions telescope to
zero in the decoded sum), and recursion bottoms out in a mul-add leaf
gadget that allocates four fresh randoms.  Index 0 inside a leaf's raw
eX/eY lists is a positional sentinel for the constant one (the multiplier
of the data value in the first component); it is not a slot in the
sampled randoms vector.

Per leaf i with randoms (a, b, c, d) and split sum s_i:

    X side     c1 = x_i - r[a]
               c2 = x_i*r[b] - r[a]*r[b] + r[c]
    Y side     c3 = y_i - r[b]
               c4 = y_i*r[a] + r[d]
    offline    c5 = s_i - r[c] - r[d]

and sum_i (c1*c3 + c2 + c4 + c5) = <x, y>.

The Y side touches only r[a], r[b], r[d], so those three per leaf are
the full set of randoms the scheme owner must transmit to the peer.
Dumps show each leaf's raw index lists, derived from its plan.

Encoding and decoding are array expressions over entry arrays in the
domain's dtype, with any leading axes; a party uses the leading axes for a
block of sample pairs.  For randoms of shape (..., R), R = total_randoms:

    pair_randoms        -> (n_a, n_b, R) one row per sample pair (u, v)
    y_random_triples    -> (..., d, 3)   (r[a], r[b], r[d]) per leaf
    encode_x_side       -> (..., d, 2)   (c1, c2)
    encode_y_side       -> (..., d, 2)   (c3, c4), from the triples
    offline_components  -> (..., d)      c5
    decode_dot          -> (...)         the dot products

Each gathers the randoms through the scheme's leaf index arrays and does
its arithmetic through the domain's array operations (``array_add``,
``array_sub``, ``array_mul``, ``array_sum``).

The randoms of Alice's sample u against all of Bob's samples are read from
Alice's own key under the label ``("re", bob, u)`` (see ``mpgram.seeds``),
and one draw reads every u of a pair into one (n_a, n_b, R) block: row v of
u's (n_b, R) slice belongs to sample pair (u, v), so no two sample pairs of
a run share a random vector, and Bob learns the randoms only from the
triples Alice sends him.

RE wire layout.  Each RE frame carries one flat element array in
(u, v, leaf, component) order -- Alice sample u, Bob sample v, leaf --
with these components per leaf:

    Alice -> Bob               WIRE_RANDOMS  (r_a, r_b, r_d)
    Alice -> function party    WIRE_X_SIDE   (c1, c2, c5)
    Bob   -> function party    WIRE_Y_SIDE   (c3, c4)

``x_side_wire``, ``split_x_side`` and ``wire_block`` are the only code that
builds or cuts these arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, ProtocolError


@dataclass(frozen=True)
class LeafPlan:
    """Random-index plan of one mul-add leaf."""

    a: int
    b: int
    c: int
    d: int
    offline: tuple  # ((random index, sign), ...) including (c, -1), (d, -1)

    @property
    def ex(self) -> tuple:
        """The leaf's raw X-side index list, as dumps show it; 0 stands for the constant one."""
        return (0, self.b, self.a, self.a, self.b, self.c)

    @property
    def ey(self) -> tuple:
        """The leaf's raw Y-side index list, as dumps show it; 0 stands for the constant one."""
        return (0, self.a, self.b, self.d)


@dataclass(frozen=True)
class DotEncodingScheme:
    d: int
    total_randoms: int
    leaves: tuple

    @cached_property
    def leaf_index(self) -> np.ndarray:
        """(d, 4) array: each leaf's random indices a, b, c, d."""
        return np.array([(lf.a, lf.b, lf.c, lf.d) for lf in self.leaves], dtype=np.intp)

    @cached_property
    def offline_columns(self) -> tuple:
        """The leaves' offline lists column by column, for ``offline_components``.

        Taken longest list first, the leaves that have a j-th term form a
        prefix; column j holds, for that prefix, the j-th random index and
        whether its sign is negative.  Returns (inverse of that leaf order,
        ((index, negative), ...)).
        """
        order = sorted(range(self.d), key=lambda i: -len(self.leaves[i].offline))
        lists = [self.leaves[i].offline for i in order]
        columns = []
        for j in range(len(lists[0])):
            idx, sign = zip(*(off[j] for off in lists if len(off) > j))
            columns.append((np.array(idx, dtype=np.intp), np.array(sign) < 0))
        return np.argsort(order), tuple(columns)


_ABD = [0, 1, 3]  # columns of ``DotEncodingScheme.leaf_index`` that the Y side needs


def generate_scheme(d: int) -> DotEncodingScheme:
    """Build the encoding plan for a dot product of length d.

    Randoms are numbered depth-first in allocation order, starting at 0.
    Total count is 5d - 1 for d >= 2 and 4 for d = 1 (four per leaf plus
    one per split).
    """
    if d < 1:
        raise DomainError(f"dot-product length must be >= 1, got {d}")
    first = [None] * d  # a leaf's four randoms are first .. first + 3
    offline = [[] for _ in range(d)]

    def gen(lo: int, hi: int, r: int) -> int:
        n = hi - lo
        if n == 1:
            first[lo] = r
            offline[lo].extend([(r + 2, -1), (r + 3, -1)])
            return r + 4
        q = 0
        while (1 << (q + 1)) < n:
            q += 1
        p = 1 << q
        offline[lo].append((r, +1))
        offline[lo + p].append((r, -1))
        r += 1
        r = gen(lo, lo + p, r)
        return gen(lo + p, hi, r)

    total = gen(0, d, 0)
    leaves = tuple(
        LeafPlan(a=r, b=r + 1, c=r + 2, d=r + 3, offline=tuple(off))
        for r, off in zip(first, offline)
    )
    return DotEncodingScheme(d=d, total_randoms=total, leaves=leaves)


def pair_randoms(
    scheme: DotEncodingScheme, domain, key: bytes, bob_id: int, n_a: int, n_b: int
) -> np.ndarray:
    """(n_a, n_b, total_randoms) randoms of the sample pairs (Alice's u, Bob's v).

    One draw from Alice's ``key`` under the labels ("re", bob_id, u), u < n_a:
    block [u, v] belongs to pair (u, v), row u is the draw of its label
    alone, and fewer samples on either side give a corner of the block.
    """
    labels = [("re", bob_id, u) for u in range(n_a)]
    return domain.sample(key, labels, n_b * scheme.total_randoms).reshape(
        n_a, n_b, scheme.total_randoms
    )


def y_random_triples(scheme: DotEncodingScheme, randoms) -> np.ndarray:
    """(..., d, 3): per leaf (r[a], r[b], r[d]), exactly what the scheme owner transmits."""
    return np.asarray(randoms)[..., scheme.leaf_index[:, _ABD]]


def encode_x_side(dom, x, scheme: DotEncodingScheme, randoms) -> np.ndarray:
    """(..., d, 2): (c1, c2) per leaf for the x-vector owner, who holds all randoms.

    c2 = x rb - ra rb + rc is formed as c1 rb + rc, with c1 = x - ra: the
    same residue with one product fewer."""
    x = np.asarray(x)
    if x.shape[-1] != scheme.d:
        raise DimensionError(f"vector length {x.shape[-1]} != scheme length {scheme.d}")
    randoms = np.asarray(randoms)
    ra, rb, rc = (randoms[..., scheme.leaf_index[:, k]] for k in range(3))
    c1 = dom.array_sub(x, ra)
    return np.stack((c1, dom.array_add(dom.array_mul(c1, rb), rc)), axis=-1)


def encode_y_side(dom, y, scheme: DotEncodingScheme, triples) -> np.ndarray:
    """(..., d, 2): (c3, c4) per leaf from the transmitted (r[a], r[b], r[d]) triples."""
    y = np.asarray(y)
    if y.shape[-1] != scheme.d:
        raise DimensionError(f"vector length {y.shape[-1]} != scheme length {scheme.d}")
    triples = np.asarray(triples)
    if triples.shape[-2:] != (scheme.d, 3):
        raise ProtocolError(
            f"received random triples of shape {triples.shape} for {scheme.d} leaves"
        )
    ra, rb, rd = triples[..., 0], triples[..., 1], triples[..., 2]
    return np.stack((dom.array_sub(y, rb), dom.array_add(dom.array_mul(y, ra), rd)), axis=-1)


def offline_components(dom, scheme: DotEncodingScheme, randoms) -> np.ndarray:
    """(..., d): c5 per leaf, the signed sum of that leaf's offline randoms.

    Each leaf sums its list in order from ``dom.zero``; a term of sign -1 is
    negated first, as ``dom.zero - r``, and then added like the others, so
    each column takes one ``array_add``.
    """
    randoms = np.asarray(randoms)
    unorder, columns = scheme.offline_columns
    c5 = np.zeros(randoms.shape[:-1] + (scheme.d,), dtype=dom.dtype)
    for idx, negative in columns:
        acc, terms = c5[..., : len(idx)], randoms[..., idx]
        terms[..., negative] = dom.array_sub(dom.zero, terms[..., negative])
        acc[...] = dom.array_add(acc, terms)
    return c5[..., unorder]


def decode_dot(dom, x_comps, y_comps, offline):
    """<x, y> from the per-leaf components: (..., d, 2), (..., d, 2), (..., d) -> (...)."""
    x_comps, y_comps, offline = (np.asarray(c) for c in (x_comps, y_comps, offline))
    if not (x_comps.shape[:-1] == y_comps.shape[:-1] == offline.shape):
        raise DimensionError(
            f"component shapes differ: {x_comps.shape}, {y_comps.shape}, {offline.shape}"
        )
    terms = dom.array_mul(x_comps[..., 0], y_comps[..., 0])
    for part in (x_comps[..., 1], y_comps[..., 1], offline):
        terms = dom.array_add(terms, part)
    return dom.array_sum(terms)


# -- RE wire layout (see the module docstring) ---------------------------------

WIRE_RANDOMS = ("r_a", "r_b", "r_d")  # Alice -> Bob
WIRE_X_SIDE = ("c1", "c2", "c5")  # Alice -> function party
WIRE_Y_SIDE = ("c3", "c4")  # Bob -> function party


def x_side_wire(x_comps, offline) -> np.ndarray:
    """(..., d, 3): the X-side components in ``WIRE_X_SIDE`` order."""
    return np.concatenate((x_comps, offline[..., None]), axis=-1)


def split_x_side(block) -> tuple:
    """(x_comps, offline) of an X-side block in ``WIRE_X_SIDE`` order."""
    return block[..., :2], block[..., 2]


def wire_block(flat, n_a: int, n_b: int, d: int, layout: tuple, what: str) -> np.ndarray:
    """A flat RE frame body as its (n_a, n_b, d, len(layout)) block.

    Raises ProtocolError when the element count does not match the pair
    block that the hello sizes announced.
    """
    shape = (n_a, n_b, d, len(layout))
    if len(flat) != math.prod(shape):
        raise ProtocolError(
            f"{what}: expected {math.prod(shape)} elements for d={d}, "
            f"{n_a}x{n_b} sample pairs, got {len(flat)}"
        )
    return np.asarray(flat).reshape(shape)


def dump_scheme(scheme: DotEncodingScheme) -> str:
    """Human-readable dump of the raw per-leaf index lists."""
    lines = [f"dot-product encoding scheme: d={scheme.d} randoms={scheme.total_randoms}"]
    for i, lf in enumerate(scheme.leaves):
        eo = [j for j, _ in lf.offline]
        eos = [s for _, s in lf.offline]
        off = " ".join(f"{'+' if s > 0 else '-'}r{j}" for j, s in lf.offline)
        lines.append(
            f"leaf {i}: eX={list(lf.ex)} eY={list(lf.ey)} eO={eo} eOS={eos} offline: {off}"
        )
    return "\n".join(lines)
