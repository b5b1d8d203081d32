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
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from .errors import DimensionError, DomainError, ProtocolError
from .seeds import derive_seed


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


def sample_randoms(scheme: DotEncodingScheme, domain, rng: Random) -> tuple:
    """Uniform scalars for every random index of the scheme."""
    uniform = domain.uniform
    return tuple(uniform(rng) for _ in range(scheme.total_randoms))


def pair_randoms(
    scheme: DotEncodingScheme, domain, run_seed: int, alice_id: int, bob_id: int, i: int, j: int
) -> tuple:
    """Fresh randoms for one (alice sample i, bob sample j) pair.

    Seed derivation folds in the party pair and both sample indices, so
    no two sample pairs in a run ever share a random vector.
    """
    rng = Random(derive_seed(run_seed, "re-randoms", alice_id, bob_id, i, j))
    return sample_randoms(scheme, domain, rng)


def y_random_triples(scheme: DotEncodingScheme, randoms: Sequence) -> tuple:
    """Per-leaf (r[a], r[b], r[d]): exactly what the scheme owner transmits."""
    return tuple((randoms[lf.a], randoms[lf.b], randoms[lf.d]) for lf in scheme.leaves)


def encode_x_side(dom, x: Sequence, scheme: DotEncodingScheme, randoms: Sequence) -> tuple:
    """(c1, c2) per leaf for the x-vector owner, who holds all randoms."""
    if len(x) != scheme.d:
        raise DimensionError(f"vector length {len(x)} != scheme length {scheme.d}")
    sub, add, mul = dom.sub, dom.add, dom.mul
    out = []
    for xi, lf in zip(x, scheme.leaves):
        ra, rb = randoms[lf.a], randoms[lf.b]
        c1 = sub(xi, ra)
        c2 = add(sub(mul(xi, rb), mul(ra, rb)), randoms[lf.c])
        out.append((c1, c2))
    return tuple(out)


def encode_y_side(dom, y: Sequence, scheme: DotEncodingScheme, triples: Sequence) -> tuple:
    """(c3, c4) per leaf from the transmitted (r[a], r[b], r[d]) triples."""
    if len(y) != scheme.d:
        raise DimensionError(f"vector length {len(y)} != scheme length {scheme.d}")
    if len(triples) != scheme.d:
        raise ProtocolError(
            f"received {len(triples)} random triples for {scheme.d} leaves"
        )
    sub, add, mul = dom.sub, dom.add, dom.mul
    out = []
    for yi, (ra, rb, rd) in zip(y, triples):
        out.append((sub(yi, rb), add(mul(yi, ra), rd)))
    return tuple(out)


def offline_components(dom, scheme: DotEncodingScheme, randoms: Sequence) -> tuple:
    """c5 per leaf: the signed sum of that leaf's offline randoms."""
    add, sub = dom.add, dom.sub
    out = []
    for lf in scheme.leaves:
        acc = dom.zero
        for idx, sign in lf.offline:
            acc = add(acc, randoms[idx]) if sign > 0 else sub(acc, randoms[idx])
        out.append(acc)
    return tuple(out)


def decode_dot(dom, x_comps: Sequence, y_comps: Sequence, offline: Sequence):
    """Recover <x, y> from the per-leaf components."""
    if not (len(x_comps) == len(y_comps) == len(offline)):
        raise DimensionError(
            f"component counts differ: {len(x_comps)}, {len(y_comps)}, {len(offline)}"
        )
    add, mul = dom.add, dom.mul
    acc = dom.zero
    for (c1, c2), (c3, c4), c5 in zip(x_comps, y_comps, offline):
        acc = add(acc, add(add(add(mul(c1, c3), c2), c4), c5))
    return acc


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
