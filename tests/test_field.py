"""Field arithmetic, fixed-point codec, and sampling distribution checks."""

import math
import os
import subprocess
import sys
import warnings
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpgram import field
from mpgram.errors import DomainError, EncodingOverflowError
from mpgram.field import M61, FieldDomain, make_domain
from mpgram.matrix import Matrix, gram_t, mat_scale
from mpgram.seeds import party_key, stream_words
from payloads import joined

P = M61
WORD = 2**32 - 5  # the largest prime below 2^32: a product of two residues nears 2^64


class TestInverse:
    def test_inverse_of_one(self, m61):
        assert m61.inv(1) == 1

    def test_inverse_of_two(self, m61):
        # 2 * 2^60 = 2^61 = p + 1 = 1 (mod p)
        assert m61.inv(2) == 1 << 60
        assert (2 * (1 << 60)) % P == 1

    def test_inverse_of_minus_one(self, m61):
        assert m61.inv(P - 1) == P - 1

    def test_zero_has_no_inverse(self, m61):
        with pytest.raises(DomainError, match="no inverse of zero"):
            m61.inv(0)

    def test_a_divisor_of_the_modulus_has_no_inverse(self):
        # Fermat's a^(p - 2) assumes a prime p: over Z9 it gives 3^7 = 0 mod 9
        z9 = FieldDomain(scale_bits=0, p=9)
        with pytest.raises(DomainError, match="^3 has no inverse mod 9$"):
            z9.inv(3)
        assert z9.inv(2) == 5

    @given(st.integers(min_value=1, max_value=P - 1))
    def test_inverse_identity(self, x):
        dom = FieldDomain()
        assert dom.mul(x, dom.inv(x)) == 1


class TestFixedPoint:
    def test_encode_zero(self, m61):
        assert m61.encode(0.0) == 0

    def test_encode_one(self, m61):
        assert m61.encode(1.0) == 65536

    def test_encode_minus_one(self, m61):
        assert m61.encode(-1.0) == P - 65536

    def test_encode_overflow(self, m61):
        with pytest.raises(EncodingOverflowError):
            m61.encode(2.0 ** 45)

    @pytest.mark.parametrize("x", [math.nan, -math.nan, math.inf, -math.inf])
    def test_non_finite_reals_rejected(self, m61, x):
        # NaN fails every comparison, so a ">= bound" check alone lets it through
        with pytest.raises(EncodingOverflowError, match="cannot be represented"):
            m61.encode(x)

    def test_decode_dot_product(self, m61):
        v = m61.mul(m61.encode(2.0), m61.encode(3.0))
        assert m61.decode_dot(v) == 6.0

    def test_decode_dot_zero(self, m61):
        assert m61.decode_dot(0) == 0.0

    def test_decode_dot_negative(self, m61):
        v = m61.mul(m61.encode(-1.5), m61.encode(2.0))
        assert m61.decode_dot(v) == -3.0

    def test_decode_inverts_encode(self, m61):
        rng = Random(0)
        for _ in range(200):
            x = rng.uniform(-100.0, 100.0)
            assert abs(m61.decode(m61.encode(x)) - x) <= 2.0 ** -16

    def test_codec_standalone(self):
        codec = FieldDomain(scale_bits=8)
        assert codec.encode(1.0) == 256
        assert codec.decode(codec.encode(-3.25)) == -3.25

    def test_dot_product_error_bound(self, m61):
        # 10^4 random real pairs arranged as 100 vector pairs of length 100
        rng = Random(42)
        d = 100
        for _ in range(100):
            xs = [rng.uniform(-1.0, 1.0) for _ in range(d)]
            ys = [rng.uniform(-1.0, 1.0) for _ in range(d)]
            acc = 0
            for x, y in zip(xs, ys):
                acc = m61.add(acc, m61.mul(m61.encode(x), m61.encode(y)))
            true = math.fsum(x * y for x, y in zip(xs, ys))
            assert abs(m61.decode_dot(acc) - true) <= d * 2.0 ** (-16 + 1)


@st.composite
def residue_arrays(draw):
    """(domain, entries) over M61, Z5 or Z251, biased to the sign edge."""
    p = draw(st.sampled_from([M61, 5, 251]))
    dom = FieldDomain(scale_bits=draw(st.sampled_from([0, 1, 16])), p=p)
    edges = [0, 1, (p - 1) // 2, (p + 1) // 2, p - 1]
    entry = st.one_of(st.sampled_from(edges), st.integers(0, p - 1))
    return dom, draw(st.lists(entry, min_size=1, max_size=12))


class TestArrayDecode:
    """decode / decode_dot of entry arrays against the Python-int scalar path."""

    @given(residue_arrays())
    @settings(max_examples=300, deadline=None)
    @example((FieldDomain(scale_bits=16), [0, 2**60 - 1, 2**60, P - 1]))
    def test_equals_scalar(self, case):
        dom, entries = case
        arr = np.array(entries, dtype=object)
        for name in ("decode", "decode_dot"):
            fn = getattr(dom, name)
            got = fn(arr)
            assert got.dtype == np.float64
            assert [repr(v) for v in got.tolist()] == [repr(fn(v)) for v in entries]

    def test_entry_of_an_array_decodes_as_its_int(self):
        # an entry indexed out of a uint64 array is a numpy scalar, whose own
        # arithmetic would wrap mod 2^64 below zero
        dom = FieldDomain(scale_bits=16)
        for v in (0, 2**60 - 1, 2**60, P - 1):
            for name in ("decode", "decode_dot"):
                fn = getattr(dom, name)
                assert fn(np.array([v], dtype=np.uint64)[0]) == fn(v)

    def test_sign_edge(self, m61):
        half = (P - 1) // 2
        got = m61.decode_dot(np.array([[half, half + 1], [P - 1, 0]], dtype=object))
        assert got.tolist() == [[half / 2.0**32, -half / 2.0**32], [-(2.0**-32), 0.0]]


@st.composite
def residue_operands(draw):
    """(domain, a, b): two equal-length lists of residues over Z5, Z251, M61 or
    2^32 - 5, biased to 0, 1, p - 1 and the sign edge; over 2^32 - 5 a product
    of two residues reaches 2^64 - 2^35."""
    p = draw(st.sampled_from([5, 251, M61, WORD]))
    edges = [0, 1, p - 1, p - 2, (p - 1) // 2, (p + 1) // 2]
    entry = st.one_of(st.sampled_from([e for e in edges if 0 <= e < p]), st.integers(0, p - 1))
    n = draw(st.integers(1, 12))
    a, b = (draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
    return FieldDomain(scale_bits=0, p=p), a, b


class TestArrayOps:
    """The domains' array operations against the per-scalar API, entry by entry."""

    @given(residue_operands())
    @settings(max_examples=300, deadline=None)
    @example((FieldDomain(scale_bits=0), [P - 1, 2**60], [P - 1, 2**60]))
    def test_field_ops_equal_scalar_api(self, case):
        dom, a, b = case
        ua, ub = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
        for name in ("add", "sub", "mul"):
            got = getattr(dom, f"array_{name}")(ua, ub)
            assert got.dtype == np.uint64
            assert got.tolist() == [getattr(dom, name)(x, y) for x, y in zip(a, b)], name
        # a Python-int scalar operand broadcasts, one of at least 2^63 included
        for s in (b[0], dom.p - 1, 2**63 + 1):
            assert dom.array_mul(s, ua).tolist() == [dom.mul(s, x) for x in a]
        total = 0
        for x in a + b:
            total = dom.add(total, x)
        assert dom.array_sum(np.array([a + b], dtype=np.uint64)).tolist() == [total]

    def test_scalar_at_least_2_63_times_a_matrix(self):
        p = P
        dom = FieldDomain(scale_bits=0)
        s = 2**63 + 12345
        m = Matrix.from_rows([[p - 1, 2], [2**60, 1]], dom)
        got = mat_scale(s, m)
        assert got.data.dtype == np.uint64
        assert got.data.tolist() == [[dom.mul(s, v) for v in row] for row in m.data.tolist()]
        # the product numpy would form silently wraps mod 2^64
        assert (np.uint64(s) * m.data).tolist() != got.data.tolist()



class TestArrayProduct:
    """``FieldDomain.array_mul`` at its reduction edges, operand kinds and shapes,
    against Python ints."""

    @pytest.mark.parametrize("p", [WORD, M61, 251, 5])
    def test_edges_against_python_ints(self, p):
        # over M61 the 32-bit halves and the folds at bits 29 and 61 meet their
        # edges; over 2^32 - 5, (p - 1)^2 comes within 2^35 of 2^64
        dom = FieldDomain(scale_bits=0, p=p)
        edges = [0, 1, 2, p - 1, p - 2, (p - 1) // 2, (p + 1) // 2]
        edges += [v for v in (2**29, 2**32 - 1, 2**32, 2**60, 2**60 + 1) if v < p]
        a, b = zip(*((x, y) for x in edges for y in edges))
        got = dom.array_mul(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [x * y % p for x, y in zip(a, b)]
        for s in edges:  # a Python-int scalar, on either side
            want = [s * y % p for y in edges]
            assert dom.array_mul(s, np.array(edges, dtype=np.uint64)).tolist() == want
            assert dom.array_mul(np.array(edges, dtype=np.uint64), s).tolist() == want

    def test_scalar_operands(self):
        # numpy hands back numpy scalars for 0-d operands, whose own arithmetic
        # warns on wrap-around; the product must neither warn nor lose the shape
        dom = FieldDomain(scale_bits=0)
        s, x = 2**63 + 12345, P - 1
        want = s * x % P
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero_d, one_d = np.array(x, dtype=np.uint64), np.array([x], dtype=np.uint64)
            for a, b in [(np.array(s, dtype=np.uint64), zero_d), (s, zero_d), (zero_d, s),
                         (np.uint64(s), np.uint64(x)), (np.uint64(s), one_d)]:
                got = dom.array_mul(a, b)
                assert isinstance(got, np.ndarray) and got.dtype == np.uint64
                assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
                assert got.tolist() == (want if got.ndim == 0 else [want])

    def test_scalar_times_read_only_matrix_leaves_it_unchanged(self):
        dom = FieldDomain(scale_bits=0)
        m = Matrix.from_rows([[P - 1, 2**60], [0, 1]], dom)
        before = m.data.tolist()
        got = dom.array_mul(2**63 + 1, m.data)
        assert m.data.tolist() == before
        assert got.tolist() == [[(2**63 + 1) * v % P for v in row] for row in before]

    @pytest.mark.parametrize("p", [WORD, M61, 251])
    def test_broadcast_shapes(self, p):
        # the RE encoders multiply (n_a, 1, d) samples by (n_a, n_b, d) randoms
        dom = FieldDomain(scale_bits=0, p=p)
        rng = np.random.default_rng(p % 1000)
        x = rng.integers(0, p, (3, 1, 5), dtype=np.uint64)
        r = rng.integers(0, p, (3, 4, 5), dtype=np.uint64)
        r[0, 0] = p - 1
        x[0, 0] = p - 1
        want = [[[int(x[i, 0, k]) * int(r[i, j, k]) % p for k in range(5)] for j in range(4)]
                for i in range(3)]
        for got in (dom.array_mul(x, r), dom.array_mul(r, x)):
            assert got.shape == (3, 4, 5) and got.tolist() == want
        # a (n_b, d) operand against a (n_a, n_b, d) block, as on the Y side
        y = r[0]
        want = [[[int(y[j, k]) * int(r[i, j, k]) % p for k in range(5)] for j in range(4)]
                for i in range(3)]
        assert dom.array_mul(y, r).tolist() == want


class TestMersenneForms:
    """Over M61 a product of two arrays folds its 32-bit half products by 2^61 = 1
    and 2^64 = 8 mod p, and an int64 value below p in magnitude takes its
    residue without a division; against Python ints."""

    EDGES = [0, 1, 2**32 - 1, 2**32, 2**60, P - 1]

    def test_every_pair_of_edges_and_products_near_p(self):
        dom = FieldDomain(scale_bits=0)
        rng = Random(61)
        values = self.EDGES + [rng.randrange(P) for _ in range(40)]
        # y = k x^-1 gives x y = k mod p: the sums that fold to just above p
        pairs = [(x, y) for x in values for y in values]
        pairs += [(x, k * pow(x, -1, P) % P) for x in values if x for k in (1, 2, 3, P - 1)]
        a, b = zip(*pairs)
        got = dom.array_mul(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [x * y % P for x, y in pairs]

    def test_re_broadcast_shape(self):
        # the RE encoders multiply (n_a, 1, d) samples by (n_a, n_b, d) randoms
        dom = FieldDomain(scale_bits=0)
        rng = np.random.default_rng(61)
        x = rng.integers(0, P, (3, 1, 6), dtype=np.uint64)
        r = rng.integers(0, P, (3, 4, 6), dtype=np.uint64)
        x[0, 0] = r[1, 2] = self.EDGES
        r[0, 1] = self.EDGES[::-1]
        got = dom.array_mul(x, r)
        assert got.dtype == np.uint64 and got.shape == (3, 4, 6)
        assert got.tolist() == [[[int(x[i, 0, k]) * int(r[i, j, k]) % P for k in range(6)]
                                 for j in range(4)] for i in range(3)]

    def test_each_kind_of_prime_takes_its_own_forms(self, monkeypatch):
        # a scalar and an array product and the limb-shift scaling take the
        # Mersenne forms over M61 and never below 2^32
        calls = []

        def spy(name):
            form = getattr(field, name)
            monkeypatch.setattr(field, name, lambda *a: calls.append(name) or form(*a))

        spy("_m61_product")
        spy("_m61_rotate")
        x = np.array(self.EDGES, dtype=np.uint64)
        wide = np.array([[P - 1, 2**60], [3, P // 2]], dtype=np.uint64)  # 3 limbs each
        dom = FieldDomain(scale_bits=0)
        c = dom.centred(wide).tolist()
        assert dom.array_mul(x, x[::-1]).tolist() == [
            u * v % P for u, v in zip(self.EDGES, self.EDGES[::-1])
        ]
        assert dom.array_mul(2**63 + 1, x).tolist() == [(2**63 + 1) * u % P for u in self.EDGES]
        assert dom.matmul_t(wide, wide).tolist() == [
            [sum(r[i] * r[j] for r in c) % P for j in range(2)] for i in range(2)
        ]
        assert calls == ["_m61_product", "_m61_product", "_m61_rotate"]
        word = FieldDomain(scale_bits=0, p=WORD)
        y = np.array([0, 1, WORD - 1, 2**31], dtype=np.uint64)
        assert word.array_mul(y, 2**63 + 1).tolist() == [v * (2**63 + 1) % WORD for v in y.tolist()]
        assert word.matmul_t(y[:, None], y[:, None]).tolist() == [
            [sum(v * v for v in word.centred(y).tolist()) % WORD]
        ]
        assert len(calls) == 3

    def test_residues_of_values_below_p_in_magnitude(self):
        # a chunk's BLAS sums reach +-2^53, an encoded real +-(2^60 - 1)
        v = [0, 1, -1, 2**53, -(2**53), 2**53 - 1, 1 - 2**53, 2**60, -(2**60), P - 1, 1 - P]
        got = FieldDomain(scale_bits=0)._residues(np.array(v, dtype=np.int64))
        assert got.dtype == np.uint64 and got.tolist() == [u % P for u in v]

    @pytest.mark.parametrize("p", [5, 251, WORD])
    def test_small_primes_reduce_any_int64(self, p):
        # a chunk's sums below 2^32 are far above p, so these keep np.mod
        v = [0, 1, -1, p, -p, 7 * p + 3, 2**53, -(2**53), 2**63 - 1, -(2**63)]
        got = FieldDomain(scale_bits=0, p=p)._residues(np.array(v, dtype=np.int64))
        assert got.dtype == np.uint64 and got.tolist() == [u % p for u in v]


class TestOnePassArithmetic:
    """``array_add``/``array_sub``/``array_mul``/``array_sum`` over both kinds of prime."""

    @pytest.mark.parametrize("p", [5, 251])
    def test_exhaustive_against_the_scalar_ops(self, p):
        dom = FieldDomain(scale_bits=0, p=p)
        a, b = (v.ravel() for v in np.meshgrid(np.arange(p), np.arange(p), indexing="ij"))
        ua, ub = a.astype(np.uint64), b.astype(np.uint64)
        for name in ("add", "sub", "mul"):
            got = getattr(dom, f"array_{name}")(ua, ub)
            assert got.dtype == np.uint64
            assert got.tolist() == [getattr(dom, name)(x, y) for x, y in zip(a, b)], name
        residues = np.arange(p, dtype=np.uint64)
        for s in range(p):  # a Python-int constant, broadcast
            assert dom.array_mul(residues, s).tolist() == [dom.mul(x, s) for x in range(p)]
        # every pair summed, and every residue repeated n times
        assert dom.array_sum(np.stack((ua, ub), axis=-1)).tolist() == [
            dom.add(x, y) for x, y in zip(a, b)
        ]
        for n in (0, 1, 3, 2 * p + 1):
            rows = np.repeat(residues[:, None], n, axis=1)
            assert dom.array_sum(rows).tolist() == [v * n % p for v in range(p)]

    @pytest.mark.parametrize("p", [M61, WORD])
    def test_random_and_edge_values_against_python_ints(self, p):
        dom = FieldDomain(scale_bits=0, p=p)
        rng = Random(p)
        edges = [0, 1, 2, p - 2, p - 1, (p - 1) // 2, (p + 1) // 2]
        values = edges + [rng.randrange(p) for _ in range(60)]
        a, b = zip(*((x, y) for x in values for y in values))
        ua, ub = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
        assert dom.array_add(ua, ub).tolist() == [(x + y) % p for x, y in zip(a, b)]
        assert dom.array_sub(ua, ub).tolist() == [(x - y) % p for x, y in zip(a, b)]
        assert dom.array_mul(ua, ub).tolist() == [x * y % p for x, y in zip(a, b)]
        for s in edges:
            assert dom.array_mul(s, ua).tolist() == [s * x % p for x in a]
        assert dom.array_sum(np.array([values], dtype=np.uint64)).tolist() == [sum(values) % p]
        assert dom.array_sum(ua.reshape(len(values), -1)).tolist() == [
            sum(a[i : i + len(values)]) % p for i in range(0, len(a), len(values))
        ]

    @pytest.mark.parametrize("p", [M61, WORD])
    def test_result_dtype_of_array_and_0d_operands(self, p):
        # numpy 1.24's value-based casting could turn a mixed operation into
        # float64 or int64, and numpy scalar arithmetic warns on wrap-around
        dom = FieldDomain(scale_bits=0, p=p)
        x, y = p - 1, p - 2
        want = {"add": (x + y) % p, "sub": (x - y) % p, "mul": x * y % p}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            operands = [np.array([x], dtype=np.uint64), np.array(x, dtype=np.uint64),
                        np.uint64(x), x]
            for a in operands:
                for b in (np.array([y], dtype=np.uint64), np.array(y, dtype=np.uint64),
                          np.uint64(y), y):
                    for name, value in want.items():
                        got = getattr(dom, f"array_{name}")(a, b)
                        assert got.dtype == np.uint64, (name, type(a), type(b))
                        assert np.ravel(got).tolist() == [value], name
                        assert np.shape(got) == np.broadcast_shapes(np.shape(a), np.shape(b))

    def test_sum_of_all_p_minus_1_entries(self):
        # k = 8 entries of p - 1 fill a uint64 partial sum over M61; k + 1 and
        # k^2 + 1 need a reduction between levels
        p = P
        dom = FieldDomain(scale_bits=0)
        k = (2**64 - 1) // (p - 1)
        for n in sorted({0, 1, k, k + 1, k * k + 1}):
            a = np.full((2, 3, n), p - 1, dtype=np.uint64)
            got = dom.array_sum(a)
            assert got.shape == (2, 3) and got.dtype == np.uint64, n
            assert got.tolist() == [[n * (p - 1) % p] * 3] * 2, n


class TestFieldAxioms:
    def test_exhaustive_z5_against_mirror(self, z5):
        # plain modular arithmetic as the independent mirror
        for a in range(5):
            for b in range(5):
                assert z5.add(a, b) == (a + b) % 5
                assert z5.sub(a, b) == (a - b) % 5
                assert z5.mul(a, b) == (a * b) % 5
                for c in range(5):
                    assert z5.mul(a, z5.add(b, c)) == z5.add(z5.mul(a, b), z5.mul(a, c))
                    assert z5.add(z5.add(a, b), c) == z5.add(a, z5.add(b, c))
                    assert z5.mul(z5.mul(a, b), c) == z5.mul(a, z5.mul(b, c))

    @given(
        st.integers(min_value=0, max_value=P - 1),
        st.integers(min_value=0, max_value=P - 1),
        st.integers(min_value=0, max_value=P - 1),
    )
    @settings(max_examples=200)
    def test_random_triples(self, a, b, c):
        dom = FieldDomain()
        assert dom.add(a, b) == dom.add(b, a)
        assert dom.mul(a, b) == dom.mul(b, a)
        assert dom.mul(a, dom.add(b, c)) == dom.add(dom.mul(a, b), dom.mul(a, c))
        assert dom.add(a, dom.sub(dom.zero, a)) == 0
        assert dom.sub(a, b) == dom.add(a, dom.sub(dom.zero, b))


KEY = party_key(0, 1)

# Z5 rejects 3 of every 8 words, so its draws run the shortfall path.
SAMPLER_DOMAINS = {
    "m61": FieldDomain(),
    "word": FieldDomain(scale_bits=0, p=WORD),
    "z5": FieldDomain(scale_bits=0, p=5),
    "z251": FieldDomain(scale_bits=0, p=251),
}


class TestSampling:
    def test_uniform_in_range(self):
        for dom in SAMPLER_DOMAINS.values():
            v = dom.sample(KEY, "range", 10**4)
            assert v.shape == (10**4,) and v.dtype == np.uint64
            assert 0 <= min(v) and max(v) < dom.p

    def test_nonzero_never_zero(self, z5):
        # the first nonzero draw of the label's stream
        for i in range(500):
            alpha = z5.sample_nonzero(KEY, ("alpha", i))
            assert alpha != 0
            assert alpha == next(x for x in z5.sample(KEY, ("alpha", i), 64) if x)

    def test_chi_square_uniformity(self):
        from scipy.stats import chisquare

        for dom in SAMPLER_DOMAINS.values():
            v = np.array(dom.sample(KEY, "chi", 10**6).tolist(), dtype=np.uint64)
            if dom.p > 256:  # 256 buckets of the top 8 bits
                counts = np.bincount((v >> np.uint64(dom.p.bit_length() - 8)).astype(np.intp))
            else:  # every residue
                counts = np.bincount(v.astype(np.intp), minlength=dom.p)
            _, pvalue = chisquare(counts)
            assert pvalue > 0.001, dom


class TestStream:
    @pytest.mark.parametrize("name", sorted(SAMPLER_DOMAINS))
    @given(n=st.integers(0, 300), more=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_fewer_draws_are_a_prefix_of_more(self, name, n, more):
        dom = SAMPLER_DOMAINS[name]
        longer = dom.sample(KEY, "prefix", n + more)
        assert dom.sample(KEY, "prefix", n).tolist() == longer[:n].tolist()

    @pytest.mark.parametrize("name", ["m61", "word", "z251", "z5"])
    @given(rows=st.integers(0, 6), n=st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_many_labels_draw_each_row_as_its_label_alone(self, name, rows, n):
        # Z5 rejects 3 of every 8 words, so nearly every row takes the per-row
        # shortfall path; Z251 rejects 5 of 256, so blocks mix both kinds
        dom = SAMPLER_DOMAINS[name]
        labels = [("row", i) for i in range(rows)]
        block = dom.sample(KEY, labels, n)
        assert block.shape == (rows, n) and block.dtype == dom.dtype
        for label, row in zip(labels, block):
            assert row.tolist() == dom.sample(KEY, label, n).tolist()

    @pytest.mark.parametrize("name", ["m61", "word", "z5", "z251"])
    def test_field_draws_are_the_stream_words_below_p(self, name):
        dom = SAMPLER_DOMAINS[name]
        bits = dom.p.bit_length()
        words = stream_words(KEY, "words", 4000) >> np.uint64(64 - bits)
        assert dom.sample(KEY, "words", 1000).tolist() == words[words < dom.p][:1000].tolist()

    def test_numpy_integer_count(self):
        # an int64 count once wrapped the shortfall arithmetic to 0 and spun
        # forever, so the draw runs in a child with a deadline
        code = (
            "import numpy as np\n"
            "from mpgram.field import FieldDomain\n"
            "from mpgram.matrix import random_matrix\n"
            "from mpgram.seeds import party_key\n"
            "key = party_key(0, 1)\n"
            "for dom in (FieldDomain(), FieldDomain(scale_bits=0, p=5)):\n"
            "    n = np.prod((24, 24, 32))\n"
            "    assert isinstance(n, np.int64)\n"
            "    got, want = dom.sample(key, 'a', n), dom.sample(key, 'a', int(n))\n"
            "    assert got.tolist() == want.tolist() and len(got) == 18432\n"
            "    m = random_matrix((np.int64(96), 32), dom, key, 'x')\n"
            "    assert m.data.tolist() == dom.sample(key, 'x', 96 * 32).reshape(96, 32).tolist()\n"
            "print('ok')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(field.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0 and out.stdout == "ok\n", out.stderr

    @pytest.mark.parametrize("name", sorted(SAMPLER_DOMAINS))
    def test_negative_count_rejected(self, name):
        dom = SAMPLER_DOMAINS[name]
        for n in (-1, np.int64(-5)):
            with pytest.raises(DomainError, match="negative number of elements, got -"):
                dom.sample(KEY, "neg", n)
        with pytest.raises(TypeError):
            dom.sample(KEY, "neg", 2.0)

    def test_labels_and_keys_name_distinct_streams(self, m61):
        draws = [
            m61.sample(key, label, 8).tolist()
            for key in (KEY, party_key(0, 2))
            for label in ("mask", "alpha", ("re", 2, 0), ("re", 2, 1), ("re", 3, 0))
        ]
        assert len({tuple(d) for d in draws}) == len(draws)


def _column_near_limit(dom, head, sign, above):
    """Signed ints: ``head`` and a last entry that puts the squared norm at most
    (p - 1) / 2 (``above`` False) or just over it."""
    rest = (dom.p - 1) // 2 - sum(v * v for v in head)
    last = math.isqrt(rest) + above
    return [*head, sign * last]


class TestGramRange:
    @pytest.mark.parametrize("name", ["m61", "word", "z5", "z251"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_norms_at_the_limit(self, name, data):
        # at most (p - 1) / 2 passes, and then no dot product wraps (Cauchy-Schwarz);
        # just above raises and names the sample
        dom = SAMPLER_DOMAINS[name]
        f = data.draw(st.integers(1, 6))
        small = math.isqrt((dom.p - 1) // 2 // f)
        cols = [
            _column_near_limit(
                dom,
                data.draw(st.lists(st.integers(-small, small), min_size=f - 1, max_size=f - 1)),
                data.draw(st.sampled_from([1, -1])),
                above=False,
            )
            for _ in range(3)
        ]
        x = Matrix(np.array(cols, dtype=object).T % dom.p, dom)
        dom.check_gram_range(x.data, 1)
        exact = [[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols]
        assert dom.centred(gram_t(x, x).data).tolist() == exact
        limit = (dom.p - 1) // 2
        assert dom.gram_headroom(x.data) == (max(exact[u][u] for u in range(3)), limit)

        bad = data.draw(st.integers(0, 2))
        cols[bad] = _column_near_limit(dom, cols[bad][:-1], 1, above=True)
        over = Matrix(np.array(cols, dtype=object).T % dom.p, dom).data
        assert dom.gram_headroom(over) == (sum(v * v for v in cols[bad]), limit)
        with pytest.raises(EncodingOverflowError, match=f"^sample {bad} of party 3 has"):
            dom.check_gram_range(np.array(cols, dtype=object).T % dom.p, 3)



class TestSerialization:
    @given(st.integers(min_value=0, max_value=P - 1))
    def test_field_round_trip(self, x):
        dom = FieldDomain()
        assert dom.unpack(joined(dom.pack([x]))).tolist() == [x]

    @pytest.mark.parametrize("name", list(SAMPLER_DOMAINS))
    def test_edge_residues_round_trip_and_p_is_rejected(self, name):
        dom = SAMPLER_DOMAINS[name]
        xs = [0, 1, dom.p // 2, dom.p - 1]
        assert dom.unpack(joined(dom.pack(xs))).tolist() == xs
        with pytest.raises(DomainError):
            dom.unpack(dom.p.to_bytes(8, "little"))

    def test_out_of_range_rejected(self, m61):
        with pytest.raises(DomainError):
            m61.unpack((P + 5).to_bytes(8, "little"))


class TestDomainConstruction:
    def test_make_domain(self):
        assert make_domain("field") == FieldDomain()
        assert make_domain("field", scale_bits=3) == FieldDomain(scale_bits=3)

    @pytest.mark.parametrize("kind", ["float", "decimal"])
    def test_make_domain_builds_only_the_field(self, kind):
        with pytest.raises(DomainError, match=f"unknown domain kind '{kind}'"):
            make_domain(kind)

    def test_modulus_is_m61_or_below_2_32(self):
        # M61 has its Mersenne forms, and below 2^32 a product of two residues
        # fits a uint64; no other modulus has an exact form
        for p in (M61, 2**31 - 1, WORD, 251, 5, 2):
            dom = FieldDomain(p=p)
            assert dom.p == p and dom.unpack(joined(dom.pack([p - 1]))).tolist() == [p - 1]
        rule = "^modulus must be M61 = 2\\^61 - 1 or at least 2 and below 2\\^32 "
        for p in (2**32 + 15, 2**63 - 25, 2**61 - 2, 2**64, 1, 0):
            with pytest.raises(DomainError, match=rule + f".*, got {p}$"):
                FieldDomain(p=p)

    def test_domain_equality(self):
        assert FieldDomain() == FieldDomain()
        assert FieldDomain(p=5, scale_bits=0) != FieldDomain()
