"""Field arithmetic, fixed-point codec, and sampling distribution checks."""

import math
import warnings
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpgram.errors import DomainError, EncodingOverflowError
from mpgram.field import M61, FieldDomain, FixedPointCodec, FloatDomain, make_domain
from mpgram.matrix import Matrix, gram_t, mat_scale
from mpgram.seeds import party_key, stream_words

P = M61


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

    @pytest.mark.parametrize("x", [math.nan, -math.nan, math.inf, -math.inf])
    def test_float_domain_rejects_non_finite_reals(self, f64, x):
        with pytest.raises(EncodingOverflowError, match="reals must be finite"):
            f64.encode(x)
        assert f64.encode(-2.5e300) == -2.5e300

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
        codec = FixedPointCodec(scale_bits=8)
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
    """(domain, entries) over M61, 2^64 - 59, Z5 or Z251, biased to the sign edge."""
    p = draw(st.sampled_from([M61, 2**64 - 59, 5, 251]))
    dom = FieldDomain(scale_bits=draw(st.sampled_from([0, 1, 16])), p=p)
    edges = [0, 1, (p - 1) // 2, (p + 1) // 2, p - 1]
    entry = st.one_of(st.sampled_from(edges), st.integers(0, p - 1))
    return dom, draw(st.lists(entry, min_size=1, max_size=12))


class TestArrayDecode:
    """decode / decode_dot of entry arrays against the Python-int scalar path."""

    @given(residue_arrays())
    @settings(max_examples=300, deadline=None)
    @example((FieldDomain(scale_bits=16, p=2**64 - 59), [0, 2**63 - 30, 2**63 - 29, 2**64 - 60]))
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
        # arithmetic would wrap mod 2^64 near the largest prime
        dom = FieldDomain(scale_bits=16, p=2**64 - 59)
        for v in (0, 2**63 - 30, 2**63 - 29, 2**64 - 60):
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
    2^64 - 59, biased to 0, 1, p - 1 and, for the largest prime, to operands whose
    sum is above 2^64."""
    p = draw(st.sampled_from([5, 251, M61, 2**64 - 59]))
    edges = [0, 1, p - 1, p - 2, (p - 1) // 2, (p + 1) // 2]
    if p > 2**63:
        edges += [2**63, 2**63 + 1, 2**64 - 60 - 2**62]
    entry = st.one_of(st.sampled_from([e for e in edges if 0 <= e < p]), st.integers(0, p - 1))
    n = draw(st.integers(1, 12))
    a, b = (draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
    return FieldDomain(scale_bits=0, p=p), a, b


class TestArrayOps:
    """The domains' array operations against the per-scalar API, entry by entry."""

    @given(residue_operands())
    @settings(max_examples=300, deadline=None)
    @example((FieldDomain(scale_bits=0, p=2**64 - 59), [2**64 - 60, 2**63], [2**64 - 60, 2**63]))
    def test_field_ops_equal_scalar_api(self, case):
        dom, a, b = case
        ua, ub = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
        for name in ("add", "sub", "mul"):
            got = getattr(dom, f"array_{name}")(ua, ub)
            assert got.dtype == np.uint64
            assert got.tolist() == [getattr(dom, name)(x, y) for x, y in zip(a, b)], name
        # a Python-int scalar operand broadcasts, one of at least 2^63 included
        for s in (b[0], dom.p - 1):
            assert dom.array_mul(s, ua).tolist() == [dom.mul(s, x) for x in a]
        total = 0
        for x in a + b:
            total = dom.add(total, x)
        assert dom.array_sum(np.array([a + b], dtype=np.uint64)).tolist() == [total]

    def test_sums_above_2_64(self):
        # (p - 1) + (p - 1) and 2^63 + 2^63 exceed 2^64, so a bare uint64 sum wraps
        p = 2**64 - 59
        dom = FieldDomain(scale_bits=0, p=p)
        a = np.array([p - 1, 2**63, p - 1], dtype=np.uint64)
        b = np.array([p - 1, 2**63, 1], dtype=np.uint64)
        assert dom.array_add(a, b).tolist() == [p - 2, 2**64 - p, 0]
        assert dom.array_sum(np.stack((a, b), axis=-1)).tolist() == [p - 2, 2**64 - p, 0]

    def test_scalar_at_least_2_63_times_a_matrix(self):
        p = 2**64 - 59
        dom = FieldDomain(scale_bits=0, p=p)
        s = 2**63 + 12345
        m = Matrix.from_rows([[p - 1, 2], [2**63, 1]], dom)
        got = mat_scale(s, m)
        assert got.data.dtype == np.uint64
        assert got.data.tolist() == [[dom.mul(s, v) for v in row] for row in m.data.tolist()]
        # the product numpy would form silently wraps mod 2^64
        assert (np.uint64(s) * m.data).tolist() != got.data.tolist()

    @given(
        st.lists(
            st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0]),
                                  st.floats(-1e150, 1e150))] * 2),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    @example([(1e16, 1.0), (-1e16, 1.0), (1.0, 1e16), (1.0, -1e16)] * 3)
    def test_float_ops_equal_scalar_loop_bit_for_bit(self, pairs):
        dom = FloatDomain()
        a, b = (np.array(v) for v in zip(*pairs))
        for name in ("add", "sub", "mul"):
            got = getattr(dom, f"array_{name}")(a, b)
            want = [getattr(dom, name)(float(x), float(y)) for x, y in zip(a, b)]
            assert got.dtype == np.float64 and dom.pack(got) == dom.pack(want), name
        total = dom.zero
        for x in a.tolist() + b.tolist():
            total = dom.add(total, x)
        assert dom.pack(dom.array_sum(np.concatenate((a, b))[None, :])) == dom.pack([total])


LARGEST = 2**64 - 59  # the largest prime below 2^64


class TestMontgomeryProduct:
    """``FieldDomain.array_mul`` at its reduction edges, operand kinds and shapes,
    against Python ints."""

    @pytest.mark.parametrize("p", [LARGEST, M61, 251, 5])
    def test_edges_against_python_ints(self, p):
        # over the largest prime the 128-bit products reach the top of every
        # word: (p - 1)^2 and (p - 1)/2 (p - 1) fill the high word, and the
        # reduction's hi - mulhi(m, p) takes both signs across these pairs
        dom = FieldDomain(scale_bits=0, p=p)
        edges = [0, 1, 2, p - 1, p - 2, (p - 1) // 2, (p + 1) // 2]
        edges += [v for v in (2**32 - 1, 2**32, 2**63, 2**63 + 1, 2**64 - 60 - 2**62) if v < p]
        a, b = zip(*((x, y) for x in edges for y in edges))
        got = dom.array_mul(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [x * y % p for x, y in zip(a, b)]
        for s in edges:  # a Python-int scalar, on either side
            want = [s * y % p for y in edges]
            assert dom.array_mul(s, np.array(edges, dtype=np.uint64)).tolist() == want
            assert dom.array_mul(np.array(edges, dtype=np.uint64), s).tolist() == want

    def test_largest_prime_high_word_cases(self):
        dom = FieldDomain(scale_bits=0, p=LARGEST)
        p = LARGEST
        for x, y in [(p - 1, p - 1), ((p - 1) // 2, p - 1), (p - 1, (p + 1) // 2), (2**63, p - 1)]:
            want = x * y % p
            assert dom.array_mul(np.array([x], dtype=np.uint64),
                                 np.array([y], dtype=np.uint64)).tolist() == [want]
            assert dom.array_mul(x, np.array([y], dtype=np.uint64)).tolist() == [want]

    def test_scalar_operands(self):
        # numpy hands back numpy scalars for 0-d operands, whose own arithmetic
        # warns on wrap-around; the product must neither warn nor lose the shape
        dom = FieldDomain(scale_bits=0, p=LARGEST)
        s, x = 2**63 + 12345, LARGEST - 1
        want = s * x % LARGEST
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
        dom = FieldDomain(scale_bits=0, p=LARGEST)
        m = Matrix.from_rows([[LARGEST - 1, 2**63], [0, 1]], dom)
        before = m.data.tolist()
        got = dom.array_mul(2**63 + 1, m.data)
        assert m.data.tolist() == before
        assert got.tolist() == [[(2**63 + 1) * v % LARGEST for v in row] for row in before]

    @pytest.mark.parametrize("p", [LARGEST, M61, 251])
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
    "2^64-59": FieldDomain(p=2**64 - 59),
    "z5": FieldDomain(scale_bits=0, p=5),
    "z251": FieldDomain(scale_bits=0, p=251),
    "float": FloatDomain(),
}
FIELDS = [SAMPLER_DOMAINS[name] for name in ("m61", "2^64-59", "z5", "z251")]


class TestSampling:
    def test_uniform_in_range(self):
        for dom in FIELDS:
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

        for dom in FIELDS:
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

    @pytest.mark.parametrize("name", ["m61", "2^64-59", "z5", "z251"])
    def test_field_draws_are_the_stream_words_below_p(self, name):
        dom = SAMPLER_DOMAINS[name]
        bits = dom.p.bit_length()
        words = stream_words(KEY, "words", 4000) >> np.uint64(64 - bits)
        assert dom.sample(KEY, "words", 1000).tolist() == words[words < dom.p][:1000].tolist()

    def test_float_draws_are_53_bit_fractions(self, f64):
        words = stream_words(KEY, "words", 1000)
        assert f64.sample(KEY, "words", 1000).tolist() == [(int(w) >> 11) / 2**53 for w in words]
        assert f64.sample_nonzero(KEY, "alpha") == 0.5 + 1.5 * f64.sample(KEY, "alpha", 1)[0]

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
    @pytest.mark.parametrize("name", ["m61", "2^64-59", "z5", "z251"])
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
        assert dom.codec.centred(gram_t(x, x).data).tolist() == exact

        bad = data.draw(st.integers(0, 2))
        cols[bad] = _column_near_limit(dom, cols[bad][:-1], 1, above=True)
        with pytest.raises(EncodingOverflowError, match=f"^sample {bad} of party 3 has"):
            dom.check_gram_range(np.array(cols, dtype=object).T % dom.p, 3)

    def test_float_domain_is_not_checked(self, f64):
        f64.check_gram_range(np.array([[1e300], [1e300]], dtype=object), 1)


class TestSerialization:
    @given(st.integers(min_value=0, max_value=P - 1))
    def test_field_round_trip(self, x):
        dom = FieldDomain()
        assert dom.unpack(dom.pack([x])).tolist() == [x]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip(self, x):
        dom = FloatDomain()
        assert dom.unpack(dom.pack([x])).tolist() == [x]

    def test_out_of_range_rejected(self, m61):
        with pytest.raises(DomainError):
            m61.unpack((P + 5).to_bytes(8, "little"))


class TestDomainConstruction:
    def test_make_domain(self):
        assert make_domain("field").kind == "field"
        assert make_domain("float").kind == "float64"
        with pytest.raises(DomainError):
            make_domain("decimal")

    def test_float_inverse(self, f64):
        assert f64.inv(4.0) == 0.25
        with pytest.raises(DomainError):
            f64.inv(0.0)

    def test_modulus_must_fit_a_wire_word(self):
        # elements travel as 8-byte words and the matmul kernel casts to uint64
        for p in (2**64, 2**89 - 1):
            with pytest.raises(DomainError, match="2\\^64"):
                FieldDomain(p=p)
        largest = FieldDomain(p=2**64 - 59)  # the largest prime below 2^64
        x = largest.p - 1
        assert largest.unpack(largest.pack([x])).tolist() == [x]

    def test_modulus_must_be_odd(self):
        # the Montgomery product needs p^-1 mod 2^64, which an even p lacks
        for p in (2, 4, 2**61 - 2, 2**64 - 2):
            with pytest.raises(DomainError, match="must be odd"):
                FieldDomain(p=p)
        for p in (3, 5, M61, LARGEST):
            assert FieldDomain(p=p).p == p

    def test_domain_equality(self):
        assert FieldDomain() == FieldDomain()
        assert FieldDomain(p=5, scale_bits=0) != FieldDomain()
        assert FloatDomain() == FloatDomain()
