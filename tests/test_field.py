"""Field arithmetic, fixed-point codec, and sampling distribution checks."""

import math
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpgram.errors import DomainError, EncodingOverflowError
from mpgram.field import M61, FieldDomain, FixedPointCodec, FloatDomain, make_domain
from mpgram.matrix import Matrix, gram_t
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

    def test_sign_edge(self, m61):
        half = (P - 1) // 2
        got = m61.decode_dot(np.array([[half, half + 1], [P - 1, 0]], dtype=object))
        assert got.tolist() == [[half / 2.0**32, -half / 2.0**32], [-(2.0**-32), 0.0]]


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
            assert v.shape == (10**4,) and all(type(x) is int for x in v)
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

    def test_domain_equality(self):
        assert FieldDomain() == FieldDomain()
        assert FieldDomain(p=5, scale_bits=0) != FieldDomain()
        assert FloatDomain() == FloatDomain()
