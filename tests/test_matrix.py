"""Matrix operations against brute-force oracles, plus CSV interchange."""

import math
import pickle
import re
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgram.errors import DimensionError, DomainMismatchError
from mpgram.field import M61, FieldDomain, FloatDomain
from mpgram.matrix import (
    Matrix,
    encode_real_matrix,
    gram_t,
    load_real_csv,
    mat_add,
    mat_scale,
    mat_sub,
    random_matrix,
    save_csv,
)
from mpgram.seeds import party_key

KEY = party_key(0, 1)


def naive_gram(a: Matrix, b: Matrix) -> list:
    """Independent triple-loop A^T B oracle."""
    dom = a.domain
    out = [[dom.zero] * b.cols for _ in range(a.cols)]
    for i in range(a.cols):
        for j in range(b.cols):
            acc = dom.zero
            for k in range(a.rows):
                acc = dom.add(acc, dom.mul(a.data[k, i], b.data[k, j]))
            out[i][j] = acc
    return out


class TestSub:
    def test_self_minus_self_is_zero(self, z251):
        a = random_matrix((3, 2), z251, KEY, 0)
        assert mat_sub(a, a) == Matrix.zeros(3, 2, z251)

    def test_one_by_one(self, z251):
        a = Matrix.from_rows([[5]], z251)
        b = Matrix.from_rows([[3]], z251)
        assert mat_sub(a, b).data.tolist() == [[2]]

    def test_elementwise_oracle_z5(self, z5):
        a = random_matrix((3, 2), z5, KEY, (1, "a"))
        b = random_matrix((3, 2), z5, KEY, (1, "b"))
        c = mat_sub(a, b)
        for r in range(3):
            for col in range(2):
                assert c.data[r, col] == (a.data[r, col] - b.data[r, col]) % 5

    def test_shape_mismatch(self, z5):
        with pytest.raises(DimensionError, match="features x samples"):
            mat_sub(Matrix.zeros(2, 2, z5), Matrix.zeros(2, 3, z5))

    def test_domain_mismatch(self, z5, z251):
        with pytest.raises(DomainMismatchError):
            mat_sub(Matrix.zeros(2, 2, z5), Matrix.zeros(2, 2, z251))


class TestScale:
    def test_identity_scalar(self, z251):
        a = random_matrix((2, 3), z251, KEY, 2)
        assert mat_scale(1, a) == a

    def test_zero_scalar(self, z251):
        a = random_matrix((2, 3), z251, KEY, 3)
        assert mat_scale(0, a) == Matrix.zeros(2, 3, z251)

    def test_scale_then_inverse_round_trips(self, m61):
        a = random_matrix((4, 3), m61, KEY, 4)
        alpha = m61.sample_nonzero(KEY, (4, "alpha"))
        assert mat_scale(m61.inv(alpha), mat_scale(alpha, a)) == a


class TestGram:
    def test_identity(self, z251):
        eye = Matrix.from_rows([[1, 0], [0, 1]], z251)
        assert gram_t(eye, eye) == eye

    def test_single_column(self, z251):
        a = Matrix.from_rows([[1], [2]], z251)
        b = Matrix.from_rows([[3], [4]], z251)
        assert gram_t(a, b).data.tolist() == [[11]]

    def test_against_naive_oracle(self, m61, f64):
        cases = [
            (random_matrix((10, 4), dom, KEY, "a"), random_matrix((10, 6), dom, KEY, "b"))
            for dom in (m61, f64)
        ]
        # every product is -0.0; the loop's sum from +0.0 gives +0.0
        cases.append((Matrix.from_rows([[0.0], [0.0]], f64), Matrix.from_rows([[-1.0], [-2.0]], f64)))
        for a, b in cases:
            g = gram_t(a, b)
            assert (g.rows, g.cols) == (a.cols, b.cols)
            # bytes, not ==: float sums must match the loop bit for bit, signed zeros too
            assert g.domain.pack(g.data) == g.domain.pack(naive_gram(a, b))

    def test_feature_mismatch(self, z5):
        with pytest.raises(DimensionError, match="feature dimension"):
            gram_t(Matrix.zeros(3, 2, z5), Matrix.zeros(4, 2, z5))

    def test_transpose_symmetry(self, m61):
        a = random_matrix((5, 3), m61, KEY, (6, "a"))
        b = random_matrix((5, 4), m61, KEY, (6, "b"))
        assert gram_t(a, b) == gram_t(b, a).transpose()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_bilinearity(self, seed):
        dom = FieldDomain()
        a1 = random_matrix((4, 2), dom, KEY, (seed, "a1"))
        a2 = random_matrix((4, 2), dom, KEY, (seed, "a2"))
        b = random_matrix((4, 3), dom, KEY, (seed, "b"))
        assert gram_t(mat_add(a1, a2), b) == mat_add(gram_t(a1, b), gram_t(a2, b))


def python_gram(a: list, b: list, p: int) -> list:
    """A^T B mod p of nested lists in exact Python ints, one dot product per entry."""
    return [[sum(x * y for x, y in zip(ca, cb)) % p for cb in zip(*b)] for ca in zip(*a)]


@st.composite
def field_operands(draw):
    """(p, a, b) over M61, the largest prime below 2^64, Z5 or Z251.

    Entries are biased towards limb and word edges: 2^63 and above do not fit
    an int64, and 2^64 - 60 fills every bit of the top limb.
    """
    p = draw(st.sampled_from([M61, 2**64 - 59, 5, 251]))
    edges = (0, 1, p - 1, 2**16 - 1, 2**16, 2**32 - 1, 2**48, 2**63, 2**64 - 60)
    edges = [v for v in edges if v < p]
    entry = st.one_of(st.sampled_from(edges), st.integers(0, p - 1))
    f, n1, n2 = draw(st.integers(1, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def matrix(cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=f, max_size=f))

    a = matrix(n1)
    b = a if draw(st.booleans()) else matrix(n2)
    return p, a, b


class TestGramKernel:
    """The limb-split BLAS kernel against exact Python-int dot products."""

    @given(field_operands())
    @settings(max_examples=200, deadline=None)
    def test_matches_python_ints(self, case):
        p, a, b = case
        dom = FieldDomain(scale_bits=0, p=p)
        ma = Matrix.from_rows(a, dom)
        mb = ma if b is a else Matrix.from_rows(b, dom)  # a self gram passes one array twice
        g = gram_t(ma, mb)
        assert g.data.tolist() == python_gram(a, b, p)
        assert all(type(v) is int for v in g.data.flat)

    def test_feature_axis_crosses_chunk_boundary(self, m61):
        # 2^20 + 3 rows of p - 1 leave three rows for a second chunk;
        # (p - 1)^2 = 1 mod p, so every entry is f mod p
        f = 2**20 + 3
        a = Matrix(np.full((f, 2), M61 - 1, dtype=object), m61)
        b = Matrix(np.full((f, 1), M61 - 1, dtype=object), m61)
        assert gram_t(a, b).data.tolist() == [[f], [f]]
        assert gram_t(a, a).data.tolist() == [[f, f], [f, f]]

    def test_top_word_carries_across_chunks(self):
        # every entry p - 1 over the largest prime below 2^64 fills every limb,
        # so each chunk's limb sums reach the third 64-bit word of the combine;
        # (p - 1)^2 = 1 mod p, so every entry is f mod p
        p, f = 2**64 - 59, 2**20 + 3
        dom = FieldDomain(scale_bits=0, p=p)
        a = Matrix(np.full((f, 2), p - 1, dtype=object), dom)
        g = gram_t(a, a)
        assert g.data.tolist() == [[f, f], [f, f]]
        assert all(type(v) is int for v in g.data.flat)


def _tie(k: int, s: int) -> float:
    """k + 1/2 units of 2^-s: a halfway case of the fixed-point rounding."""
    return (2 * k + 1) * 2.0 ** -(s + 1)


@st.composite
def real_rows(draw):
    """(domain, rows): a field (M61, 2^64 - 59 or Z251) or the float domain, and a
    2-D list of reals biased to rounding ties, signed zeros, the range edge,
    ints above 2^53, and non-finite or out-of-range values."""
    kind = draw(st.sampled_from([M61, 2**64 - 59, 251, "float"]))
    if kind == "float":
        dom, s, limit = FloatDomain(), 0, 2.0**60
    else:
        s = draw(st.sampled_from([0, 1, 16]))
        dom = FieldDomain(scale_bits=s, p=kind)
        limit = dom.codec.max_abs
    edges = [0.0, -0.0, math.nextafter(limit, 0), -math.nextafter(limit, 0), 2**53 + 1,
             -(2**53 + 1), 2**60 - 1, 2**62 + 3]
    edges += [sign * _tie(k, s) for k in (0, 1, 2, 7) for sign in (1, -1)]
    rare = [math.nan, math.inf, -math.inf, limit, -limit, 2.0 * limit]
    entry = st.one_of(
        st.sampled_from(edges),
        st.floats(-limit, limit, allow_nan=False),
        st.integers(-(2**54), 2**54),
        st.sampled_from(rare) if draw(st.booleans()) else st.nothing(),
    )
    f, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=f, max_size=f))
    return dom, rows


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return type(exc).__name__, str(exc)


class TestArrayEncode:
    """encode_real_matrix (one array expression) against the scalar codec."""

    @given(real_rows())
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_codec(self, case):
        dom, rows = case

        def scalar():
            return [[(type(v), repr(v)) for v in (dom.encode(x) for x in r)] for r in rows]

        def array():
            return [[(type(v), repr(v)) for v in r] for r in encode_real_matrix(rows, dom).data]

        assert _outcome(array) == _outcome(scalar)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**45, -(2**45)])
    def test_first_bad_entry_raises_the_scalar_error(self, m61, bad):
        rows = [[0.5, 1.0], [bad, math.nan]]
        with pytest.raises(Exception) as scalar:
            m61.encode(bad)
        with pytest.raises(type(scalar.value), match=f"^{re.escape(str(scalar.value))}$"):
            encode_real_matrix(rows, m61)

    def test_halfway_ties_round_to_even(self, m61):
        ties = [[_tie(k, 16) for k in range(-3, 3)]]
        assert encode_real_matrix(ties, m61).data.tolist() == [
            [m61.encode(x) for x in ties[0]]
        ]
        assert encode_real_matrix(ties, m61).data.tolist() == [[M61 - 2, M61 - 2, 0, 0, 2, 2]]

    def test_int_above_2_53_stays_exact(self):
        dom = FieldDomain(scale_bits=0)
        big = 2**53 + 1
        assert encode_real_matrix([[big, -big, 2**60 - 1]], dom).data.tolist() == [
            [big, M61 - big, 2**60 - 1]
        ]

    def test_ragged_rows_rejected(self, m61):
        with pytest.raises(DimensionError, match="ragged"):
            encode_real_matrix([[1.0, 2.0], [3.0]], m61)


class TestRandomMatrix:
    def test_deterministic_under_seed(self, m61):
        assert random_matrix((3, 3), m61, KEY, 7) == random_matrix((3, 3), m61, KEY, 7)

    def test_different_seeds_differ(self, m61):
        # a different label or a different key gives a different stream
        a = random_matrix((3, 3), m61, KEY, 8)
        assert a != random_matrix((3, 3), m61, KEY, 9)
        assert a != random_matrix((3, 3), m61, party_key(0, 2), 8)

    def test_z5_residue_frequencies(self, z5):
        draws = 10 ** 5
        counts = [0] * 5
        m = random_matrix((draws // 100, 100), z5, KEY, 10)
        for v in m.data.flat:
            counts[v] += 1
        expected = draws / 5
        sigma = (draws * 0.2 * 0.8) ** 0.5
        for c in counts:
            assert abs(c - expected) <= 3 * sigma


class TestPickle:
    @pytest.mark.parametrize("domain", ["m61", "f64"])
    def test_round_trip_is_equal_and_read_only(self, domain, request):
        dom = request.getfixturevalue(domain)
        m = random_matrix((3, 2), dom, KEY, 11)
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        assert not back.data.flags.writeable


class TestCsv:
    def test_field_round_trip(self, tmp_path, m61):
        m = random_matrix((3, 4), m61, KEY, 11)
        path = tmp_path / "m.csv"
        save_csv(m, path)
        assert Matrix.from_rows(load_real_csv(path), m61) == m

    def test_float_round_trip(self, tmp_path, f64):
        m = Matrix.from_rows([[0.1, -2.5, 3e-17], [1.0, 2.0, -0.75]], f64)
        path = tmp_path / "m.csv"
        save_csv(m, path)
        assert Matrix.from_rows(load_real_csv(path), f64) == m

    def test_transpose_flag(self, tmp_path, f64):
        m = Matrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], f64)
        path = tmp_path / "m.csv"
        save_csv(m, path)
        assert Matrix.from_rows(load_real_csv(path, transpose=True), f64) == m.transpose()
        assert load_real_csv(path, transpose=True) == m.transpose().data.tolist()

    def test_encode_real_matrix(self, m61):
        m = encode_real_matrix([[1.0, -1.0]], m61)
        assert m.data.tolist() == [[65536, m61.p - 65536]]
