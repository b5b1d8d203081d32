"""Matrix operations against brute-force oracles, plus CSV interchange."""

import math
import pickle
import re
import sys
import threading
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from mpgram.errors import DimensionError, DomainMismatchError
from mpgram.field import M61, FieldDomain, _split_width
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
from payloads import joined

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
                assert c.data[r, col] == (int(a.data[r, col]) - int(b.data[r, col])) % 5

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

    def test_against_naive_oracle(self, m61, z251):
        for dom in (m61, z251):
            a, b = random_matrix((10, 4), dom, KEY, "a"), random_matrix((10, 6), dom, KEY, "b")
            g = gram_t(a, b)
            assert (g.rows, g.cols) == (a.cols, b.cols)
            assert g.data.tolist() == naive_gram(a, b)

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


WORD = 2**32 - 5  # the largest prime below 2^32: 2 limbs of 16 bits at its widest


def python_gram(a: list, b: list, p: int) -> list:
    """A^T B mod p of nested lists in exact Python ints, one dot product per entry."""
    return [[sum(x * y for x, y in zip(ca, cb)) % p for cb in zip(*b)] for ca in zip(*a)]


@st.composite
def field_operands(draw):
    """(p, a, b) over M61, the largest prime below 2^32, Z5 or Z251.

    Entries are biased towards limb and sign edges: (p - 1) / 2 and
    (p + 1) / 2 are the widest centred values of each sign.
    """
    p = draw(st.sampled_from([M61, WORD, 5, 251]))
    edges = (0, 1, p - 1, 2**16 - 1, 2**16, 2**32 - 1, 2**48, 2**62, (p - 1) // 2, (p + 1) // 2)
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
        assert g.data.dtype == np.uint64

    def test_feature_axis_crosses_chunk_boundary(self, m61):
        # 2^20 + 3 rows of p - 1 leave three rows for a second chunk;
        # (p - 1)^2 = 1 mod p, so every entry is f mod p
        f = 2**20 + 3
        a = Matrix(np.full((f, 2), M61 - 1, dtype=object), m61)
        b = Matrix(np.full((f, 1), M61 - 1, dtype=object), m61)
        assert gram_t(a, b).data.tolist() == [[f], [f]]
        assert gram_t(a, a).data.tolist() == [[f, f], [f, f]]

    def test_top_word_carries_across_chunks(self):
        # over M61, (p - 1) / 2 and (p + 1) / 2 are the widest positive and
        # negative centred values, +-(p - 1) / 2: 3 limbs of 20 bits whose top
        # limb carries the sign, and 2 * 2730 + 1 rows of them are three wide x
        # wide chunks
        p, f = M61, 2 * 2730 + 1
        dom = FieldDomain(scale_bits=0, p=p)
        c = [(p - 1) // 2, (p + 1) // 2]
        a = Matrix([c] * f, dom)
        assert _split_width(dom.centred(a.data)) == (20, 3)
        g = gram_t(a, a)
        assert g.data.tolist() == [[f * ci * cj % p for cj in c] for ci in c]
        assert g.data.dtype == np.uint64


NARROW = 2**21 - 1  # the widest centred value that is one limb


def _residues(centred: list, p: int) -> np.ndarray:
    """uint64 entry array of the residues of a 2-D list of centred values."""
    return np.array([[v % p for v in row] for row in centred], dtype=np.uint64)


def _check_gram(p: int, a: list, b: list = None):
    """``matmul_t`` of centred lists a and b against Python-int dot products;
    with b None, a self gram, which passes one array twice."""
    dom = FieldDomain(scale_bits=0, p=p)
    ea = _residues(a, p)
    g = dom.matmul_t(ea, ea if b is None else _residues(b, p))
    assert g.dtype == np.uint64
    assert g.tolist() == python_gram(a, a if b is None else b, p)


def _centred(rng, f: int, n: int, lo: int, hi: int) -> list:
    return rng.integers(lo, hi, (f, n), endpoint=True).tolist()


class TestGramKernelWidths:
    """The kernel at the edges of its operand widths, chunks and int64 sums.

    An operand whose centred values fit 21 bits is one limb; a wider one over
    M61 is 3 limbs of 20 bits and over 2^32 - 5 2 limbs of 16 bits.  Each
    M61 chunk-boundary case fills every row with the largest limbs of its
    kind, so a chunk one row longer than the kernel's would sum an odd
    integer above 2^53, which float64 cannot hold; the 2^32 - 5 cases cross
    the boundaries of that prime's chunks.
    """

    @pytest.mark.parametrize(
        "p, top, split",
        [
            (M61, NARROW, (21, 1)),
            (M61, NARROW + 1, (11, 2)),
            # 3 limbs of 15 bits, whose product with a wide operand's 3 of 20
            # has 9 shifts, more than the 8 residues one uint64 sums
            (M61, 2**42, (15, 3)),
            (WORD, NARROW, (21, 1)),
            (WORD, NARROW + 1, (11, 2)),
            (251, 125, (7, 1)),  # the widest centred values of the small fields
            (5, 2, (2, 1)),
        ],
    )
    def test_max_centred_value_where_the_limb_count_changes(self, p, top, split):
        rng = np.random.default_rng(top)
        a = _centred(rng, 40, 3, -top, top)
        a[7][1], a[31][2] = top, -top
        assert _split_width(FieldDomain(scale_bits=0, p=p).centred(_residues(a, p))) == split
        _check_gram(p, a)
        _check_gram(p, a, _centred(rng, 40, 4, -top, top))
        _check_gram(p, a, _centred(rng, 40, 2, -3, 3))
        _check_gram(p, a, _centred(rng, 40, 2, -(p // 2), p // 2))

    @pytest.mark.parametrize("p", [WORD, M61, 251, 5])
    def test_all_negative_operands(self, p):
        rng = np.random.default_rng(p % 1000)
        wide = _centred(rng, 30, 3, -(p // 2), -1)
        narrow = _centred(rng, 30, 4, -min(NARROW, p // 2), -1)
        positive = _centred(rng, 30, 2, 1, p // 2)
        for a in (wide, narrow):
            _check_gram(p, a)
            _check_gram(p, a, positive)  # every sum is negative
            _check_gram(p, positive, a)
        _check_gram(p, wide, narrow)
        _check_gram(p, narrow, wide)

    @pytest.mark.parametrize("p", [WORD, M61, 251, 5])
    def test_one_wide_entry_widens_its_operand(self, p):
        # the last entry decides the width, so a width read from part of the
        # data, or from anywhere but the data, would be too narrow
        rng = np.random.default_rng(p % 997)
        a = _centred(rng, 50, 3, -2, 2)
        a[-1][-1] = p // 2
        _check_gram(p, a)
        _check_gram(p, a, _centred(rng, 50, 2, -2, 2))
        _check_gram(p, _centred(rng, 50, 2, -(p // 2), p // 2), a)

    @pytest.mark.parametrize("p", [WORD, M61])
    def test_operands_without_columns(self, p):
        rng = np.random.default_rng(p % 991)
        wide, narrow = _centred(rng, 30, 3, -(p // 2), p // 2), _centred(rng, 30, 2, -5, 5)
        empty = [[] for _ in range(30)]
        for other in (wide, narrow):
            _check_gram(p, empty, other)
            _check_gram(p, other, empty)
        _check_gram(p, empty)

    @pytest.mark.parametrize(
        "p, kind, rows",
        [
            (M61, "narrow x narrow", 2**11),  # 2^53 / 2^(21 + 21)
            (M61, "wide x narrow", 2**12),  # 2^53 / 2^(20 + 21)
            (M61, "wide x wide", 2**13 // 3),  # 2^53 / (3 products 2^(20 + 20))
            (WORD, "narrow x narrow", 2**11),
            (WORD, "wide x narrow", 2**16),  # 2^53 / 2^(16 + 21)
        ],
    )
    def test_feature_axis_crosses_a_chunk_boundary(self, p, kind, rows):
        width = {"narrow": NARROW, "wide": p // 2}
        left, right = (width[w] for w in kind.split(" x "))
        for f in (rows, rows + 1, 2 * rows + 1):
            a = [[left, -left]] * f
            b = [[right, -right, right]] * f
            _check_gram(p, a, b)
            if left == right:
                _check_gram(p, a)

    def test_int64_sums_are_reduced_before_they_overflow(self):
        # over M61 every limb of v = (p - 1) / 2 is 2^20 - 1, so each wide x wide
        # chunk adds nearly 2^53 to the int64 sum of its middle shift, and 1025
        # chunks pass 2^63, unless the sum is reduced on the way.  Every entry
        # is v, so each dot product is f v^2
        p, rows = M61, 2**13 // 3
        f, v = 1100 * rows + 1, p // 2
        a = np.full((f, 1), v, dtype=np.uint64)
        g = FieldDomain(scale_bits=0, p=p).matmul_t(a, a)
        assert g.tolist() == [[f * v * v % p]]


class TestGramKernelThreads:
    """The kernel called from several threads at once, as the parties of a
    loopback run call it: every call gives the result of a sequential one."""

    @pytest.mark.parametrize("p", [M61, WORD])
    def test_concurrent_callers_get_the_sequential_results(self, p):
        dom = FieldDomain(scale_bits=16, p=p)
        rng = np.random.default_rng(p % 1009)
        wide = [rng.integers(0, p, (96, 32), dtype=np.uint64) for _ in range(2)]
        narrow = [dom.encode_array(rng.uniform(-1, 1, (96, 32))) for _ in range(2)]
        cases = [
            (wide[0], wide[1]),  # wide x wide: products that share shifts
            (wide[0], narrow[0]),  # wide x narrow
            (narrow[0], narrow[1]),  # narrow x narrow: one GEMM
            (wide[1], wide[1]),  # self grams pass one array twice
            (narrow[1], narrow[1]),
        ]
        expected = [dom.matmul_t(a, b).tolist() for a, b in cases]
        calls = 50
        wrong = [None] * 4

        def caller(t):
            try:
                wrong[t] = sum(
                    dom.matmul_t(*cases[(t + c) % len(cases)]).tolist()
                    != expected[(t + c) % len(cases)]
                    for c in range(calls)
                )
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                wrong[t] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(t,)) for t in range(len(wrong))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == [0] * len(wrong)


def _tie(k: int, s: int) -> float:
    """k + 1/2 units of 2^-s: a halfway case of the fixed-point rounding."""
    return (2 * k + 1) * 2.0 ** -(s + 1)


@st.composite
def real_rows(draw):
    """(domain, rows): a field (M61 or Z251) and a 2-D list of reals biased to
    rounding ties, signed zeros, the range edge, ints above 2^53, and
    non-finite or out-of-range values."""
    s = draw(st.sampled_from([0, 1, 16]))
    dom = FieldDomain(scale_bits=s, p=draw(st.sampled_from([M61, 251])))
    limit = dom.max_abs
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
            entries = encode_real_matrix(rows, dom).data.tolist()
            return [[(type(v), repr(v)) for v in r] for r in entries]

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


class TestEntryDtype:
    @pytest.mark.parametrize("domain", ["m61", "z251"])
    def test_every_producer_returns_read_only_domain_dtype(self, domain, request):
        from mpgram import transport as tp

        dom = request.getfixturevalue(domain)
        assert dom.dtype == np.uint64
        a = random_matrix((3, 2), dom, KEY, 12)
        b = encode_real_matrix([[0.5, -1.0], [2.0, 0.0], [-0.25, 3.0]], dom)
        payload = joined(tp.matrix_payload(a))
        scalars = joined(tp.scalars_payload(a.data.ravel(), dom))
        received = bytearray(payload)  # a receive buffer is writable
        produced = {
            "random_matrix": a.data,
            "encode_real_matrix": b.data,
            "mat_add": mat_add(a, b).data,
            "mat_sub": mat_sub(a, b).data,
            "mat_scale": mat_scale(dom.sample_nonzero(KEY, "s"), a).data,
            "gram_t": gram_t(a, b).data,
            "transpose": a.transpose().data,
            "from_rows": Matrix.from_rows([[1, 2]], dom).data,
            "zeros": Matrix.zeros(2, 2, dom).data,
            "matrix_from_payload": tp.matrix_from_payload(payload, dom)[0].data,
            "matrix_from_payload, bytearray": tp.matrix_from_payload(received, dom)[0].data,
            "scalars_from_payload": tp.scalars_from_payload(scalars, dom)[0],
            "scalars_from_payload, bytearray": tp.scalars_from_payload(bytearray(scalars), dom)[0],
        }
        for name, data in produced.items():
            assert data.dtype == dom.dtype, name
            assert not data.flags.writeable, name


class TestPickle:
    @pytest.mark.parametrize("domain", ["m61", "z251"])
    def test_round_trip_is_equal_and_read_only(self, domain, request):
        dom = request.getfixturevalue(domain)
        m = random_matrix((3, 2), dom, KEY, 11)
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        assert not back.data.flags.writeable


def float64_arrays():
    """2-D float64 arrays of any finite values, biased to -0.0, subnormals and +-max."""
    big = np.finfo(np.float64).max
    edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, big, -big])
    entry = st.one_of(edges, st.floats(allow_nan=False, allow_infinity=False))
    shapes = hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)
    return hnp.arrays(np.float64, shapes, elements=entry)


class TestCsv:
    @given(float64_arrays())
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_float_round_trip(self, tmp_path, x):
        path = tmp_path / "m.csv"
        save_csv(x, path)
        back = load_real_csv(path)
        assert back.dtype == np.float64 and back.shape == x.shape
        assert (back.view(np.uint64) == x.view(np.uint64)).all()  # bit for bit: -0.0 too

    def test_transpose_flag(self, tmp_path):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "m.csv"
        save_csv(x, path)
        assert np.array_equal(load_real_csv(path, transpose=True), x.T)

    def test_encode_real_matrix(self, m61):
        m = encode_real_matrix([[1.0, -1.0]], m61)
        assert m.data.tolist() == [[65536, m61.p - 65536]]
