"""Matrix operations against brute-force oracles, plus CSV interchange."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgram.errors import DimensionError, DomainMismatchError
from mpgram.field import FieldDomain
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
        a = random_matrix((3, 2), z251, Random(0))
        assert mat_sub(a, a) == Matrix.zeros(3, 2, z251)

    def test_one_by_one(self, z251):
        a = Matrix.from_rows([[5]], z251)
        b = Matrix.from_rows([[3]], z251)
        assert mat_sub(a, b).data.tolist() == [[2]]

    def test_elementwise_oracle_z5(self, z5):
        rng = Random(1)
        a = random_matrix((3, 2), z5, rng)
        b = random_matrix((3, 2), z5, rng)
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
        a = random_matrix((2, 3), z251, Random(2))
        assert mat_scale(1, a) == a

    def test_zero_scalar(self, z251):
        a = random_matrix((2, 3), z251, Random(3))
        assert mat_scale(0, a) == Matrix.zeros(2, 3, z251)

    def test_scale_then_inverse_round_trips(self, m61):
        rng = Random(4)
        a = random_matrix((4, 3), m61, rng)
        alpha = m61.uniform_nonzero(rng)
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
        rng = Random(5)
        cases = [
            (random_matrix((10, 4), dom, rng), random_matrix((10, 6), dom, rng))
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
        rng = Random(6)
        a = random_matrix((5, 3), m61, rng)
        b = random_matrix((5, 4), m61, rng)
        assert gram_t(a, b) == gram_t(b, a).transpose()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_bilinearity(self, seed):
        dom = FieldDomain()
        rng = Random(seed)
        a1 = random_matrix((4, 2), dom, rng)
        a2 = random_matrix((4, 2), dom, rng)
        b = random_matrix((4, 3), dom, rng)
        assert gram_t(mat_add(a1, a2), b) == mat_add(gram_t(a1, b), gram_t(a2, b))


class TestRandomMatrix:
    def test_deterministic_under_seed(self, m61):
        assert random_matrix((3, 3), m61, Random(7)) == random_matrix((3, 3), m61, Random(7))

    def test_different_seeds_differ(self, m61):
        a = random_matrix((3, 3), m61, Random(8))
        b = random_matrix((3, 3), m61, Random(9))
        assert a != b

    def test_z5_residue_frequencies(self, z5):
        rng = Random(10)
        draws = 10 ** 5
        counts = [0] * 5
        m = random_matrix((draws // 100, 100), z5, rng)
        for v in m.data.flat:
            counts[v] += 1
        expected = draws / 5
        sigma = (draws * 0.2 * 0.8) ** 0.5
        for c in counts:
            assert abs(c - expected) <= 3 * sigma


class TestCsv:
    def test_field_round_trip(self, tmp_path, m61):
        m = random_matrix((3, 4), m61, Random(11))
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
