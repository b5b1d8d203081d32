"""Affine encoding gadgets: decode identities and perfect-privacy histograms."""

from collections import Counter
from itertools import product
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from mpgram.dare import (
    add_decode,
    add_encode,
    add_simulate,
    muladd_decode,
    muladd_encode,
    muladd_simulate,
)
from mpgram.field import M61, FieldDomain, FloatDomain

f64 = FloatDomain()
m61 = FieldDomain()
felem = st.integers(min_value=0, max_value=M61 - 1)


class TestAddEncoding:
    def test_zero_randomness(self):
        e = add_encode(f64, 3.0, 4.0, 0.0)
        assert (e.c1, e.c2) == (3.0, 4.0)

    def test_plain_components_decode(self):
        from mpgram.dare import AddEncoding

        assert add_decode(f64, AddEncoding(3.0, 4.0)) == 7.0

    def test_shifted_components_decode(self):
        e = add_encode(f64, 3.0, 4.0, 10.0)
        assert (e.c1, e.c2) == (13.0, -6.0)
        assert add_decode(f64, e) == 7.0

    def test_components_sum_over_z251(self, z251):
        rng = Random(0)
        for _ in range(300):
            s1, s2, r = (rng.randrange(z251.p) for _ in range(3))
            e = add_encode(z251, s1, s2, r)
            assert z251.add(e.c1, e.c2) == z251.add(s1, s2)

    @given(felem, felem, felem)
    @settings(max_examples=150)
    def test_decode_encode_identity(self, s1, s2, r):
        assert add_decode(m61, add_encode(m61, s1, s2, r)) == m61.add(s1, s2)


class TestMulAddEncoding:
    def test_zero_randomness(self):
        e = muladd_encode(f64, 5.0, 7.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        assert e.as_tuple() == (5.0, 0.0, 7.0, 0.0, 2.0)
        assert muladd_decode(f64, e) == 5.0 * 7.0 + 2.0

    def test_unit_randomness_worked_example(self):
        e = muladd_encode(f64, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert e.as_tuple() == (1.0, 2.0, 2.0, 4.0, -1.0)
        assert muladd_decode(f64, e) == 7.0

    @given(felem, felem, felem, felem, felem, felem, felem)
    @settings(max_examples=150)
    def test_decode_encode_identity_field(self, s1, s2, s3, r1, r2, r3, r4):
        e = muladd_encode(m61, s1, s2, s3, r1, r2, r3, r4)
        assert muladd_decode(m61, e) == m61.add(m61.mul(s1, s2), s3)

    def test_float_identity_within_tolerance(self):
        rng = Random(1)
        for _ in range(500):
            s1, s2, s3, r1, r2, r3, r4 = (rng.uniform(-1, 1) for _ in range(7))
            got = muladd_decode(f64, muladd_encode(f64, s1, s2, s3, r1, r2, r3, r4))
            want = s1 * s2 + s3
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestSimulator:
    def test_zero_coins(self):
        e = muladd_simulate(f64, 7.0, 0.0, 0.0, 0.0, 0.0)
        assert e.as_tuple() == (0.0, 0.0, 0.0, 0.0, 7.0)

    def test_matches_real_encoding_coins(self):
        e = muladd_simulate(f64, 7.0, 1.0, 2.0, 2.0, 4.0)
        assert e.as_tuple() == (1.0, 2.0, 2.0, 4.0, -1.0)

    @given(felem, felem, felem, felem, felem)
    @settings(max_examples=150)
    def test_simulated_encoding_decodes_to_t(self, t, c1, c2, c3, c4):
        assert muladd_decode(m61, muladd_simulate(m61, t, c1, c2, c3, c4)) == t

    def test_add_simulator_sums_to_t(self, z251):
        rng = Random(2)
        for _ in range(200):
            t, coin = rng.randrange(z251.p), rng.randrange(z251.p)
            e = add_simulate(z251, t, coin)
            assert add_decode(z251, e) == t


def real_muladd_histogram(dom, s1, s2, s3) -> Counter:
    q = dom.p
    return Counter(
        muladd_encode(dom, s1, s2, s3, r1, r2, r3, r4).as_tuple()
        for r1, r2, r3, r4 in product(range(q), repeat=4)
    )


def simulated_muladd_histogram(dom, t) -> Counter:
    q = dom.p
    return Counter(
        muladd_simulate(dom, t, c1, c2, c3, c4).as_tuple()
        for c1, c2, c3, c4 in product(range(q), repeat=4)
    )


class TestPerfectPrivacy:
    def test_muladd_exhaustive_z5(self, z5):
        # real randomness vs simulator coins: exact multiset equality
        for s1, s2, s3 in [(0, 0, 0), (1, 2, 3), (4, 4, 4), (2, 0, 1), (3, 1, 0)]:
            t = z5.add(z5.mul(s1, s2), s3)
            assert real_muladd_histogram(z5, s1, s2, s3) == simulated_muladd_histogram(z5, t)

    def test_add_exhaustive_z5(self, z5):
        for s1, s2 in [(0, 0), (1, 3), (2, 4), (4, 1)]:
            t = z5.add(s1, s2)
            real = Counter(
                (add_encode(z5, s1, s2, r).c1, add_encode(z5, s1, s2, r).c2)
                for r in range(5)
            )
            sim = Counter(
                (add_simulate(z5, t, coin).c1, add_simulate(z5, t, coin).c2)
                for coin in range(5)
            )
            assert real == sim
