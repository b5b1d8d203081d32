"""Dot-product encoding scheme: generation, encoding, decoding, structure."""

from random import Random

import numpy as np
import pytest

from mpgram.dare import muladd_encode
from mpgram.errors import DimensionError, DomainError, ProtocolError
from mpgram.field import FieldDomain
from mpgram.scheme import (
    WIRE_X_SIDE,
    decode_dot,
    dump_scheme,
    encode_x_side,
    encode_y_side,
    generate_scheme,
    offline_components,
    pair_randoms,
    split_x_side,
    wire_block,
    x_side_wire,
    y_random_triples,
)
from mpgram.seeds import party_key
from payloads import joined
from reference_scheme import build_bijection, reference_components

m61 = FieldDomain()
z5 = FieldDomain(scale_bits=0, p=5)
z251 = FieldDomain(scale_bits=0, p=251)
word = FieldDomain(scale_bits=0, p=2**32 - 5)  # the largest prime below 2^32
KEY = party_key(0, 1)


def draw(dom, rng, n):
    """n uniform elements of a field domain, as test data."""
    return [rng.randrange(dom.p) for _ in range(n)]


def brute_dot(dom, x, y):
    acc = dom.zero
    for a, b in zip(x, y):
        acc = dom.add(acc, dom.mul(a, b))
    return acc


def split_indices(scheme):
    leaf_owned = set()
    for lf in scheme.leaves:
        leaf_owned.update((lf.a, lf.b, lf.c, lf.d))
    return [i for i in range(scheme.total_randoms) if i not in leaf_owned]


class TestGeneration:
    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            generate_scheme(0)

    def test_single_leaf_layout(self):
        s = generate_scheme(1)
        assert s.total_randoms == 4
        assert [lf.ex for lf in s.leaves] == [(0, 1, 0, 0, 1, 2)]
        assert [lf.ey for lf in s.leaves] == [(0, 0, 1, 3)]
        assert s.leaves[0].offline == ((2, -1), (3, -1))
        assert (s.leaves[0].a, s.leaves[0].b, s.leaves[0].c, s.leaves[0].d) == (0, 1, 2, 3)

    def test_two_leaves_with_one_split(self):
        s = generate_scheme(2)
        assert s.total_randoms == 9
        assert s.leaves[0].offline == ((0, +1), (3, -1), (4, -1))
        assert s.leaves[1].offline == ((0, -1), (7, -1), (8, -1))
        assert [lf.ex for lf in s.leaves] == [(0, 2, 1, 1, 2, 3), (0, 6, 5, 5, 6, 7)]
        assert [lf.ey for lf in s.leaves] == [(0, 1, 2, 4), (0, 5, 6, 8)]

    @pytest.mark.parametrize("d", list(range(1, 129)))
    def test_random_count_law(self, d):
        s = generate_scheme(d)
        assert s.total_randoms == (4 if d == 1 else 5 * d - 1)
        assert s.total_randoms == 5 * d - 1  # the d=1 case coincides

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 13, 16, 31, 64])
    def test_split_bookkeeping(self, d):
        s = generate_scheme(d)
        splits = split_indices(s)
        assert len(splits) == d - 1
        occurrences = {i: [] for i in splits}
        for leaf_no, lf in enumerate(s.leaves):
            for idx, sign in lf.offline:
                if idx in occurrences:
                    occurrences[idx].append((leaf_no, sign))
        for idx, occ in occurrences.items():
            assert len(occ) == 2, f"split {idx} appears {len(occ)} times"
            (l_plus, s_plus), (l_minus, s_minus) = sorted(occ)
            assert (s_plus, s_minus) == (+1, -1)
            assert l_plus < l_minus  # +1 in the left half, -1 in the right

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 7, 11, 16])
    def test_raw_lists_follow_leaf_layout(self, d):
        s = generate_scheme(d)
        for lf in s.leaves:
            assert lf.ex == (0, lf.b, lf.a, lf.a, lf.b, lf.c)
            assert lf.ey == (0, lf.a, lf.b, lf.d)
            assert (lf.a, lf.b, lf.c, lf.d) == (lf.a, lf.a + 1, lf.a + 2, lf.a + 3)

    @pytest.mark.parametrize("d", [1, 2, 5, 7, 12])
    def test_every_random_referenced(self, d):
        s = generate_scheme(d)
        seen = set()
        for lf in s.leaves:
            seen.update((lf.a, lf.b, lf.c, lf.d))
            seen.update(idx for idx, _ in lf.offline)
        assert seen == set(range(s.total_randoms))

    def test_five_components_per_leaf(self):
        s = generate_scheme(9)
        rng = Random(0)
        randoms = draw(m61, rng, s.total_randoms)
        x = draw(m61, rng, 9)
        y = draw(m61, rng, 9)
        xc = encode_x_side(m61, x, s, randoms)
        yc = encode_y_side(m61, y, s, y_random_triples(s, randoms))
        off = offline_components(m61, s, randoms)
        # 2 + 2 + 1 scalars per leaf cross the wire
        assert len(xc) == len(yc) == len(off) == 9
        assert all(len(pair) == 2 for pair in xc)
        assert all(len(pair) == 2 for pair in yc)


class TestLength7Structure:
    def test_isomorphic_to_reference_layout(self):
        s = generate_scheme(7)
        mapping = build_bijection(s)
        # breadth-first reference splits land on depth-first generated splits
        assert {mapping[i] for i in range(6)} == set(split_indices(s))

    def test_reference_formulas_match_componentwise(self):
        s = generate_scheme(7)
        mapping = build_bijection(s)
        rng = Random(1)
        randoms = draw(z251, rng, s.total_randoms)
        x = draw(z251, rng, 7)
        y = draw(z251, rng, 7)
        by_ref = {ref: randoms[gen] for ref, gen in mapping.items()}
        ref_x, ref_y, ref_off = reference_components(z251, x, y, by_ref)
        assert encode_x_side(z251, x, s, randoms).tolist() == [list(c) for c in ref_x]
        assert encode_y_side(z251, y, s, y_random_triples(s, randoms)).tolist() == [
            list(c) for c in ref_y
        ]
        assert offline_components(z251, s, randoms).tolist() == list(ref_off)


class TestEncoding:
    def test_zero_randoms_x_side(self):
        s = generate_scheme(3)
        zero = (0,) * s.total_randoms
        x = [5, 7, 9]
        assert encode_x_side(z251, x, s, zero).tolist() == [[5, 0], [7, 0], [9, 0]]

    def test_zero_randoms_y_side(self):
        s = generate_scheme(3)
        triples = ((0, 0, 0),) * 3
        assert encode_y_side(z251, [4, 6, 8], s, triples).tolist() == [[4, 0], [6, 0], [8, 0]]

    def test_zero_randoms_offline(self):
        s = generate_scheme(3)
        assert offline_components(z251, s, (0,) * s.total_randoms).tolist() == [0, 0, 0]

    def test_single_leaf_hand_values(self):
        s = generate_scheme(1)
        randoms = (1, 1, 1, 1)
        assert encode_x_side(z251, [2], s, randoms).tolist() == [[1, 2]]
        assert encode_y_side(z251, [3], s, y_random_triples(s, randoms)).tolist() == [[2, 4]]

    def test_two_leaf_offline_values(self):
        s = generate_scheme(2)
        randoms = tuple(range(10, 19))  # indices 0..8
        c5 = offline_components(z251, s, randoms)
        assert c5[0] == (randoms[0] - randoms[3] - randoms[4]) % 251
        assert c5[1] == (-randoms[0] - randoms[7] - randoms[8]) % 251

    def test_length_mismatch(self):
        s = generate_scheme(4)
        with pytest.raises(DimensionError):
            encode_x_side(z251, [1, 2, 3], s, (0,) * s.total_randoms)
        with pytest.raises(ProtocolError):
            encode_y_side(z251, [1, 2, 3, 4], s, ((0, 0, 0),) * 3)

    def test_y_triples_pick_a_b_d(self):
        s = generate_scheme(5)
        randoms = tuple(range(100, 100 + s.total_randoms))
        for lf, triple in zip(s.leaves, y_random_triples(s, randoms)):
            assert triple.tolist() == [randoms[lf.a], randoms[lf.b], randoms[lf.d]]

    def test_leaf_components_match_muladd_gadget(self):
        # the scheme's per-leaf components are exactly a mul-add encoding
        # whose s3 is that leaf's signed split sum
        s = generate_scheme(6)
        rng = Random(2)
        randoms = draw(m61, rng, s.total_randoms)
        x = draw(m61, rng, 6)
        y = draw(m61, rng, 6)
        xc = encode_x_side(m61, x, s, randoms)
        yc = encode_y_side(m61, y, s, y_random_triples(s, randoms))
        off = offline_components(m61, s, randoms)
        for i, lf in enumerate(s.leaves):
            s3 = m61.zero
            for idx, sign in lf.offline:
                if idx in (lf.c, lf.d):
                    continue
                s3 = m61.add(s3, randoms[idx]) if sign > 0 else m61.sub(s3, randoms[idx])
            e = muladd_encode(
                m61, x[i], y[i], s3, randoms[lf.a], randoms[lf.b], randoms[lf.c], randoms[lf.d]
            )
            assert [e.c1, e.c2] == xc[i].tolist()
            assert [e.c3, e.c4] == yc[i].tolist()
            assert e.c5 == off[i]


class TestDecoding:
    def test_zero_randoms_reduces_to_plain_dot(self):
        s = generate_scheme(2)
        zero = (0,) * s.total_randoms
        xc = encode_x_side(z251, [1, 2], s, zero)
        yc = encode_y_side(z251, [3, 4], s, ((0, 0, 0), (0, 0, 0)))
        off = offline_components(z251, s, zero)
        assert decode_dot(z251, xc, yc, off) == 11

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 15, 16, 33, 64])
    def test_decode_exact_over_field(self, d):
        s = generate_scheme(d)
        rng = Random(d)
        for _ in range(10):
            randoms = draw(m61, rng, s.total_randoms)
            x = draw(m61, rng, d)
            y = draw(m61, rng, d)
            xc = encode_x_side(m61, x, s, randoms)
            yc = encode_y_side(m61, y, s, y_random_triples(s, randoms))
            off = offline_components(m61, s, randoms)
            assert decode_dot(m61, xc, yc, off) == brute_dot(m61, x, y)

    def test_length7_many_trials_z251(self):
        s = generate_scheme(7)
        rng = Random(3)
        for _ in range(1000):
            randoms = draw(z251, rng, s.total_randoms)
            x = draw(z251, rng, 7)
            y = draw(z251, rng, 7)
            xc = encode_x_side(z251, x, s, randoms)
            yc = encode_y_side(z251, y, s, y_random_triples(s, randoms))
            off = offline_components(z251, s, randoms)
            assert decode_dot(z251, xc, yc, off) == brute_dot(z251, x, y)

    @pytest.mark.parametrize("d", [2, 5, 8, 21])
    def test_split_telescoping(self, d):
        s = generate_scheme(d)
        rng = Random(d + 100)
        randoms = draw(m61, rng, s.total_randoms)
        off = offline_components(m61, s, randoms)
        acc = m61.zero
        for lf, c5 in zip(s.leaves, off):
            acc = m61.add(acc, m61.add(c5, m61.add(randoms[lf.c], randoms[lf.d])))
        assert acc == 0

    def test_component_count_mismatch(self):
        with pytest.raises(DimensionError):
            decode_dot(z251, ((1, 2),), ((3, 4), (5, 6)), (7,))


class TestFreshRandoms:
    def test_deterministic_per_pair(self):
        s = generate_scheme(4)
        a = pair_randoms(s, m61, KEY, 2, 1, 2)[0, 1]
        b = pair_randoms(s, m61, KEY, 2, 1, 2)[0, 1]
        assert a.tolist() == b.tolist()
        assert len(a) == s.total_randoms

    def test_no_two_sample_pairs_share_a_vector(self):
        # each Alice reads her own key: pairs of different Alices differ too
        s = generate_scheme(4)
        seen = set()
        for alice, bob in [(1, 2), (1, 3), (2, 3)]:
            block = pair_randoms(s, m61, party_key(123, alice), bob, 4, 5)
            assert block.shape == (4, 5, s.total_randoms)
            for row in block.reshape(-1, s.total_randoms):
                vec = tuple(row)
                assert vec not in seen
                seen.add(vec)
        assert len(seen) == 3 * 4 * 5

    @pytest.mark.parametrize("dom", [m61, z5, z251, word], ids=["m61", "z5", "z251", "word"])
    def test_each_row_is_the_draw_of_its_own_label(self, dom):
        # Z5 rejects 3 of every 8 words, so rows take the per-row shortfall path
        s = generate_scheme(5)
        block = pair_randoms(s, dom, KEY, 3, 6, 4)
        assert block.shape == (6, 4, s.total_randoms)
        for u in range(6):
            alone = dom.sample(KEY, ("re", 3, u), 4 * s.total_randoms)
            assert block[u].tolist() == alone.reshape(4, s.total_randoms).tolist()

    @pytest.mark.parametrize("dom", [m61, z5, z251, word], ids=["m61", "z5", "z251", "word"])
    def test_fewer_rows_are_a_prefix_of_more(self, dom):
        # so a block does not depend on how many samples either side has;
        # Z5 rejects 3 of every 8 words, so its shortfall path runs too
        s = generate_scheme(6)
        block = pair_randoms(s, dom, KEY, 3, 3, 4)
        assert block.shape == (3, 4, s.total_randoms)
        for n_a in range(4):
            for n_b in range(5):
                got = pair_randoms(s, dom, KEY, 3, n_a, n_b)
                assert got.shape == (n_a, n_b, s.total_randoms)
                assert got.tolist() == block[:n_a, :n_b].tolist()


def scalar_reference(dom, scheme, x, y, randoms):
    """The per-scalar loop over leaves that the array path replaced."""
    xc, yc, off = [], [], []
    acc = dom.zero
    for xi, yi, lf in zip(x, y, scheme.leaves):
        ra, rb, rc, rd = (randoms[i] for i in (lf.a, lf.b, lf.c, lf.d))
        c1, c2 = dom.sub(xi, ra), dom.add(dom.sub(dom.mul(xi, rb), dom.mul(ra, rb)), rc)
        c3, c4 = dom.sub(yi, rb), dom.add(dom.mul(yi, ra), rd)
        c5 = dom.zero
        for idx, sign in lf.offline:
            c5 = dom.add(c5, randoms[idx]) if sign > 0 else dom.sub(c5, randoms[idx])
        acc = dom.add(acc, dom.add(dom.add(dom.add(dom.mul(c1, c3), c2), c4), c5))
        xc.append((c1, c2))
        yc.append((c3, c4))
        off.append(c5)
    return xc, yc, off, acc


class TestArrayPath:
    @pytest.mark.parametrize("d", [1, 2, 5, 16, 33])
    @pytest.mark.parametrize("dom", [m61, z251, word], ids=["m61", "z251", "word"])
    def test_block_matches_scalar_loop_bit_for_bit(self, dom, d):
        # one Alice sample against a block of Bob samples, as a party computes it
        s = generate_scheme(d)
        n_b = 3
        randoms = pair_randoms(s, dom, KEY, 2, 1, n_b)[0]
        x = dom.sample(KEY, "x", d)
        ys = dom.sample(KEY, "ys", n_b * d).reshape(n_b, d)
        xc = encode_x_side(dom, x, s, randoms)
        yc = encode_y_side(dom, ys, s, y_random_triples(s, randoms))
        off = offline_components(dom, s, randoms)
        dots = decode_dot(dom, xc, yc, off)
        assert xc.shape == yc.shape == (n_b, d, 2)
        assert off.shape == (n_b, d) and dots.shape == (n_b,)
        for v in range(n_b):
            ref_x, ref_y, ref_off, ref_dot = scalar_reference(dom, s, x, ys[v], randoms[v])
            assert joined(dom.pack(xc[v].ravel())) == joined(dom.pack(np.ravel(ref_x)))
            assert joined(dom.pack(yc[v].ravel())) == joined(dom.pack(np.ravel(ref_y)))
            assert joined(dom.pack(off[v])) == joined(dom.pack(ref_off))
            assert joined(dom.pack([dots[v]])) == joined(dom.pack([ref_dot]))

    @pytest.mark.parametrize("d", [1, 2, 7, 33])
    def test_offline_and_decode_with_zero_randoms_match_the_scalar_loop(self, d):
        # offline_components negates a term of sign -1 as 0 - r and adds it;
        # for r = 0 that must give the residue 0, not p.  Rows of all-zero
        # randoms, zero randoms mixed with others, randoms negated mod p and
        # an all-zero sample
        s = generate_scheme(d)
        n_b = 4
        randoms = pair_randoms(s, m61, KEY, 2, 1, n_b)[0]
        randoms[0] = 0
        randoms[1, ::2] = 0
        randoms[2, ::3] = m61.array_sub(m61.zero, randoms[2, ::3])
        x = m61.sample(KEY, "x", d)
        ys = m61.sample(KEY, "ys", n_b * d).reshape(n_b, d).copy()
        ys[3] = 0
        xc = encode_x_side(m61, x, s, randoms)
        yc = encode_y_side(m61, ys, s, y_random_triples(s, randoms))
        off = offline_components(m61, s, randoms)
        dots = decode_dot(m61, xc, yc, off)
        for v in range(n_b):
            _, _, ref_off, ref_dot = scalar_reference(m61, s, x, ys[v], randoms[v])
            assert joined(m61.pack(off[v])) == joined(m61.pack(ref_off)), v
            assert joined(m61.pack([dots[v]])) == joined(m61.pack([ref_dot])), v
        assert dots[3] == 0
        zeros = np.zeros(s.total_randoms, dtype=np.uint64)
        assert offline_components(m61, s, zeros).tolist() == [0] * d

    def test_wire_layout_round_trip(self):
        s = generate_scheme(3)
        randoms = pair_randoms(s, m61, KEY, 2, 1, 2)[0]
        xc = encode_x_side(m61, [4, 5, 6], s, randoms)
        off = offline_components(m61, s, randoms)
        wire = x_side_wire(xc, off)
        assert wire.shape == (2, 3, len(WIRE_X_SIDE))
        block = wire_block(np.ravel(wire), 1, 2, 3, WIRE_X_SIDE, "X side")
        got_xc, got_off = split_x_side(block[0])
        assert got_xc.tolist() == xc.tolist() and got_off.tolist() == off.tolist()
        with pytest.raises(ProtocolError, match="expected 18 elements"):
            wire_block(np.ravel(wire)[:-1], 1, 2, 3, WIRE_X_SIDE, "X side")


class TestDump:
    def test_single_leaf_golden_text(self):
        text = dump_scheme(generate_scheme(1))
        assert text == (
            "dot-product encoding scheme: d=1 randoms=4\n"
            "leaf 0: eX=[0, 1, 0, 0, 1, 2] eY=[0, 0, 1, 3] eO=[2, 3] eOS=[-1, -1] "
            "offline: -r2 -r3"
        )

    def test_dump_has_one_line_per_leaf(self):
        text = dump_scheme(generate_scheme(7))
        assert len(text.splitlines()) == 8
