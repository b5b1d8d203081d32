"""Masking protocol: round ops, combination, assembly, leakage, distributions."""

from collections import Counter
from itertools import combinations
from random import Random

import numpy as np
import pytest

from mpgram.errors import DimensionError, DomainError, ProtocolError, ProtocolIncompleteError
from mpgram.field import FieldDomain
from mpgram.masking import (
    PairResult,
    PartyState,
    alice_compute,
    alice_round1,
    assemble_gram,
    bob_compute,
    bob_round1,
    fp_combine,
    leakage_availability,
    leakage_view,
    make_party_state,
    pair_rounds,
    pair_schedule,
    rotation_nonuniqueness_check,
    run_pair,
    verify_leakage_view,
)
from mpgram.matrix import Matrix, gram_t, random_matrix
from mpgram.seeds import party_key

m61 = FieldDomain()
z5 = FieldDomain(scale_bits=0, p=5)
z251 = FieldDomain(scale_bits=0, p=251)
KEY = party_key(0, 0)  # draws test data


def state(party_id, data_rows, mask_rows, alpha, dom):
    return PartyState(
        party_id,
        Matrix.from_rows(data_rows, dom),
        Matrix.from_rows(mask_rows, dom),
        alpha,
    )


def zero_mask_state(party_id, data_rows, dom):
    data = Matrix.from_rows(data_rows, dom)
    return PartyState(party_id, data, Matrix.zeros(data.rows, data.cols, dom), 1)


class TestRounds:
    def test_alice_zero_masks_degenerate(self):
        st = zero_mask_state(1, [[3, 4]], z251)
        masked, scaled = alice_round1(st)
        assert masked == st.data
        assert scaled.data.tolist() == [[0, 0]]

    def test_alice_hand_values(self):
        st = state(1, [[5]], [[2]], 3, z251)
        masked, scaled = alice_round1(st)
        assert masked.data.tolist() == [[3]]
        assert scaled.data.tolist() == [[6]]

    def test_bob_zero_mask(self):
        st = zero_mask_state(2, [[7]], z251)
        assert bob_round1(st) == st.data

    def test_bob_hand_values(self):
        st = state(2, [[7]], [[4]], 1, z251)
        assert bob_round1(st).data.tolist() == [[3]]

    def test_alice_compute_zero_mask(self):
        st = zero_mask_state(1, [[3, 4]], z251)
        a1 = alice_compute(st, Matrix.from_rows([[9, 8]], z251))
        assert a1.data.tolist() == [[0, 0], [0, 0]]

    def test_alice_compute_hand_values(self):
        st = state(1, [[5]], [[2]], 3, z251)
        a1 = alice_compute(st, Matrix.from_rows([[3]], z251))
        assert a1.data.tolist() == [[6]]

    def test_alice_compute_matches_gram_oracle(self):
        x, a = (random_matrix((6, 3), m61, KEY, (0, name)) for name in ("x", "a"))
        st = PartyState(1, x, a, 5)
        bob_masked = random_matrix((6, 4), m61, KEY, (0, "y"))
        assert alice_compute(st, bob_masked) == gram_t(st.mask, bob_masked)

    def test_alice_compute_feature_mismatch(self):
        st = zero_mask_state(1, [[1, 2]], z251)
        with pytest.raises(DimensionError):
            alice_compute(st, Matrix.zeros(2, 2, z251))

    def test_bob_compute_zero_mask_kills_b2(self):
        st = zero_mask_state(2, [[7]], z251)
        b1, b2 = bob_compute(st, Matrix.from_rows([[3]], z251), Matrix.from_rows([[6]], z251))
        assert b2.data.tolist() == [[0]]

    def test_bob_compute_hand_values(self):
        st = state(2, [[7]], [[4]], 1, z251)
        b1, b2 = bob_compute(st, Matrix.from_rows([[3]], z251), Matrix.from_rows([[6]], z251))
        assert b1.data.tolist() == [[21]]
        assert b2.data.tolist() == [[24]]

    def test_bob_compute_matches_gram_oracles(self):
        y, b = (random_matrix((5, 4), m61, KEY, (1, name)) for name in ("y", "b"))
        st = PartyState(2, y, b, 7)
        am = random_matrix((5, 3), m61, KEY, (1, "am"))
        sm = random_matrix((5, 3), m61, KEY, (1, "sm"))
        b1, b2 = bob_compute(st, am, sm)
        assert b1 == gram_t(am, st.data)
        assert b2 == gram_t(sm, st.mask)


class TestCombine:
    def test_zero_masks_alpha_one(self):
        alice = zero_mask_state(1, [[1, 2], [3, 4]], z251)
        bob = zero_mask_state(2, [[5, 6, 7], [8, 9, 10]], z251)
        pr = run_pair(alice, bob)
        assert fp_combine(pr) == gram_t(alice.data, bob.data)

    def test_hand_worked_example(self):
        # X=5, a=2, alpha=3, Y=7, b=4 over Z_251
        alice = state(1, [[5]], [[2]], 3, z251)
        bob = state(2, [[7]], [[4]], 1, z251)
        pr = run_pair(alice, bob)
        assert [m.data.tolist() for m in (pr.a1, pr.b1, pr.b2)] == [[[6]], [[21]], [[24]]]
        assert z251.inv(3) == 84
        assert z251.mul(84, 24) == 8
        assert fp_combine(pr).data.tolist() == [[35]]

    def test_zero_alpha_rejected(self):
        blk = Matrix.zeros(1, 1, z251)
        with pytest.raises(ProtocolError, match="zero scalar mask"):
            fp_combine(PairResult(1, 2, blk, blk, blk, 0))

    def test_fuzz_two_party_exact(self):
        rng = Random(2)
        for t in range(200):
            f = rng.randint(1, 32)
            na, nb = rng.randint(1, 8), rng.randint(1, 8)
            x = random_matrix((f, na), m61, KEY, (t, "x"))
            y = random_matrix((f, nb), m61, KEY, (t, "y"))
            alice = make_party_state(1, x, party_key(rng.getrandbits(32), 1))
            bob = make_party_state(2, y, party_key(rng.getrandbits(32), 2))
            assert fp_combine(run_pair(alice, bob)) == gram_t(alice.data, bob.data)

    def test_float_domain_within_tolerance(self, f64):
        rng = Random(3)
        for t in range(50):
            x = random_matrix((10, 3), f64, KEY, (t, "x"))
            y = random_matrix((10, 4), f64, KEY, (t, "y"))
            alice = make_party_state(1, x, party_key(rng.getrandbits(32), 1))
            bob = make_party_state(2, y, party_key(rng.getrandbits(32), 2))
            got = fp_combine(run_pair(alice, bob))
            want = gram_t(alice.data, bob.data)
            for g, w in zip(got.data.flat, want.data.flat):
                assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


class TestScheduling:
    def test_two_parties(self):
        assert pair_schedule(2) == [(1, 2)]

    def test_three_parties(self):
        assert pair_schedule(3) == [(1, 2), (1, 3), (2, 3)]

    def test_four_parties(self):
        pairs = pair_schedule(4)
        assert len(pairs) == 6
        assert all(a < b for a, b in pairs)

    def test_single_party_rejected(self):
        with pytest.raises(DomainError):
            pair_schedule(1)
        with pytest.raises(DomainError):
            pair_rounds(1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_rounds_partition_all_pairs(self, m):
        rounds = pair_rounds(m)
        seen = []
        for rnd in rounds:
            parties = [p for pair in rnd for p in pair]
            assert len(parties) == len(set(parties)), "round reuses a party"
            seen.extend(rnd)
        assert sorted(seen) == pair_schedule(m)

    def test_four_parties_three_full_rounds(self):
        rounds = pair_rounds(4)
        assert len(rounds) == 3
        assert all(len(r) == 2 for r in rounds)


class TestAssembly:
    def test_single_party_is_self_block(self):
        blk = gram_t(*(Matrix.from_rows([[1, 2], [3, 4]], z251),) * 2)
        asm = assemble_gram({1: blk}, {})
        assert asm.full == blk

    def test_three_way_split_matches_plaintext(self):
        full = random_matrix((4, 6), m61, KEY, 4)
        cols = [Matrix(full.data[:, i : i + 2], m61) for i in (0, 2, 4)]
        states = {i + 1: make_party_state(i + 1, cols[i], party_key(77, i + 1)) for i in range(3)}
        self_blocks = {i: gram_t(states[i].data, states[i].data) for i in states}
        pairs = {
            (a, b): run_pair(states[a], states[b]) for a, b in combinations(states, 2)
        }
        asm = assemble_gram(self_blocks, pairs)
        assert asm.full == gram_t(full, full)

    def test_symmetry(self):
        states = {
            i: make_party_state(i, random_matrix((3, i + 1), m61, KEY, (5, i)), party_key(9, i))
            for i in (1, 2, 3)
        }
        self_blocks = {i: gram_t(states[i].data, states[i].data) for i in states}
        pairs = {(a, b): run_pair(states[a], states[b]) for a, b in combinations(states, 2)}
        asm = assemble_gram(self_blocks, pairs)
        assert asm.full == asm.full.transpose()
        assert asm.block(2, 1) == asm.block(1, 2).transpose()

    def test_missing_pair_named(self):
        states = {
            i: make_party_state(i, random_matrix((2, 2), m61, KEY, (6, i)), party_key(3, i))
            for i in (1, 2, 3)
        }
        self_blocks = {i: gram_t(states[i].data, states[i].data) for i in states}
        pairs = {(1, 2): run_pair(states[1], states[2])}
        with pytest.raises(ProtocolIncompleteError, match=r"\(1,3\)"):
            assemble_gram(self_blocks, pairs)


class TestLeakage:
    def make_run(self, seed=7):
        states = {
            i: make_party_state(
                i, random_matrix((4, 2 + i), m61, KEY, (seed, i)), party_key(seed, i)
            )
            for i in (1, 2, 3)
        }
        self_blocks = {i: gram_t(st.data, st.data) for i, st in states.items()}
        pairs = {(a, b): run_pair(states[a], states[b]) for a, b in combinations(states, 2)}
        return states, self_blocks, pairs

    def test_zero_masks_degenerate_to_plaintext(self):
        # documents why masks must be uniform: with zero masks the
        # transmitted blocks are the plaintext grams themselves
        states = {i: zero_mask_state(i, [[i], [i + 1]], z251) for i in (1, 2)}
        pairs = {(1, 2): run_pair(states[1], states[2])}
        view = leakage_view({i: gram_t(s.data, s.data) for i, s in states.items()}, pairs)
        assert view.mask_mask[(1, 2)].data.tolist() == [[0]]
        assert view.mask_data[(1, 2)].data.tolist() == [[0]]
        assert view.data_data[(1, 2)] == gram_t(states[1].data, states[2].data)

    def test_derived_blocks_match_private_state(self):
        states, self_blocks, pairs = self.make_run()
        view = leakage_view(self_blocks, pairs)
        assert verify_leakage_view(view, states) == 0.0

    def test_mask_data_block_oracle(self):
        states, self_blocks, pairs = self.make_run(seed=8)
        view = leakage_view(self_blocks, pairs)
        assert view.mask_data[(1, 3)] == gram_t(states[1].mask, states[3].data)
        assert view.mask_mask[(2, 3)] == gram_t(states[2].mask, states[3].mask)

    def test_alpha_collected_per_alice(self):
        states, self_blocks, pairs = self.make_run(seed=9)
        view = leakage_view(self_blocks, pairs)
        assert view.alphas == {1: states[1].mask_scalar, 2: states[2].mask_scalar}

    def test_availability_grid_three_parties(self):
        grid = leakage_availability(3)
        m = 3
        for i in range(m):
            for j in range(m):
                assert grid[i][j]  # all data x data blocks
        for i in range(m):
            assert not grid[m + i][m + i]  # no mask self-grams
            assert not grid[m + i][i]  # no mask vs own data
        # mask_i x data_j and mask_i x mask_j only for i < j
        assert grid[m + 0][1] and grid[m + 0][2] and grid[m + 1][2]
        assert not grid[m + 1][0] and not grid[m + 2][0] and not grid[m + 2][1]
        assert grid[m + 0][m + 1] and grid[m + 0][m + 2] and grid[m + 1][m + 2]


class TestMaskDistributions:
    def masked_pair_histogram(self, x: int) -> Counter:
        """Exhaustive joint histogram of (x - a, alpha * a) over Z_5."""
        hist = Counter()
        for a in range(5):
            for alpha in range(1, 5):
                st = state(1, [[x]], [[a]], alpha, z5)
                masked, scaled = alice_round1(st)
                hist[(masked.data[0, 0], scaled.data[0, 0])] += 1
        return hist

    def test_masked_data_marginal_is_uniform_and_data_independent(self):
        for x, x2 in [(1, 3), (0, 4), (2, 3)]:
            hists = []
            for val in (x, x2):
                h = Counter()
                for a in range(5):
                    st = state(1, [[val]], [[a]], 1, z5)
                    h[alice_round1(st)[0].data[0, 0]] += 1
                hists.append(h)
            assert hists[0] == Counter({v: 1 for v in range(5)})
            assert hists[0] == hists[1]

    def test_bob_masked_marginal_uniform(self):
        h = Counter()
        for b in range(5):
            st = state(2, [[2]], [[b]], 1, z5)
            h[bob_round1(st).data[0, 0]] += 1
        assert h == Counter({v: 1 for v in range(5)})

    def test_joint_masked_pair_off_fiber_equality(self):
        # Away from the residues x and x' themselves, the joint
        # (x - a, alpha*a) histograms agree cell for cell.
        x, x2 = 1, 3
        h1, h2 = self.masked_pair_histogram(x), self.masked_pair_histogram(x2)
        for m in range(5):
            if m in (x, x2):
                continue
            for w in range(5):
                assert h1[(m, w)] == h2[(m, w)]

    def test_joint_masked_pair_zero_mask_atom(self):
        # The zero-mask atom pins (x, 0): the pair (x-a, alpha*a) is NOT
        # perfectly data-independent as a joint distribution, because
        # alpha*a = 0 forces a = 0 and hence x - a = x.  Only the
        # marginal of the masked data is uniform.
        x, x2 = 1, 3
        h1, h2 = self.masked_pair_histogram(x), self.masked_pair_histogram(x2)
        assert h1[(x, 0)] == 4 and h2[(x, 0)] == 0
        assert h1 != h2
        # first-coordinate marginal is still uniform for both
        for h in (h1, h2):
            for m in range(5):
                assert sum(c for (mm, _), c in h.items() if mm == m) == 4


class TestRotationNonUniqueness:
    def test_identity_rotation_is_trivial(self):
        d = np.arange(12.0).reshape(3, 4)
        assert np.max(np.abs(d.T @ d - d.T @ d)) == 0.0

    def test_gram_preserved_but_matrix_moved(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(-1, 1, (20, 12))
        residual, distance, e = rotation_nonuniqueness_check(d, seed=1)
        assert residual < 1e-8
        assert distance > 1e-3
        assert e.shape == d.shape

    def test_distinct_rotations_distinct_matrices(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(-1, 1, (20, 12))
        mats = []
        for seed in range(10):
            residual, distance, e = rotation_nonuniqueness_check(d, seed=seed)
            assert residual < 1e-8
            mats.append(e)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.max(np.abs(mats[i] - mats[j])) > 1e-6
