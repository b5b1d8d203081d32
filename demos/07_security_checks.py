"""Executable security arguments: distributions, leakage, non-invertibility.

The security story ships as runnable checks rather than prose: masked
messages are exhaustively uniform over a tiny field, the function
party's derivable view is an explicitly incomplete gram matrix, and even
the complete gram matrix has a whole orthogonal orbit of preimages.
Each party's masks come from its own key, so no other party can
regenerate them.
"""

from collections import Counter
from itertools import combinations

import numpy as np

from mpgram import (
    FieldDomain,
    Matrix,
    alice_round1,
    encode_real_matrix,
    gram_t,
    leakage_availability,
    leakage_view,
    make_party_state,
    rotation_nonuniqueness_check,
    run_pair,
    verify_leakage_view,
)
from mpgram.masking import PartyState
from mpgram.seeds import party_key

z5 = FieldDomain(scale_bits=0, p=5)

# 1. masked data is uniform whatever the data is (exhaustive over Z_5)
print("masked-entry distribution over all masks, Z_5:")
for x in (1, 3):
    hist = Counter()
    for a in range(5):
        st = PartyState(1, Matrix.from_rows([[x]], z5), Matrix.from_rows([[a]], z5), 1)
        hist[alice_round1(st)[0].data[0, 0]] += 1
    print(f"  data={x}: histogram of x-a = {dict(sorted(hist.items()))}")
print("  -> uniform and identical: an observer of X-a learns nothing about X")

# 2. what the function party can derive: an incomplete gram matrix over
#    data and mask columns; mask self-grams and own-mask-vs-own-data
#    blocks are structurally absent
m61 = FieldDomain()
rng = np.random.default_rng(0)
states = {
    i: make_party_state(i, encode_real_matrix(rng.uniform(-1, 1, (6, 3)), m61), party_key(1000, i))
    for i in (1, 2, 3)
}
self_blocks = {i: gram_t(s.data, s.data) for i, s in states.items()}
pairs = {(a, b): run_pair(states[a], states[b]) for a, b in combinations(states, 2)}
view = leakage_view(self_blocks, pairs)
print(f"\nfunction-party derivable blocks (3 parties):")
print(f"  data x data pairs : {sorted(view.data_data)}")
print(f"  mask x data pairs : {sorted(view.mask_data)}   (lower id's mask only)")
print(f"  mask x mask pairs : {sorted(view.mask_mask)}")
print(f"  derived blocks match private state exactly: {verify_leakage_view(view, states) == 0.0}")
print("  (that check needs every party's mask, so only the test harness, which")
print("   derives every key from the run seed, can run it; a party holds one key)")

labels = [f"X{i}" for i in (1, 2, 3)] + [f"a{i}" for i in (1, 2, 3)]
grid = leakage_availability(3)
print("\n  availability grid (# = derivable, . = hidden), rows/cols = " + " ".join(labels))
for lbl, row in zip(labels, grid):
    print(f"    {lbl}: " + " ".join("#" if v else "." for v in row))

# 3. one key per party: a one-way hash of the run seed, so flipping one seed
#    bit changes about half of every key, and no key reveals another
keys = [party_key(1000, i) for i in (1, 2, 3)]
flipped = [
    bin(int.from_bytes(k, "big") ^ int.from_bytes(party_key(1000 ^ 1, i), "big")).count("1")
    for i, k in enumerate(keys, 1)
]
print(f"\nparty keys: 256 bits each; bits changed by flipping one seed bit: {flipped}")

# 4. even the full gram matrix does not pin down the data: any orthogonal
#    Q gives E = Q^T D with E^T E = D^T D
d = np.random.default_rng(1).uniform(-1, 1, (20, 12))
print("\ngram-matrix preimages under random orthogonal maps (20x12 data):")
for seed in range(3):
    residual, distance, _ = rotation_nonuniqueness_check(d, seed)
    print(f"  seed {seed}: max|E^T E - D^T D| = {residual:.2e}, max|E - D| = {distance:.3f}")
print("  -> identical gram, very different matrices: recovery is ill-posed")
