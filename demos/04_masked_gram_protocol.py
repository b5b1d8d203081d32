"""The masking protocol on one party pair, spelled out step by step.

Alice (lower id, data X) and Bob (data Y) each hold an f x n matrix,
one column per sample.  Three masked messages between them plus three
small matrices to the function party produce the exact cross-gram block
X^T Y without anyone seeing the other side's data.  Each party draws its
masks from its own key, which no other party holds.
"""

import numpy as np

from mpgram import (
    FieldDomain,
    alice_compute,
    alice_round1,
    assemble_gram,
    bob_compute,
    bob_round1,
    encode_real_matrix,
    fp_combine,
    gram_t,
    make_party_state,
    plaintext_gram,
    run_pair,
)
from mpgram.masking import PairResult
from mpgram.seeds import party_key

field = FieldDomain(scale_bits=16)
rng = np.random.default_rng(42)

# party i's key: in this simulation derived from a run seed, in a deployment
# an independent secret of each party
alice = make_party_state(1, encode_real_matrix(rng.uniform(-1, 1, (5, 3)), field), party_key(42, 1))
bob = make_party_state(2, encode_real_matrix(rng.uniform(-1, 1, (5, 4)), field), party_key(42, 2))
print(f"alice: data 5x3, mask 5x3, scalar mask alpha = {alice.mask_scalar}")
print(f"bob:   data 5x4, mask 5x4")

# round 1: masked data goes across; the mask itself only travels blinded
alice_masked, alice_scaled_mask = alice_round1(alice)   # X - a, alpha * a
bob_masked = bob_round1(bob)                            # Y - b
print("\nalice -> bob:  X - a  and  alpha*a")
print("bob -> alice:  Y - b")

# each side computes its cross terms from what it received
a1 = alice_compute(alice, bob_masked)                   # a^T (Y - b)
b1, b2 = bob_compute(bob, alice_masked, alice_scaled_mask)  # (X-a)^T Y, (alpha a)^T b
print("alice -> FP:   A1 = a^T (Y - b)  and alpha")
print("bob -> FP:     B1 = (X - a)^T Y  and  B2 = (alpha a)^T b")

# the function party combines: A1 + B1 + B2/alpha telescopes to X^T Y
pr = PairResult(1, 2, a1, b1, b2, alice.mask_scalar)
block = fp_combine(pr)
truth = gram_t(alice.data, bob.data)
print(f"\nA1 + B1 + B2/alpha == X^T Y exactly over the field: {block == truth}")

# with self-grams added, the function party assembles the full matrix
self_blocks = {1: gram_t(alice.data, alice.data), 2: gram_t(bob.data, bob.data)}
asm = assemble_gram(self_blocks, {(1, 2): run_pair(alice, bob)})
oracle = plaintext_gram(field, {1: alice.data, 2: bob.data})
print(f"assembled 7x7 gram equals plaintext gram of pooled data: {asm.full == oracle}")
print(f"gram symmetric by construction: {asm.full == asm.full.transpose()}")
