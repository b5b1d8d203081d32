"""Building the randomized encoding of a whole dot product.

The generator splits the index range at the largest power of two below
its length, books one fresh "split" random on each side (+1 left, -1
right, so everything telescopes away), and recurses down to per-index
mul-add gadgets with four randoms each: 5d - 1 randoms in total.

Encoding and decoding are array operations: leading axes carry a block of
sample pairs, the last ones the leaves and their components.  The randoms
come from the scheme owner's own key, so the peer learns only the triples
it is sent.
"""

from mpgram import (
    FieldDomain,
    decode_dot,
    dump_scheme,
    encode_x_side,
    encode_y_side,
    generate_scheme,
    offline_components,
    pair_randoms,
    y_random_triples,
)
from mpgram.seeds import party_key

scheme = generate_scheme(7)
print(dump_scheme(scheme))

print(f"\nrandom budget: {scheme.total_randoms} = 4 per leaf * 7 leaves + 6 splits")

# one party (the scheme owner) holds x and every random; the peer holds y
# and receives only the three per-leaf randoms its components mention
field = FieldDomain(scale_bits=0, p=251)
key = party_key(7, 1)                                          # the owner's own key
randoms = field.sample(key, "demo", scheme.total_randoms)      # shape (34,)
x = field.sample(key, "x", 7)
y = field.sample(key, "y", 7)

x_comps = encode_x_side(field, x, scheme, randoms)            # (7, 2): (c1, c2) per leaf
triples = y_random_triples(scheme, randoms)                    # (7, 3): what crosses the wire
y_comps = encode_y_side(field, y, scheme, triples)             # (7, 2): (c3, c4) per leaf
offline = offline_components(field, scheme, randoms)           # (7,): c5 per leaf

print(f"\nx = {x.tolist()}\ny = {y.tolist()}")
print(f"x-side components : {x_comps.tolist()}")
print(f"y-side components : {y_comps.tolist()}")
print(f"offline components: {offline.tolist()}")

decoded = decode_dot(field, x_comps, y_comps, offline)
plain = sum(int(a) * int(b) for a, b in zip(x, y)) % field.p
print(f"\ndecoded dot product = {decoded}; plaintext = {plain}; exact match: {decoded == plain}")

# the decoder sees 5 scalars per leaf and nothing else -- fresh randoms
# per sample pair keep even relative differences of the inputs hidden
print(f"scalars revealed to the decoder: {5 * scheme.d} (vs 14 plaintext inputs)")

# A party encodes one of its samples against a whole block of the peer's
# samples at once: one row of fresh randoms per sample pair (u, v), all
# read from its own key under the label ("re", peer id, u).
peer = field.sample(key, "peer", 4 * 7).reshape(4, 7)          # 4 peer samples
block = pair_randoms(scheme, field, key, 2, 0, 4)              # (4, 34): u = 0, peer id 2
dots = decode_dot(
    field,
    encode_x_side(field, x, scheme, block),                    # (4, 7, 2)
    encode_y_side(field, peer, scheme, y_random_triples(scheme, block)),
    offline_components(field, scheme, block),                  # (4, 7)
)
plain = [sum(int(a) * int(b) for a, b in zip(x, row)) % field.p for row in peer]
print(f"\nblock of 4 sample pairs: decoded {dots.tolist()}; plaintext {plain}")
