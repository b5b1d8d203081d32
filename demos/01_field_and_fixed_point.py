"""Tour of the arithmetic domains: exact prime field vs plain doubles.

All protocol math runs over a pluggable scalar domain.  The production
domain is the prime field Z_p with p = 2^61 - 1 plus a fixed-point codec
so real-valued data can ride on exact arithmetic.  Every random quantity
of the protocols is read from a SHAKE-256 stream of the drawing party's
own key, one label per quantity.
"""

from random import Random

from mpgram import FieldDomain, FloatDomain, M61
from mpgram.seeds import party_key

field = FieldDomain(scale_bits=16)
print(f"field modulus p = {field.p} (Mersenne 2^61 - 1: {field.p == M61})")

# exact arithmetic: inverses really invert
x = 123456789
inv_x = field.inv(x)
print(f"inv({x}) = {inv_x}; x * inv(x) = {field.mul(x, inv_x)}")

# the fixed-point codec scales reals by 2^16 and rounds
for val in (0.0, 1.0, -1.0, 0.3333):
    print(f"encode({val:+.4f}) = {field.encode(val):>20} -> decode = {field.decode(field.encode(val)):+.6f}")

# products of encoded values carry the squared scale; decode_dot strips it
a, b = 2.0, -3.25
prod = field.mul(field.encode(a), field.encode(b))
print(f"{a} * {b} via field product = {field.decode_dot(prod)}")

# dot products of whole vectors stay within d * 2^-15 of the real value
rng = Random(0)
d = 1000
xs = [rng.uniform(-1, 1) for _ in range(d)]
ys = [rng.uniform(-1, 1) for _ in range(d)]
acc = 0
for u, v in zip(xs, ys):
    acc = field.add(acc, field.mul(field.encode(u), field.encode(v)))
true = sum(u * v for u, v in zip(xs, ys))
print(f"length-{d} dot: field {field.decode_dot(acc):.10f} vs real {true:.10f} "
      f"(error {abs(field.decode_dot(acc) - true):.2e}, bound {d * 2 ** -15:.2e})")

# masks are read from the drawing party's own key, one label per quantity
key = party_key(0, 1)  # party 1's key, derived from run seed 0
print(f"party 1's first mask entries: {field.sample(key, 'mask', 3).tolist()}")
print(f"party 1's scalar mask alpha : {field.sample_nonzero(key, 'alpha')}")

# the float domain runs the same protocols on raw doubles, no exactness claims
f64 = FloatDomain()
print(f"float domain: inv(4.0) = {f64.inv(4.0)}, "
      f"uniform mask sample = {f64.sample(key, 'mask', 1)[0]:.4f}")
