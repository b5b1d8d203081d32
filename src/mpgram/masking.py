"""Pairwise masked dot-product protocol and its executable security checks.

For each party pair the lower id ("Alice", data X) and the higher id
("Bob", data Y) run:

    Alice -> Bob   X - a,  alpha * a      (mask a uniform, alpha nonzero)
    Bob   -> Alice Y - b                  (mask b uniform)
    Alice -> FP    A1 = a^T (Y - b)       and alpha, once per party
    Bob   -> FP    B1 = (X - a)^T Y,  B2 = (alpha a)^T b

and the function party recovers the cross-gram block exactly:

    A1 + B1 + (1/alpha) B2
      = a^T Y - a^T b + X^T Y - a^T Y + a^T b = X^T Y.

One mask matrix and one scalar mask per party per run, drawn from the
party's own key and reused across all of that party's pairs; the scalar
is what keeps the transmitted mask ``alpha a`` from revealing ``a`` to
the peer.  ``leakage_view``
reconstructs everything the function party can derive from its messages
alone, which is an incomplete gram matrix of data and mask columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ProtocolError, ProtocolIncompleteError
from .matrix import Matrix, gram_t, mat_add, mat_scale, mat_sub, random_matrix


@dataclass(frozen=True)
class PartyState:
    """One input party's private state for a run."""

    party_id: int
    data: Matrix  # f x n_i, domain-encoded
    mask: Matrix  # f x n_i, uniform
    mask_scalar: object  # alpha_i, nonzero

    @property
    def n_samples(self) -> int:
        return self.data.cols


def make_party_state(party_id: int, data: Matrix, key: bytes) -> PartyState:
    """Draw the party's masks from its own key: mask a from the stream
    ``"mask"``, alpha from ``"alpha"``.

    Mask and scalar are drawn once per run and reused for every pair the
    party participates in.  Only the key's holder can draw them.
    """
    dom = data.domain
    mask = random_matrix((data.rows, data.cols), dom, key, "mask")
    return PartyState(party_id, data, mask, dom.sample_nonzero(key, "alpha"))


def alice_round1(state: PartyState) -> tuple:
    """(X - a, alpha * a), both f x n_a."""
    masked = mat_sub(state.data, state.mask)
    scaled_mask = mat_scale(state.mask_scalar, state.mask)
    return masked, scaled_mask


def bob_round1(state: PartyState) -> Matrix:
    """Y - b."""
    return mat_sub(state.data, state.mask)


def alice_compute(state: PartyState, bob_masked: Matrix) -> Matrix:
    """A1 = a^T (Y - b), shape n_a x n_b."""
    return gram_t(state.mask, bob_masked)


def bob_compute(state: PartyState, alice_masked: Matrix, alice_scaled_mask: Matrix) -> tuple:
    """B1 = (X - a)^T Y and B2 = (alpha a)^T b."""
    b1 = gram_t(alice_masked, state.data)
    b2 = gram_t(alice_scaled_mask, state.mask)
    return b1, b2


@dataclass(frozen=True)
class PairResult:
    """Function-party inputs for one pair; combines to the exact gram block."""

    alice_id: int
    bob_id: int
    a1: Matrix
    b1: Matrix
    b2: Matrix
    alpha: object


def fp_combine(pr: PairResult) -> Matrix:
    """A1 + B1 + (1/alpha) B2 = X_alice^T X_bob."""
    dom = pr.a1.domain
    if pr.alpha == dom.zero:
        raise ProtocolError(
            f"pair ({pr.alice_id},{pr.bob_id}): zero scalar mask cannot be inverted"
        )
    shapes = {(m.rows, m.cols) for m in (pr.a1, pr.b1, pr.b2)}
    if len(shapes) != 1:
        raise DimensionError(f"pair result blocks disagree in shape: {sorted(shapes)}")
    scaled = dom.array_mul(dom.inv(pr.alpha), pr.b2.data)
    return Matrix(dom.array_add(dom.array_add(pr.a1.data, pr.b1.data), scaled), dom)


def run_pair(alice: PartyState, bob: PartyState) -> PairResult:
    """Execute one pair's message sequence directly (no transport)."""
    alice_masked, alice_scaled = alice_round1(alice)
    bob_masked = bob_round1(bob)
    a1 = alice_compute(alice, bob_masked)
    b1, b2 = bob_compute(bob, alice_masked, alice_scaled)
    return PairResult(alice.party_id, bob.party_id, a1, b1, b2, alice.mask_scalar)


# -- scheduling ----------------------------------------------------------


def pair_schedule(m: int) -> list:
    """All C(m,2) pairs, alice = smaller id, in lexicographic order."""
    if m < 2:
        raise DomainError(f"need at least two input parties, got {m}")
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def pair_rounds(m: int) -> list:
    """Round-robin tournament rounds of pairwise-disjoint pairs.

    Circle method; odd m leaves one party idle per round.  Every pair
    from ``pair_schedule`` appears exactly once across the rounds.
    """
    if m < 2:
        raise DomainError(f"need at least two input parties, got {m}")
    ids = list(range(1, m + 1)) + ([0] if m % 2 else [])  # 0 = bye
    k = len(ids)
    rounds = []
    for _ in range(k - 1):
        rnd = []
        for i in range(k // 2):
            a, b = ids[i], ids[k - 1 - i]
            if a and b:
                rnd.append((min(a, b), max(a, b)))
        rounds.append(sorted(rnd))
        ids = [ids[0]] + [ids[-1]] + ids[1:-1]
    return rounds


# -- assembly ------------------------------------------------------------


def assemble_gram(self_blocks: dict, pair_results: dict) -> Matrix:
    """Stitch self blocks and combined cross blocks into the full gram matrix,
    whose rows and columns run over the parties' samples in party id order.

    ``pair_results`` maps (alice_id, bob_id) to a PairResult (combined
    here) or an already-decoded cross block; block (j, i) is the
    transpose of block (i, j), so the result is symmetric by
    construction.
    """
    party_ids = tuple(sorted(self_blocks))
    for i in party_ids:
        sb = self_blocks[i]
        if sb.rows != sb.cols:
            raise DimensionError(f"party {i} self block is {sb.rows}x{sb.cols}")
    for a_id in party_ids:
        for b_id in party_ids:
            if a_id < b_id and (a_id, b_id) not in pair_results:
                raise ProtocolIncompleteError(f"missing pair result for ({a_id},{b_id})")
    dom = self_blocks[party_ids[0]].domain
    sizes = {i: self_blocks[i].rows for i in party_ids}

    cross = {}
    for (i, j), pr in pair_results.items():
        blk = fp_combine(pr) if isinstance(pr, PairResult) else pr
        if (blk.rows, blk.cols) != (sizes[i], sizes[j]):
            raise DimensionError(
                f"pair ({i},{j}) block is {blk.rows}x{blk.cols}, "
                f"expected {sizes[i]}x{sizes[j]}"
            )
        cross[(i, j)] = blk.data
    grid = [
        [
            self_blocks[i].data if i == j else cross[(i, j)] if i < j else cross[(j, i)].T
            for j in party_ids
        ]
        for i in party_ids
    ]
    return Matrix(np.block(grid), dom)


# -- function-party leakage analysis --------------------------------------


@dataclass(frozen=True)
class LeakageView:
    """Everything the function party can derive from its messages alone.

    Blocks over the concatenation [X_1..X_M, a_1..a_M]: all data-data
    blocks, mask-mask blocks a_i^T a_j for i < j (from B2 / alpha_i), and
    mask-data blocks a_i^T X_j for i < j only (A1 + a_i^T a_j).  The
    function party never sees a mask's self-gram or a mask against its
    own party's data, so the derived gram matrix stays incomplete.
    """

    party_ids: tuple
    data_data: dict  # (i, j), i <= j
    mask_mask: dict  # (i, j), i < j
    mask_data: dict  # (i, j), i < j
    alphas: dict


def leakage_view(self_blocks: dict, pair_results: dict) -> LeakageView:
    party_ids = tuple(sorted(self_blocks))
    data_data = {(i, i): blk for i, blk in self_blocks.items()}
    mask_mask = {}
    mask_data = {}
    alphas = {}
    for (i, j), pr in pair_results.items():
        dom = pr.a1.domain
        alphas[i] = pr.alpha
        data_data[(i, j)] = fp_combine(pr)
        mm = mat_scale(dom.inv(pr.alpha), pr.b2)  # a_i^T a_j = B2 / alpha_i
        mask_mask[(i, j)] = mm
        # a_i^T X_j = A1 + a_i^T a_j  (A1 = a_i^T (X_j - a_j))
        mask_data[(i, j)] = mat_add(pr.a1, mm)
    return LeakageView(party_ids, data_data, mask_mask, mask_data, alphas)


def leakage_availability(m: int) -> list:
    """2m x 2m block grid of what the function party holds.

    Row/column order is [data_1..data_m, mask_1..mask_m]; entry True
    means that gram block is derivable from protocol messages.
    """
    n = 2 * m
    avail = [[False] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            avail[i][j] = True  # data x data, incl. self grams
    for i in range(m):
        for j in range(m):
            if i < j:
                avail[m + i][j] = avail[j][m + i] = True  # mask_i x data_j
                avail[m + i][m + j] = avail[m + j][m + i] = True  # mask_i x mask_j
    return avail


def verify_leakage_view(view: LeakageView, states: dict) -> float:
    """0.0 if every derived block equals the direct private-state gram it stands
    for, else 1.0.  ``states`` maps party id to PartyState.
    """
    for (i, j), derived in view.mask_mask.items():
        if derived != gram_t(states[i].mask, states[j].mask):
            return 1.0
    for (i, j), derived in view.mask_data.items():
        if derived != gram_t(states[i].mask, states[j].data):
            return 1.0
    return 0.0


# -- gram non-invertibility demonstration ---------------------------------


def rotation_nonuniqueness_check(d: np.ndarray, seed: int) -> tuple:
    """Show the gram matrix does not pin down the data matrix.

    Draws a random orthogonal Q (QR of a Gaussian matrix), forms
    E = Q^T D and returns (max |E^T E - D^T D|, max |E - D|, E): the
    residual is numerically zero while the distance is far from it,
    i.e. a whole orbit of matrices shares the same gram matrix.
    """
    d = np.asarray(d, dtype=float)
    f = d.shape[0]
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((f, f)))
    # fix signs so Q is Haar-ish and not accidentally near the identity
    q = q * np.sign(np.diag(r))
    e = q.T @ d
    residual = float(np.max(np.abs(e.T @ e - d.T @ d)))
    distance = float(np.max(np.abs(e - d)))
    return residual, distance, e


def peer_recovery(masked: Matrix, scaled_mask: Matrix, domain) -> tuple:
    """Alice's encoded data X and scalar alpha, from the two messages Bob gets.

    Bob holds M = X - a and S = alpha a, so X = M + t S for the one unknown
    t = 1/alpha.  Take two entries with S_1, S_2 != 0 and c = S_2 / S_1:
    then X_2 - c X_1 = M_2 - c M_1 = d, so (X_1, X_2) lies in the coset
    (0, d) + L of the lattice L = {(u, v): v = c u mod p}, whose volume is
    p.  Fixed-point entries are far below sqrt(p), so (X_1, X_2) is that
    coset's shortest point: Lagrange-Gauss reduction of L's basis, then
    Babai rounding of (0, -d), finds it, in Python ints.  X_1 fixes t.
    So over a field ``escaped`` masks each entry, but not the matrix.  S
    needs two nonzero entries.
    """

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    def round_div(a, b):  # a / b to the nearest int, for any nonzero b
        a, b = (-a, -b) if b < 0 else (a, b)
        return (2 * a + b) // (2 * b)

    p = domain.p
    (m1, s1), (m2, s2) = [
        (int(mv), int(sv)) for mv, sv in zip(masked.data.flat, scaled_mask.data.flat) if sv
    ][:2]
    c = s2 * pow(s1, -1, p) % p
    d = (m2 - c * m1) % p
    b1, b2 = (1, c), (0, p)
    while True:  # Lagrange-Gauss: b1 ends as a shortest vector of L
        if dot(b2, b2) < dot(b1, b1):
            b1, b2 = b2, b1
        q = round_div(dot(b1, b2), dot(b1, b1))
        if q == 0:
            break
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])
    det = b1[0] * b2[1] - b1[1] * b2[0]  # k1, k2: the target (0, -d) in b1, b2, rounded
    k1, k2 = round_div(d * b2[0], det), round_div(-d * b1[0], det)
    x1 = k1 * b1[0] + k2 * b2[0]  # (x1, x2) = (0, d) + the lattice vector nearest (0, -d)
    t = (x1 - m1) * pow(s1, -1, p) % p
    return mat_add(masked, mat_scale(t, scaled_mask)), pow(t, -1, p)
