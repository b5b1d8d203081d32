"""Party session logic: the exact message schedule of every protocol.

The parties form one complete graph over ids 0..m: party 0 is the function
party, 1..m the input parties, and every party's ``Mesh`` holds one channel
to each other id.  ``play_party`` is the one entry of every party, on either
transport: a loopback thread passes it a connected mesh, a TCP worker a
``connect`` that sets the mesh up.  It runs ``run_party`` and hands back
one ``PartyOutcome``: the party's id, the transcript entries of its own
sends, the function party's result, and on failure
``(time.monotonic(), exception)``, recorded before any socket closes.
Hello rule: an input party checks that its data cannot wrap around
(``check_gram_range``), then sends its sample count on every channel in id
order (the function party first).  A peer's hello is the first frame read
from it, read when first needed (``Mesh.peer_size``); the function party
reads every size before it builds its owed table.  Each party draws its
randomness from its own key in ``SessionSpec.key`` and from no other.
Determinism contract: given (keys, config, data), every byte a party sends
and the per-channel order of its frames are fixed, so transcripts from
different transports are comparable frame for frame.

Each protocol is one class in ``PROTOCOLS``.  An instance plays an input
party's pair roles (``act_alice``, ``act_bob``); the class gives the parts
the function party reads (``owed``) and their ``assemble``, its cost forms
(``wire``, ``nominal``) and its verify-time ``leakage_check`` (or None).

Pairwise schedules follow the round-robin rounds of
``masking.pair_rounds``; within a pair the lower id acts first
("Alice"), sending to her peer before reading from it, which keeps every
pair exchange free of send/receive cycles.

The function party receives against one table, ``_owed_parts``, in send
order: per pair in ``pair_rounds`` order, the protocol's parts (Alice's,
then Bob's), and last every party's self gram (n_i, n_i).  It reads one
frame from each entry's owner in that order; each must be that entry, of
its shape, so a lost, repeated, reordered or unknown part fails on arrival
and names its sender, the part sent and the part owed.  Input parties
likewise check each matrix a peer sends against the f x n of its hello.
Every party decodes what it receives through ``decoded``, so a payload that
does not decode names its receiver, sender and kind.  RE Alice checks her
peer's hello count before she draws the pair's randoms: a pair too large
for a frame's 4-byte element count fails at once and names that peer.

This read order cannot deadlock on bounded socket buffers: a party's
round-r sends to the function party depend only on its round-r peer, and
the function party finishes round r before it reads round r+1.  (Reading
all of party 1's parts first can leave party 1 waiting on party 2 while
party 2 is blocked sending a part nobody reads yet.)  A hello read waits
only for its sender to start, as an input party sends its hellos before
anything else.  A party half-closes each channel right after its last frame
there (``Channel.end_sends``, which never blocks, so it adds no wait): to a
peer, its last frame of their pair (RE Bob's is his hello); to the function
party, its self gram.  The receiver reads that end right after the last
frame it needs from the peer (``recv(kind, last=True)``), so that read
never waits either.  So a frame that never comes fails its read at once, a
frame past the last fails as one, and no two parties wait on each other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb, inf

import numpy as np

from . import transport as tp
from .errors import ConfigError, DomainError, FramingError, ProtocolError
from .masking import (
    PairResult,
    alice_compute,
    alice_round1,
    assemble_gram,
    bob_compute,
    bob_round1,
    leakage_view,
    make_party_state,
    pair_rounds,
    pair_schedule,
    verify_leakage_view,
)
from .matrix import Matrix, gram_t
from .scheme import (
    WIRE_RANDOMS,
    WIRE_X_SIDE,
    WIRE_Y_SIDE,
    decode_dot,
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

ESCAPED = "escaped"
RE = "re"
OUTCOME_FILE = "outcome.pickle"  # a TCP party process's outcome, beside its job

# Part labels: the first element of an owed-part key.
SELF, ALPHA, A1, B1, B2 = "self gram", "alpha", "A1", "B1", "B2"
X_SIDE, Y_SIDE = "X-side components", "Y-side components"
_PAIR_PARTS = {tp.PART_A1: A1, tp.PART_B1: B1, tp.PART_B2: B2}
_RE_SIDES = {tp.SIDE_X: X_SIDE, tp.SIDE_Y: Y_SIDE}


@dataclass(frozen=True)
class SessionSpec:
    """One party's view of a run: the shared config and its own stream key.

    ``key`` is the ``seeds.KEY_BYTES``-byte key of the party that holds this
    spec, or None for the function party, which draws nothing.
    """

    protocol: str
    m: int
    features: int
    domain: object
    key: bytes | None


@dataclass
class FunctionPartyResult:
    gram: Matrix  # the pooled gram, from ``masking.assemble_gram``
    self_blocks: dict  # input party id -> its self gram, as the party sent it
    pair_results: dict  # (alice, bob) -> what the protocol's ``assemble`` made of the pair


@dataclass
class PartyOutcome:
    """What one party hands back to the runner, on either transport."""

    party_id: int
    entries: list  # TranscriptEntry of every frame the party sent
    result: FunctionPartyResult | None = None  # the function party's, on success
    failure: tuple | None = None  # (time.monotonic(), exception) if the party failed


def exit_outcome(party_id: int, code: int, stderr: str) -> PartyOutcome:
    """The outcome of a party process that exited with ``code`` and left none: failed at
    -inf, before every recorded failure, as its peers fail on the sockets its exit closes."""
    tail = "".join(stderr.strip().splitlines()[-1:])
    return PartyOutcome(party_id, [], failure=(-inf, ProtocolError(f"exited {code}: {tail}")))


def play_party(spec: SessionSpec, mesh, data: Matrix, record, connect=None) -> PartyOutcome:
    """Run one party to its ``PartyOutcome``, pass that to ``record``, close the mesh.

    ``connect(mesh)``, if given, first fills the empty ``mesh`` with its
    channels; a loopback mesh comes connected.  A failure anywhere, in
    ``connect`` too, ends the party with a failed outcome, which ``record``
    gets before any channel or socket of the mesh closes.
    """
    try:
        if connect is not None:
            connect(mesh)
        result, failure = run_party(spec, mesh, data), None
    except Exception as exc:  # noqa: BLE001 - handed back with the party's id
        result, failure = None, (time.monotonic(), exc)
    outcome = PartyOutcome(mesh.party_id, mesh.transcript.entries, result, failure)
    record(outcome)
    mesh.close()
    return outcome


def run_party(spec: SessionSpec, mesh, data: Matrix = None):
    """Run party ``mesh.party_id`` on its connected ``mesh``.

    Party 0 is the function party; it returns its ``FunctionPartyResult``.
    An input party first checks that no dot product of its data can wrap
    around (``check_gram_range``), then sends the sample count of its
    ``data`` on every channel in id order, and returns None.
    """
    if mesh.party_id == tp.FUNCTION_PARTY_ID:
        return function_party_session(spec, mesh)
    data.domain.check_gram_range(data.data, mesh.party_id)
    for j in sorted(mesh.channels):
        mesh.channels[j].send(tp.HELLO, tp.u64_payload(data.cols))
    input_party_session(spec, data, mesh)
    return None


# -- input party -----------------------------------------------------------


def input_party_session(spec: SessionSpec, data: Matrix, mesh) -> None:
    """Run input party ``mesh.party_id`` to completion, its hellos sent."""
    party_id = mesh.party_id
    runner = protocol_record(spec.protocol)(spec, data, mesh)
    for rnd in pair_rounds(spec.m):
        for a, b in rnd:
            if a == party_id:
                runner.act_alice(b)
            elif b == party_id:
                runner.act_bob(a)
    fp = mesh.channels[tp.FUNCTION_PARTY_ID]
    fp.send(tp.SELF_GRAM, tp.matrix_payload(gram_t(data, data)))
    fp.end_sends()
    fp.recv(tp.DONE)


class _EscapedParty:
    """``escaped``, the masking protocol of ``mpgram.masking``.  The function party
    gets A1 (n_a, n_b) from Alice, plus her alpha (1,) after her first A1, then
    B1 and B2 (n_a, n_b) from Bob.  The round-1 messages do not depend on the
    peer, so they are built and packed once per run: X - a, sent to every peer
    as Alice and as Bob, and alpha a, sent as Alice, which only ids below m are."""

    name = ESCAPED

    def __init__(self, spec, data: Matrix, mesh):
        self.spec = spec
        self.state = make_party_state(mesh.party_id, data, spec.key)
        self.mesh = mesh
        self.alpha_sent = False
        if mesh.party_id < spec.m:
            masked, scaled_mask = alice_round1(self.state)
            self.scaled_mask_payload = tp.matrix_payload(scaled_mask)
        else:
            masked = bob_round1(self.state)
        self.masked_payload = tp.matrix_payload(masked)

    def act_alice(self, bob_id: int):
        ch = self.mesh.channels[bob_id]
        ch.send(tp.MASKED_DATA, self.masked_payload)
        ch.send(tp.MASKED_MASK, self.scaled_mask_payload)
        ch.end_sends()
        y_side = recv_matrix(self.mesh, bob_id, tp.MASKED_DATA, self.spec, last=True)
        a1 = alice_compute(self.state, y_side)
        fp = self.mesh.channels[tp.FUNCTION_PARTY_ID]
        fp.send(tp.PAIR_RESULT, tp.pair_matrix_payload(self.state.party_id, bob_id, tp.PART_A1, a1))
        if not self.alpha_sent:
            fp.send(tp.ALPHA, tp.scalars_payload([self.state.mask_scalar], self.spec.domain))
            self.alpha_sent = True

    def act_bob(self, alice_id: int):
        alice_masked = recv_matrix(self.mesh, alice_id, tp.MASKED_DATA, self.spec)
        alice_scaled = recv_matrix(self.mesh, alice_id, tp.MASKED_MASK, self.spec, last=True)
        self.mesh.channels[alice_id].send(tp.MASKED_DATA, self.masked_payload)
        self.mesh.channels[alice_id].end_sends()
        b1, b2 = bob_compute(self.state, alice_masked, alice_scaled)
        fp = self.mesh.channels[tp.FUNCTION_PARTY_ID]
        me = self.state.party_id
        fp.send(tp.PAIR_RESULT, tp.pair_matrix_payload(alice_id, me, tp.PART_B1, b1))
        fp.send(tp.PAIR_RESULT, tp.pair_matrix_payload(alice_id, me, tp.PART_B2, b2))

    @staticmethod
    def owed(m: int, sizes: dict, f: int) -> dict:
        owed = {}
        for a, b in (pair for rnd in pair_rounds(m) for pair in rnd):
            owed[A1, a, b] = (a, (sizes[a], sizes[b]))
            owed.setdefault((ALPHA, a), (a, (1,)))
            owed[B1, a, b] = owed[B2, a, b] = (b, (sizes[a], sizes[b]))
        return owed

    @staticmethod
    def assemble(dom, got: dict, sizes: dict, f: int) -> dict:
        return {(a, b): PairResult(a, b, got[A1, a, b], got[B1, a, b], got[B2, a, b],
                                   got[ALPHA, a].item())
                for a, b in pair_schedule(len(sizes))}

    @staticmethod
    def wire(m: int, f: int, sizes: tuple) -> tuple:
        # per pair X-a, Y-b and alpha*a among input parties, then A1, B1, B2 (n_a n_b each)
        pairs = list(combinations(sizes, 2))
        data, mask = f * sum(map(sum, pairs)), f * sum(a for a, _ in pairs)
        among = {"masked_data": data, "masked_mask": mask}
        return among, {"pair_result": 3 * sum(a * b for a, b in pairs), "alpha": m - 1}

    @staticmethod
    def nominal(m: int, f: int, n: int) -> tuple:
        return 3 * comb(m, 2) * f * n, 3 * comb(m, 2) * n * n

    @staticmethod
    def leakage_check(data: dict, keys: dict, fp_result: FunctionPartyResult) -> dict:
        """The function party's derived blocks against every party's regenerated masks."""
        states = {i: make_party_state(i, data[i], keys[i]) for i in data}
        view = leakage_view(fp_result.self_blocks, fp_result.pair_results)
        dev = verify_leakage_view(view, states)
        return {"verified": dev == 0.0, "max_deviation": dev}


class _ReParty:
    """``re``, the randomized-encoding baseline: fresh randoms per sample pair.

    The function party gets the X side from Alice and the Y side from Bob,
    flat arrays of n_a n_b f leaves of components.  Alice draws the randoms
    of the pair from her own key in one call, one (n_a, n_b, total_randoms)
    block that reads one stream per sample u (``scheme.pair_randoms``); she
    encodes that block with one call per step, and Bob encodes the
    (n_a, n_b, d, 3) triples he receives with one call.  The frames follow
    the RE wire layout of ``mpgram.scheme``, and each is sent from the
    encoded array's own buffer.
    """

    name = RE
    leakage_check = None

    def __init__(self, spec, data: Matrix, mesh):
        for j in range(1, mesh.party_id):  # Bob to each lower id: his hello was his last frame
            mesh.channels[j].end_sends()
        self.spec = spec
        self.party_id = mesh.party_id
        self.data = data
        self.mesh = mesh
        self.scheme = generate_scheme(spec.features)

    def act_alice(self, bob_id: int):
        spec, scheme = self.spec, self.scheme
        dom = spec.domain
        n_a, n_b = self.data.cols, self.mesh.peer_size(bob_id, last=True)
        if 3 * n_a * n_b * spec.features > tp.MAX_DIM:  # the element count of each of her frames
            raise ProtocolError(
                f"party {bob_id} announced {n_b} samples, too many for a pair with party "
                f"{self.party_id}'s {n_a}: 3 x {n_a} x {n_b} x {spec.features} elements exceed "
                f"the {tp.MAX_DIM} a frame can count"
            )
        randoms = pair_randoms(scheme, dom, spec.key, bob_id, n_a, n_b)
        to_bob = y_random_triples(scheme, randoms)
        x_comps = encode_x_side(dom, self.data.data.T[:, None, :], scheme, randoms)
        to_fp = x_side_wire(x_comps, offline_components(dom, scheme, randoms))
        self.mesh.channels[bob_id].send(
            tp.RE_RANDOMS,
            tp.pair_scalars_payload(self.party_id, bob_id, 0, np.ravel(to_bob), dom),
        )
        self.mesh.channels[bob_id].end_sends()
        self.mesh.channels[tp.FUNCTION_PARTY_ID].send(
            tp.RE_COMPONENTS,
            tp.pair_scalars_payload(self.party_id, bob_id, tp.SIDE_X, np.ravel(to_fp), dom),
        )

    def act_bob(self, alice_id: int):
        spec, scheme = self.spec, self.scheme
        dom = spec.domain
        n_alice = self.mesh.peer_size(alice_id)
        frame = self.mesh.channels[alice_id].recv(tp.RE_RANDOMS, last=True)
        a_id, b_id, _, flat = decoded(frame, tp.pair_scalars_from_payload, dom)
        if (a_id, b_id) != (alice_id, self.party_id):
            raise ProtocolError(f"party {self.party_id} got randoms for pair ({a_id},{b_id})")
        triples = wire_block(
            flat, n_alice, self.data.cols, scheme.d, WIRE_RANDOMS,
            f"randoms of pair ({alice_id},{self.party_id})",
        )
        to_fp = encode_y_side(dom, self.data.data.T, scheme, triples)
        self.mesh.channels[tp.FUNCTION_PARTY_ID].send(
            tp.RE_COMPONENTS,
            tp.pair_scalars_payload(alice_id, self.party_id, tp.SIDE_Y, np.ravel(to_fp), dom),
        )

    @staticmethod
    def owed(m: int, sizes: dict, f: int) -> dict:
        owed = {}
        for a, b in (pair for rnd in pair_rounds(m) for pair in rnd):
            leaves = sizes[a] * sizes[b] * f
            owed[X_SIDE, a, b] = (a, (leaves * len(WIRE_X_SIDE),))
            owed[Y_SIDE, a, b] = (b, (leaves * len(WIRE_Y_SIDE),))
        return owed

    @staticmethod
    def assemble(dom, got: dict, sizes: dict, f: int) -> dict:
        blocks = {}
        for a, b in pair_schedule(len(sizes)):
            x_side = wire_block(got[X_SIDE, a, b], sizes[a], sizes[b], f, WIRE_X_SIDE, X_SIDE)
            y_side = wire_block(got[Y_SIDE, a, b], sizes[a], sizes[b], f, WIRE_Y_SIDE, Y_SIDE)
            x_comps, offline = split_x_side(x_side)
            blocks[a, b] = Matrix(decode_dot(dom, x_comps, y_side, offline), dom)
        return blocks

    @staticmethod
    def wire(m: int, f: int, sizes: tuple) -> tuple:
        # three of the four per-leaf randoms cross between input parties
        pair_products = sum(a * b for a, b in combinations(sizes, 2))
        return {"re_randoms": 3 * f * pair_products}, {"re_components": 5 * f * pair_products}

    @staticmethod
    def nominal(m: int, f: int, n: int) -> tuple:
        return 4 * comb(m, 2) * f * n * n, 5 * comb(m, 2) * f * n * n


PROTOCOLS = {cls.name: cls for cls in (_EscapedParty, _ReParty)}


def protocol_record(name: str) -> type:
    """The class of protocol ``name`` in ``PROTOCOLS``; the one rejection of an unknown name."""
    if name not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {tuple(PROTOCOLS)}, got {name!r}")
    return PROTOCOLS[name]


def recv_matrix(mesh, peer: int, kind: int, spec: SessionSpec, last: bool = False) -> Matrix:
    """A matrix of kind ``kind`` from ``peer``, which must be f x (the peer's hello size);
    ``last`` if it is the peer's last frame on the channel."""
    want = (spec.features, mesh.peer_size(peer))
    m, _ = decoded(mesh.channels[peer].recv(kind, last), tp.matrix_from_payload, spec.domain)
    if (m.rows, m.cols) != want:
        a, b = sorted((mesh.party_id, peer))
        raise ProtocolError(
            f"{tp.KIND_NAMES[kind]} of pair ({a},{b}) from party {peer} has shape "
            f"{(m.rows, m.cols)}, expected {want}"
        )
    return m


def decoded(frame, decode, *args):
    """``decode(frame.payload, *args)``; a payload that does not decode is a
    ProtocolError that names its receiver, sender and kind."""
    try:
        return decode(frame.payload, *args)
    except (FramingError, DomainError) as exc:
        kind = tp.KIND_NAMES[frame.kind]
        raise ProtocolError(
            f"party {frame.receiver} cannot decode the {kind} from party {frame.sender}: {exc}"
        ) from None


# -- function party ----------------------------------------------------------


def function_party_session(spec: SessionSpec, mesh) -> FunctionPartyResult:
    """Read every hello, then every part the input parties owe, in ``_owed_parts`` order,
    each self gram as its sender's last frame; then assemble the gram."""
    dom, got = spec.domain, {}
    sizes = {i: mesh.peer_size(i) for i in sorted(mesh.channels)}
    for key, (i, want) in _owed_parts(spec, sizes).items():
        sent, value, shape = _read_part(mesh.channels[i].recv(last=key[0] == SELF), dom)
        what = _part_name(key)
        if sent != key:
            raise ProtocolError(f"party {i} sent {_part_name(sent)}, expected {what}")
        if shape != want:
            raise ProtocolError(f"{what} from party {i} has shape {shape}, expected {want}")
        got[key] = value

    self_blocks = {i: got[SELF, i] for i in range(1, spec.m + 1)}
    pair_results = protocol_record(spec.protocol).assemble(dom, got, sizes, spec.features)
    gram = assemble_gram(self_blocks, pair_results)
    for i in range(1, spec.m + 1):
        mesh.channels[i].send(tp.DONE, b"")
    return FunctionPartyResult(gram, self_blocks, pair_results)


def _owed_parts(spec: SessionSpec, sizes: dict) -> dict:
    """Every part the input parties owe the function party, in send order: key -> (owner, shape).

    Keys are ``(label, party)`` or ``(label, alice, bob)``: the protocol's ``owed``
    over the hello sizes ``sizes``, then the self grams; see the module docstring.
    """
    owed = protocol_record(spec.protocol).owed(spec.m, sizes, spec.features)
    owed.update({(SELF, i): (i, (sizes[i], sizes[i])) for i in sorted(sizes)})
    return owed


def _part_name(key: tuple) -> str:
    label, *ids = key
    return f"{label} of pair ({ids[0]},{ids[1]})" if len(ids) == 2 else f"{label} of party {ids[0]}"


def _read_part(frame, dom) -> tuple:
    """(key, value, shape) of one inbound frame, keyed as in ``_owed_parts``; a frame
    of no part a party owes, such as a part or side tag without a label, gets a key
    no owed part has."""
    if frame.kind == tp.PAIR_RESULT:
        a, b, part, m = decoded(frame, tp.pair_matrix_from_payload, dom)
        return (_PAIR_PARTS.get(part, f"pair-result part {part}"), a, b), m, (m.rows, m.cols)
    if frame.kind == tp.RE_COMPONENTS:
        a, b, side, xs = decoded(frame, tp.pair_scalars_from_payload, dom)
        return (_RE_SIDES.get(side, f"RE component side {side}"), a, b), xs, xs.shape
    if frame.kind == tp.ALPHA:
        xs, _ = decoded(frame, tp.scalars_from_payload, dom)
        return (ALPHA, frame.sender), xs, xs.shape
    if frame.kind == tp.SELF_GRAM:
        m, _ = decoded(frame, tp.matrix_from_payload, dom)
        return (SELF, frame.sender), m, (m.rows, m.cols)
    return (tp.KIND_NAMES[frame.kind], frame.sender), None, None


# -- meshes ------------------------------------------------------------------


class Mesh:
    """One party's channels to every other party id (0 is the function party),
    the transcript of its sends, the sample counts read from its peers' hellos,
    and the other sockets its setup opened, which ``close`` closes with the channels."""

    def __init__(self, party_id: int, channels: dict, transcript=None):
        self.party_id = party_id
        self.channels = channels
        self.transcript = transcript
        self.n_by_peer = {}
        self.sockets = []

    def peer_size(self, j: int, last: bool = False) -> int:
        """Input party ``j``'s sample count, from its hello, the first frame read from it
        and read on first need; ``last`` if it is ``j``'s last frame on the channel.
        A count must be at least 1 and at most ``transport.MAX_DIM``."""
        if j not in self.n_by_peer:
            n = decoded(self.channels[j].recv(tp.HELLO, last), tp.u64_from_payload)
            if n < 1:
                raise ProtocolError(f"party {j} announced {n} samples; empty parties are rejected")
            if n > tp.MAX_DIM:
                raise ProtocolError(f"party {j} announced {n} samples, more than the "
                                    f"{tp.MAX_DIM} columns a matrix frame can carry")
            self.n_by_peer[j] = n
        return self.n_by_peer[j]

    def close(self):
        for sock in [*self.channels.values(), *self.sockets]:
            sock.close()


def build_loopback_meshes(m: int) -> dict:
    """One ``socket.socketpair()`` per pair of ids 0..m; returns {party_id: Mesh}.

    Sends block on a full socket buffer just as over TCP.  Each party records
    its sends into a transcript of its own.  Hellos are left to ``run_party``
    so frames are recorded in each sender's own order.
    """
    meshes = {i: Mesh(i, {}, tp.Transcript()) for i in range(m + 1)}
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            a, b = tp.loopback_pair()
            meshes[i].channels[j] = tp.Channel(a, i, j, meshes[i].transcript)
            meshes[j].channels[i] = tp.Channel(b, j, i, meshes[j].transcript)
    return meshes
