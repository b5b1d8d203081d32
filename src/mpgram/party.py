"""Party session logic: the exact message schedule of both protocols.

The same session functions drive in-process loopback runs and TCP
worker processes; only the mesh (channel setup) differs.  Determinism
contract: given (run seed, config, data), every byte a party sends and
the per-channel order of its frames are fixed, so transcripts from
different transports are comparable frame for frame.

Pairwise schedules follow the round-robin rounds of
``masking.pair_rounds``; within a pair the lower id acts first
("Alice"), sending its masked data before reading the peer's, which
keeps every pair exchange free of send/receive cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport as tp
from .costs import ESCAPED, RE
from .errors import ProtocolError, ProtocolIncompleteError
from .masking import (
    GramAssembly,
    PairResult,
    PartyState,
    alice_compute,
    alice_round1,
    assemble_gram,
    bob_compute,
    bob_round1,
    make_party_state,
    pair_rounds,
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


@dataclass(frozen=True)
class SessionSpec:
    protocol: str
    m: int
    features: int
    domain: object
    run_seed: int


@dataclass
class FunctionPartyResult:
    assembly: GramAssembly
    pair_results: dict | None  # masking protocol only

    def to_doc(self) -> dict:
        """JSON form, in which a TCP function-party worker hands its result back."""
        asm = self.assembly
        doc = {
            "party_ids": list(asm.party_ids),
            "sizes": list(asm.sizes),
            "gram": asm.full.data.tolist(),
        }
        if self.pair_results is not None:
            doc["pair_results"] = [
                {
                    "alice": pr.alice_id,
                    "bob": pr.bob_id,
                    "a1": pr.a1.data.tolist(),
                    "b1": pr.b1.data.tolist(),
                    "b2": pr.b2.data.tolist(),
                    "alpha": pr.alpha,
                }
                for pr in self.pair_results.values()
            ]
        return doc

    @staticmethod
    def from_doc(doc: dict, domain) -> "FunctionPartyResult":
        full = Matrix(doc["gram"], domain)
        assembly = GramAssembly(tuple(doc["party_ids"]), tuple(doc["sizes"]), full)
        pair_results = None
        if "pair_results" in doc:
            pair_results = {
                (pr["alice"], pr["bob"]): PairResult(
                    pr["alice"],
                    pr["bob"],
                    *(Matrix(pr[part], domain) for part in ("a1", "b1", "b2")),
                    pr["alpha"],
                )
                for pr in doc["pair_results"]
            }
        return FunctionPartyResult(assembly, pair_results)


def expected_fp_frames(protocol: str, m: int, party_id: int) -> int:
    """Frames the function party will receive from one input party (post-hello)."""
    alice_pairs = m - party_id
    bob_pairs = party_id - 1
    if protocol == ESCAPED:
        return alice_pairs + (1 if alice_pairs else 0) + 2 * bob_pairs + 1
    if protocol == RE:
        return alice_pairs + bob_pairs + 1
    raise ProtocolError(f"unknown protocol {protocol!r}")


# -- input party -----------------------------------------------------------


def input_party_session(spec: SessionSpec, party_id: int, data: Matrix, mesh) -> None:
    """Run one input party to completion.  ``mesh`` has already exchanged hellos."""
    if spec.protocol == ESCAPED:
        state = make_party_state(party_id, data, spec.run_seed)
        runner = _EscapedParty(spec, state, mesh)
    elif spec.protocol == RE:
        runner = _ReParty(spec, party_id, data, mesh)
    else:
        raise ProtocolError(f"unknown protocol {spec.protocol!r}")

    for rnd in pair_rounds(spec.m):
        for a, b in rnd:
            if a == party_id:
                runner.act_alice(b)
            elif b == party_id:
                runner.act_bob(a)
    self_gram = gram_t(data, data)
    mesh.fp_channel.send(tp.SELF_GRAM, tp.matrix_payload(self_gram))
    mesh.fp_channel.recv(tp.DONE)


class _EscapedParty:
    def __init__(self, spec, state: PartyState, mesh):
        self.spec = spec
        self.state = state
        self.mesh = mesh
        self.alpha_sent = False

    def act_alice(self, bob_id: int):
        ch = self.mesh.peer_channels[bob_id]
        masked, scaled_mask = alice_round1(self.state)
        ch.send(tp.MASKED_DATA, tp.matrix_payload(masked))
        ch.send(tp.MASKED_MASK, tp.matrix_payload(scaled_mask))
        bob_masked, _ = tp.matrix_from_payload(
            ch.recv(tp.MASKED_DATA).payload, self.spec.domain
        )
        a1 = alice_compute(self.state, bob_masked)
        self.mesh.fp_channel.send(
            tp.PAIR_RESULT,
            tp.pair_matrix_payload(self.state.party_id, bob_id, tp.PART_A1, a1),
        )
        if not self.alpha_sent:
            self.mesh.fp_channel.send(
                tp.ALPHA,
                tp.scalars_payload([self.state.mask_scalar], self.spec.domain),
            )
            self.alpha_sent = True

    def act_bob(self, alice_id: int):
        ch = self.mesh.peer_channels[alice_id]
        alice_masked, _ = tp.matrix_from_payload(
            ch.recv(tp.MASKED_DATA).payload, self.spec.domain
        )
        alice_scaled, _ = tp.matrix_from_payload(
            ch.recv(tp.MASKED_MASK).payload, self.spec.domain
        )
        ch.send(tp.MASKED_DATA, tp.matrix_payload(bob_round1(self.state)))
        b1, b2 = bob_compute(self.state, alice_masked, alice_scaled)
        fp = self.mesh.fp_channel
        me = self.state.party_id
        fp.send(tp.PAIR_RESULT, tp.pair_matrix_payload(alice_id, me, tp.PART_B1, b1))
        fp.send(tp.PAIR_RESULT, tp.pair_matrix_payload(alice_id, me, tp.PART_B2, b2))


class _ReParty:
    """Randomized-encoding role: fresh randoms per sample pair, components to FP.

    Alice works one of her samples at a time: the randoms of that sample
    against every Bob sample form one (n_b, total_randoms) block.  The frames
    follow the RE wire layout of ``mpgram.scheme``.
    """

    def __init__(self, spec, party_id: int, data: Matrix, mesh):
        self.spec = spec
        self.party_id = party_id
        self.data = data
        self.mesh = mesh
        self.scheme = generate_scheme(spec.features)

    def act_alice(self, bob_id: int):
        spec, scheme = self.spec, self.scheme
        dom = spec.domain
        bob_samples = range(self.mesh.n_by_peer[bob_id])
        to_bob, to_fp = [], []
        for u in range(self.data.cols):
            randoms = pair_randoms(
                scheme, dom, spec.run_seed, self.party_id, bob_id, u, bob_samples
            )
            to_bob.append(y_random_triples(scheme, randoms))
            x_comps = encode_x_side(dom, self.data.data[:, u], scheme, randoms)
            to_fp.append(x_side_wire(x_comps, offline_components(dom, scheme, randoms)))
        self.mesh.peer_channels[bob_id].send(
            tp.RE_RANDOMS,
            tp.pair_scalars_payload(self.party_id, bob_id, 0, np.ravel(to_bob), dom),
        )
        self.mesh.fp_channel.send(
            tp.RE_COMPONENTS,
            tp.pair_scalars_payload(self.party_id, bob_id, tp.SIDE_X, np.ravel(to_fp), dom),
        )

    def act_bob(self, alice_id: int):
        spec, scheme = self.spec, self.scheme
        dom = spec.domain
        frame = self.mesh.peer_channels[alice_id].recv(tp.RE_RANDOMS)
        a_id, b_id, _, flat = tp.pair_scalars_from_payload(frame.payload, dom)
        if (a_id, b_id) != (alice_id, self.party_id):
            raise ProtocolError(
                f"party {self.party_id} got randoms for pair ({a_id},{b_id})"
            )
        triples = wire_block(
            flat, self.mesh.n_by_peer[alice_id], self.data.cols, scheme.d, WIRE_RANDOMS,
            f"randoms of pair ({alice_id},{self.party_id})",
        )
        y = self.data.data.T
        to_fp = [encode_y_side(dom, y, scheme, row) for row in triples]
        self.mesh.fp_channel.send(
            tp.RE_COMPONENTS,
            tp.pair_scalars_payload(alice_id, self.party_id, tp.SIDE_Y, np.ravel(to_fp), dom),
        )


# -- function party ----------------------------------------------------------


def function_party_session(spec: SessionSpec, mesh) -> FunctionPartyResult:
    """Drain every input party's frames, then assemble the gram matrix."""
    dom = spec.domain
    inv = {
        "a1": {},
        "b1": {},
        "b2": {},
        "alpha": {},
        "self": {},
        "x_side": {},
        "y_side": {},
    }
    for i in range(1, spec.m + 1):
        ch = mesh.peer_channels[i]
        for _ in range(expected_fp_frames(spec.protocol, spec.m, i)):
            frame = ch.recv()
            _dispatch_fp_frame(frame, dom, inv)

    self_blocks = inv["self"]
    for i in range(1, spec.m + 1):
        if i not in self_blocks:
            raise ProtocolIncompleteError(f"missing self gram from party {i}")

    pair_results = None
    if spec.protocol == ESCAPED:
        pair_results = {}
        for i in range(1, spec.m + 1):
            for j in range(i + 1, spec.m + 1):
                for part, store in (("A1", inv["a1"]), ("B1", inv["b1"]), ("B2", inv["b2"])):
                    if (i, j) not in store:
                        raise ProtocolIncompleteError(f"missing {part} for pair ({i},{j})")
                if i not in inv["alpha"]:
                    raise ProtocolIncompleteError(f"missing alpha from party {i}")
                pair_results[(i, j)] = PairResult(
                    i, j, inv["a1"][(i, j)], inv["b1"][(i, j)], inv["b2"][(i, j)], inv["alpha"][i]
                )
        assembly = assemble_gram(self_blocks, pair_results)
    else:
        cross_blocks = {}
        for i in range(1, spec.m + 1):
            for j in range(i + 1, spec.m + 1):
                if (i, j) not in inv["x_side"] or (i, j) not in inv["y_side"]:
                    raise ProtocolIncompleteError(f"missing components for pair ({i},{j})")
                cross_blocks[(i, j)] = _decode_re_block(
                    dom,
                    spec.features,
                    mesh.n_by_peer[i],
                    mesh.n_by_peer[j],
                    inv["x_side"][(i, j)],
                    inv["y_side"][(i, j)],
                )
        assembly = assemble_gram(self_blocks, cross_blocks)

    for i in range(1, spec.m + 1):
        mesh.peer_channels[i].send(tp.DONE, b"")
    return FunctionPartyResult(assembly, pair_results)


_PAIR_PARTS = {tp.PART_A1: "a1", tp.PART_B1: "b1", tp.PART_B2: "b2"}


def _dispatch_fp_frame(frame, dom, inv):
    """Keep one inbound frame's content in ``inv``.

    A frame is rejected when its pair part or side tag is unknown, when it
    does not come from the party that owns it (Alice for A1 and the X side,
    Bob for B1, B2 and the Y side), or when it repeats a part already held.
    """
    if frame.kind == tp.PAIR_RESULT:
        a, b, part, m = tp.pair_matrix_from_payload(frame.payload, dom)
        store = _PAIR_PARTS.get(part)
        if store is None:
            raise ProtocolError(f"unknown pair-result part {part}")
        owner = a if part == tp.PART_A1 else b
        _keep_once(frame, inv[store], (a, b), m, owner, f"{store.upper()} of pair ({a},{b})")
    elif frame.kind == tp.ALPHA:
        xs, _ = tp.scalars_from_payload(frame.payload, dom)
        _keep_once(frame, inv["alpha"], frame.sender, xs[0], frame.sender, "alpha")
    elif frame.kind == tp.SELF_GRAM:
        m, _ = tp.matrix_from_payload(frame.payload, dom)
        _keep_once(frame, inv["self"], frame.sender, m, frame.sender, "self gram")
    elif frame.kind == tp.RE_COMPONENTS:
        a, b, side, xs = tp.pair_scalars_from_payload(frame.payload, dom)
        if side == tp.SIDE_X:
            store, owner, name = "x_side", a, "X"
        elif side == tp.SIDE_Y:
            store, owner, name = "y_side", b, "Y"
        else:
            raise ProtocolError(f"unknown RE component side {side} for pair ({a},{b})")
        what = f"{name}-side components of pair ({a},{b})"
        _keep_once(frame, inv[store], (a, b), xs, owner, what)
    else:
        raise ProtocolError(
            f"function party got unexpected {tp.KIND_NAMES.get(frame.kind, hex(frame.kind))}"
        )


def _keep_once(frame, store: dict, key, value, owner: int, what: str):
    if frame.sender != owner:
        raise ProtocolError(f"{what} came from party {frame.sender}, expected party {owner}")
    if key in store:
        raise ProtocolError(f"duplicate {what} from party {frame.sender}")
    store[key] = value


def _decode_re_block(dom, f: int, n_a: int, n_b: int, x_flat, y_flat) -> Matrix:
    x_side = wire_block(x_flat, n_a, n_b, f, WIRE_X_SIDE, "X-side components")
    y_side = wire_block(y_flat, n_a, n_b, f, WIRE_Y_SIDE, "Y-side components")
    rows = []
    for x_row, y_row in zip(x_side, y_side):
        x_comps, offline = split_x_side(x_row)
        rows.append(decode_dot(dom, x_comps, y_row, offline))
    return Matrix(np.stack(rows), dom)


# -- meshes ------------------------------------------------------------------


class Mesh:
    """Connected channels of one party, with peer sample counts."""

    def __init__(self, party_id: int, peer_channels: dict, fp_channel):
        self.party_id = party_id
        self.peer_channels = peer_channels
        self.fp_channel = fp_channel
        self.n_by_peer = {}

    def close(self):
        for ch in self.peer_channels.values():
            ch.close()
        if self.fp_channel is not None:
            self.fp_channel.close()


def check_hello_size(peer_id: int, n: int) -> int:
    if n < 1:
        raise ProtocolError(f"party {peer_id} announced {n} samples; empty parties are rejected")
    return n


def ip_hello_phase(mesh: Mesh, n_samples: int):
    """Announce sizes: one hello to the function party, one per peer, then read."""
    mesh.fp_channel.send(tp.HELLO, tp.u64_payload(n_samples))
    for j in sorted(mesh.peer_channels):
        mesh.peer_channels[j].send(tp.HELLO, tp.u64_payload(n_samples))
    for j in sorted(mesh.peer_channels):
        frame = mesh.peer_channels[j].recv(tp.HELLO)
        mesh.n_by_peer[j] = check_hello_size(j, tp.u64_from_payload(frame.payload))


def fp_hello_phase(mesh: Mesh):
    for i in sorted(mesh.peer_channels):
        frame = mesh.peer_channels[i].recv(tp.HELLO)
        mesh.n_by_peer[i] = check_hello_size(i, tp.u64_from_payload(frame.payload))


def build_loopback_meshes(m: int, transcript) -> tuple:
    """All-pairs loopback wiring for m input parties plus the function party.

    Returns ({party_id: Mesh}, fp_mesh); hello phases are left to the
    party tasks so frames are recorded in each sender's own order.
    """
    from .transport import Channel, loopback_pair

    ip_meshes = {i: Mesh(i, {}, None) for i in range(1, m + 1)}
    fp_mesh = Mesh(tp.FUNCTION_PARTY_ID, {}, None)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            e1, e2 = loopback_pair()
            ip_meshes[i].peer_channels[j] = Channel(e1, i, j, transcript)
            ip_meshes[j].peer_channels[i] = Channel(e2, j, i, transcript)
        e_ip, e_fp = loopback_pair()
        ip_meshes[i].fp_channel = Channel(e_ip, i, tp.FUNCTION_PARTY_ID, transcript)
        fp_mesh.peer_channels[i] = Channel(e_fp, tp.FUNCTION_PARTY_ID, i, transcript)
    return ip_meshes, fp_mesh
