"""Mesh shape, the function party's read order, and inbound frame validation
at arrival, driven by scripted peers.

The function party is fed scripted input parties; an input party is fed a
scripted peer.
"""

import hashlib
import re
import threading
from itertools import combinations
from math import comb

import numpy as np
import pytest

from mpgram import transport as tp
from mpgram.cli import EXIT_OK, main
from mpgram.errors import EncodingOverflowError, ProtocolError, TransportError
from mpgram.field import FieldDomain
from mpgram.masking import pair_rounds, pair_schedule
from mpgram.matrix import Matrix, gram_t
from mpgram.party import (
    B1,
    PROTOCOLS,
    Mesh,
    SessionSpec,
    _owed_parts,
    _read_part,
    build_loopback_meshes,
    function_party_session,
    input_party_session,
    play_party,
    recv_matrix,
)
from mpgram.runner import RunConfig, run
from mpgram.scheme import (
    encode_x_side,
    encode_y_side,
    generate_scheme,
    offline_components,
    x_side_wire,
    y_random_triples,
)
from mpgram.seeds import party_key
from payloads import joined

m61 = FieldDomain()
ONE = Matrix([[1]], m61)
TALL = Matrix([[1], [1]], m61)
WIDE = Matrix([[1, 1]], m61)
SQUARE = Matrix([[1, 0], [0, 1]], m61)


class ScriptedChannel:
    """Hands the function party a fixed list of frames from one input party."""

    def __init__(self, frames):
        self.frames = list(frames)

    def recv(self, expect_kind=None, last=False):
        if not self.frames:
            raise TransportError("script exhausted")
        return self.frames.pop(0)

    def send(self, kind, payload):
        pass

    def end_sends(self):
        pass


def frame(kind, sender, payload):
    return tp.Frame(kind, sender, tp.FUNCTION_PARTY_ID, joined(payload))


def part(sender, tag, m=ONE, pair=(1, 2)):
    return frame(tp.PAIR_RESULT, sender, tp.pair_matrix_payload(*pair, tag, m))


def alpha(sender, xs=(3,)):
    return frame(tp.ALPHA, sender, tp.scalars_payload(list(xs), m61))


def self_gram(sender, m=ONE):
    return frame(tp.SELF_GRAM, sender, tp.matrix_payload(m))


def side(sender, tag, count):
    return frame(tp.RE_COMPONENTS, sender, tp.pair_scalars_payload(1, 2, tag, [1] * count, m61))


def x_side(sender):
    return side(sender, tp.SIDE_X, 3)


def y_side(sender):
    return side(sender, tp.SIDE_Y, 2)


# Valid scripts for M=2, f=1, one sample each: party 1 is Alice, party 2 Bob.
VALID = {
    "escaped": (
        [part(1, tp.PART_A1), alpha(1), self_gram(1)],
        [part(2, tp.PART_B1), part(2, tp.PART_B2), self_gram(2)],
    ),
    "re": ([x_side(1), self_gram(1)], [y_side(2), self_gram(2)]),
}


def run_fp(protocol, party1, party2):
    channels = {1: ScriptedChannel(party1), 2: ScriptedChannel(party2)}
    mesh = Mesh(tp.FUNCTION_PARTY_ID, channels)
    mesh.n_by_peer = {1: 1, 2: 1}
    return function_party_session(SessionSpec(protocol, 2, 1, m61, None), mesh)


@pytest.mark.parametrize("protocol", sorted(VALID))
def test_valid_script_assembles(protocol):
    result = run_fp(protocol, *VALID[protocol])
    assert result.gram.data.shape == (2, 2)


ESC_ALICE, ESC_BOB = VALID["escaped"]
RE_BOB = VALID["re"][1]


@pytest.mark.parametrize(
    "protocol, party1, party2, what, shape, want",
    [
        ("escaped", [part(1, tp.PART_A1, TALL), alpha(1), self_gram(1)], ESC_BOB,
         "A1 of pair (1,2) from party 1", (2, 1), (1, 1)),
        ("escaped", ESC_ALICE, [part(2, tp.PART_B1, WIDE), part(2, tp.PART_B2), self_gram(2)],
         "B1 of pair (1,2) from party 2", (1, 2), (1, 1)),
        ("escaped", ESC_ALICE, [part(2, tp.PART_B1), part(2, tp.PART_B2, TALL), self_gram(2)],
         "B2 of pair (1,2) from party 2", (2, 1), (1, 1)),
        ("escaped", ESC_ALICE, [part(2, tp.PART_B1), part(2, tp.PART_B2), self_gram(2, SQUARE)],
         "self gram of party 2 from party 2", (2, 2), (1, 1)),
        ("escaped", [part(1, tp.PART_A1), alpha(1, ()), self_gram(1)], ESC_BOB,
         "alpha of party 1 from party 1", (0,), (1,)),
        ("escaped", [part(1, tp.PART_A1), alpha(1, (3, 4)), self_gram(1)], ESC_BOB,
         "alpha of party 1 from party 1", (2,), (1,)),
        ("re", [side(1, tp.SIDE_X, 2), self_gram(1)], RE_BOB,
         "X-side components of pair (1,2) from party 1", (2,), (3,)),
    ],
    ids=["a1", "b1", "b2", "self-gram", "alpha-empty", "alpha-two", "short-x-side"],
)
def test_wrong_shape_rejected_on_arrival(protocol, party1, party2, what, shape, want):
    message = f"{what} has shape {shape}, expected {want}"
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        run_fp(protocol, party1, party2)


# one check on arrival: each frame must be the next part its sender owes
@pytest.mark.parametrize(
    "protocol, party1, party2, message",
    [
        # a part from the party that does not owe it
        ("escaped", ESC_ALICE, [part(2, tp.PART_A1), part(2, tp.PART_B2), self_gram(2)],
         "party 2 sent A1 of pair (1,2), expected B1 of pair (1,2)"),
        ("escaped", [part(1, tp.PART_B1), alpha(1), self_gram(1)],
         [part(2, tp.PART_A1), part(2, tp.PART_B2), self_gram(2)],
         "party 1 sent B1 of pair (1,2), expected A1 of pair (1,2)"),
        ("escaped", [part(1, tp.PART_B2), alpha(1), self_gram(1)],
         [part(2, tp.PART_A1), part(2, tp.PART_B1), self_gram(2)],
         "party 1 sent B2 of pair (1,2), expected A1 of pair (1,2)"),
        ("re", [y_side(1), self_gram(1)], [x_side(2), self_gram(2)],
         "party 1 sent Y-side components of pair (1,2), expected X-side components of pair (1,2)"),
        ("re", [x_side(1), self_gram(1)], [x_side(2), self_gram(2)],
         "party 2 sent X-side components of pair (1,2), expected Y-side components of pair (1,2)"),
        # a repeated part
        ("escaped", [part(1, tp.PART_A1), part(1, tp.PART_A1), self_gram(1)], ESC_BOB,
         "party 1 sent A1 of pair (1,2), expected alpha of party 1"),
        ("escaped", [part(1, tp.PART_A1), alpha(1), alpha(1)], ESC_BOB,
         "party 1 sent alpha of party 1, expected self gram of party 1"),
        ("escaped", [part(1, tp.PART_A1), self_gram(1), self_gram(1)], ESC_BOB,
         "party 1 sent self gram of party 1, expected alpha of party 1"),
        ("re", [x_side(1), x_side(1)], RE_BOB,
         "party 1 sent X-side components of pair (1,2), expected self gram of party 1"),
        # a part no party owes, or a tag without a label
        ("escaped", [part(1, tp.PART_A1, pair=(1, 3)), alpha(1), self_gram(1)], ESC_BOB,
         "party 1 sent A1 of pair (1,3), expected A1 of pair (1,2)"),
        ("re", [x_side(1), alpha(1)], RE_BOB,
         "party 1 sent alpha of party 1, expected self gram of party 1"),
        ("re", [side(1, 7, 3), self_gram(1)], RE_BOB,
         "party 1 sent RE component side 7 of pair (1,2), expected X-side components of pair (1,2)"),
        # a reordered part, and a lost one
        ("escaped", ESC_ALICE, [part(2, tp.PART_B2), part(2, tp.PART_B1), self_gram(2)],
         "party 2 sent B2 of pair (1,2), expected B1 of pair (1,2)"),
        ("escaped", [alpha(1), self_gram(1)], ESC_BOB,
         "party 1 sent alpha of party 1, expected A1 of pair (1,2)"),
    ],
    ids=["a1-from-bob", "b1-from-alice", "b2-from-alice", "y-from-alice", "x-from-bob",
         "repeated-pair-part", "repeated-alpha", "repeated-self-gram", "repeated-re-side",
         "pair-outside-schedule", "alpha-in-re-run", "unknown-re-side",
         "swapped-b1-b2", "dropped-a1"],
)
def test_part_other_than_the_next_owed_rejected(protocol, party1, party2, message):
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        run_fp(protocol, party1, party2)


# -- input parties: masked matrices must match the sender's hello ------------

F = 2  # features of the input-party scripts; every party has one sample
COLUMN = Matrix([[1]] * F, m61)


def masked(kind, sender, m):
    return tp.Frame(kind, sender, 3 - sender, joined(tp.matrix_payload(m)))


def run_ip(party_id, peer_frames):
    """Party ``party_id`` of an M=2 masking run whose peer sends ``peer_frames``."""
    peer = 3 - party_id
    mesh = Mesh(party_id, {tp.FUNCTION_PARTY_ID: ScriptedChannel([]), peer: ScriptedChannel(peer_frames)})
    mesh.n_by_peer = {peer: 1}
    input_party_session(SessionSpec("escaped", 2, F, m61, party_key(0, party_id)), COLUMN, mesh)


@pytest.mark.parametrize(
    "party_id, peer_frames, kind, shape",
    [
        (1, [masked(tp.MASKED_DATA, 2, Matrix([[1, 1]] * F, m61))], "masked_data", (F, 2)),
        (1, [masked(tp.MASKED_DATA, 2, Matrix([[1]] * (F + 1), m61))], "masked_data", (F + 1, 1)),
        (2, [masked(tp.MASKED_DATA, 1, Matrix([[1, 1]] * F, m61)),
             masked(tp.MASKED_MASK, 1, COLUMN)], "masked_data", (F, 2)),
        (2, [masked(tp.MASKED_DATA, 1, COLUMN),
             masked(tp.MASKED_MASK, 1, Matrix([[1, 1]] * F, m61))], "masked_mask", (F, 2)),
    ],
    ids=["alice-gets-wrong-n", "alice-gets-wrong-f", "bob-gets-wrong-data", "bob-gets-wrong-mask"],
)
def test_input_party_rejects_misshapen_masked_matrix(party_id, peer_frames, kind, shape):
    peer = 3 - party_id
    message = f"{kind} of pair (1,2) from party {peer} has shape {shape}, expected ({F}, 1)"
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        run_ip(party_id, peer_frames)


# -- mesh shape: one complete graph over ids 0..m ------------------------------


@pytest.mark.parametrize("m", [2, 5])
def test_loopback_meshes_form_one_complete_graph(m):
    meshes = build_loopback_meshes(m)
    ids = set(range(m + 1))
    assert set(meshes) == ids
    for i, mesh in meshes.items():
        assert mesh.party_id == i
        assert set(mesh.channels) == ids - {i}
        assert all((ch.local_id, ch.peer_id) == (i, j) for j, ch in mesh.channels.items())

    sizes = {i: i + 1 for i in range(1, m + 1)}

    def hellos(mesh):  # an input party's hellos, as ``run_party`` sends them; then every size
        for j in sorted(mesh.channels) if mesh.party_id else ():
            mesh.channels[j].send(tp.HELLO, tp.u64_payload(sizes[mesh.party_id]))
        for j in sorted(set(mesh.channels) - {tp.FUNCTION_PARTY_ID}):
            mesh.peer_size(j)

    threads = [threading.Thread(target=hellos, args=(meshes[i],)) for i in meshes]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert meshes[tp.FUNCTION_PARTY_ID].n_by_peer == sizes
    for i in range(1, m + 1):
        assert meshes[i].n_by_peer == {j: n for j, n in sizes.items() if j != i}
    for i, mesh in meshes.items():  # each input party's own transcript holds its m hellos
        assert [e.kind for e in mesh.transcript.entries] == [tp.HELLO] * (m if i else 0)
    for mesh in meshes.values():
        mesh.close()


# -- read order: the function party reads in the order parties send -----------


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_owed_parts_are_in_each_partys_send_order(monkeypatch, protocol, m):
    sent = {}  # (sender, payload sha as in the transcript) -> frame to the function party
    send = tp.Channel.send

    def recording_send(self, kind, payload):
        if self.peer_id == tp.FUNCTION_PARTY_ID:
            sha = hashlib.sha256(joined(payload)).hexdigest()[:16]
            sent[self.local_id, sha] = frame(kind, self.local_id, payload)
        send(self, kind, payload)

    monkeypatch.setattr(tp.Channel, "send", recording_send)
    samples = tuple(range(m, 0, -1))
    res = run(RunConfig(protocol=protocol, m=m, features=2, samples=samples, verify=False))
    owed = _owed_parts(SessionSpec(protocol, m, 2, m61, None), dict(enumerate(samples, 1)))
    for i in range(1, m + 1):
        to_fp = sorted(
            (e for e in res.transcript.entries
             if (e.sender, e.receiver) == (i, tp.FUNCTION_PARTY_ID) and e.kind != tp.HELLO),
            key=lambda e: e.seq,
        )
        sent_keys = [_read_part(sent[i, e.payload_sha], m61)[0] for e in to_fp]
        assert sent_keys == [key for key, (owner, _) in owed.items() if owner == i]


# -- the protocol table: a protocol is one class in PROTOCOLS -----------------


class _PlainParty:
    """A test-only protocol without privacy: Alice sends Bob her plain X as
    ``MASKED_DATA``, and Bob sends the function party B1 = X^T Y."""

    name = "plain"
    leakage_check = None

    def __init__(self, spec, data, mesh):
        self.spec, self.data, self.mesh = spec, data, mesh

    def act_alice(self, bob_id):
        self.mesh.channels[bob_id].send(tp.MASKED_DATA, tp.matrix_payload(self.data))

    def act_bob(self, alice_id):
        x_t_y = gram_t(recv_matrix(self.mesh, alice_id, tp.MASKED_DATA, self.spec), self.data)
        self.mesh.channels[tp.FUNCTION_PARTY_ID].send(
            tp.PAIR_RESULT, tp.pair_matrix_payload(alice_id, self.mesh.party_id, tp.PART_B1, x_t_y)
        )

    @staticmethod
    def owed(m, sizes, f):
        return {(B1, a, b): (b, (sizes[a], sizes[b])) for rnd in pair_rounds(m) for a, b in rnd}

    @staticmethod
    def assemble(dom, got, sizes, f):
        return {(a, b): got[B1, a, b] for a, b in pair_schedule(len(sizes))}

    @staticmethod
    def wire(m, f, sizes):
        pairs = list(combinations(sizes, 2))
        among = {"masked_data": f * sum(a for a, _ in pairs)}
        return among, {"pair_result": sum(a * b for a, b in pairs)}

    @staticmethod
    def nominal(m, f, n):
        return comb(m, 2) * f * n, comb(m, 2) * n * n


def test_a_protocol_registered_in_the_table_runs_end_to_end(monkeypatch, capsys):
    monkeypatch.setitem(PROTOCOLS, _PlainParty.name, _PlainParty)
    cfg = RunConfig(protocol="plain", m=3, features=4, samples=(2, 3, 1), seed=5, verify=True)
    report = run(cfg).report
    assert report["audit"]["ok"], report["audit"]["mismatches"]
    assert report["verification"]["status"] == "pass"
    assert report["leakage"] is None
    assert report["costs"]["nominal"] is None  # unequal sizes
    assert report["gram"] == run(RunConfig("escaped", 3, 4, (2, 3, 1), seed=5)).report["gram"]
    # the CLI reads its choices from the same table
    assert main(["run", "--protocol", "plain", "--parties", "3", "--verify"]) == EXIT_OK
    assert main(["cost", "--protocol", "plain", "--M", "2", "--f", "3", "--n", "2"]) == EXIT_OK
    assert "plain: nominal among-IPs=6 IP-FP=4 total=10" in capsys.readouterr().out


# -- outcomes: recorded before any channel closes ------------------------------


class ClosingChannel(ScriptedChannel):
    closed = False

    def close(self):
        self.closed = True


@pytest.mark.parametrize("fail_in", ["connect", "session"])
def test_failing_party_records_its_outcome_before_closing_a_channel(fail_in):
    channels = {tp.FUNCTION_PARTY_ID: ClosingChannel([]), 2: ClosingChannel([])}
    mesh = Mesh(1, {} if fail_in == "connect" else channels, tp.Transcript())

    def connect(mesh):
        mesh.channels.update(channels)
        raise TransportError("setup failed")

    closed_at_record = []
    outcome = play_party(
        SessionSpec("escaped", 2, F, m61, party_key(0, 1)), mesh, COLUMN,
        lambda _: closed_at_record.extend(ch.closed for ch in channels.values()),
        connect=connect if fail_in == "connect" else None,
    )
    assert closed_at_record == [False, False]
    assert all(ch.closed for ch in channels.values())
    assert (outcome.party_id, outcome.result) == (1, None)
    assert isinstance(outcome.failure[1], TransportError)


# -- fixed-point range: checked before a party sends anything ------------------


class RecordingChannel(ScriptedChannel):
    def __init__(self, sent):
        super().__init__([])
        self.sent = sent

    def send(self, kind, payload):
        self.sent.append(kind)

    def close(self):
        pass


def test_data_that_could_wrap_fails_before_the_party_sends_anything():
    # sample 1's encoded squared norm is 2 (2^30)^2 = 2^61 > (p - 1) / 2 = 2^60 - 1
    sent = []
    mesh = Mesh(2, {j: RecordingChannel(sent) for j in (0, 1)}, tp.Transcript())
    data = Matrix([[1, 1 << 30], [0, 1 << 30]], m61)
    outcome = play_party(SessionSpec("escaped", 2, 2, m61, party_key(0, 2)), mesh, data,
                         lambda _: None)
    assert sent == [] and outcome.entries == []
    assert isinstance(outcome.failure[1], EncodingOverflowError)
    assert str(outcome.failure[1]).startswith(
        f"sample 1 of party 2 has encoded squared norm {2**61} > (p - 1) / 2 = {2**60 - 1}"
    )


# -- RE frames: one block per pair equals the per-sample encoding ---------------


def test_re_pair_blocks_equal_a_per_sample_reference(monkeypatch):
    # unequal sample counts, so an n_a / n_b mix-up in the stacked blocks shows
    sent = {}  # (sender, receiver, pair header) -> RE payload
    send = tp.Channel.send

    def recording_send(self, kind, payload):
        if kind in (tp.RE_RANDOMS, tp.RE_COMPONENTS):
            body = joined(payload)
            sent[self.local_id, self.peer_id, body[:5]] = body  # "<HHB" alice, bob, tag
        send(self, kind, payload)

    monkeypatch.setattr(tp.Channel, "send", recording_send)
    cfg = RunConfig(protocol="re", m=3, features=5, samples=(3, 2, 4), seed=11,
                    verify=False)
    res = run(cfg)
    dom, scheme = res.party_data[1].domain, generate_scheme(cfg.features)
    for a, b in [(1, 2), (1, 3), (2, 3)]:
        x, y = res.party_data[a].data, res.party_data[b].data
        triples, x_side, y_side = [], [], []
        for u in range(x.shape[1]):
            # sample u's randoms against every Bob sample, drawn under its own label
            randoms = dom.sample(party_key(cfg.seed, a), ("re", b, u),
                                 y.shape[1] * scheme.total_randoms).reshape(y.shape[1], -1)
            triples.append(y_random_triples(scheme, randoms))
            x_comps = encode_x_side(dom, x[:, u], scheme, randoms)
            x_side.append(x_side_wire(x_comps, offline_components(dom, scheme, randoms)))
            y_side.append(encode_y_side(dom, y.T, scheme, triples[-1]))
        for what, sender, receiver, payload in [
            ("RE_RANDOMS", a, b, tp.pair_scalars_payload(a, b, 0, np.ravel(triples), dom)),
            ("X side", a, 0, tp.pair_scalars_payload(a, b, tp.SIDE_X, np.ravel(x_side), dom)),
            ("Y side", b, 0, tp.pair_scalars_payload(a, b, tp.SIDE_Y, np.ravel(y_side), dom)),
        ]:
            body = joined(payload)
            assert sent[sender, receiver, body[:5]] == body, f"{what} of pair ({a},{b})"
