"""Mesh shape, and inbound frame validation at arrival, driven by scripted peers.

The function party is fed scripted input parties; an input party is fed a
scripted peer.
"""

import re
import threading

import pytest

from mpgram import transport as tp
from mpgram.errors import ProtocolError, TransportError
from mpgram.field import FieldDomain
from mpgram.matrix import Matrix
from mpgram.party import (
    Mesh,
    SessionSpec,
    build_loopback_meshes,
    function_party_session,
    hello_phase,
    input_party_session,
)

m61 = FieldDomain()
ONE = Matrix([[1]], m61)
TALL = Matrix([[1], [1]], m61)
WIDE = Matrix([[1, 1]], m61)
SQUARE = Matrix([[1, 0], [0, 1]], m61)


class ScriptedChannel:
    """Hands the function party a fixed list of frames from one input party."""

    def __init__(self, frames):
        self.frames = list(frames)

    def recv(self, expect_kind=None):
        if not self.frames:
            raise TransportError("script exhausted")
        return self.frames.pop(0)

    def send(self, kind, payload):
        pass


def frame(kind, sender, payload):
    return tp.Frame(kind, sender, tp.FUNCTION_PARTY_ID, payload)


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
    return function_party_session(SessionSpec(protocol, 2, 1, m61, 0), mesh)


@pytest.mark.parametrize("protocol", sorted(VALID))
def test_valid_script_assembles(protocol):
    result = run_fp(protocol, *VALID[protocol])
    assert result.assembly.full.data.shape == (2, 2)


def test_unknown_component_side_rejected():
    with pytest.raises(ProtocolError, match="unknown RE component side 7"):
        run_fp("re", [side(1, 7, 3), self_gram(1)], VALID["re"][1])


@pytest.mark.parametrize(
    "protocol, party1, party2, what",
    [
        ("escaped", [part(1, tp.PART_A1), alpha(1), self_gram(1)],
         [part(2, tp.PART_A1), part(2, tp.PART_B2), self_gram(2)], "A1"),
        ("escaped", [part(1, tp.PART_B1), alpha(1), self_gram(1)],
         [part(2, tp.PART_A1), part(2, tp.PART_B2), self_gram(2)], "B1"),
        ("escaped", [part(1, tp.PART_B2), alpha(1), self_gram(1)],
         [part(2, tp.PART_A1), part(2, tp.PART_B1), self_gram(2)], "B2"),
        ("re", [y_side(1), self_gram(1)], [x_side(2), self_gram(2)], "Y-side"),
        ("re", [x_side(1), self_gram(1)], [x_side(2), self_gram(2)], "X-side"),
    ],
    ids=["a1-from-bob", "b1-from-alice", "b2-from-alice", "y-from-alice", "x-from-bob"],
)
def test_part_from_wrong_sender_rejected(protocol, party1, party2, what):
    with pytest.raises(ProtocolError, match=f"{what}.* came from party"):
        run_fp(protocol, party1, party2)


@pytest.mark.parametrize(
    "protocol, party1, party2",
    [
        ("escaped", [part(1, tp.PART_A1), part(1, tp.PART_A1), self_gram(1)],
         VALID["escaped"][1]),
        ("escaped", [part(1, tp.PART_A1), alpha(1), alpha(1)], VALID["escaped"][1]),
        ("escaped", [part(1, tp.PART_A1), self_gram(1), self_gram(1)], VALID["escaped"][1]),
        ("re", [x_side(1), x_side(1)], VALID["re"][1]),
    ],
    ids=["pair-part", "alpha", "self-gram", "re-side"],
)
def test_duplicate_rejected(protocol, party1, party2):
    with pytest.raises(ProtocolError, match="duplicate"):
        run_fp(protocol, party1, party2)


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


@pytest.mark.parametrize(
    "protocol, party1, what",
    [
        ("escaped", [part(1, tp.PART_A1, pair=(1, 3)), alpha(1), self_gram(1)],
         "A1 of pair (1,3)"),
        ("re", [x_side(1), alpha(1)], "alpha of party 1"),
    ],
    ids=["pair-outside-schedule", "alpha-in-re-run"],
)
def test_part_owed_by_no_party_rejected(protocol, party1, what):
    message = f"party 1 sent {what}, which no party owes"
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        run_fp(protocol, party1, VALID[protocol][1])


# -- input parties: masked matrices must match the sender's hello ------------

F = 2  # features of the input-party scripts; every party has one sample
COLUMN = Matrix([[1]] * F, m61)


def masked(kind, sender, m):
    return tp.Frame(kind, sender, 3 - sender, tp.matrix_payload(m))


def run_ip(party_id, peer_frames):
    """Party ``party_id`` of an M=2 masking run whose peer sends ``peer_frames``."""
    peer = 3 - party_id
    mesh = Mesh(party_id, {tp.FUNCTION_PARTY_ID: ScriptedChannel([]), peer: ScriptedChannel(peer_frames)})
    mesh.n_by_peer = {peer: 1}
    input_party_session(SessionSpec("escaped", 2, F, m61, 0), COLUMN, mesh)


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
    transcript = tp.Transcript()
    meshes = build_loopback_meshes(m, transcript)
    ids = set(range(m + 1))
    assert set(meshes) == ids
    for i, mesh in meshes.items():
        assert mesh.party_id == i
        assert set(mesh.channels) == ids - {i}
        assert all((ch.local_id, ch.peer_id) == (i, j) for j, ch in mesh.channels.items())

    sizes = {i: i + 1 for i in range(1, m + 1)}
    threads = [
        threading.Thread(target=hello_phase, args=(meshes[i], sizes.get(i))) for i in meshes
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert meshes[tp.FUNCTION_PARTY_ID].n_by_peer == sizes
    for i in range(1, m + 1):
        assert meshes[i].n_by_peer == {j: n for j, n in sizes.items() if j != i}
    assert [e.kind for e in transcript.entries] == [tp.HELLO] * (m * m)
    for mesh in meshes.values():
        mesh.close()
