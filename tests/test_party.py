"""Function-party inbound frame validation, driven by scripted input parties."""

import pytest

from mpgram import transport as tp
from mpgram.errors import ProtocolError, TransportError
from mpgram.field import FieldDomain
from mpgram.matrix import Matrix
from mpgram.party import Mesh, SessionSpec, function_party_session

m61 = FieldDomain()
ONE = Matrix([[1]], m61)


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


def part(sender, tag):
    return frame(tp.PAIR_RESULT, sender, tp.pair_matrix_payload(1, 2, tag, ONE))


def alpha(sender):
    return frame(tp.ALPHA, sender, tp.scalars_payload([3], m61))


def self_gram(sender):
    return frame(tp.SELF_GRAM, sender, tp.matrix_payload(ONE))


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
    mesh = Mesh(tp.FUNCTION_PARTY_ID, channels, None)
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
