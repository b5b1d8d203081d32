"""Faults injected into whole runs: a lost, repeated, cut, padded, out-of-range,
reordered or readdressed frame ends the run at once, or shows in the report.

``inject`` wraps ``transport.Channel.send`` and applies one fault to the k-th
frame of one kind that one input party sends, its hellos included.  A fault
that leaves a well-formed frame of valid residues cannot be told from honest
data under the honest-but-curious model; only verify catches it.  So the
property is: the run raises well within ``IO_TIMEOUT``, or its audit or
verify fails, or its gram is the fault-free one.
"""

import functools
import os
import re
import struct
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgram import party as pt
from mpgram import transport as tp
from mpgram.errors import MpgramError, ProtocolError
from mpgram.field import M61
from mpgram.runner import RunConfig, run

FAULTS = ("drop", "duplicate", "truncate", "extend", "out-of-range", "swap", "rewrite-kind",
          "rewrite-sender", "rewrite-receiver", "rewrite-length")
# the frames an input party sends, per protocol
KINDS = {
    "escaped": (tp.HELLO, tp.MASKED_DATA, tp.MASKED_MASK, tp.PAIR_RESULT, tp.ALPHA, tp.SELF_GRAM),
    "re": (tp.HELLO, tp.RE_RANDOMS, tp.RE_COMPONENTS, tp.SELF_GRAM),
}
PROMPT_S = 2.0  # every injected run ends within this, far below the IO_TIMEOUT below
HEADER = struct.Struct("<BHHQ")  # a frame's kind, sender, receiver and payload length


def header_edit(field: int, change):
    """An edit that applies ``change`` to field ``field`` of a frame's ``HEADER``."""
    def edit(b):
        head = list(HEADER.unpack_from(b))
        head[field] = change(head[field])
        return HEADER.pack(*head) + b[HEADER.size:]
    return edit


EDITS = {  # what a fault does to a frame's bytes on the wire; the payload edits keep the
    # header's length, and the header edits keep the payload
    "truncate": lambda b: b[:-8],
    "extend": lambda b: b + bytes(8),
    "out-of-range": lambda b: b[:-8] + struct.pack("<Q", M61),
    "rewrite-kind": header_edit(0, lambda kind: tp.MASKED_DATA if kind == tp.HELLO else tp.HELLO),
    "rewrite-sender": header_edit(1, lambda sender: sender ^ 1),
    "rewrite-receiver": header_edit(2, lambda receiver: receiver ^ 1),
    "rewrite-length": header_edit(3, lambda n_bytes: n_bytes + 8),
}


def inject(monkeypatch, fault: str, party: int, kind: int, k: int):
    """Apply ``fault`` to the ``k``-th frame of ``kind`` that ``party`` sends, and
    lower ``IO_TIMEOUT`` to 5 s, so a run that waits for it still ends.

    A dropped frame is neither sent nor recorded in the transcript, and a
    duplicated one is sent and recorded twice.  ``EDITS`` change the bytes on the wire of a
    frame recorded as sent unchanged: its ``_send_parts`` writes the edited
    bytes for that one send.  A swapped frame is sent after the next frame on
    its channel, and is lost if no frame follows it there.
    """
    send = tp.Channel.send
    seen = 0
    held = {}  # channel -> the (kind, payload) a swap holds back

    def on_wire(channel, frame_kind, payload, edit):
        channel._send_parts = lambda parts, _: channel.sock.sendall(edit(b"".join(parts)))
        try:
            send(channel, frame_kind, payload)
        finally:
            del channel._send_parts

    def faulty_send(self, frame_kind, payload):
        nonlocal seen
        if self in held:
            send(self, frame_kind, payload)
            send(self, *held.pop(self))
            return
        if (self.local_id, frame_kind) == (party, kind):
            seen += 1
            if seen == k:
                if fault == "duplicate":
                    send(self, frame_kind, payload)
                    send(self, frame_kind, payload)
                elif fault == "swap":
                    held[self] = frame_kind, payload
                elif fault in EDITS:
                    on_wire(self, frame_kind, payload, EDITS[fault])
                return
        send(self, frame_kind, payload)

    monkeypatch.setattr(tp.Channel, "send", faulty_send)
    monkeypatch.setattr(tp, "IO_TIMEOUT", 5.0)


def config(protocol: str, m: int) -> RunConfig:
    return RunConfig(protocol=protocol, m=m, features=3, samples=(2,) * m, seed=1, verify=True)


@functools.cache
def clean_gram_sha(protocol: str, m: int) -> str:
    return run(config(protocol, m)).report["gram"]["sha256"]


def run_timed(cfg: RunConfig) -> tuple:
    """(report or None, the error or None, seconds) of one run."""
    t0 = time.monotonic()
    try:
        return run(cfg).report, None, time.monotonic() - t0
    except MpgramError as exc:
        return None, exc, time.monotonic() - t0


@settings(max_examples=200, deadline=None)
@given(
    protocol=st.sampled_from(sorted(KINDS)),
    m=st.integers(2, 4),
    fault=st.sampled_from(FAULTS),
    data=st.data(),
)
def test_a_fault_in_flight_ends_the_run_at_once_or_shows_in_the_report(protocol, m, fault, data):
    kind = data.draw(st.sampled_from(KINDS[protocol]), label="kind")
    party = data.draw(st.integers(1, m), label="party")
    k = data.draw(st.integers(1, 3), label="k")
    clean = clean_gram_sha(protocol, m)
    with pytest.MonkeyPatch.context() as mp:
        inject(mp, fault, party, kind, k)
        report, error, seconds = run_timed(config(protocol, m))
    assert seconds < PROMPT_S, (seconds, error)
    if error is None and report["audit"]["ok"] and report["verification"]["status"] == "pass":
        assert report["gram"]["sha256"] == clean


PAST_THE_SELF_GRAM = "function party failed: party 2 sent party 0 a frame after its last self_gram"


@pytest.mark.parametrize("protocol", sorted(KINDS))
@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_on_the_last_frame_to_the_function_party_ends_the_run_at_once(
    monkeypatch, protocol, fault
):
    inject(monkeypatch, fault, 2, tp.SELF_GRAM, 1)
    _, error, seconds = run_timed(config(protocol, 3))
    assert seconds < PROMPT_S, (seconds, error)
    assert error is not None
    if fault in ("duplicate", "extend"):  # a byte where the end of sends is read
        assert str(error) == PAST_THE_SELF_GRAM


# M=3: party 3's hellos go to parties 0, 1, 2, and party 1 meets party 3 first
RE_LOOPBACK = RunConfig(protocol="re", m=3, features=32, samples=(24,) * 3, seed=1)
WIDE = RunConfig(protocol="escaped", m=3, features=2000, samples=(64,) * 3, seed=1)
HELLO_OF_P = (f"party 3 announced {M61} samples, more than the 4294967295 columns a matrix "
              "frame can carry")


@pytest.mark.parametrize(
    "fault, party, kind, k, cfg, message",
    [
        ("drop", 2, tp.SELF_GRAM, 1, config("escaped", 3),
         "function party failed: party 2 ended its sends to party 0"),
        ("drop", 3, tp.HELLO, 2, config("escaped", 3),
         "party 1 failed: party 1 expected hello from 3, got masked_data"),
        ("drop", 3, tp.HELLO, 2, config("re", 3),
         "party 1 failed: party 3 ended its sends to party 1"),
        # both frames below are larger than a socket buffer, so the copy blocks its sender
        ("duplicate", 1, tp.RE_RANDOMS, 1, RE_LOOPBACK,
         "party 3 failed: party 1 sent party 3 a frame after its last re_randoms"),
        ("duplicate", 1, tp.MASKED_MASK, 1, WIDE,
         "party 3 failed: party 1 sent party 3 a frame after its last masked_mask"),
        # hellos set to p: party 3's second goes to party 1, its first to the function party
        ("out-of-range", 3, tp.HELLO, 2, config("re", 3), "party 1 failed: " + HELLO_OF_P),
        ("out-of-range", 3, tp.HELLO, 1, config("escaped", 3),
         "function party failed: " + HELLO_OF_P),
        # header fields rewritten: party 1's first masked data goes to party 3
        ("rewrite-sender", 1, tp.MASKED_DATA, 1, config("escaped", 3),
         "party 3 failed: party 3 expected a frame from 1, got one from 0"),
        ("rewrite-sender", 1, tp.PAIR_RESULT, 1, config("escaped", 3),
         "function party failed: party 0 expected a frame from 1, got one from 0"),
        ("rewrite-receiver", 1, tp.MASKED_DATA, 1, config("escaped", 3),
         "party 3 failed: party 3 got a frame from 1 addressed to party 2"),
    ],
    ids=["self-gram-dropped", "escaped-hello-dropped", "re-hello-dropped",
         "re-randoms-repeated", "masked-mask-repeated", "re-hello-of-p",
         "hello-of-p-to-the-function-party", "masked-data-sender-rewritten",
         "pair-result-sender-rewritten", "masked-data-receiver-rewritten"],
)
def test_a_lost_or_extra_frame_names_its_sender_at_once(monkeypatch, fault, party, kind, k, cfg,
                                                        message):
    inject(monkeypatch, fault, party, kind, k)
    _, error, seconds = run_timed(cfg)
    assert seconds < PROMPT_S, (seconds, error)
    assert isinstance(error, ProtocolError) and str(error) == message


# party 1 meets party 3 first; its alpha arrives where its A1 of that pair was owed
DROPPED_FIRST_PAIR_RESULT = (
    "function party failed: party 1 sent alpha of party 1, expected A1 of pair (1,3)"
)


def test_a_dropped_first_pair_result_names_its_sender_and_both_parts(monkeypatch):
    inject(monkeypatch, "drop", 1, tp.PAIR_RESULT, 1)
    _, error, seconds = run_timed(config("escaped", 3))
    assert seconds < PROMPT_S
    assert str(error) == DROPPED_FIRST_PAIR_RESULT


def rewrite_payload(monkeypatch, sender: int, receiver, kind: int, payload: tuple):
    """Send ``payload`` in place of the first frame of ``kind`` from ``sender`` (to
    ``receiver``, or to anyone if it is None), with a header of its own length."""
    send = tp.Channel.send
    done = []

    def rewriting_send(self, frame_kind, sent):
        ours = (self.local_id, frame_kind) == (sender, kind) and receiver in (None, self.peer_id)
        if ours and not done:
            done.append(frame_kind)
            sent = payload
        send(self, frame_kind, sent)

    monkeypatch.setattr(tp.Channel, "send", rewriting_send)
    monkeypatch.setattr(tp, "IO_TIMEOUT", 5.0)


@pytest.mark.parametrize(
    "protocol, kind",
    [(protocol, kind) for protocol in sorted(KINDS) for kind in KINDS[protocol]],
    ids=lambda v: tp.KIND_NAMES[v] if isinstance(v, int) else v,
)
def test_a_payload_that_does_not_decode_names_its_sender_and_kind(monkeypatch, protocol, kind):
    # every element kind's last element is set to p; a hello, which carries a
    # count and no element, is cut to 4 of its 8 bytes under a header of 4
    if kind == tp.HELLO:
        rewrite_payload(monkeypatch, 1, None, kind, (bytes(4),))
    else:
        inject(monkeypatch, "out-of-range", 1, kind, 1)
    _, error, seconds = run_timed(config(protocol, 3))
    assert seconds < PROMPT_S, (seconds, error)
    name = tp.KIND_NAMES[kind]
    assert isinstance(error, ProtocolError), error
    assert re.match(rf"^(function party|party \d) failed: party \d cannot decode the {name} "
                    rf"from party 1: ", str(error)), str(error)


def test_an_re_hello_too_large_for_the_pair_frames_fails_before_the_draw(monkeypatch):
    # party 3's second hello goes to party 1, whose first pair is (1, 3): as
    # Alice she would draw 2 x 2^31 x (5 f - 1) randoms, about 480 GB; the other
    # pairs draw as usual
    draw = pt.pair_randoms

    def no_large_draw(scheme, domain, key, bob_id, n_a, n_b):
        assert n_b < 2**31, f"pair_randoms asked for {n_a} x {n_b} samples"
        return draw(scheme, domain, key, bob_id, n_a, n_b)

    monkeypatch.setattr(pt, "pair_randoms", no_large_draw)
    rewrite_payload(monkeypatch, 3, 1, tp.HELLO, tp.u64_payload(2**31))
    _, error, seconds = run_timed(config("re", 3))
    assert seconds < PROMPT_S, (seconds, error)
    assert isinstance(error, ProtocolError) and str(error) == (
        "party 1 failed: party 3 announced 2147483648 samples, too many for a pair with party "
        "1's 2: 3 x 2 x 2147483648 x 3 elements exceed the 4294967295 a frame can count"
    )


# sends the first frame of kind {kind} that party {party} sends {copies} times, in every
# TCP party process
SITE_FAULT = """
from mpgram import transport as tp

_send = tp.Channel.send
_seen = []


def send(self, kind, payload):
    first = (self.local_id, kind) == ({party}, {kind}) and not _seen
    _seen.extend([kind] * first)
    for _ in range({copies} if first else 1):
        _send(self, kind, payload)


tp.Channel.send = send
"""


def run_tcp_with_fault(monkeypatch, tmp_path, **fault) -> tuple:
    """``run_timed`` of an escaped M=3 TCP run whose parties load ``SITE_FAULT``."""
    (tmp_path / "sitecustomize.py").write_text(SITE_FAULT.format(**fault))
    src = os.path.dirname(os.path.dirname(tp.__file__))
    paths = [str(tmp_path), src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
    return run_timed(replace(config("escaped", 3), transport="tcp"))


def test_a_dropped_first_pair_result_ends_a_tcp_run_at_once(monkeypatch, tmp_path):
    _, error, seconds = run_tcp_with_fault(monkeypatch, tmp_path, party=1, kind=tp.PAIR_RESULT,
                                           copies=0)
    assert seconds < PROMPT_S
    assert isinstance(error, ProtocolError) and str(error) == DROPPED_FIRST_PAIR_RESULT


def test_a_duplicated_self_gram_ends_a_tcp_run_at_once(monkeypatch, tmp_path):
    _, error, seconds = run_tcp_with_fault(monkeypatch, tmp_path, party=2, kind=tp.SELF_GRAM,
                                           copies=2)
    assert seconds < PROMPT_S
    assert isinstance(error, ProtocolError) and str(error) == PAST_THE_SELF_GRAM
