"""Faults injected into whole runs: a lost, repeated, cut, padded, out-of-range
or reordered frame ends the run at once, or shows in the report.

``inject`` wraps ``transport.Channel.send`` and applies one fault to the k-th
frame of one kind that one input party sends, its hellos included.  A fault
that leaves a well-formed frame of valid residues cannot be told from honest
data under the honest-but-curious model; only verify catches it.  So the
property is: the run raises well within ``IO_TIMEOUT``, or its audit or
verify fails, or its gram is the fault-free one.
"""

import functools
import os
import struct
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgram import transport as tp
from mpgram.errors import MpgramError, ProtocolError
from mpgram.field import M61
from mpgram.runner import RunConfig, run

FAULTS = ("drop", "duplicate", "truncate", "extend", "out-of-range", "swap")
# the frames an input party sends, per protocol
KINDS = {
    "escaped": (tp.HELLO, tp.MASKED_DATA, tp.MASKED_MASK, tp.PAIR_RESULT, tp.ALPHA, tp.SELF_GRAM),
    "re": (tp.HELLO, tp.RE_RANDOMS, tp.RE_COMPONENTS, tp.SELF_GRAM),
}
PROMPT_S = 2.0  # every injected run ends within this, far below the IO_TIMEOUT below
EDITS = {  # what a fault does to a frame's bytes on the wire; the header keeps its length
    "truncate": lambda b: b[:-8],
    "extend": lambda b: b + bytes(8),
    "out-of-range": lambda b: b[:-8] + struct.pack("<Q", M61),
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
    ],
    ids=["self-gram-dropped", "escaped-hello-dropped", "re-hello-dropped",
         "re-randoms-repeated", "masked-mask-repeated", "re-hello-of-p",
         "hello-of-p-to-the-function-party"],
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
