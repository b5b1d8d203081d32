"""Faults injected into whole runs: a lost, repeated, cut, padded, out-of-range
or reordered frame ends the run at once, or shows in the report.

``inject`` wraps ``transport.Channel.send`` and applies one fault to the k-th
frame of one kind that one input party sends.  A fault that leaves a
well-formed frame of valid residues cannot be told from honest data under
the honest-but-curious model; only verify catches it.  An extra frame that
nobody reads is caught by the transcript audit.  So the property is: the run
raises well within ``IO_TIMEOUT``, or its audit or verify fails, or its gram
is the fault-free one.
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
# the frames an input party sends after the hellos, per protocol
KINDS = {
    "escaped": (tp.MASKED_DATA, tp.MASKED_MASK, tp.PAIR_RESULT, tp.ALPHA, tp.SELF_GRAM),
    "re": (tp.RE_RANDOMS, tp.RE_COMPONENTS, tp.SELF_GRAM),
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


@pytest.mark.parametrize("protocol", sorted(KINDS))
@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_on_the_last_frame_to_the_function_party_ends_the_run_at_once(
    monkeypatch, protocol, fault
):
    clean = clean_gram_sha(protocol, 3)
    inject(monkeypatch, fault, 2, tp.SELF_GRAM, 1)
    report, error, seconds = run_timed(config(protocol, 3))
    assert seconds < PROMPT_S, (seconds, error)
    if fault == "extend":  # the 8 bytes after the last frame are never read
        assert report["gram"]["sha256"] == clean
    elif fault == "duplicate":  # the unread copy shows in the transcript audit, unless
        # the function party has closed before it, and its send fails
        assert error is not None or not report["audit"]["ok"]
    else:
        assert error is not None


def test_a_dropped_self_gram_names_its_sender(monkeypatch):
    inject(monkeypatch, "drop", 2, tp.SELF_GRAM, 1)
    _, error, seconds = run_timed(config("escaped", 3))
    assert seconds < PROMPT_S
    assert str(error) == "function party failed: party 2 ended its sends to party 0"


# party 1 meets party 3 first; its alpha arrives where its A1 of that pair was owed
DROPPED_FIRST_PAIR_RESULT = (
    "function party failed: party 1 sent alpha of party 1, expected A1 of pair (1,3)"
)


def test_a_dropped_first_pair_result_names_its_sender_and_both_parts(monkeypatch):
    inject(monkeypatch, "drop", 1, tp.PAIR_RESULT, 1)
    _, error, seconds = run_timed(config("escaped", 3))
    assert seconds < PROMPT_S
    assert str(error) == DROPPED_FIRST_PAIR_RESULT


# the same drop in every TCP party process
SITE_DROP_FIRST_PAIR_RESULT = """
from mpgram import transport as tp

_send = tp.Channel.send
_dropped = []


def send(self, kind, payload):
    if (self.local_id, kind) == (1, tp.PAIR_RESULT) and not _dropped:
        _dropped.append(kind)
        return
    _send(self, kind, payload)


tp.Channel.send = send
"""


def test_a_dropped_first_pair_result_ends_a_tcp_run_at_once(monkeypatch, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITE_DROP_FIRST_PAIR_RESULT)
    src = os.path.dirname(os.path.dirname(tp.__file__))
    paths = [str(tmp_path), src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
    _, error, seconds = run_timed(replace(config("escaped", 3), transport="tcp"))
    assert seconds < PROMPT_S
    assert isinstance(error, ProtocolError) and str(error) == DROPPED_FIRST_PAIR_RESULT
