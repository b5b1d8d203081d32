"""Test helper: one fault applied to the frames one input party sends.

``inject`` wraps ``transport.Channel.send`` in the calling process.  It
imports neither pytest nor hypothesis, so a ``sitecustomize`` can load it in
every TCP party process and apply there the same fault that a loopback run
applies in the test's own process.
"""

import struct

from mpgram import transport as tp
from mpgram.field import M61

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


def inject(fault: str, party: int, kind: int, k: int, to: int = None, patch=setattr):
    """Apply ``fault`` to the ``k``-th frame of ``kind`` that ``party`` sends (to party
    ``to``, or to anyone if it is None), and lower ``IO_TIMEOUT`` to 5 s, so a run that
    waits for it still ends.  Both go through ``patch``, ``setattr`` or a
    ``monkeypatch``'s.

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
        if (self.local_id, frame_kind) == (party, kind) and to in (None, self.peer_id):
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

    patch(tp.Channel, "send", faulty_send)
    patch(tp, "IO_TIMEOUT", 5.0)
