"""Wire framing, loopback/TCP channels, and transcript recording.

Frame layout (little-endian throughout):

    offset 0   msg_type      1 byte
    offset 1   sender_id     2 bytes unsigned
    offset 3   receiver_id   2 bytes unsigned
    offset 5   payload_len   8 bytes unsigned
    offset 13  payload

Field elements travel as 8-byte unsigned: the bytes of the domain's
fixed-width entry arrays.  Matrices are prefixed with
two 4-byte dims (rows, cols) and sent row-major; flat scalar arrays with one
4-byte count, and they decode to a read-only flat array.  A payload is a
tuple of byte buffers, its parts, which the frame carries back to back: a
codec gives the packed prefix and a byte view of its entry array's own
buffer (``domain.pack``), so nothing joins them.  ``Channel.send`` hashes
the parts for the transcript and writes the header and the parts with
``socket.sendmsg``, so a frame reaches the kernel without a copy.  A
received payload is read into one buffer of its own, and ``Frame.payload``
is a memoryview of it.  A decoded scalar array is a ``frombuffer`` view of
that buffer, after the field's range check; a decoded matrix is copied once,
by ``Matrix()``.  No compression and no variable-width encodings, so every
byte is accounted for exactly.

Each connection is one ``Channel``, which owns its stream socket, the two
party ids and the transcript it records into: connected TCP sockets in a
TCP run, each pair's on a port of its own (``mpgram.worker``), and
``socket.socketpair()`` inside one process in a loopback run.  So framing,
buffering, bounded send buffers, timeouts and close semantics are the same
on both.  ``Channel.recv`` checks each header when it arrives (a known tag,
the peer as sender, this party as receiver, the expected kind) before it
reads the payload, so a bad header fails at once instead of waiting out
``IO_TIMEOUT`` for a payload that may never come.  On a stream the header's
length is the only frame boundary: a frame cut short fails as a connection
closed mid-frame.  A party calls ``Channel.end_sends`` after its last frame
on a channel, so a read past that frame fails at once, as the peer having
ended its sends, instead of waiting out ``IO_TIMEOUT``; and the receiver of
that frame reads the end of sends after it (``recv(kind, last=True)``),
which never waits, so any byte there fails at once as a frame after the
sender's last.

Transcripts record the sender side of every frame with a per-channel
sequence number.  The canonical order (sender, receiver, seq) is
independent of arrival interleaving, which is what makes loopback and
TCP runs byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .errors import FramingError, ProtocolError, ProtocolVersionError, TransportError
from .matrix import Matrix

HEADER_LEN = 13
_HEADER = struct.Struct("<BHHQ")

# message tags
HELLO = 0x01
MASKED_DATA = 0x02
MASKED_MASK = 0x03
RE_RANDOMS = 0x04
RE_COMPONENTS = 0x05
PAIR_RESULT = 0x06
SELF_GRAM = 0x07
ALPHA = 0x08
DONE = 0x09

KIND_NAMES = {
    HELLO: "hello",
    MASKED_DATA: "masked_data",
    MASKED_MASK: "masked_mask",
    RE_RANDOMS: "re_randoms",
    RE_COMPONENTS: "re_components",
    PAIR_RESULT: "pair_result",
    SELF_GRAM: "self_gram",
    ALPHA: "alpha",
    DONE: "done",
}

FUNCTION_PARTY_ID = 0


@dataclass(frozen=True)
class Frame:
    kind: int
    sender: int
    receiver: int
    payload: bytes = field(repr=False)  # received: a memoryview of its own buffer


def frame_header(kind: int, sender: int, receiver: int, n_bytes: int) -> bytes:
    """The header of a frame whose payload is ``n_bytes`` long."""
    return _HEADER.pack(kind, sender, receiver, n_bytes)


# -- payload codecs -------------------------------------------------------

MAX_DIM = (1 << 32) - 1  # the largest dimension or count a payload's 4-byte field carries


def matrix_payload(m: Matrix) -> tuple:
    return m.domain.pack(m.data, struct.pack("<II", m.rows, m.cols))


def matrix_from_payload(b: bytes, domain, offset: int = 0) -> tuple:
    """The matrix that fills ``b`` from ``offset`` to its end, and that end."""
    rows, cols = _unpack_header("<II", b, offset, "matrix payload")
    start = offset + 8
    end = _check_length(b, start + 8 * rows * cols, "matrix payload")
    values = domain.unpack(memoryview(b)[start:end])
    return Matrix(values.reshape(rows, cols), domain), end


def scalars_payload(xs, domain) -> tuple:
    return domain.pack(xs, struct.pack("<I", len(xs)))


def scalars_from_payload(b: bytes, domain, offset: int = 0) -> tuple:
    """The flat entry array that fills ``b`` from ``offset`` to its end, and that end."""
    (n,) = _unpack_header("<I", b, offset, "scalar array")
    start = offset + 4
    end = _check_length(b, start + 8 * n, "scalar array")
    return domain.unpack(memoryview(b)[start:end]), end


def u64_payload(v: int) -> tuple:
    return (struct.pack("<Q", v),)


def u64_from_payload(b: bytes) -> int:
    _check_length(b, 8, "u64 payload")
    return struct.unpack("<Q", b)[0]


def _unpack_header(fmt: str, b: bytes, offset: int, what: str) -> tuple:
    try:
        return struct.unpack_from(fmt, b, offset)
    except struct.error:
        raise FramingError(f"{what} truncated at byte {len(b)}, inside its header") from None


def _check_length(b: bytes, end: int, what: str) -> int:
    """``end`` if the payload ends exactly there; FramingError otherwise."""
    if len(b) < end:
        raise FramingError(f"{what} truncated at byte {len(b)}, expected {end}")
    if len(b) > end:
        raise FramingError(f"{what} has {len(b) - end} trailing bytes after byte {end}")
    return end


# pair-tagged payloads: u16 alice, u16 bob, u8 part tag, then body
PART_A1, PART_B1, PART_B2 = 1, 2, 3
SIDE_X, SIDE_Y = 0, 1


def pair_matrix_payload(alice: int, bob: int, part: int, m: Matrix) -> tuple:
    return m.domain.pack(m.data, struct.pack("<HHBII", alice, bob, part, m.rows, m.cols))


def pair_matrix_from_payload(b: bytes, domain) -> tuple:
    alice, bob, part = _unpack_header("<HHB", b, 0, "pair payload")
    m, _ = matrix_from_payload(b, domain, offset=5)
    return alice, bob, part, m


def pair_scalars_payload(alice: int, bob: int, tag: int, xs, domain) -> tuple:
    return domain.pack(xs, struct.pack("<HHBI", alice, bob, tag, len(xs)))


def pair_scalars_from_payload(b: bytes, domain) -> tuple:
    alice, bob, tag = _unpack_header("<HHB", b, 0, "pair payload")
    xs, _ = scalars_from_payload(b, domain, offset=5)
    return alice, bob, tag, xs


# the bytes each kind's payload carries before its 8-byte elements
_PREFIX_BYTES = {HELLO: 8, DONE: 0, ALPHA: 4, MASKED_DATA: 8, MASKED_MASK: 8, SELF_GRAM: 8,
                 PAIR_RESULT: 13, RE_RANDOMS: 9, RE_COMPONENTS: 9}


def payload_elements(kind: int, n_bytes: int) -> int:
    """Protocol scalar count of an ``n_bytes`` payload; framing metadata is not counted."""
    if kind not in _PREFIX_BYTES:
        raise ProtocolVersionError(f"unknown message tag 0x{kind:02x}")
    return (n_bytes - _PREFIX_BYTES[kind]) // 8


# -- transcript ------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptEntry:
    sender: int
    receiver: int
    seq: int  # per (sender, receiver) channel, starting at 0
    kind: int
    n_bytes: int  # full frame size incl. header
    n_elements: int
    payload_sha: str

    def key(self):
        return (self.sender, self.receiver, self.seq)


class Transcript:
    """Sender-side record of the frames sent on the channels that share it."""

    def __init__(self):
        self.entries = []

    def record(self, entry: TranscriptEntry):
        self.entries.append(entry)

    def sorted_entries(self) -> list:
        return sorted(self.entries, key=TranscriptEntry.key)

    def totals(self) -> dict:
        """Recomputable byte/element/frame totals per scope and message kind."""
        zero = {"bytes": 0, "elements": 0, "frames": 0}
        out, per_kind = {scope: dict(zero) for scope in ("ip_ip", "ip_fp", "total")}, {}
        for e in self.entries:
            scope = "ip_fp" if FUNCTION_PARTY_ID in (e.sender, e.receiver) else "ip_ip"
            kind = per_kind.setdefault(KIND_NAMES[e.kind], dict(zero))
            for tally in (out[scope], out["total"], kind):
                tally["bytes"] += e.n_bytes
                tally["elements"] += e.n_elements
                tally["frames"] += 1
        out["per_kind"] = {k: per_kind[k] for k in sorted(per_kind)}
        return out

    def canonical_json(self) -> str:
        """Deterministic serialization; excludes wall-clock information."""
        frames = [
            {
                "sender": e.sender,
                "receiver": e.receiver,
                "seq": e.seq,
                "kind": KIND_NAMES[e.kind],
                "bytes": e.n_bytes,
                "elements": e.n_elements,
                "payload_sha": e.payload_sha,
            }
            for e in self.sorted_entries()
        ]
        return json.dumps({"version": 1, "frames": frames}, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# -- channels --------------------------------------------------------------


IO_TIMEOUT = 120.0  # per socket operation; guards against a dead peer wedging the run


def loopback_pair() -> tuple:
    """Two connected stream sockets from ``socket.socketpair()``, in this process."""
    a, b = socket.socketpair()
    for sock in (a, b):
        sock.settimeout(IO_TIMEOUT)
    return a, b


def tcp_listen(host: str, port: int) -> socket.socket:
    try:
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(64)
        return srv
    except OSError as exc:
        raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc


def tcp_accept(srv: socket.socket) -> socket.socket:
    srv.settimeout(IO_TIMEOUT)
    try:
        sock, _ = srv.accept()
    except socket.timeout:
        raise TransportError(f"accept timed out on {srv.getsockname()}") from None
    sock.settimeout(IO_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def tcp_connect(host: str, port: int, retries: int = 205, delay: float = 0.025) -> socket.socket:
    """A socket connected to ``host:port`` within ``retries`` attempts.

    After a failed attempt it waits 1 ms, twice as long after each further
    one, up to ``delay``: a peer that is about to listen is reached within
    a few ms, and the defaults wait 5.006 s in all before giving up.
    """
    last = None
    wait = min(0.001, delay)
    for attempt in range(retries):
        if attempt:
            time.sleep(wait)
            wait = min(2 * wait, delay)
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(IO_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
    raise TransportError(f"cannot connect to {host}:{port}: {last}")


class Channel:
    """One party's end of the stream socket ``sock`` to one peer: whole frames, checked.

    Sends are recorded into the transcript with a per-channel sequence
    number; receives are not (the peer records them as its own sends).
    Both ids are fixed when the channel is made: by the pair of a loopback
    socket, or by the port a TCP connection was made to.
    """

    def __init__(self, sock: socket.socket, local_id: int, peer_id: int, transcript: Transcript):
        self.sock = sock
        self.local_id = local_id
        self.peer_id = peer_id
        self.transcript = transcript
        self._seq = 0
        self._send_lock = threading.Lock()

    def send(self, kind: int, payload: tuple):
        """Send one frame whose payload is the byte buffers ``payload``, back to back."""
        n_bytes = sum(map(len, payload))
        if self.transcript is not None:
            sha = hashlib.sha256()
            for part in payload:
                sha.update(part)
            self.transcript.record(TranscriptEntry(
                sender=self.local_id, receiver=self.peer_id, seq=self._seq, kind=kind,
                n_bytes=HEADER_LEN + n_bytes, n_elements=payload_elements(kind, n_bytes),
                payload_sha=sha.hexdigest()[:16]))
        self._seq += 1
        parts = (frame_header(kind, self.local_id, self.peer_id, n_bytes), *payload)
        with self._send_lock:
            self._send_parts(parts, HEADER_LEN + n_bytes)

    def _send_parts(self, parts: tuple, n_bytes: int):
        """Write the ``n_bytes`` of ``parts`` back to back with ``socket.sendmsg``: a
        call takes what the socket buffer has room for, and the next one sends the
        rest, from views of the parts."""
        done = self.sock.sendmsg(parts)
        while done < n_bytes:
            rest, skip = [], done
            for part in parts:
                if skip < len(part):
                    rest.append(memoryview(part)[skip:])
                skip = max(skip - len(part), 0)
            done += self.sock.sendmsg(rest)

    def recv(self, expect_kind: int = None, last: bool = False) -> Frame:
        """The next frame: its header is checked before the payload is read into its own
        buffer.  If it is the peer's ``last`` frame here, the peer's end of sends must follow."""
        header = self._recv_into(bytearray(HEADER_LEN), frame_start=True)
        kind, sender, receiver, plen = _HEADER.unpack(header)
        me, peer = self.local_id, self.peer_id
        if kind not in KIND_NAMES:
            raise ProtocolVersionError(f"party {me} got unknown message tag 0x{kind:02x} "
                                       f"from party {peer}")
        if sender != peer:
            raise ProtocolError(f"party {me} expected a frame from {peer}, got one from {sender}")
        if receiver != me:
            raise ProtocolError(f"party {me} got a frame from {peer} addressed to party {receiver}")
        if expect_kind is not None and kind != expect_kind:
            raise ProtocolError(
                f"party {me} expected {KIND_NAMES[expect_kind]} from {peer}, got {KIND_NAMES[kind]}"
            )
        frame = Frame(kind, sender, receiver, memoryview(self._recv_into(bytearray(plen))))
        if last and self._read(bytearray(1)):
            raise ProtocolError(f"party {peer} sent party {me} a frame after its last "
                                f"{KIND_NAMES[kind]}")
        return frame

    def _recv_into(self, buf: bytearray, frame_start: bool = False) -> bytearray:
        """Fill ``buf`` from the socket, in place; returns it.  A close before the first
        byte of a frame (``frame_start``) is the peer's end of sends."""
        me, peer, view = self.local_id, self.peer_id, memoryview(buf)
        while view:
            n = self._read(view)
            if not n and frame_start and len(view) == len(buf):
                raise TransportError(f"party {peer} ended its sends to party {me}")
            if not n:
                raise TransportError(f"connection from party {peer} to party {me} closed mid-frame")
            view = view[n:]
        return buf

    def _read(self, view) -> int:
        """One ``recv_into`` of ``view``: the bytes read, 0 at the peer's end of sends."""
        try:
            return self.sock.recv_into(view)
        except socket.timeout:
            raise TransportError(f"party {self.local_id} timed out waiting for party "
                                 f"{self.peer_id}") from None

    def end_sends(self):
        """Half-close after the last frame: ``shutdown(SHUT_WR)``, which does not block."""
        self.sock.shutdown(socket.SHUT_WR)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
