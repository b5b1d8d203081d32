"""Wire framing, loopback/TCP channels, and transcript recording.

Frame layout (little-endian throughout):

    offset 0   msg_type      1 byte
    offset 1   sender_id     2 bytes unsigned
    offset 3   receiver_id   2 bytes unsigned
    offset 5   payload_len   8 bytes unsigned
    offset 13  payload

Field elements travel as 8-byte unsigned, floats as IEEE binary64.
Matrices are prefixed with two 4-byte dims (rows, cols) and sent
row-major; flat scalar arrays with one 4-byte count.  No compression and
no variable-width encodings, so every byte is accounted for exactly.

Both transports use one endpoint class, ``TcpEndpoint``, over a stream
socket: a TCP run over connected TCP sockets, a loopback run over
``socket.socketpair()`` inside one process.  So framing, buffering,
bounded send buffers, timeouts and close semantics are the same on both.

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

from .errors import (
    FramingError,
    ProtocolError,
    ProtocolVersionError,
    TransportError,
)
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
    payload: bytes = field(repr=False)


def frame_encode(kind: int, sender: int, receiver: int, payload: bytes) -> bytes:
    return _HEADER.pack(kind, sender, receiver, len(payload)) + payload


def frame_decode(data: bytes) -> Frame:
    if len(data) < HEADER_LEN:
        raise FramingError(f"truncated frame: {len(data)} bytes, header needs {HEADER_LEN}")
    kind, sender, receiver, plen = _HEADER.unpack_from(data)
    if kind not in KIND_NAMES:
        raise ProtocolVersionError(f"unknown message tag 0x{kind:02x}")
    if len(data) != HEADER_LEN + plen:
        raise FramingError(
            f"frame length mismatch at byte {min(len(data), HEADER_LEN + plen)}: "
            f"header says {HEADER_LEN + plen}, got {len(data)}"
        )
    return Frame(kind, sender, receiver, bytes(memoryview(data)[HEADER_LEN:]))


# -- payload codecs -------------------------------------------------------


def matrix_payload(m: Matrix) -> bytes:
    return struct.pack("<II", m.rows, m.cols) + m.domain.pack(m.data)


def matrix_from_payload(b: bytes, domain, offset: int = 0) -> tuple:
    """The matrix that fills ``b`` from ``offset`` to its end, and that end."""
    rows, cols = _unpack_header("<II", b, offset, "matrix payload")
    start = offset + 8
    end = _check_length(b, start + 8 * rows * cols, "matrix payload")
    values = domain.unpack(memoryview(b)[start:end])
    return Matrix(values.reshape(rows, cols), domain), end


def scalars_payload(xs, domain) -> bytes:
    return struct.pack("<I", len(xs)) + domain.pack(xs)


def scalars_from_payload(b: bytes, domain, offset: int = 0) -> tuple:
    """The scalars that fill ``b`` from ``offset`` to its end, and that end."""
    (n,) = _unpack_header("<I", b, offset, "scalar array")
    start = offset + 4
    end = _check_length(b, start + 8 * n, "scalar array")
    return tuple(domain.unpack(memoryview(b)[start:end])), end


def u64_payload(v: int) -> bytes:
    return struct.pack("<Q", v)


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


def pair_matrix_payload(alice: int, bob: int, part: int, m: Matrix) -> bytes:
    return struct.pack("<HHB", alice, bob, part) + matrix_payload(m)


def pair_matrix_from_payload(b: bytes, domain) -> tuple:
    alice, bob, part = _unpack_header("<HHB", b, 0, "pair payload")
    m, _ = matrix_from_payload(b, domain, offset=5)
    return alice, bob, part, m


def pair_scalars_payload(alice: int, bob: int, tag: int, xs, domain) -> bytes:
    return struct.pack("<HHB", alice, bob, tag) + scalars_payload(xs, domain)


def pair_scalars_from_payload(b: bytes, domain) -> tuple:
    alice, bob, tag = _unpack_header("<HHB", b, 0, "pair payload")
    xs, _ = scalars_from_payload(b, domain, offset=5)
    return alice, bob, tag, xs


def payload_elements(kind: int, payload: bytes) -> int:
    """Protocol scalar count of a payload; framing metadata is not counted."""
    if kind in (HELLO, DONE):
        return 0
    if kind == ALPHA:
        return 1
    if kind in (MASKED_DATA, MASKED_MASK, SELF_GRAM):
        rows, cols = struct.unpack_from("<II", payload)
        return rows * cols
    if kind == PAIR_RESULT:
        rows, cols = struct.unpack_from("<II", payload, 5)
        return rows * cols
    if kind in (RE_RANDOMS, RE_COMPONENTS):
        (n,) = struct.unpack_from("<I", payload, 5)
        return n
    raise ProtocolVersionError(f"unknown message tag 0x{kind:02x}")


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
        out = {
            scope: {"bytes": 0, "elements": 0, "frames": 0}
            for scope in ("ip_ip", "ip_fp", "total")
        }
        per_kind = {}
        for e in self.entries:
            scope = (
                "ip_fp"
                if FUNCTION_PARTY_ID in (e.sender, e.receiver)
                else "ip_ip"
            )
            for s in (scope, "total"):
                out[s]["bytes"] += e.n_bytes
                out[s]["elements"] += e.n_elements
                out[s]["frames"] += 1
            k = per_kind.setdefault(
                KIND_NAMES[e.kind], {"bytes": 0, "elements": 0, "frames": 0}
            )
            k["bytes"] += e.n_bytes
            k["elements"] += e.n_elements
            k["frames"] += 1
        out["per_kind"] = {k: per_kind[k] for k in sorted(per_kind)}
        return out

    def per_channel_bytes(self) -> dict:
        chans = {}
        for e in self.entries:
            key = (e.sender, e.receiver)
            chans[key] = chans.get(key, 0) + e.n_bytes
        return chans

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


# -- endpoints -------------------------------------------------------------


IO_TIMEOUT = 120.0  # per socket operation; guards against a dead peer wedging the run


class TcpEndpoint:
    """One end of a stream socket carrying whole frames; loopback and TCP alike."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._header = None  # the next frame's header, once peeked

    def send_bytes(self, data: bytes):
        with self._send_lock:
            self._sock.sendall(data)

    def _recv_into(self, buf):
        """Fill the writable buffer ``buf`` from the socket, in place; returns it."""
        view = memoryview(buf)
        while view:
            try:
                n = self._sock.recv_into(view)
            except socket.timeout:
                raise TransportError("recv timed out waiting for peer") from None
            if not n:
                raise TransportError("connection closed mid-frame")
            view = view[n:]
        return buf

    def _next_header(self) -> bytearray:
        if self._header is None:
            self._header = self._recv_into(bytearray(HEADER_LEN))
        return self._header

    def peek_sender(self) -> int:
        """Sender id in the header of the next frame, which is left unread."""
        return _HEADER.unpack_from(self._next_header())[1]

    def recv_frame(self) -> Frame:
        header, self._header = self._next_header(), None
        data = bytearray(HEADER_LEN + _HEADER.unpack_from(header)[3])
        data[:HEADER_LEN] = header
        self._recv_into(memoryview(data)[HEADER_LEN:])  # the payload, in one buffer
        return frame_decode(data)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def loopback_pair() -> tuple:
    """Two connected endpoints over ``socket.socketpair()``, in this process."""
    a, b = socket.socketpair()
    for sock in (a, b):
        sock.settimeout(IO_TIMEOUT)
    return TcpEndpoint(a), TcpEndpoint(b)


def tcp_listen(host: str, port: int) -> socket.socket:
    try:
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(64)
        return srv
    except OSError as exc:
        raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc


def tcp_accept(srv: socket.socket) -> TcpEndpoint:
    srv.settimeout(IO_TIMEOUT)
    try:
        sock, _ = srv.accept()
    except socket.timeout:
        raise TransportError(f"accept timed out on {srv.getsockname()}") from None
    sock.settimeout(IO_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpEndpoint(sock)


def tcp_connect(host: str, port: int, retries: int = 200, delay: float = 0.025) -> TcpEndpoint:
    last = None
    for _ in range(retries):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(IO_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return TcpEndpoint(sock)
        except OSError as exc:
            last = exc
            time.sleep(delay)
    raise TransportError(f"cannot connect to {host}:{port}: {last}")


class Channel:
    """One direction-aware channel between two parties, with recording.

    Sends are recorded into the transcript with a per-channel sequence
    number; receives are not (the peer records them as its own sends).
    """

    def __init__(self, endpoint, local_id: int, peer_id: int, transcript: Transcript):
        self.endpoint = endpoint
        self.local_id = local_id
        self.peer_id = peer_id
        self.transcript = transcript
        self._seq = 0

    def send(self, kind: int, payload: bytes):
        frame = frame_encode(kind, self.local_id, self.peer_id, payload)
        if self.transcript is not None:
            self.transcript.record(
                TranscriptEntry(
                    sender=self.local_id,
                    receiver=self.peer_id,
                    seq=self._seq,
                    kind=kind,
                    n_bytes=len(frame),
                    n_elements=payload_elements(kind, payload),
                    payload_sha=hashlib.sha256(payload).hexdigest()[:16],
                )
            )
        self._seq += 1
        self.endpoint.send_bytes(frame)

    def recv(self, expect_kind: int = None) -> Frame:
        frame = self.endpoint.recv_frame()
        if frame.sender != self.peer_id:
            raise ProtocolError(
                f"party {self.local_id} expected a frame from {self.peer_id}, "
                f"got one from {frame.sender}"
            )
        if expect_kind is not None and frame.kind != expect_kind:
            raise ProtocolError(
                f"party {self.local_id} expected {KIND_NAMES[expect_kind]} from "
                f"{self.peer_id}, got {KIND_NAMES.get(frame.kind, hex(frame.kind))}"
            )
        return frame

    def close(self):
        self.endpoint.close()
