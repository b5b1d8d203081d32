"""Wire framing, channels, and transcript accounting."""

import hashlib
import json
import socket
import struct
import threading
import time
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgram import transport as tp
from mpgram.errors import (
    DomainError,
    FramingError,
    ProtocolError,
    ProtocolVersionError,
    TransportError,
)
from mpgram.field import FieldDomain
from mpgram.matrix import Matrix, random_matrix
from mpgram.seeds import party_key
from payloads import joined

m61 = FieldDomain()
KEY = party_key(0, 0)  # draws test data


def tcp_pair() -> tuple:
    """(accepted, connecting) TCP sockets on an ephemeral localhost port."""
    srv = tp.tcp_listen("127.0.0.1", 0)
    client = tp.tcp_connect("127.0.0.1", srv.getsockname()[1])
    accepted = tp.tcp_accept(srv)
    srv.close()
    return accepted, client


def loopback_channels(a_id: int = 1, b_id: int = 2) -> tuple:
    """Unrecorded channels a -> b and b -> a over one loopback socket pair."""
    sa, sb = tp.loopback_pair()
    return tp.Channel(sa, a_id, b_id, None), tp.Channel(sb, b_id, a_id, None)


class RecordingSocket:
    """A socket whose ``sendmsg`` takes at most ``step`` bytes per call.  It keeps
    the buffers of every call as handed over, and the bytes it took."""

    def __init__(self, step: int = 1 << 30):
        self.step = step
        self.calls = []
        self.taken = bytearray()

    def sendmsg(self, buffers):
        self.calls.append(list(buffers))
        took = b"".join(buffers)[: self.step]
        self.taken += took
        return len(took)


def recorded_send(kind, payload, step: int = 1 << 30) -> tuple:
    """(socket, transcript entry) of one ``Channel.send`` from party 1 to 2."""
    sock, transcript = RecordingSocket(step), tp.Transcript()
    tp.Channel(sock, 1, 2, transcript).send(kind, payload)
    return sock, transcript.entries[0]


class TestFraming:
    def test_empty_payload_is_header_only(self):
        # one sendmsg of the header alone: a send of an empty part after it
        # could meet a peer that has already read the header and closed
        sock, entry = recorded_send(tp.DONE, ())
        assert [[bytes(b) for b in call] for call in sock.calls] == [
            [tp.frame_header(tp.DONE, 1, 2, 0)]
        ]
        assert entry.n_bytes == tp.HEADER_LEN == 13

    def test_one_by_one_field_matrix_is_29_bytes(self):
        _, entry = recorded_send(tp.SELF_GRAM, tp.matrix_payload(Matrix.from_rows([[5]], m61)))
        assert entry.n_bytes == 13 + 8 + 8 == 29

    @pytest.mark.parametrize("step", [1, 2, 3, 5, 8, 12, 13, 14, 21, 22, 100])
    def test_partial_sends_deliver_the_exact_frame(self, step):
        # cuts fall inside the 13-byte header, the 9-byte prefix and the body
        xs = np.arange(5, dtype=np.uint64) * np.uint64(0x0102030405060708)
        payload = tp.pair_scalars_payload(1, 2, tp.SIDE_X, xs, m61)
        sock, _ = recorded_send(tp.RE_COMPONENTS, payload, step)
        frame = tp.frame_header(tp.RE_COMPONENTS, 1, 2, 9 + 40) + joined(payload)
        assert bytes(sock.taken) == frame
        assert len(sock.calls) == -(-len(frame) // step)

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (tp.HELLO, tp.u64_payload(7)),
            (tp.DONE, ()),
            (tp.ALPHA, tp.scalars_payload([5], m61)),
            (tp.SELF_GRAM, tp.matrix_payload(random_matrix((3, 3), m61, KEY, 6))),
            (tp.MASKED_DATA, tp.matrix_payload(random_matrix((2, 3), m61, KEY, 8).transpose())),
            (tp.PAIR_RESULT, tp.pair_matrix_payload(1, 2, tp.PART_B1, Matrix.zeros(2, 4, m61))),
            (tp.RE_RANDOMS, tp.pair_scalars_payload(1, 2, 0, np.arange(12, dtype=np.uint64), m61)),
        ],
        ids=["hello", "done", "alpha", "self_gram", "m61-transposed", "pair_result", "re"],
    )
    def test_transcript_entry_equals_the_joined_bytes_form(self, kind, payload):
        body = joined(payload)
        _, entry = recorded_send(kind, payload)
        _, entry_of_joined = recorded_send(kind, (body,))
        assert entry == entry_of_joined
        assert (entry.n_bytes, entry.n_elements, entry.payload_sha) == (
            13 + len(body),
            tp.payload_elements(kind, len(body)),
            hashlib.sha256(body).hexdigest()[:16],
        )

    def test_body_is_sent_from_the_entry_array_itself(self):
        xs = np.arange(40, dtype=np.uint64)
        sock, _ = recorded_send(
            tp.RE_COMPONENTS, tp.pair_scalars_payload(1, 2, tp.SIDE_X, xs, m61)
        )
        (call,) = sock.calls
        assert [len(b) for b in call] == [13, 9, 320]
        assert np.shares_memory(np.asarray(call[2]), xs)
        m = random_matrix((4, 3), m61, KEY, 7)
        sock, _ = recorded_send(tp.SELF_GRAM, tp.matrix_payload(m))
        assert np.shares_memory(np.asarray(sock.calls[0][2]), m.data)

    def test_frame_larger_than_the_socket_buffer(self):
        # sendmsg takes a partial write on a real socket; the reader drains it
        xs = np.arange(1 << 19, dtype=np.uint64)  # 4 MiB
        tx, rx = loopback_channels(1, 0)
        sender = threading.Thread(
            target=tx.send, args=(tp.RE_COMPONENTS, tp.pair_scalars_payload(1, 0, 0, xs, m61))
        )
        sender.start()
        frame = rx.recv(tp.RE_COMPONENTS)
        sender.join(timeout=30)
        tx.close()
        rx.close()
        assert not sender.is_alive()
        assert tp.pair_scalars_from_payload(frame.payload, m61)[3].tolist() == xs.tolist()

    @given(
        st.sampled_from(sorted(tp.KIND_NAMES)),
        st.integers(0, 65535),
        st.integers(0, 65535),
        st.binary(max_size=256),
    )
    @settings(max_examples=100)
    def test_round_trip(self, kind, sender, receiver, payload):
        tx, rx = loopback_channels(sender, receiver)
        tx.send(kind, (payload,))
        frame = rx.recv(kind)
        tx.close()
        rx.close()
        assert (frame.kind, frame.sender, frame.receiver, frame.payload) == (
            kind,
            sender,
            receiver,
            payload,
        )

    def test_decoded_payload_is_a_view_of_the_frame(self):
        # a received RE frame is half a megabyte; decoding must not copy it
        payload = tp.pair_scalars_payload(1, 2, tp.SIDE_X, np.arange(9, dtype=np.uint64), m61)
        tx, rx = loopback_channels(1, 0)
        tx.send(tp.RE_COMPONENTS, payload)
        frame = rx.recv(tp.RE_COMPONENTS)
        tx.close()
        rx.close()
        received = frame.payload.obj  # the buffer the payload was read into
        assert frame.payload == joined(payload) and isinstance(received, bytearray)
        assert len(received) == len(joined(payload))
        _, _, _, xs = tp.pair_scalars_from_payload(frame.payload, m61)
        assert np.shares_memory(xs, np.frombuffer(received, dtype=np.uint8))
        assert xs.tolist() == list(range(9)) and not xs.flags.writeable

    def test_payloads_are_the_header_then_the_array_bytes(self):
        xs = np.arange(6, dtype=np.uint64)
        body = xs.astype("<u8").tobytes()
        assert joined(tp.pair_scalars_payload(3, 4, 1, xs, m61)) == struct.pack(
            "<HHBI", 3, 4, 1, 6
        ) + body
        assert joined(tp.scalars_payload(xs, m61)) == struct.pack("<I", 6) + body
        m = Matrix(xs.reshape(2, 3), m61)
        assert joined(tp.matrix_payload(m)) == struct.pack("<II", 2, 3) + body
        assert joined(tp.pair_matrix_payload(3, 4, 2, m)) == struct.pack(
            "<HHBII", 3, 4, 2, 2, 3
        ) + body
        # a transposed (non-contiguous) matrix goes row-major, as it reads
        t = Matrix(xs.reshape(3, 2).T, m61)
        assert joined(tp.matrix_payload(t)) == struct.pack(
            "<II", 2, 3
        ) + xs.reshape(3, 2).T.tobytes()

    # on a stream the header's length is the only frame boundary, so a frame
    # cut short shows as the sender closing inside it
    def test_truncated_frame_fails_as_closed_mid_frame(self):
        tx, rx = loopback_channels()
        tx.sock.sendall((tp.frame_header(tp.HELLO, 1, 2, 8) + b"12345678")[:-3])
        tx.close()
        with pytest.raises(
            TransportError, match="^connection from party 1 to party 2 closed mid-frame$"
        ):
            rx.recv(tp.HELLO)
        rx.close()

    def test_header_shorter_than_13(self):
        tx, rx = loopback_channels()
        tx.sock.sendall(b"\x01\x00")
        tx.close()
        with pytest.raises(
            TransportError, match="^connection from party 1 to party 2 closed mid-frame$"
        ):
            rx.recv()
        rx.close()

    # a half-close after the last frame: a read past it fails at once, naming both ends
    def test_read_past_the_last_frame_fails_as_an_end_of_sends(self):
        tx, rx = loopback_channels()
        tx.send(tp.HELLO, tp.u64_payload(3))
        tx.end_sends()
        assert tp.u64_from_payload(rx.recv(tp.HELLO).payload) == 3
        with pytest.raises(TransportError, match="^party 1 ended its sends to party 2$"):
            rx.recv()
        tx.close()
        rx.close()

    # the receiver of a last frame reads the end of sends after it, which is already there
    def test_a_last_frame_is_read_with_the_end_of_sends_after_it(self):
        tx, rx = loopback_channels()
        tx.send(tp.HELLO, tp.u64_payload(3))
        tx.end_sends()
        assert tp.u64_from_payload(rx.recv(tp.HELLO, last=True).payload) == 3
        tx.close()
        rx.close()

    # any byte after a last frame fails at once, without waiting for the end of sends
    @pytest.mark.parametrize("extra", [tp.frame_header(tp.HELLO, 1, 2, 0), b"\x00"],
                             ids=["frame", "byte"])
    def test_a_byte_after_a_last_frame_fails_at_once_naming_its_sender(self, extra):
        tx, rx = loopback_channels()
        tx.send(tp.HELLO, tp.u64_payload(3))
        tx.sock.sendall(extra)
        message = "^party 1 sent party 2 a frame after its last hello$"
        with pytest.raises(ProtocolError, match=message):
            rx.recv(tp.HELLO, last=True)
        tx.close()
        rx.close()

    def test_timeout_names_the_waiting_party_and_its_peer(self):
        tx, rx = loopback_channels()
        rx.sock.settimeout(0.01)
        with pytest.raises(TransportError, match="^party 2 timed out waiting for party 1$"):
            rx.recv()
        tx.close()
        rx.close()

    def test_unknown_tag(self):
        tx, rx = loopback_channels()
        tx.sock.sendall(b"\x7f" + tp.frame_header(tp.HELLO, 1, 2, 0)[1:])
        with pytest.raises(ProtocolVersionError,
                           match="^party 2 got unknown message tag 0x7f from party 1$"):
            rx.recv()
        tx.close()
        rx.close()


class TestHeaderChecks:
    """A bad header fails its ``recv`` when it arrives, not after its payload."""

    @pytest.mark.parametrize(
        "header, expect_kind, error, match",
        [
            ((0xEE, 1, 2), None, ProtocolVersionError,
             "^party 2 got unknown message tag 0xee from party 1$"),
            ((tp.HELLO, 3, 2), None, ProtocolError,
             "^party 2 expected a frame from 1, got one from 3$"),
            ((tp.HELLO, 1, 7), None, ProtocolError,
             "^party 2 got a frame from 1 addressed to party 7$"),
            ((tp.HELLO, 1, 2), tp.MASKED_DATA, ProtocolError,
             "^party 2 expected masked_data from 1, got hello$"),
        ],
        ids=["unknown-tag", "wrong-sender", "wrong-receiver", "wrong-kind"],
    )
    def test_bad_header_fails_before_its_payload_arrives(
        self, monkeypatch, header, expect_kind, error, match
    ):
        # a recv that waits for the payload instead times out, after 5 s
        monkeypatch.setattr(tp, "IO_TIMEOUT", 5.0)
        tx, rx = loopback_channels()
        try:
            tx.sock.sendall(struct.pack("<BHHQ", *header, 8))  # the payload never comes
            start = time.perf_counter()
            with pytest.raises(error, match=match):
                rx.recv(expect_kind)
            elapsed = time.perf_counter() - start
        finally:
            tx.close()
            rx.close()
        assert elapsed < 1.0, f"rejected after {elapsed:.2f} s"


class TestPayloads:
    def test_matrix_round_trip_field(self):
        m = random_matrix((3, 5), m61, KEY, 0)
        got, consumed = tp.matrix_from_payload(joined(tp.matrix_payload(m)), m61)
        assert got == m
        assert consumed == 8 + 8 * 15

    @pytest.mark.parametrize("p", [251, 2**32 - 5])
    def test_matrix_round_trip_below_2_32(self, p):
        # a transposed (non-contiguous) matrix, so pack takes its copying path
        dom = FieldDomain(scale_bits=0, p=p)
        m = random_matrix((3, 5), dom, KEY, 1).transpose()
        got, consumed = tp.matrix_from_payload(joined(tp.matrix_payload(m)), dom)
        assert got == m
        assert consumed == 8 + 8 * 15

    def test_scalars_round_trip(self):
        xs = tuple(Random(1).randrange(m61.p) for _ in range(9))
        got, _ = tp.scalars_from_payload(joined(tp.scalars_payload(xs, m61)), m61)
        assert got.tolist() == list(xs)

    def test_pair_matrix_round_trip(self):
        m = random_matrix((2, 3), m61, KEY, 2)
        a, b, part, got = tp.pair_matrix_from_payload(
            joined(tp.pair_matrix_payload(1, 3, tp.PART_B2, m)), m61
        )
        assert (a, b, part, got) == (1, 3, tp.PART_B2, m)

    def test_pair_scalars_round_trip(self):
        xs = (4, 9, 13)
        a, b, side, got = tp.pair_scalars_from_payload(
            joined(tp.pair_scalars_payload(2, 5, tp.SIDE_Y, xs, m61)), m61
        )
        assert (a, b, side, got.tolist()) == (2, 5, tp.SIDE_Y, list(xs))

    def test_truncated_matrix_payload(self):
        payload = joined(tp.matrix_payload(random_matrix((2, 2), m61, KEY, 3)))
        with pytest.raises(FramingError):
            tp.matrix_from_payload(payload[:-5], m61)

    @pytest.mark.parametrize(
        "payload, decode",
        [
            (tp.matrix_payload(Matrix.zeros(2, 3, m61)), lambda b: tp.matrix_from_payload(b, m61)),
            (tp.scalars_payload((4, 9, 13), m61), lambda b: tp.scalars_from_payload(b, m61)),
            (
                tp.pair_matrix_payload(1, 2, tp.PART_A1, Matrix.zeros(2, 2, m61)),
                lambda b: tp.pair_matrix_from_payload(b, m61),
            ),
            (
                tp.pair_scalars_payload(1, 2, tp.SIDE_X, (1, 2), m61),
                lambda b: tp.pair_scalars_from_payload(b, m61),
            ),
            (tp.u64_payload(5), tp.u64_from_payload),
        ],
        ids=["matrix", "scalars", "pair_matrix", "pair_scalars", "u64"],
    )
    def test_exact_length_required(self, payload, decode):
        payload = joined(payload)
        decode(payload)
        with pytest.raises(FramingError, match="8 trailing bytes"):
            decode(payload + b"garbage!")
        for cut in (3, len(payload) - 1):
            with pytest.raises(FramingError, match="truncated"):
                decode(payload[:cut])

    def test_matrix_element_out_of_range_rejected(self):
        payload = bytearray(joined(tp.matrix_payload(Matrix.from_rows([[1, 2], [3, 4]], m61))))
        payload[8 + 8 * 3 : 8 + 8 * 4] = m61.p.to_bytes(8, "little")
        with pytest.raises(DomainError, match=">= modulus"):
            tp.matrix_from_payload(bytes(payload), m61)

    def test_scalar_element_out_of_range_rejected(self):
        z251 = FieldDomain(scale_bits=0, p=251)
        payload = joined(tp.scalars_payload((7, 250), m61))
        assert tp.scalars_from_payload(payload, z251)[0].tolist() == [7, 250]
        with pytest.raises(DomainError, match="251 >= modulus 251"):
            tp.scalars_from_payload(joined(tp.scalars_payload((7, 251), m61)), z251)

    def test_element_counts_per_kind(self):
        def size(payload):
            return len(joined(payload))

        mat = size(tp.matrix_payload(random_matrix((3, 4), m61, KEY, 4)))
        assert tp.payload_elements(tp.MASKED_DATA, mat) == 12
        assert tp.payload_elements(tp.SELF_GRAM, mat) == 12
        pr = size(tp.pair_matrix_payload(1, 2, tp.PART_A1, random_matrix((2, 5), m61, KEY, 5)))
        assert tp.payload_elements(tp.PAIR_RESULT, pr) == 10
        sc = size(tp.pair_scalars_payload(1, 2, tp.SIDE_X, (1, 2, 3), m61))
        assert tp.payload_elements(tp.RE_COMPONENTS, sc) == 3
        assert tp.payload_elements(tp.ALPHA, size(tp.scalars_payload((7,), m61))) == 1
        assert tp.payload_elements(tp.HELLO, size(tp.u64_payload(5))) == 0
        assert tp.payload_elements(tp.DONE, 0) == 0


class TestChannels:
    def test_loopback_send_recv(self):
        a, b = loopback_channels()
        a.send(tp.HELLO, tp.u64_payload(3))
        frame = b.recv()
        a.close()
        b.close()
        assert frame.kind == tp.HELLO
        assert tp.u64_from_payload(frame.payload) == 3

    def test_tcp_ephemeral_port(self):
        accepted, client = tcp_pair()
        a, b = tp.Channel(accepted, 1, 2, None), tp.Channel(client, 2, 1, None)
        payload = tp.matrix_payload(random_matrix((4, 4), m61, KEY, 6))
        b.send(tp.MASKED_DATA, payload)
        frame = a.recv(tp.MASKED_DATA)
        assert frame.payload == joined(payload)
        a.close()
        b.close()

    def test_tcp_large_frame_arrives_intact_and_fast(self):
        # receive time must stay linear in the frame size
        accepted, client = tcp_pair()
        a, b = tp.Channel(accepted, 0, 2, None), tp.Channel(client, 2, 0, None)
        payload = bytes(range(256)) * (32 * 4096)  # 32 MiB
        t = threading.Thread(target=b.send, args=(tp.SELF_GRAM, (payload,)))
        start = time.perf_counter()
        t.start()
        frame = a.recv(tp.SELF_GRAM)
        elapsed = time.perf_counter() - start
        t.join()
        a.close()
        b.close()
        assert (frame.kind, frame.sender, frame.receiver) == (tp.SELF_GRAM, 2, 0)
        assert frame.payload == payload
        assert elapsed < 2.0, f"32 MiB frame took {elapsed:.2f} s"

    def test_interleaved_sends_preserve_per_direction_order(self):
        accepted, client = tcp_pair()
        a, b = tp.Channel(accepted, 1, 2, None), tp.Channel(client, 2, 1, None)

        def sender(channel):
            for i in range(20):
                channel.send(tp.HELLO, tp.u64_payload(i + 1))

        t1 = threading.Thread(target=sender, args=(a,))
        t2 = threading.Thread(target=sender, args=(b,))
        t1.start(), t2.start()
        got_a = [tp.u64_from_payload(a.recv(tp.HELLO).payload) for _ in range(20)]
        got_b = [tp.u64_from_payload(b.recv(tp.HELLO).payload) for _ in range(20)]
        t1.join(), t2.join()
        assert got_a == list(range(1, 21))
        assert got_b == list(range(1, 21))
        a.close(), b.close()


class TestKernelTimeouts:
    """Channel sockets are blocking, and the kernel enforces ``IO_TIMEOUT`` on each
    receive and send; a timeout names both parties, on loopback and over TCP."""

    TIMEOUT = 0.2  # a whole number of clock ticks at any tick rate, so it reads back exactly

    @pytest.fixture(params=["loopback", "tcp"])
    def sockets(self, request, monkeypatch):
        """(receiver's, sender's) sockets, made after ``IO_TIMEOUT`` is lowered."""
        monkeypatch.setattr(tp, "IO_TIMEOUT", self.TIMEOUT)
        pair = tp.loopback_pair() if request.param == "loopback" else tcp_pair()
        yield pair
        for sock in pair:
            sock.close()

    def test_sockets_are_blocking_with_the_kernel_timeouts(self, sockets):
        timeval = struct.pack("ll", 0, round(self.TIMEOUT * 1e6))
        for sock in sockets:
            assert sock.gettimeout() is None
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                assert sock.getsockopt(socket.SOL_SOCKET, option, len(timeval)) == timeval

    def test_a_recv_with_nothing_to_read_names_both_parties(self, sockets):
        rx = tp.Channel(sockets[0], 2, 1, None)
        start = time.perf_counter()
        with pytest.raises(TransportError, match="^party 2 timed out waiting for party 1$"):
            rx.recv()
        elapsed = time.perf_counter() - start
        assert self.TIMEOUT * 0.9 <= elapsed < 2 * self.TIMEOUT, f"timed out after {elapsed:.2f} s"

    def test_a_send_to_a_peer_that_never_reads_names_both_parties(self, sockets):
        # 8 MB outgrows both socket buffers: one sendmsg takes what fits and
        # waits out the timeout, the next finds no room and fails
        tx = tp.Channel(sockets[1], 1, 2, None)
        start = time.perf_counter()
        with pytest.raises(TransportError, match="^party 1 timed out sending to party 2$"):
            tx.send(tp.SELF_GRAM, (bytes(8 << 20),))
        elapsed = time.perf_counter() - start
        assert elapsed < 4 * self.TIMEOUT, f"timed out after {elapsed:.2f} s"

    def test_a_python_timeout_on_a_send_names_both_parties(self):
        tx, rx = loopback_channels()
        tx.sock.settimeout(0.01)
        with pytest.raises(TransportError, match="^party 1 timed out sending to party 2$"):
            tx.send(tp.SELF_GRAM, (bytes(8 << 20),))
        tx.close()
        rx.close()


class TestTranscript:
    @pytest.fixture
    def channel_pair(self):
        transcript = tp.Transcript()
        e1, e2 = tp.loopback_pair()
        c1 = tp.Channel(e1, 1, 2, transcript)
        c2 = tp.Channel(e2, 2, 1, transcript)
        yield transcript, c1, c2
        c1.close()
        c2.close()

    def test_totals_recompute_from_entries(self, channel_pair):
        transcript, c1, c2 = channel_pair
        m = random_matrix((2, 2), m61, KEY, 7)
        c1.send(tp.MASKED_DATA, tp.matrix_payload(m))
        c2.send(tp.MASKED_DATA, tp.matrix_payload(m))
        c1.send(tp.HELLO, tp.u64_payload(2))
        totals = transcript.totals()
        frame_bytes = 13 + 8 + 32
        assert totals["total"]["frames"] == 3
        assert totals["total"]["bytes"] == 2 * frame_bytes + 13 + 8
        assert totals["total"]["elements"] == 8
        assert totals["ip_ip"] == totals["total"]

    def test_ip_fp_scope(self):
        transcript = tp.Transcript()
        e1, e2 = tp.loopback_pair()
        fp_chan = tp.Channel(e1, 1, tp.FUNCTION_PARTY_ID, transcript)
        fp_chan.send(tp.SELF_GRAM, tp.matrix_payload(random_matrix((2, 2), m61, KEY, 8)))
        fp_chan.close()
        e2.close()
        totals = transcript.totals()
        assert totals["ip_fp"]["elements"] == 4
        assert totals["ip_ip"]["frames"] == 0

    def test_sequence_numbers_per_channel(self, channel_pair):
        transcript, c1, c2 = channel_pair
        c1.send(tp.HELLO, tp.u64_payload(1))
        c1.send(tp.DONE, b"")
        c2.send(tp.HELLO, tp.u64_payload(2))
        seqs = {(e.sender, e.receiver, e.seq) for e in transcript.entries}
        assert seqs == {(1, 2, 0), (1, 2, 1), (2, 1, 0)}

    def test_canonical_json_round_trip(self, channel_pair):
        transcript, c1, c2 = channel_pair
        c2.send(tp.HELLO, tp.u64_payload(2))
        c1.send(tp.HELLO, tp.u64_payload(1))
        blob = transcript.canonical_json()
        frames = json.loads(blob)["frames"]
        assert [(f["sender"], f["receiver"], f["seq"]) for f in frames] == [(1, 2, 0), (2, 1, 0)]
        assert transcript.digest() == hashlib.sha256(blob.encode()).hexdigest()

    def test_empty_transcript_zero_totals(self):
        totals = tp.Transcript().totals()
        assert totals["total"] == {"bytes": 0, "elements": 0, "frames": 0}
        assert totals["per_kind"] == {}

    def test_channel_recv_kind_validation(self, channel_pair):
        _, c1, c2 = channel_pair
        c1.send(tp.HELLO, tp.u64_payload(1))
        with pytest.raises(ProtocolError, match="expected masked_data"):
            c2.recv(tp.MASKED_DATA)

    def test_channel_recv_rejects_a_frame_addressed_to_another_party(self):
        e1, e2 = tp.loopback_pair()
        c2 = tp.Channel(e2, 2, 1, tp.Transcript())
        e1.sendall(tp.frame_header(tp.HELLO, 1, 7, 8) + joined(tp.u64_payload(1)))
        with pytest.raises(ProtocolError, match="^party 2 got a frame from 1 addressed to party 7$"):
            c2.recv(tp.HELLO)
        e1.close()
        c2.close()


class TestFailureModes:
    def test_connect_failure_names_address(self):
        from mpgram.errors import TransportError

        with pytest.raises(TransportError, match="127.0.0.1"):
            tp.tcp_connect("127.0.0.1", 1, retries=2, delay=0.01)

    def test_empty_party_rejected_at_hello(self):
        from mpgram.party import Mesh

        tx, rx = loopback_channels(3, 0)
        mesh = Mesh(0, {3: rx})
        tx.send(tp.HELLO, tp.u64_payload(0))
        message = "^party 3 announced 0 samples; empty parties are rejected$"
        with pytest.raises(ProtocolError, match=message):
            mesh.peer_size(3)
        tx.send(tp.HELLO, tp.u64_payload(5))
        assert mesh.peer_size(3) == mesh.peer_size(3) == 5  # read once, then kept
        tx.close()
        mesh.close()


class TestConnectBackoff:
    """``tcp_connect`` waits 1 ms after a refused connect, doubling up to ``delay``."""

    @staticmethod
    def _closed_port() -> int:
        srv = tp.tcp_listen("127.0.0.1", 0)
        port = srv.getsockname()[1]
        srv.close()
        return port

    def test_waits_double_up_to_delay_for_at_least_5_s(self, monkeypatch):
        waits = []
        monkeypatch.setattr(tp.time, "sleep", waits.append)
        port = self._closed_port()
        with pytest.raises(TransportError, match=f"^cannot connect to 127.0.0.1:{port}: "):
            tp.tcp_connect("127.0.0.1", port)
        assert waits[:6] == pytest.approx([0.001, 0.002, 0.004, 0.008, 0.016, 0.025])
        assert waits[5:] == [0.025] * (len(waits) - 5)
        assert 5.0 <= sum(waits) < 5.1

    def test_no_wait_after_the_last_attempt(self, monkeypatch):
        waits = []
        monkeypatch.setattr(tp.time, "sleep", waits.append)
        with pytest.raises(TransportError):
            tp.tcp_connect("127.0.0.1", self._closed_port(), retries=3, delay=0.003)
        assert waits == pytest.approx([0.001, 0.002])

    def test_connects_once_the_peer_listens(self, monkeypatch):
        port = self._closed_port()
        waits, listeners = [], []

        def sleep(seconds):
            waits.append(seconds)
            if len(waits) == 3:
                listeners.append(tp.tcp_listen("127.0.0.1", port))

        monkeypatch.setattr(tp.time, "sleep", sleep)
        sock = tp.tcp_connect("127.0.0.1", port)
        sock.close()
        listeners[0].close()
        assert waits == pytest.approx([0.001, 0.002, 0.004])
