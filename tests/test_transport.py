"""Wire framing, channels, and transcript accounting."""

import hashlib
import json
import threading
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgram import transport as tp
from mpgram.errors import DomainError, FramingError, ProtocolError, ProtocolVersionError
from mpgram.field import FieldDomain, FloatDomain
from mpgram.matrix import Matrix, random_matrix
from mpgram.seeds import party_key

m61 = FieldDomain()
f64 = FloatDomain()
KEY = party_key(0, 0)  # draws test data


def tcp_pair() -> tuple:
    """(accepted, connecting) TCP endpoints on an ephemeral localhost port."""
    srv = tp.tcp_listen("127.0.0.1", 0)
    client = tp.tcp_connect("127.0.0.1", srv.getsockname()[1])
    accepted = tp.tcp_accept(srv)
    srv.close()
    return accepted, client


class TestFraming:
    def test_empty_payload_is_header_only(self):
        frame = tp.frame_encode(tp.DONE, 1, 2, b"")
        assert len(frame) == 13

    def test_one_by_one_field_matrix_is_29_bytes(self):
        payload = tp.matrix_payload(Matrix.from_rows([[5]], m61))
        frame = tp.frame_encode(tp.SELF_GRAM, 1, 0, payload)
        assert len(frame) == 13 + 8 + 8 == 29

    @given(
        st.sampled_from(sorted(tp.KIND_NAMES)),
        st.integers(0, 65535),
        st.integers(0, 65535),
        st.binary(max_size=256),
    )
    @settings(max_examples=100)
    def test_round_trip(self, kind, sender, receiver, payload):
        frame = tp.frame_decode(tp.frame_encode(kind, sender, receiver, payload))
        assert (frame.kind, frame.sender, frame.receiver, frame.payload) == (
            kind,
            sender,
            receiver,
            payload,
        )

    def test_truncated_frame_reports_offset(self):
        data = tp.frame_encode(tp.HELLO, 1, 2, b"12345678")
        with pytest.raises(FramingError, match="byte"):
            tp.frame_decode(data[:-3])

    def test_header_shorter_than_13(self):
        with pytest.raises(FramingError, match="truncated"):
            tp.frame_decode(b"\x01\x00")

    def test_unknown_tag(self):
        data = tp.frame_encode(tp.HELLO, 1, 2, b"")
        with pytest.raises(ProtocolVersionError, match="0x7f"):
            tp.frame_decode(b"\x7f" + data[1:])


class TestPayloads:
    def test_matrix_round_trip_field(self):
        m = random_matrix((3, 5), m61, KEY, 0)
        got, consumed = tp.matrix_from_payload(tp.matrix_payload(m), m61)
        assert got == m
        assert consumed == 8 + 8 * 15

    def test_matrix_round_trip_float(self):
        m = Matrix.from_rows([[1.5, -2.25], [0.0, 3e-9]], f64)
        got, _ = tp.matrix_from_payload(tp.matrix_payload(m), f64)
        assert got == m

    def test_scalars_round_trip(self):
        xs = tuple(Random(1).randrange(m61.p) for _ in range(9))
        got, _ = tp.scalars_from_payload(tp.scalars_payload(xs, m61), m61)
        assert got == xs

    def test_pair_matrix_round_trip(self):
        m = random_matrix((2, 3), m61, KEY, 2)
        a, b, part, got = tp.pair_matrix_from_payload(
            tp.pair_matrix_payload(1, 3, tp.PART_B2, m), m61
        )
        assert (a, b, part, got) == (1, 3, tp.PART_B2, m)

    def test_pair_scalars_round_trip(self):
        xs = (4, 9, 13)
        a, b, side, got = tp.pair_scalars_from_payload(
            tp.pair_scalars_payload(2, 5, tp.SIDE_Y, xs, m61), m61
        )
        assert (a, b, side, got) == (2, 5, tp.SIDE_Y, xs)

    def test_truncated_matrix_payload(self):
        payload = tp.matrix_payload(random_matrix((2, 2), m61, KEY, 3))
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
        decode(payload)
        with pytest.raises(FramingError, match="8 trailing bytes"):
            decode(payload + b"garbage!")
        for cut in (3, len(payload) - 1):
            with pytest.raises(FramingError, match="truncated"):
                decode(payload[:cut])

    def test_matrix_element_out_of_range_rejected(self):
        payload = bytearray(tp.matrix_payload(Matrix.from_rows([[1, 2], [3, 4]], m61)))
        payload[8 + 8 * 3 : 8 + 8 * 4] = m61.p.to_bytes(8, "little")
        with pytest.raises(DomainError, match=">= modulus"):
            tp.matrix_from_payload(bytes(payload), m61)

    def test_scalar_element_out_of_range_rejected(self):
        z251 = FieldDomain(scale_bits=0, p=251)
        payload = tp.scalars_payload((7, 250), m61)
        assert tp.scalars_from_payload(payload, z251)[0] == (7, 250)
        with pytest.raises(DomainError, match="251 >= modulus 251"):
            tp.scalars_from_payload(tp.scalars_payload((7, 251), m61), z251)

    def test_element_counts_per_kind(self):
        mat = tp.matrix_payload(random_matrix((3, 4), m61, KEY, 4))
        assert tp.payload_elements(tp.MASKED_DATA, mat) == 12
        assert tp.payload_elements(tp.SELF_GRAM, mat) == 12
        pr = tp.pair_matrix_payload(1, 2, tp.PART_A1, random_matrix((2, 5), m61, KEY, 5))
        assert tp.payload_elements(tp.PAIR_RESULT, pr) == 10
        sc = tp.pair_scalars_payload(1, 2, tp.SIDE_X, (1, 2, 3), m61)
        assert tp.payload_elements(tp.RE_COMPONENTS, sc) == 3
        assert tp.payload_elements(tp.ALPHA, tp.scalars_payload((7,), m61)) == 1
        assert tp.payload_elements(tp.HELLO, tp.u64_payload(5)) == 0
        assert tp.payload_elements(tp.DONE, b"") == 0


class TestChannels:
    def test_loopback_send_recv(self):
        a, b = tp.loopback_pair()
        a.send_bytes(tp.frame_encode(tp.HELLO, 1, 2, tp.u64_payload(3)))
        frame = b.recv_frame()
        a.close()
        b.close()
        assert frame.kind == tp.HELLO
        assert tp.u64_from_payload(frame.payload) == 3

    def test_tcp_ephemeral_port(self):
        a, b = tcp_pair()
        payload = tp.matrix_payload(random_matrix((4, 4), m61, KEY, 6))
        b.send_bytes(tp.frame_encode(tp.MASKED_DATA, 2, 1, payload))
        frame = a.recv_frame()
        assert frame.payload == payload
        a.close()
        b.close()

    def test_tcp_peek_sender_leaves_frame_unread(self):
        a, b = tcp_pair()
        b.send_bytes(tp.frame_encode(tp.HELLO, 4, 0, tp.u64_payload(3)))
        assert a.peek_sender() == 4
        assert a.peek_sender() == 4
        frame = a.recv_frame()
        assert (frame.kind, frame.sender, tp.u64_from_payload(frame.payload)) == (tp.HELLO, 4, 3)
        a.close()
        b.close()

    def test_tcp_large_frame_arrives_intact_and_fast(self):
        # receive time must stay linear in the frame size
        a, b = tcp_pair()
        payload = bytes(range(256)) * (32 * 4096)  # 32 MiB
        t = threading.Thread(target=b.send_bytes, args=(tp.frame_encode(tp.SELF_GRAM, 2, 0, payload),))
        start = time.perf_counter()
        t.start()
        assert a.peek_sender() == 2
        frame = a.recv_frame()
        elapsed = time.perf_counter() - start
        t.join()
        a.close()
        b.close()
        assert (frame.kind, frame.sender, frame.receiver) == (tp.SELF_GRAM, 2, 0)
        assert frame.payload == payload
        assert elapsed < 2.0, f"32 MiB frame took {elapsed:.2f} s"

    def test_interleaved_sends_preserve_per_direction_order(self):
        a, b = tcp_pair()

        def sender(ep, sender_id):
            for i in range(20):
                ep.send_bytes(tp.frame_encode(tp.HELLO, sender_id, 3 - sender_id, tp.u64_payload(i + 1)))

        t1 = threading.Thread(target=sender, args=(a, 1))
        t2 = threading.Thread(target=sender, args=(b, 2))
        t1.start(), t2.start()
        got_a = [tp.u64_from_payload(a.recv_frame().payload) for _ in range(20)]
        got_b = [tp.u64_from_payload(b.recv_frame().payload) for _ in range(20)]
        t1.join(), t2.join()
        assert got_a == list(range(1, 21))
        assert got_b == list(range(1, 21))
        a.close(), b.close()


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
        per_channel = transcript.per_channel_bytes()
        assert per_channel[(1, 2)] == frame_bytes + 21
        assert per_channel[(2, 1)] == frame_bytes

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


class TestFailureModes:
    def test_connect_failure_names_address(self):
        from mpgram.errors import TransportError

        with pytest.raises(TransportError, match="127.0.0.1"):
            tp.tcp_connect("127.0.0.1", 1, retries=2, delay=0.01)

    def test_empty_party_rejected_at_hello(self):
        from mpgram.party import check_hello_size

        with pytest.raises(ProtocolError, match="empty parties"):
            check_hello_size(3, 0)
        assert check_hello_size(3, 5) == 5
