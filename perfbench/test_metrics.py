"""Tests of the benchmark's own arithmetic and tracing, on synthetic spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import pytest

from perfbench.metrics import layer_metrics, percentile, self_times, tail_is_resolved
from perfbench.tracing import Span, Tracer
from perfbench.workloads import WORKLOADS, expected_wire


def span(sid, parent, name, start, wall, cpu, pid=1, tid=1, work=0):
    return Span(sid, parent, name, pid, tid, start, wall, cpu, work)


REPORT = {
    "timing": {"data_s": 0.1, "protocol_s": 2.0, "post_s": 0.3},
    "totals": {
        "total": {"bytes": 30, "elements": 3, "frames": 2},
        "ip_ip": {"bytes": 10, "elements": 1, "frames": 1},
        "ip_fp": {"bytes": 20, "elements": 2, "frames": 1},
    },
}


def test_percentile_interpolates_between_order_statistics():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 25) == pytest.approx(1.75)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert not tail_is_resolved(99, 90)
    assert tail_is_resolved(100, 90)
    assert tail_is_resolved(20, 50)


def test_self_time_subtracts_covered_part_of_the_interval():
    spans = [
        span(1, 0, "outer", start=0, wall=100, cpu=80),
        span(2, 1, "a", start=10, wall=20, cpu=15),  # [10, 30]
        span(3, 1, "b", start=20, wall=20, cpu=5),  # [20, 40], overlaps a
        span(4, 1, "c", start=90, wall=30, cpu=0),  # [90, 120], clipped at 100
        # span ids are per process: these belong to another one
        span(1, 0, "outer", start=0, wall=50, cpu=50, pid=2),
        span(2, 1, "a", start=0, wall=10, cpu=10, pid=2),
    ]
    own = self_times(spans)
    assert own[(1, 1)] == (100 - 30 - 10, 80 - 20)
    assert own[(1, 2)] == (20, 15)
    assert own[(2, 1)] == (40, 40)


def test_self_cpu_never_negative():
    spans = [span(1, 0, "p", 0, 10, 2), span(2, 1, "c", 0, 10, 3)]
    assert self_times(spans)[(1, 1)] == (0, 0)


def test_nested_codecs_are_counted_once():
    # pair_matrix_payload encodes its matrix through matrix_payload
    spans = [
        span(1, 0, "transport.pair_matrix_payload", 0, 100, 10_000),
        span(2, 1, "transport.matrix_payload", 5, 80, 8_000),
        span(3, 0, "transport.matrix_from_payload", 200, 50, 4_000),
    ]
    out = layer_metrics(spans, REPORT)
    assert out["transport.encode.cpu_s"] == pytest.approx(10_000e-9)
    assert out["transport.decode.cpu_s"] == pytest.approx(4_000e-9)


def test_inclusive_and_self_layer_times():
    spans = [
        span(1, 0, "masking.assemble_gram", 0, 1000, 10_000),
        span(2, 1, "masking.fp_combine", 10, 500, 6_000),
        span(3, 0, "masking.leakage_view", 2000, 1000, 9_000),
        span(4, 3, "masking.fp_combine", 2010, 100, 1_000),
        span(5, 3, "matrix.gram_t", 2200, 100, 2_000, work=7),
        span(6, 0, "matrix.gram_t", 4000, 300, 3_000, work=5),
    ]
    out = layer_metrics(spans, REPORT)
    assert out["masking.assemble_gram.cpu_s"] == pytest.approx(4_000e-9)
    assert out["masking.fp_combine.cpu_s"] == pytest.approx(7_000e-9)
    assert out["masking.leakage.cpu_s"] == pytest.approx(9_000e-9)
    assert out["matrix.gram_t.calls"] == 2
    assert out["matrix.gram_t.macs"] == 12
    assert out["matrix.gram_t.cpu_s"] == pytest.approx(5_000e-9)
    assert out["matrix.gram_t.wall_s"] == pytest.approx(400e-9)


def test_party_worker_and_report_metrics():
    spans = [
        span(1, 0, "party.input_party_session", 0, 900_000_000, 300_000_000, pid=11),
        span(1, 0, "party.input_party_session", 0, 700_000_000, 500_000_000, pid=12),
        span(1, 0, "party.function_party_session", 0, 800_000_000, 200_000_000, pid=10),
        span(2, 0, "transport.tcp_connect", -500, 100, 50, pid=11),
        span(3, 0, "transport.Channel.recv", 10, 1_000, 400, pid=11),
    ]
    out = layer_metrics(spans, REPORT, worker_pids=(10, 11, 12))
    assert out["party.ip_wall_s.max"] == pytest.approx(0.9)
    assert out["party.ip_cpu_s.sum"] == pytest.approx(0.8)
    assert out["party.fp_cpu_s"] == pytest.approx(0.2)
    assert out["party.parallelism"] == pytest.approx(0.5)
    assert out["transport.recv_wait_s"] == pytest.approx(600e-9)
    assert out["worker.setup_mesh_s"] == pytest.approx(500e-9)
    assert out["worker.session.cpu_s"] == pytest.approx(1.0)
    assert out["transport.bytes.ip_ip"] == 10
    assert out["runner.post_s"] == 0.3
    assert "worker.setup_mesh_s" not in layer_metrics(spans, REPORT)


@pytest.mark.parametrize(
    "name, total_bytes, frames",
    [("escaped-loopback", 623_985, 63), ("re-loopback", 3_553_257, 24),
     ("escaped-tcp-verify", 246_524, 35)],
)
def test_closed_form_wire_matches_known_transcripts(name, total_bytes, frames):
    from mpgram import cost_model

    w = WORKLOADS[name]
    wire = expected_wire(w, cost_model(w.protocol, w.m, w.features, (w.samples,) * w.m).wire_per_kind)
    assert wire["total"]["bytes"] == total_bytes
    assert wire["total"]["frames"] == frames
    assert wire["ip_ip_bytes"] + wire["ip_fp_bytes"] == total_bytes


def test_tracer_wraps_every_binding_and_restores_them():
    import mpgram
    from mpgram import masking, matrix, party, runner
    from mpgram.field import make_domain

    original = matrix.gram_t
    tracer = Tracer()
    tracer.install()
    try:
        assert masking.gram_t is party.gram_t is runner.gram_t is mpgram.gram_t
        assert masking.gram_t is not original
        a = mpgram.Matrix.from_rows([[1, 2], [3, 4]], make_domain("field"))
        masking.gram_t(a, a)
    finally:
        tracer.uninstall()
    assert masking.gram_t is party.gram_t is runner.gram_t is matrix.gram_t is original
    (recorded,) = tracer.take()
    assert recorded.name == "matrix.gram_t"
    assert recorded.work == 2 * 2 * 2
    assert tracer.take() == []
