"""Metric arithmetic: percentiles, self time, and per-layer metrics from spans.

Layer metrics come from the spans of one traced ``run()`` call (the
orchestrator's and, for TCP, every worker's) plus that call's report.  A
``.cpu_s`` metric is the thread CPU time inside the named functions, counting
a call nested in another call of the same metric once; metrics marked
"self" subtract the time of the traced calls nested inside them.
"""

from __future__ import annotations

import math

UNITS = {
    "run_s.p50": "s",
    "run_s.p90": "s",
    "protocol_s.p50": "s",
    "cpu_s.p50": "s",
    "gram_macs_per_s": "MAC/s",
    "wire_bytes": "B",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "fail_rate": "ratio",
    "matrix.gram_t.calls": "count",
    "matrix.gram_t.macs": "count",
    "matrix.gram_t.cpu_s": "s",
    "matrix.gram_t.wall_s": "s",
    "matrix.elementwise.cpu_s": "s",
    "matrix.encode_real_matrix.cpu_s": "s",
    "matrix.load_real_csv.cpu_s": "s",
    "party.ip_wall_s.max": "s",
    "party.ip_cpu_s.sum": "s",
    "party.fp_cpu_s": "s",
    "party.parallelism": "ratio",
    "transport.encode.cpu_s": "s",
    "transport.decode.cpu_s": "s",
    "transport.send.cpu_s": "s",
    "transport.recv_wait_s": "s",
    "transport.frames": "count",
    "transport.bytes.ip_ip": "B",
    "transport.bytes.ip_fp": "B",
    "transport.elements": "count",
    "scheme.pair_randoms.calls": "count",
    "scheme.pair_randoms.cpu_s": "s",
    "scheme.encode.cpu_s": "s",
    "scheme.decode_dot.cpu_s": "s",
    "seeds.derive_seed.calls": "count",
    "masking.make_party_state.cpu_s": "s",
    "masking.fp_combine.cpu_s": "s",
    "masking.assemble_gram.cpu_s": "s",
    "masking.leakage.cpu_s": "s",
    "runner.data_s": "s",
    "runner.protocol_s": "s",
    "runner.post_s": "s",
    "runner.plaintext_gram.cpu_s": "s",
    "costs.audit.cpu_s": "s",
    "kernel.rbf_from_gram.cpu_s": "s",
    "worker.setup_mesh_s": "s",
    "worker.session.cpu_s": "s",
    "trace.overhead_s": "s",
    "host_factor.p50": "ratio",
    "cpu_factor.p50": "ratio",
}


def unit(name: str) -> str:
    """Unit of a metric; ``<name>.raw`` is ``<name>`` as measured, before host normalisation."""
    return UNITS[name.removesuffix(".raw")]


_ENCODERS = tuple(
    f"transport.{f}"
    for f in ("matrix_payload", "scalars_payload", "pair_matrix_payload",
              "pair_scalars_payload", "u64_payload")
)
_DECODERS = tuple(
    f"transport.{f}"
    for f in ("matrix_from_payload", "scalars_from_payload", "pair_matrix_from_payload",
              "pair_scalars_from_payload", "u64_from_payload")
)
_IP_SESSION = "party.input_party_session"
_FP_SESSION = "party.function_party_session"
_MESH_SETUP = ("transport.tcp_listen", "transport.tcp_accept", "transport.tcp_connect")

# metric -> span names whose CPU time it sums, nested calls counted once
_CPU = {
    "matrix.gram_t.cpu_s": ("matrix.gram_t",),
    "matrix.elementwise.cpu_s": ("matrix.mat_sub", "matrix.mat_scale", "matrix.random_matrix"),
    "matrix.encode_real_matrix.cpu_s": ("matrix.encode_real_matrix",),
    "matrix.load_real_csv.cpu_s": ("matrix.load_real_csv",),
    "transport.send.cpu_s": ("transport.Channel.send",),
    "scheme.pair_randoms.cpu_s": ("scheme.pair_randoms",),
    "scheme.encode.cpu_s": ("scheme.encode_x_side", "scheme.encode_y_side",
                            "scheme.offline_components"),
    "scheme.decode_dot.cpu_s": ("scheme.decode_dot",),
    "masking.make_party_state.cpu_s": ("masking.make_party_state",),
    "masking.fp_combine.cpu_s": ("masking.fp_combine",),
    "masking.leakage.cpu_s": ("masking.leakage_view", "masking.verify_leakage_view"),
    "runner.plaintext_gram.cpu_s": ("runner.plaintext_gram",),
    "costs.audit.cpu_s": ("costs.transcript_audit",),
    "kernel.rbf_from_gram.cpu_s": ("kernel.rbf_from_gram",),
}
# metric -> span names whose self CPU time it sums
_SELF_CPU = {
    "transport.encode.cpu_s": _ENCODERS,
    "transport.decode.cpu_s": _DECODERS,
    "masking.assemble_gram.cpu_s": ("masking.assemble_gram",),
}
_CALLS = {
    "matrix.gram_t.calls": "matrix.gram_t",
    "scheme.pair_randoms.calls": "scheme.pair_randoms",
    "seeds.derive_seed.calls": "seeds.derive_seed",
}


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_is_resolved(n: int, q: float, beyond: int = 10) -> bool:
    """Whether n samples leave at least ``beyond`` samples above the q-th percentile."""
    return n * (100.0 - q) / 100.0 >= beyond


def self_times(spans) -> dict:
    """(pid, sid) -> (self wall ns, self cpu ns).

    Self wall time is the span's duration minus the part of its interval that
    its child spans cover; self CPU time subtracts the children's CPU time,
    which ran on the same thread.
    """
    children = {}
    for s in spans:
        if s.parent:
            children.setdefault((s.pid, s.parent), []).append(s)
    out = {}
    for s in spans:
        kids = children.get((s.pid, s.sid), ())
        end = s.start_ns + s.wall_ns
        intervals = sorted(
            (max(k.start_ns, s.start_ns), min(k.start_ns + k.wall_ns, end)) for k in kids
        )
        covered, reach = 0, s.start_ns
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        kid_cpu = sum(k.cpu_ns for k in kids)
        out[(s.pid, s.sid)] = (s.wall_ns - covered, max(s.cpu_ns - kid_cpu, 0))
    return out


def _outermost(spans, names) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_key = {(s.pid, s.sid): s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = by_key.get((s.pid, s.parent))
        while parent is not None and parent.name not in names:
            parent = by_key.get((parent.pid, parent.parent))
        if parent is None:
            out.append(s)
    return out


def layer_metrics(spans, report: dict, worker_pids=()) -> dict:
    """Per-layer metrics of one traced call; ``worker.*`` only with worker pids."""
    ns = 1e-9
    out = {}
    for metric, names in _CPU.items():
        out[metric] = sum(s.cpu_ns for s in _outermost(spans, set(names))) * ns
    own = self_times(spans)
    for metric, names in _SELF_CPU.items():
        out[metric] = sum(own[(s.pid, s.sid)][1] for s in spans if s.name in names) * ns
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)

    grams = [s for s in spans if s.name == "matrix.gram_t"]
    out["matrix.gram_t.macs"] = sum(s.work for s in grams)
    out["matrix.gram_t.wall_s"] = sum(s.wall_ns for s in grams) * ns

    ips = [s for s in spans if s.name == _IP_SESSION]
    fps = [s for s in spans if s.name == _FP_SESSION]
    timing = report["timing"]
    out["party.ip_wall_s.max"] = max((s.wall_ns for s in ips), default=0) * ns
    out["party.ip_cpu_s.sum"] = sum(s.cpu_ns for s in ips) * ns
    out["party.fp_cpu_s"] = sum(s.cpu_ns for s in fps) * ns
    out["party.parallelism"] = (
        (out["party.ip_cpu_s.sum"] + out["party.fp_cpu_s"]) / timing["protocol_s"]
    )

    recvs = [s for s in spans if s.name == "transport.Channel.recv"]
    out["transport.recv_wait_s"] = sum(s.wall_ns - s.cpu_ns for s in recvs) * ns
    totals = report["totals"]
    out["transport.frames"] = totals["total"]["frames"]
    out["transport.bytes.ip_ip"] = totals["ip_ip"]["bytes"]
    out["transport.bytes.ip_fp"] = totals["ip_fp"]["bytes"]
    out["transport.elements"] = totals["total"]["elements"]

    out["runner.data_s"] = timing["data_s"]
    out["runner.protocol_s"] = timing["protocol_s"]
    out["runner.post_s"] = timing["post_s"]

    if worker_pids:
        setups = []
        for pid in worker_pids:
            mine = [s for s in spans if s.pid == pid]
            first = min((s.start_ns for s in mine if s.name in _MESH_SETUP), default=None)
            session = min(
                (s.start_ns for s in mine if s.name in (_IP_SESSION, _FP_SESSION)), default=None
            )
            if first is not None and session is not None:
                setups.append(session - first)
        out["worker.setup_mesh_s"] = max(setups, default=0) * ns
        out["worker.session.cpu_s"] = out["party.ip_cpu_s.sum"] + out["party.fp_cpu_s"]
    return out
