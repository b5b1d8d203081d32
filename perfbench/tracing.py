"""Spans around calls into mpgram's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
loaded ``mpgram`` module that binds it (``gram_t`` is imported into
``masking``, ``party`` and ``runner``, for instance), and on the class for
methods; ``uninstall()`` puts the originals back.  A wrapper records one span
per call: wall time (``perf_counter_ns``, a system-wide monotonic clock, so
spans of worker processes line up), CPU time of the calling thread
(``thread_time_ns``, so time spent waiting for the GIL or a peer shows as
wall minus CPU), and the span that was open on the same thread when it
started, from which self times are derived.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import NamedTuple


class Span(NamedTuple):
    sid: int  # unique within one process
    parent: int  # sid of the enclosing span on the same thread, 0 if none
    name: str
    pid: int
    tid: int
    start_ns: int
    wall_ns: int
    cpu_ns: int
    work: int  # a count of work done, where the function has one


def _gram_t_macs(a, b, *_args, **_kwargs) -> int:
    return a.rows * a.cols * b.cols


# (module, attribute path, work counter); span names drop the "mpgram." prefix
TARGETS = (
    ("mpgram.matrix", "gram_t", _gram_t_macs),
    ("mpgram.matrix", "mat_sub", None),
    ("mpgram.matrix", "mat_scale", None),
    ("mpgram.matrix", "random_matrix", None),
    ("mpgram.matrix", "encode_real_matrix", None),
    ("mpgram.matrix", "load_real_csv", None),
    ("mpgram.party", "input_party_session", None),
    ("mpgram.party", "function_party_session", None),
    ("mpgram.transport", "matrix_payload", None),
    ("mpgram.transport", "scalars_payload", None),
    ("mpgram.transport", "pair_matrix_payload", None),
    ("mpgram.transport", "pair_scalars_payload", None),
    ("mpgram.transport", "u64_payload", None),
    ("mpgram.transport", "matrix_from_payload", None),
    ("mpgram.transport", "scalars_from_payload", None),
    ("mpgram.transport", "pair_matrix_from_payload", None),
    ("mpgram.transport", "pair_scalars_from_payload", None),
    ("mpgram.transport", "u64_from_payload", None),
    ("mpgram.transport", "Channel.send", None),
    ("mpgram.transport", "Channel.recv", None),
    ("mpgram.transport", "tcp_listen", None),
    ("mpgram.transport", "tcp_accept", None),
    ("mpgram.transport", "tcp_connect", None),
    ("mpgram.scheme", "pair_randoms", None),
    ("mpgram.scheme", "encode_x_side", None),
    ("mpgram.scheme", "encode_y_side", None),
    ("mpgram.scheme", "offline_components", None),
    ("mpgram.scheme", "decode_dot", None),
    ("mpgram.seeds", "derive_seed", None),
    ("mpgram.masking", "make_party_state", None),
    ("mpgram.masking", "fp_combine", None),
    ("mpgram.masking", "assemble_gram", None),
    ("mpgram.masking", "leakage_view", None),
    ("mpgram.masking", "verify_leakage_view", None),
    ("mpgram.runner", "plaintext_gram", None),
    ("mpgram.costs", "transcript_audit", None),
    ("mpgram.kernel", "rbf_from_gram", None),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._undo = []

    def _wrap(self, name: str, fn, work):
        spans, ids, local, pid = self.spans, self._ids, self._local, self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = time.thread_time_ns()
            w0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                w1 = time.perf_counter_ns()
                c1 = time.thread_time_ns()
                stack.pop()
                spans.append(
                    Span(
                        sid, parent, name, pid, threading.get_native_id(),
                        w0, w1 - w0, c1 - c0, work(*args, **kwargs) if work else 0,
                    )
                )

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, path, work in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{modname.removeprefix('mpgram.')}.{path}", original, work)
            bindings = [(owner, attr)] if outer else _bindings(original)
            for holder, name in bindings:
                setattr(holder, name, wrapper)
                self._undo.append((holder, name, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def take(self) -> list:
        """The spans recorded so far; the tracer starts over with none."""
        out = list(self.spans)
        del self.spans[: len(out)]
        return out


def _bindings(fn) -> list:
    """(module, name) of every loaded mpgram module attribute that is ``fn``."""
    return [
        (mod, attr)
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "mpgram" or modname.startswith("mpgram."))
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


def chrome_trace(spans, origin_ns: int) -> list:
    """Chrome Trace Event Format: one complete ("X") event per span, times in us."""
    return [
        {
            "ph": "X",
            "name": s.name,
            "ts": (s.start_ns - origin_ns) / 1e3,
            "dur": s.wall_ns / 1e3,
            "pid": s.pid,
            "tid": s.tid,
            "args": {"cpu_us": s.cpu_ns / 1e3},
        }
        for s in spans
    ]


def write_spans(path, spans, **extra):
    """Write one process's spans and extra fields as JSON."""
    with open(path, "w") as fh:
        json.dump(dict(extra, spans=[list(s) for s in spans]), fh)


def read_spans(doc: dict) -> list:
    return [Span(*s) for s in doc.get("spans", ())]
