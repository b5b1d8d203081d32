"""Benchmark workloads: their configs, seeded inputs and closed-form wire sizes.

All workloads use the ``field`` domain (M61, 16 fractional bits).  Each one
stresses a different layer, so that a change to one layer shows on one
workload and is predicted not to move another:

* ``escaped-loopback`` is the paper's protocol on its deployed path.  Exact
  field matmul (``matrix.gram_t``) takes most of the party CPU and the wire
  is light, so it shows a matmul or party-parallelism change.
* ``re-loopback`` is the encoding baseline.  Its Theta(f n^2) traffic makes
  the per-element wire codecs and the per-sample-pair randomness dominate;
  it does only a few small self grams, so it bypasses a matmul change.
* ``escaped-tcp-verify`` runs one OS process per party over real sockets and
  is the only workload with the orchestrator's oracle and leakage recheck,
  which separates process, socket and verify cost from party compute.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb

import numpy as np

SCALE_BITS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    transport: str
    m: int
    features: int
    samples: int  # per party
    verify: bool
    sigma: float | None
    why: str

    @property
    def total_samples(self) -> int:
        return self.m * self.samples

    @property
    def gram_macs(self) -> int:
        """Multiply-accumulates of the exact pooled gram N^2 * f."""
        return self.total_samples**2 * self.features


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "escaped-loopback", "escaped", "loopback", 4, 96, 32, False, 1.5,
            "masking protocol on its deployed path; exact field matmul dominates party CPU",
        ),
        Workload(
            "re-loopback", "re", "loopback", 3, 32, 24, False, None,
            "encoding baseline; Theta(f n^2) wire codecs and per-pair randomness dominate",
        ),
        Workload(
            "escaped-tcp-verify", "escaped", "tcp", 3, 64, 32, True, None,
            "one process per party over sockets, plus the oracle and leakage recheck",
        ),
    )
}


def party_reals(workload: Workload, seed: int) -> list:
    """Each party's reals, uniform in [-1, 1], features x samples, fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    shape = (workload.features, workload.samples)
    return [rng.uniform(-1.0, 1.0, shape) for _ in range(workload.m)]


def write_party_csvs(reals: list, out_dir) -> tuple:
    """One header-free CSV per party, with digits enough to read back exactly."""
    paths = []
    for i, x in enumerate(reals, start=1):
        path = os.path.join(out_dir, f"party_{i}.csv")
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
        paths.append(path)
    return tuple(paths)


def gram_tolerance(workload: Workload) -> float:
    """Largest quantization error of one decoded gram entry for reals in [-1, 1].

    Each fixed-point value is off by at most 2^-(s+1), so one product is off
    by at most about 2^-s and a length-f dot product by f * 2^-s; the bound
    carries a factor two of slack, as the repo's RBF acceptance test does.
    """
    return workload.features * 2.0 ** (1 - SCALE_BITS)


# Bytes a frame carries besides its 8-byte elements: the 13-byte header plus
# the payload's own metadata (matrix dims, scalar count, pair tags, hello size).
_FRAME_OVERHEAD = {
    "hello": 13 + 8,
    "done": 13,
    "masked_data": 13 + 8,
    "masked_mask": 13 + 8,
    "self_gram": 13 + 8,
    "pair_result": 13 + 5 + 8,
    "alpha": 13 + 4,
    "re_randoms": 13 + 5 + 4,
    "re_components": 13 + 5 + 4,
}
_IP_IP_KINDS = ("masked_data", "masked_mask", "re_randoms")


def expected_wire(workload: Workload, wire_elements: dict) -> dict:
    """Closed-form frames and bytes of one run, in the shape of ``Transcript.totals()``.

    ``wire_elements`` is ``cost_model(...).wire_per_kind``, the program's own
    exact element count per message kind; the frame counts and framing bytes
    are derived here from the message schedule.
    """
    m, pairs = workload.m, comb(workload.m, 2)
    frames = {"hello": m * m, "done": m, "self_gram": m}
    if workload.protocol == "escaped":
        frames.update(masked_data=2 * pairs, masked_mask=pairs, pair_result=3 * pairs, alpha=m - 1)
    else:
        frames.update(re_randoms=pairs, re_components=2 * pairs)
    per_kind = {
        kind: {
            "bytes": n * _FRAME_OVERHEAD[kind] + 8 * wire_elements[kind],
            "elements": wire_elements[kind],
            "frames": n,
        }
        for kind, n in sorted(frames.items())
    }
    peer_hello_bytes = m * (m - 1) * _FRAME_OVERHEAD["hello"]
    ip_ip = peer_hello_bytes + sum(per_kind[k]["bytes"] for k in _IP_IP_KINDS if k in per_kind)
    total = {key: sum(v[key] for v in per_kind.values()) for key in ("bytes", "elements", "frames")}
    return {
        "per_kind": per_kind,
        "total": total,
        "ip_ip_bytes": ip_ip,
        "ip_fp_bytes": total["bytes"] - ip_ip,
    }
