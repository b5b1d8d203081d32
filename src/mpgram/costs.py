"""Closed-form communication costs and the transcript audit.

Two closed forms per protocol, in scalar elements, for M equally sized
parties (n samples each, f features):

* ``nominal`` -- the coarse per-leaf accounting: the masking protocol
  moves 3*C(M,2) f*n elements among input parties and 3*C(M,2) n^2 to
  the function party; the randomized-encoding protocol moves
  4*C(M,2) f*n^2 among input parties (all four per-leaf randoms) and
  5*C(M,2) f*n^2 to the function party, 9*C(M,2) f*n^2 total.  Self
  grams and the scalar masks are excluded (identical for both
  protocols).
* ``wire`` -- the exact per-message accounting of this implementation.
  It differs from nominal in one place: the encoding scheme's Y side
  only ever reads three of the four per-leaf randoms (r_a, r_b, r_d),
  so only 3*C(M,2) f*n^2 random elements actually cross between input
  parties.  The wire form also itemizes self grams and the per-party
  scalar masks so a live transcript can be matched exactly.

The audit compares measured with wire exactly, per message kind, and
lists every mismatch; the report also gives the nominal ratio between
the two protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

ESCAPED = "escaped"
RE = "re"
PROTOCOLS = (ESCAPED, RE)


@dataclass(frozen=True)
class CostForm:
    among_ips: int
    ip_fp: int

    @property
    def total(self) -> int:
        return self.among_ips + self.ip_fp


@dataclass(frozen=True)
class CostPrediction:
    protocol: str
    m: int
    f: int
    sizes: tuple
    nominal: CostForm  # protocol elements only, equal-size closed form (or None)
    wire_per_kind: dict  # message kind name -> exact element count
    wire_among_ips: int
    wire_ip_fp: int

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "m": self.m,
            "f": self.f,
            "sizes": list(self.sizes),
            "nominal": None
            if self.nominal is None
            else {
                "among_ips": self.nominal.among_ips,
                "ip_fp": self.nominal.ip_fp,
                "total": self.nominal.total,
            },
            "wire": {
                "per_kind": dict(self.wire_per_kind),
                "among_ips": self.wire_among_ips,
                "ip_fp": self.wire_ip_fp,
                "total": self.wire_among_ips + self.wire_ip_fp,
            },
        }


def nominal_form(protocol: str, m: int, f: int, n: int) -> CostForm:
    """Equal-size closed form in elements; excludes self grams and alphas."""
    pairs = comb(m, 2)
    if protocol == ESCAPED:
        return CostForm(among_ips=3 * pairs * f * n, ip_fp=3 * pairs * n * n)
    if protocol == RE:
        return CostForm(among_ips=4 * pairs * f * n * n, ip_fp=5 * pairs * f * n * n)
    raise ValueError(f"unknown protocol {protocol!r}")


def cost_model(protocol: str, m: int, f: int, sizes) -> CostPrediction:
    """Predicted element counts for a run with per-party sample counts ``sizes``.

    The nominal closed form is only defined for equal sizes and is None
    otherwise; the wire form is exact for any size vector.
    """
    if isinstance(sizes, int):
        sizes = (sizes,) * m
    sizes = tuple(sizes)
    if len(sizes) != m:
        raise ValueError(f"{m} parties but {len(sizes)} sample counts")
    pair_products = sum(
        sizes[i] * sizes[j] for i in range(m) for j in range(i + 1, m)
    )
    self_gram = sum(n * n for n in sizes)
    if protocol == ESCAPED:
        # per pair: X-a and Y-b (f*(n_a + n_b)), alpha*a (f*n_a),
        # then A1/B1/B2 (3 n_a*n_b) to the function party
        masked_data = f * sum(
            sizes[i] + sizes[j] for i in range(m) for j in range(i + 1, m)
        )
        masked_mask = f * sum(sizes[i] * (m - 1 - i) for i in range(m))
        per_kind = {
            "hello": 0,
            "done": 0,
            "masked_data": masked_data,
            "masked_mask": masked_mask,
            "pair_result": 3 * pair_products,
            "alpha": m - 1,
            "self_gram": self_gram,
        }
        among = masked_data + masked_mask
        ip_fp = per_kind["pair_result"] + per_kind["alpha"] + self_gram
    elif protocol == RE:
        per_kind = {
            "hello": 0,
            "done": 0,
            "re_randoms": 3 * f * pair_products,
            "re_components": 5 * f * pair_products,
            "self_gram": self_gram,
        }
        among = per_kind["re_randoms"]
        ip_fp = per_kind["re_components"] + self_gram
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    nominal = nominal_form(protocol, m, f, sizes[0]) if len(set(sizes)) == 1 else None
    return CostPrediction(
        protocol=protocol,
        m=m,
        f=f,
        sizes=sizes,
        nominal=nominal,
        wire_per_kind=per_kind,
        wire_among_ips=among,
        wire_ip_fp=ip_fp,
    )


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    mismatches: tuple
    measured_per_kind: dict
    predicted_per_kind: dict
    measured_among_ips: int
    measured_ip_fp: int

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mismatches": list(self.mismatches),
            "measured_per_kind": dict(self.measured_per_kind),
            "predicted_per_kind": dict(self.predicted_per_kind),
            "measured_among_ips": self.measured_among_ips,
            "measured_ip_fp": self.measured_ip_fp,
        }


def transcript_audit(transcript, predicted: CostPrediction) -> AuditReport:
    """Compare measured element counts per message kind to the wire form."""
    totals = transcript.totals()
    measured = {k: v["elements"] for k, v in totals["per_kind"].items()}
    mismatches = []
    for kind, want in sorted(predicted.wire_per_kind.items()):
        got = measured.get(kind, 0)
        if got != want:
            mismatches.append(f"{kind}: measured {got} elements, predicted {want}")
    for kind in sorted(measured):
        if kind not in predicted.wire_per_kind:
            mismatches.append(f"{kind}: unexpected message kind in transcript")
    return AuditReport(
        ok=not mismatches,
        mismatches=tuple(mismatches),
        measured_per_kind=measured,
        predicted_per_kind=dict(predicted.wire_per_kind),
        measured_among_ips=totals["ip_ip"]["elements"],
        measured_ip_fp=totals["ip_fp"]["elements"],
    )


def nominal_ratio(m: int, f: int, n: int) -> float:
    """Total-element ratio RE / masking under the nominal closed forms."""
    re_total = nominal_form(RE, m, f, n).total
    esc_total = nominal_form(ESCAPED, m, f, n).total
    return re_total / esc_total
