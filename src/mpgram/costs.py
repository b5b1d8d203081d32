"""Closed-form communication costs and the transcript audit.

Two closed forms per protocol, each given by the protocol's class in
``mpgram.party``, in scalar elements, for M equally sized parties (n
samples each, f features):

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

from dataclasses import asdict, dataclass

from .party import ESCAPED, PROTOCOLS, RE, protocol_record  # noqa: F401 - re-exported


@dataclass(frozen=True)
class CostForm:
    among_ips: int
    ip_fp: int

    @property
    def total(self) -> int:
        return self.among_ips + self.ip_fp

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


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
        wire = CostForm(self.wire_among_ips, self.wire_ip_fp)
        return {
            "protocol": self.protocol,
            "m": self.m,
            "f": self.f,
            "sizes": list(self.sizes),
            "nominal": None if self.nominal is None else self.nominal.as_dict(),
            "wire": {"per_kind": dict(self.wire_per_kind), **wire.as_dict()},
        }


def nominal_form(protocol: str, m: int, f: int, n: int) -> CostForm:
    """Equal-size closed form in elements; excludes self grams and alphas."""
    return CostForm(*protocol_record(protocol).nominal(m, f, n))


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
    among, to_fp = protocol_record(protocol).wire(m, f, sizes)
    to_fp["self_gram"] = sum(n * n for n in sizes)  # sent in every protocol, as hellos and done are
    nominal = nominal_form(protocol, m, f, sizes[0]) if len(set(sizes)) == 1 else None
    return CostPrediction(
        protocol=protocol,
        m=m,
        f=f,
        sizes=sizes,
        nominal=nominal,
        wire_per_kind={"hello": 0, "done": 0, **among, **to_fp},
        wire_among_ips=sum(among.values()),
        wire_ip_fp=sum(to_fp.values()),
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
        return {**asdict(self), "mismatches": list(self.mismatches)}


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
