"""Closed-form cost predictions against hand arithmetic and live transcripts."""

import pytest

from mpgram.costs import (
    ESCAPED,
    PROTOCOLS,
    RE,
    cost_model,
    nominal_form,
    nominal_ratio,
    transcript_audit,
)
from mpgram.runner import RunConfig, run
from mpgram.transport import Transcript, TranscriptEntry, MASKED_DATA


class TestNominalForms:
    def test_escaped_minimal_case(self):
        form = nominal_form(ESCAPED, m=2, f=1, n=1)
        assert (form.among_ips, form.ip_fp, form.total) == (3, 3, 6)

    def test_escaped_three_parties(self):
        form = nominal_form(ESCAPED, m=3, f=10, n=4)
        assert form.among_ips == 3 * 3 * 40 == 360
        assert form.ip_fp == 3 * 3 * 16 == 144

    def test_re_counts(self):
        form = nominal_form(RE, m=2, f=2, n=1)
        assert (form.among_ips, form.ip_fp, form.total) == (8, 10, 18)

    def test_ratio_exceeds_25_at_f100_n10(self):
        # 9*f*n^2 / (3*(f*n + n^2)) = 90000/3300, independent of M
        assert nominal_ratio(3, 100, 10) > 25
        assert nominal_ratio(2, 100, 10) > 25


class TestWireForms:
    def test_re_wire_among_ips_small(self):
        pred = cost_model(RE, m=2, f=2, sizes=1)
        # three of the four per-leaf randoms cross the wire
        assert pred.wire_per_kind["re_randoms"] == 6
        assert pred.wire_per_kind["re_components"] == 10
        assert pred.nominal.among_ips == 8

    def test_escaped_wire_itemization(self):
        pred = cost_model(ESCAPED, m=3, f=10, sizes=4)
        assert pred.wire_per_kind["masked_data"] == 2 * 3 * 40
        assert pred.wire_per_kind["masked_mask"] == 3 * 40
        assert pred.wire_per_kind["pair_result"] == 3 * 3 * 16
        assert pred.wire_per_kind["alpha"] == 2
        assert pred.wire_per_kind["self_gram"] == 3 * 16
        assert pred.wire_among_ips == 360

    def test_unequal_sizes_have_no_nominal_form(self):
        pred = cost_model(ESCAPED, m=3, f=4, sizes=(1, 2, 3))
        assert pred.nominal is None
        assert pred.wire_per_kind["pair_result"] == 3 * (1 * 2 + 1 * 3 + 2 * 3)

    def test_size_vector_must_match_m(self):
        with pytest.raises(ValueError):
            cost_model(ESCAPED, m=3, f=4, sizes=(1, 2))


class TestLiveAudit:
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_measured_equals_wire_form(self, protocol):
        cfg = RunConfig(protocol=protocol, m=3, features=6, samples=(2, 3, 4), seed=5, verify=False)
        result = run(cfg)
        pred = cost_model(protocol, 3, 6, (2, 3, 4))
        report = transcript_audit(result.transcript, pred)
        assert report.ok
        assert report.measured_per_kind == {
            k: v for k, v in pred.wire_per_kind.items()
        }

    def test_audit_failure_names_kind(self):
        transcript = Transcript()
        transcript.record(
            TranscriptEntry(1, 2, 0, MASKED_DATA, n_bytes=69, n_elements=7, payload_sha="ab")
        )
        pred = cost_model(ESCAPED, m=2, f=2, sizes=1)
        report = transcript_audit(transcript, pred)
        assert not report.ok
        assert any("masked_data" in line for line in report.mismatches)
