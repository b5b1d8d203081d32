"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout
from itertools import product
from random import Random

import numpy as np
import pytest

from mpgram.cli import main as cli_main
from mpgram.costs import ESCAPED, RE, nominal_form
from mpgram.dare import muladd_encode, muladd_simulate
from mpgram.field import FieldDomain
from mpgram.kernel import rbf_direct
from mpgram.masking import (
    alice_round1,
    assemble_gram,
    make_party_state,
    rotation_nonuniqueness_check,
    run_pair,
)
from mpgram.matrix import Matrix, gram_t, random_matrix
from mpgram.runner import RunConfig, plaintext_gram, run
from mpgram.scheme import (
    decode_dot,
    encode_x_side,
    encode_y_side,
    generate_scheme,
    offline_components,
    y_random_triples,
)
from mpgram.seeds import party_key
from reference_scheme import REF_TOTAL_RANDOMS, build_bijection

m61 = FieldDomain()
z5 = FieldDomain(scale_bits=0, p=5)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:2d} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {number:2d} {name}: PASS ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion exceeded its {budget_s}s budget: {elapsed:.2f}s"


def test_01_sample_encoding_fidelity():
    with criterion(1, "sample-encoding fidelity (d=7)", 1.0):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["dump-scheme", "--d", "7"]) == 0
        dump = buf.getvalue()
        assert "d=7 randoms=34" in dump
        assert len(dump.strip().splitlines()) == 8  # header + 7 leaves

        scheme = generate_scheme(7)
        assert scheme.total_randoms == REF_TOTAL_RANDOMS
        assert all(len(lf.offline) >= 2 for lf in scheme.leaves)
        mapping = build_bijection(scheme)  # asserts exact structural match
        assert len(mapping) == 34


def test_02_random_count_law():
    with criterion(2, "random-count law (d=1..128)", 1.0):
        for d in range(1, 129):
            s = generate_scheme(d)
            expected = 4 if d == 1 else 5 * d - 1
            assert s.total_randoms == expected


def test_03_re_decode_oracle():
    with criterion(3, "encoding decode vs brute-force dot product", 10.0):
        rng = Random(303)
        schemes = {}
        for _ in range(1000):
            d = rng.randint(1, 64)
            s = schemes.setdefault(d, generate_scheme(d))
            randoms = [rng.randrange(m61.p) for _ in range(s.total_randoms)]
            x = [rng.randrange(m61.p) for _ in range(d)]
            y = [rng.randrange(m61.p) for _ in range(d)]
            xc = encode_x_side(m61, x, s, randoms)
            yc = encode_y_side(m61, y, s, y_random_triples(s, randoms))
            off = offline_components(m61, s, randoms)
            brute = m61.zero
            for a, b in zip(x, y):
                brute = m61.add(brute, m61.mul(a, b))
            assert decode_dot(m61, xc, yc, off) == brute


def test_04_masking_protocol_correctness():
    with criterion(4, "masking protocol reproduces plaintext gram", 30.0):
        rng = Random(404)
        for trial in range(1000):
            f = rng.randint(1, 32)
            na, nb = rng.randint(1, 8), rng.randint(1, 8)
            seed = rng.getrandbits(48)
            key = party_key(seed, 0)  # draws the test data
            alice = make_party_state(1, random_matrix((f, na), m61, key, "x"), party_key(seed, 1))
            bob = make_party_state(2, random_matrix((f, nb), m61, key, "y"), party_key(seed, 2))
            self_blocks = {1: gram_t(alice.data, alice.data), 2: gram_t(bob.data, bob.data)}
            asm = assemble_gram(self_blocks, {(1, 2): run_pair(alice, bob)})
            oracle = plaintext_gram(m61, {1: alice.data, 2: bob.data})
            assert asm == oracle
        for trial in range(100):
            m = 3 + trial % 3  # 3, 4, 5 parties
            f = rng.randint(1, 8)
            samples = tuple(rng.randint(1, 3) for _ in range(m))
            cfg = RunConfig(
                protocol=ESCAPED, m=m, features=f, samples=samples, seed=trial, verify=True
            )
            res = run(cfg)
            assert res.report["verification"]["status"] == "pass"
            assert res.report["verification"]["max_abs_deviation"] == 0.0


def test_05_cross_protocol_agreement():
    with criterion(5, "both protocols produce identical gram matrices", 60.0):
        rng = Random(505)
        for trial in range(20):
            m = rng.choice([2, 2, 3])
            f = rng.randint(1, 12)
            samples = tuple(rng.randint(1, 4) for _ in range(m))
            seed = rng.getrandbits(32)
            shas = set()
            for protocol in (ESCAPED, RE):
                cfg = RunConfig(
                    protocol=protocol, m=m, features=f, samples=samples, seed=seed, verify=True
                )
                res = run(cfg)
                assert res.report["verification"]["status"] == "pass"
                shas.add(res.report["gram"]["sha256"])
            assert len(shas) == 1


def test_06_encoding_indistinguishability():
    with criterion(6, "encoding vs simulator histograms (exhaustive Z5)", 5.0):
        triples = [
            (0, 0, 0), (1, 2, 3), (4, 4, 4), (2, 0, 1), (3, 1, 0),
            (1, 1, 1), (0, 3, 2), (2, 2, 4), (4, 1, 2), (3, 3, 3),
        ]
        from collections import Counter

        for s1, s2, s3 in triples:
            t = z5.add(z5.mul(s1, s2), s3)
            real = Counter(
                muladd_encode(z5, s1, s2, s3, r1, r2, r3, r4).as_tuple()
                for r1, r2, r3, r4 in product(range(5), repeat=4)
            )
            sim = Counter(
                muladd_simulate(z5, t, c1, c2, c3, c4).as_tuple()
                for c1, c2, c3, c4 in product(range(5), repeat=4)
            )
            assert sum(real.values()) == sum(sim.values()) == 625
            assert real == sim


def test_07_mask_uniformity():
    with criterion(7, "masked data uniform and data-independent (exhaustive Z5)", 1.0):
        from collections import Counter

        from mpgram.masking import PartyState

        histograms = []
        for x in (1, 3):
            hist = Counter()
            for a in range(5):
                st = PartyState(1, Matrix.from_rows([[x]], z5), Matrix.from_rows([[a]], z5), 1)
                masked, _ = alice_round1(st)
                hist[masked.data[0, 0]] += 1
            histograms.append(hist)
        assert histograms[0] == Counter({v: 1 for v in range(5)})  # uniform
        assert histograms[0] == histograms[1]  # identical for distinct data


def test_08_communication_accounting():
    with criterion(8, "measured element counts vs closed forms (grid)", 120.0):
        re_points = []
        esc_points = []
        for m, f, n in product((2, 3, 4, 5), (1, 8, 64), (1, 4, 16)):
            pairs = m * (m - 1) // 2
            for protocol in (ESCAPED, RE):
                cfg = RunConfig(
                    protocol=protocol,
                    m=m,
                    features=f,
                    samples=(n,) * m,
                    seed=m * 1000 + f * 10 + n,
                    verify=False,
                )
                res = run(cfg)
                assert res.report["audit"]["ok"], res.report["audit"]["mismatches"]
                # per-phase totals match the wire form exactly, not just per kind
                wire = res.report["costs"]["wire"]
                assert res.report["audit"]["measured_among_ips"] == wire["among_ips"]
                assert res.report["audit"]["measured_ip_fp"] == wire["ip_fp"]
                measured = res.report["audit"]["measured_per_kind"]
                nominal = nominal_form(protocol, m, f, n)
                if protocol == ESCAPED:
                    # matrix-element terms match the closed form exactly
                    among = measured["masked_data"] + measured["masked_mask"]
                    assert among == nominal.among_ips == 3 * pairs * f * n
                    assert measured["pair_result"] == nominal.ip_fp == 3 * pairs * n * n
                    esc_points.append((pairs * (f * n + n * n), among + measured["pair_result"]))
                else:
                    protocol_elems = measured["re_randoms"] + measured["re_components"]
                    re_points.append((pairs * f * n * n, protocol_elems))

        def loglog_slope(points):
            xs = np.log([p for p, _ in points])
            ys = np.log([e for _, e in points])
            return np.polyfit(xs, ys, 1)[0]

        # measured growth vs theoretical exponents, slope within 0.05 of 1
        re_slope = loglog_slope(re_points)
        esc_slope = loglog_slope(esc_points)
        assert abs(re_slope - 1.0) <= 0.05, f"encoding-protocol log-log slope {re_slope}"
        assert abs(esc_slope - 1.0) <= 0.05, f"masking-protocol log-log slope {esc_slope}"


def test_09_rotation_non_uniqueness():
    with criterion(9, "gram matrix admits many preimages (100 rotations)", 5.0):
        rng = np.random.default_rng(909)
        d = rng.uniform(-1, 1, (20, 12))
        rotated = []
        for seed in range(100):
            residual, distance, e = rotation_nonuniqueness_check(d, seed=seed)
            assert residual < 1e-8
            assert distance > 1e-3
            rotated.append(e)
        for i in range(len(rotated)):
            for j in range(i + 1, len(rotated)):
                assert np.max(np.abs(rotated[i] - rotated[j])) > 1e-6


def test_10_rbf_equivalence():
    with criterion(10, "protocol RBF kernel equals direct-distance RBF", 10.0):
        f, sigma = 20, 1.5
        scale_bits = 16
        # quantization bound propagated through exp
        cfg = RunConfig(
            protocol=ESCAPED,
            m=2,
            features=f,
            samples=(25, 25),
            seed=1010,
            sigma=sigma,
            scale_bits=scale_bits,
            verify=True,
        )
        res = run(cfg)
        assert res.report["verification"]["status"] == "pass"
        reals = np.hstack([m61.decode(res.party_data[i].data).astype(float) for i in (1, 2)])
        direct = rbf_direct(reals, sigma)
        gram_entry_bound = f * 2.0 ** (-scale_bits + 1)
        kernel_bound = 4 * gram_entry_bound / (2 * sigma * sigma)
        assert np.max(np.abs(res.kernel.entries - direct)) <= kernel_bound


def test_11_relative_performance():
    with criterion(11, "masking protocol beats encoding baseline (M=3 f=100 n=10)", 60.0):
        results = {}
        for protocol in (ESCAPED, RE):
            cfg = RunConfig(
                protocol=protocol,
                m=3,
                features=100,
                samples=(10, 10, 10),
                seed=1111,
                sigma=1.0,
                verify=True,
            )
            t0 = time.perf_counter()
            res = run(cfg)
            elapsed = time.perf_counter() - t0
            assert res.report["verification"]["status"] == "pass"
            results[protocol] = (elapsed, res.report["totals"]["total"]["bytes"])
        esc_time, esc_bytes = results[ESCAPED]
        re_time, re_bytes = results[RE]
        assert esc_time < re_time, f"wall-clock: {esc_time:.3f}s vs {re_time:.3f}s"
        assert esc_bytes < re_bytes
        assert re_bytes / esc_bytes > 10, f"byte ratio {re_bytes / esc_bytes:.1f}"


def test_12_transport_equivalence():
    with criterion(12, "loopback and TCP transcripts byte-identical", 30.0):
        for protocol in (ESCAPED, RE):
            blobs = set()
            for transport in ("loopback", "tcp"):
                cfg = RunConfig(
                    protocol=protocol,
                    m=3,
                    features=6,
                    samples=(3, 2, 4),
                    seed=1212,
                    transport=transport,
                    verify=True,
                )
                res = run(cfg)
                assert res.report["verification"]["status"] == "pass"
                blobs.add(res.transcript.canonical_json())
            assert len(blobs) == 1
