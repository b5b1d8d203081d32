"""End-to-end orchestration: runs, reports, comparison, data generation, CLI."""

import json
import os
import re
import socket
import subprocess
import time
from dataclasses import replace

import numpy as np
import pytest

from mpgram import masking, party
from mpgram import transport as tp
from mpgram.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROTOCOL, main
from mpgram.errors import ConfigError, ProtocolError
from mpgram.field import FieldDomain
from mpgram.runner import (
    RunConfig,
    compare,
    gen_data,
    plaintext_gram,
    run,
    synthesize_party_reals,
)


class TestRun:
    def test_escaped_field_exact(self):
        cfg = RunConfig(protocol="escaped", m=2, features=4, samples=(2, 2), seed=1)
        res = run(cfg)
        v = res.report["verification"]
        assert v["status"] == "pass"
        assert v["max_abs_deviation"] == 0.0
        assert res.report["audit"]["ok"]

    def test_re_field_exact_with_audit(self):
        cfg = RunConfig(protocol="re", m=3, features=8, samples=(3, 3, 3), seed=2)
        res = run(cfg)
        assert res.report["verification"]["status"] == "pass"
        assert res.report["audit"]["ok"]
        # measured kind counts match the wire closed form exactly
        wire = res.report["costs"]["wire"]["per_kind"]
        measured = res.report["audit"]["measured_per_kind"]
        assert measured == wire

    def test_single_party_rejected(self):
        cfg = RunConfig(protocol="escaped", m=1, features=2, samples=(2,), seed=0)
        with pytest.raises(ConfigError):
            run(cfg)

    def test_float_domain_within_tolerance(self):
        cfg = RunConfig(
            protocol="escaped", m=3, features=6, samples=(2, 3, 2), domain="float", seed=3
        )
        res = run(cfg)
        assert res.report["verification"]["status"] == "pass"
        assert res.report["verification"]["max_abs_deviation"] <= 1e-9

    def test_re_float_parity_mode(self):
        cfg = RunConfig(protocol="re", m=2, features=6, samples=(3, 3), domain="float", seed=4)
        res = run(cfg)
        assert res.report["verification"]["status"] == "pass"
        assert res.report["audit"]["ok"]

    def test_float_domain_tcp_matches_loopback(self):
        from dataclasses import replace

        cfg = RunConfig(
            protocol="escaped", m=2, features=4, samples=(2, 3), domain="float", seed=15
        )
        loop = run(cfg)
        over_tcp = run(replace(cfg, transport="tcp"))
        assert loop.transcript.canonical_json() == over_tcp.transcript.canonical_json()
        assert loop.report["gram"]["sha256"] == over_tcp.report["gram"]["sha256"]

    def test_five_party_field_tcp_matches_loopback(self):
        # odd M leaves one party idle in each round; the four lower parties
        # each accept a chain of higher connections
        from dataclasses import replace

        cfg = RunConfig(protocol="escaped", m=5, features=3, samples=(2, 1, 3, 2, 1), seed=17)
        loop = run(cfg)
        over_tcp = run(replace(cfg, transport="tcp"))
        assert over_tcp.report["verification"]["status"] == "pass"
        assert loop.transcript.canonical_json() == over_tcp.transcript.canonical_json()
        assert loop.report["gram"]["sha256"] == over_tcp.report["gram"]["sha256"]

    def test_tcp_with_explicit_base_port(self):
        cfg = RunConfig(
            protocol="escaped",
            m=2,
            features=3,
            samples=(2, 2),
            transport="tcp",
            base_port=29750,
            seed=16,
        )
        res = run(cfg)
        assert res.report["verification"]["status"] == "pass"

    def test_verify_catches_fixed_point_wrap(self, tmp_path):
        # Dot products of reals up to 3e4 reach ~2.3e9, past p / 2^33 ~ 2.7e8
        # at 16 fractional bits, so they wrap.  The field oracle wraps alike.
        rng = np.random.default_rng(0)
        paths = []
        for i in (1, 2):
            paths.append(str(tmp_path / f"party_{i}.csv"))
            np.savetxt(paths[-1], rng.uniform(-3e4, 3e4, (4, 3)), fmt="%.17g", delimiter=",")
        cfg = RunConfig(
            protocol="escaped", m=2, features=4, samples=(3, 3), seed=1, data_csv=tuple(paths)
        )
        res = run(cfg)
        x = np.hstack([np.loadtxt(p, delimiter=",") for p in paths])
        assert np.max(np.abs(res.gram_real - x.T @ x)) > 1e8
        v = res.report["verification"]
        assert v["status"] == "fail"
        assert v["max_abs_deviation"] > 1e8 > v["bound"]
        assert "wrap-around" in v["reason"]

    def test_verify_pass_report_unchanged_near_range(self, tmp_path):
        # reals up to 3e3 keep every dot product below p / 2^33
        rng = np.random.default_rng(0)
        paths = []
        for i in (1, 2):
            paths.append(str(tmp_path / f"party_{i}.csv"))
            np.savetxt(paths[-1], rng.uniform(-3e3, 3e3, (4, 3)), fmt="%.17g", delimiter=",")
        cfg = RunConfig(
            protocol="escaped", m=2, features=4, samples=(3, 3), seed=1, data_csv=tuple(paths)
        )
        assert run(cfg).report["verification"] == {
            "enabled": True, "status": "pass", "max_abs_deviation": 0.0, "bound": 0.0,
        }

    def test_leakage_check_reported(self):
        cfg = RunConfig(protocol="escaped", m=3, features=4, samples=(2, 2, 2), seed=4)
        res = run(cfg)
        assert res.report["leakage"] == {"verified": True, "max_deviation": 0.0}

    def test_unequal_sizes_have_no_nominal_costs(self):
        cfg = RunConfig(protocol="escaped", m=3, features=4, samples=(1, 2, 3), seed=5)
        res = run(cfg)
        assert res.report["costs"]["nominal"] is None
        assert res.report["audit"]["ok"]

    def test_kernel_derivation(self):
        cfg = RunConfig(protocol="escaped", m=2, features=5, samples=(4, 4), seed=6, sigma=1.5)
        res = run(cfg)
        assert res.kernel is not None
        assert res.kernel.entries.shape == (8, 8)
        assert res.report["kernel"]["sigma"] == 1.5

    def test_gram_matches_oracle_matrix(self):
        cfg = RunConfig(protocol="re", m=2, features=3, samples=(2, 3), seed=7)
        res = run(cfg)
        dom = FieldDomain(scale_bits=16)
        oracle = plaintext_gram(dom, res.party_data)
        assert res.assembly.full == oracle

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_pair_and_block_counts(self, m):
        cfg = RunConfig(protocol="escaped", m=m, features=3, samples=(2,) * m, seed=8)
        res = run(cfg)
        assert len(res.fp_result.pair_results) == m * (m - 1) // 2
        assert len(res.fp_result.assembly.self_blocks) == m
        assert sorted(res.fp_result.assembly.self_blocks) == list(range(1, m + 1))

    def test_field_re_run_makes_no_scalar_domain_calls(self, monkeypatch):
        # the RE path is array expressions over the domain's bulk sampler and
        # reduce; a per-scalar fallback would show up here
        calls = []
        for name in ("add", "sub", "mul", "uniform"):
            monkeypatch.setattr(
                FieldDomain, name, lambda self, *args, _name=name: calls.append(_name)
            )
        cfg = RunConfig(protocol="re", m=3, features=5, samples=(3, 2, 4), seed=4)
        assert run(cfg).report["verification"]["status"] == "pass"
        assert calls == []

    def test_escaped_round1_messages_built_once_per_party(self, monkeypatch):
        # X - a once per party, alpha a once per party below id m: 4 and 3 at
        # M=4, where a per-pair build makes 12 and 6
        calls = {"mat_sub": 0, "mat_scale": 0}
        for name in calls:
            original = getattr(masking, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(masking, name, counted)
        cfg = RunConfig(protocol="escaped", m=4, features=3, samples=(2, 3, 1, 2), seed=5,
                        verify=False)
        res = run(cfg)
        assert calls == {"mat_sub": 4, "mat_scale": 3}
        assert res.report["audit"]["ok"]

    def test_tcp_workers_run_single_threaded_blas(self, monkeypatch):
        envs = []
        real_popen = subprocess.Popen

        def popen(*args, **kwargs):
            envs.append(kwargs.get("env"))
            return real_popen(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", popen)
        before = dict(os.environ)
        cfg = RunConfig(protocol="escaped", m=2, features=2, samples=(1, 2), transport="tcp",
                        seed=3, verify=False)
        assert run(cfg).report["audit"]["ok"]
        assert len(envs) == 3
        assert all(env == {**before, "OPENBLAS_NUM_THREADS": "1"} for env in envs)
        assert dict(os.environ) == before

    def test_failing_party_ends_loopback_run_and_is_blamed(self, monkeypatch):
        original = party._ReParty.act_alice

        def act_alice(self, bob_id):
            if self.party_id == 2:
                raise RuntimeError("injected encode failure")
            original(self, bob_id)

        monkeypatch.setattr(party._ReParty, "act_alice", act_alice)
        # bounds the wait of a run that does not fail fast
        monkeypatch.setattr(tp.LoopbackEndpoint, "RECV_TIMEOUT", 10.0)
        cfg = RunConfig(protocol="re", m=3, features=4, samples=(2, 3, 2), verify=False)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match="^party 2 failed: injected encode failure$"):
            run(cfg)
        assert time.monotonic() - t0 < 5.0

    def test_failing_tcp_worker_ends_run_and_is_blamed(self):
        # party 2 cannot listen on its port, so party 3, which connects there,
        # would wait out its 120 s recv timeout if the runner waited on it
        base = _free_port_block(4)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", base + 2))
            taken.listen()
            cfg = RunConfig(protocol="escaped", m=3, features=2, samples=(1, 1, 1),
                            transport="tcp", base_port=base, verify=False)
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match=r"^party 2 exited 1: .*cannot listen on"):
                run(cfg)
        assert time.monotonic() - t0 < 10.0


def _free_port_block(count: int) -> int:
    """A base port such that base .. base + count - 1 are free on localhost."""
    for base in range(31000, 60000, 101):
        socks = []
        try:
            for k in range(count):
                socks.append(socket.socket())
                socks[-1].bind(("127.0.0.1", base + k))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise RuntimeError("no block of free ports")


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        cfg = RunConfig(protocol="escaped", m=3, features=5, samples=(2, 2, 2), seed=11)
        r1, r2 = run(cfg), run(cfg)
        assert r1.report["determinism_digest"] == r2.report["determinism_digest"]
        assert r1.report["transcript_sha256"] == r2.report["transcript_sha256"]
        core1 = {k: v for k, v in r1.report.items() if k != "timing"}
        core2 = {k: v for k, v in r2.report.items() if k != "timing"}
        assert core1 == core2

    def test_different_seed_changes_transcript(self):
        cfg1 = RunConfig(protocol="escaped", m=2, features=3, samples=(2, 2), seed=1)
        cfg2 = RunConfig(protocol="escaped", m=2, features=3, samples=(2, 2), seed=2)
        assert run(cfg1).report["transcript_sha256"] != run(cfg2).report["transcript_sha256"]


# gram.sha256, transcript_sha256 and determinism_digest of one fixed config,
# recorded before matrices moved onto numpy arrays: a refactor of the
# matrix, codec or assembly layers must reproduce every byte.
PINNED_DIGESTS = {
    ("escaped", "field"): (
        "ef18623e7fbc16c145acf9e935cc823a6e93be7e3c3811ea945052f631536df2",
        "5c8798e54b480adc139ca9307e4e3839fca4ad4a4c27f80c627bb8635d9642db",
        "d19538991b9c0121ecc5236cb1d8a4dd10b8a837775b8e79098cce674d15e5f9",
    ),
    ("escaped", "float"): (
        "dbce7aa19c0f1d2f926696b24d607998132757b1f43cc50c7c2594df966707da",
        "79ffc6fe67f639acdb88725c538583ce3b963b6129868964496420ab0a71cd92",
        "f9b19e4a264d2df6fd2104b107ab9452ab5c2d91779fe30cf2021b7a647b9eb7",
    ),
    ("re", "field"): (
        "ef18623e7fbc16c145acf9e935cc823a6e93be7e3c3811ea945052f631536df2",
        "15a81e99d5e855385abbc37a429f4e7e23fbb72fd4ce379eab869acf0cae8556",
        "6ae2349b180ef4846805b54aa965fbdf5011fbaf1fb19df533df8c3563222c68",
    ),
    ("re", "float"): (
        "ab7b27d261816a8f59442d55dab793a55bc0b4e32d3a7a70e6f51a4e2e339ed9",
        "084cb8f8f60059ececd2919274385ad3371f7ef4f554a2e3850c65d1455041f4",
        "1777bee8a464bebef26167b41ba116513af922168e32ed69ee1145c25978e74e",
    ),
}


@pytest.mark.parametrize("protocol, domain", sorted(PINNED_DIGESTS))
def test_pinned_digests(protocol, domain):
    cfg = RunConfig(
        protocol=protocol, m=3, features=12, samples=(4, 5, 3), domain=domain,
        seed=7, sigma=1.0, verify=True,
    )
    report = run(cfg).report
    assert report["verification"]["status"] == "pass"
    got = (report["gram"]["sha256"], report["transcript_sha256"], report["determinism_digest"])
    assert got == PINNED_DIGESTS[(protocol, domain)]


class TestGenData:
    def test_reproducible_files(self, tmp_path):
        p1 = gen_data(2, 3, (2, 2), seed=9, out_dir=tmp_path / "a")
        p2 = gen_data(2, 3, (2, 2), seed=9, out_dir=tmp_path / "b")
        for a, b in zip(p1, p2):
            assert open(a).read() == open(b).read()

    def test_shapes_and_range(self, tmp_path):
        paths = gen_data(2, 5, (3, 4), seed=10, out_dir=tmp_path)
        rows = [line.split(",") for line in open(paths[1]).read().strip().splitlines()]
        assert len(rows) == 5
        assert all(len(r) == 4 for r in rows)
        assert all(-1.0 <= float(x) <= 1.0 for r in rows for x in r)

    def test_csv_run_equals_synthetic_run(self, tmp_path):
        paths = gen_data(2, 4, (2, 3), seed=12, out_dir=tmp_path)
        synth = RunConfig(protocol="escaped", m=2, features=4, samples=(2, 3), seed=12)
        loaded = RunConfig(
            protocol="escaped",
            m=2,
            features=4,
            samples=(2, 3),
            seed=12,
            data_csv=tuple(str(p) for p in paths),
        )
        assert run(synth).report["gram"]["sha256"] == run(loaded).report["gram"]["sha256"]

    @pytest.mark.parametrize(
        "m, f, samples, message",
        [
            (1, 3, (2,), "need at least 2 input parties, got 1"),
            (2, 0, (2, 2), "features must be >= 1, got 0"),
            (2, 3, (2,), "2 parties but 1 sample counts"),
            (2, 3, (2, 0), "every party needs at least one sample"),
        ],
    )
    def test_invalid_counts_rejected(self, tmp_path, m, f, samples, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            gen_data(m, f, samples, seed=1, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_synthetic_values_uniform_range(self):
        rows = synthesize_party_reals(0, 1, 50, 20)
        flat = np.array(rows).ravel()
        assert flat.min() >= -1.0 and flat.max() <= 1.0


class TestCompare:
    def base(self, **kw):
        return RunConfig(protocol="escaped", m=3, features=10, samples=(3, 3, 3), seed=13, **kw)

    def test_identical_grams_across_protocols(self):
        from dataclasses import replace

        base = self.base()
        result = compare([base, replace(base, protocol="re")])
        assert result.grams_equal
        assert result.byte_ratio > 1.0
        assert "protocol" in result.table_text()

    def test_byte_ratio_grows_with_n(self):
        from dataclasses import replace

        ratios = []
        for n in (2, 4, 8):
            base = RunConfig(protocol="escaped", m=2, features=10, samples=(n, n), seed=14)
            ratios.append(compare([base, replace(base, protocol="re")]).byte_ratio)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_reports_include_nominal_predictions(self):
        from dataclasses import replace

        base = self.base()
        result = compare([base, replace(base, protocol="re")])
        for r in result.results:
            assert r.report["costs"]["nominal"] is not None

    def test_mismatched_configs_rejected(self):
        from dataclasses import replace

        base = self.base()
        with pytest.raises(ConfigError):
            compare([base, replace(base, protocol="re", features=11)])
        with pytest.raises(ConfigError):
            compare([base, base])


class TestCli:
    def test_dump_scheme(self, capsys):
        assert main(["dump-scheme", "--d", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d=7 randoms=34" in out

    def test_cost(self, capsys):
        assert main(["cost", "--M", "2", "--f", "1", "--n", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "escaped: nominal among-IPs=3 IP-FP=3 total=6" in out

    def test_run_with_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "run",
                "--protocol",
                "escaped",
                "--parties",
                "2",
                "--features",
                "3",
                "--samples",
                "2",
                "--seed",
                "5",
                "--verify",
                "--report",
                str(report_path),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["schema_version"] == 1
        assert doc["verification"]["status"] == "pass"

    def test_run_single_party_exit_code(self, capsys):
        rc = main(["run", "--parties", "1", "--samples", "2"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cost", "--M", "3", "--f", "4", "--n", "1,2"], "3 parties but 2 sample counts"),
            (["cost", "--M", "3", "--f", "4", "--n", "0"], "at least one sample, got '0'"),
            (["gen-data", "--samples", "2,x"], "must be integers, got '2,x'"),
            (["gen-data", "--samples", "0"], "at least one sample, got '0'"),
            (["run", "--samples", "2,x"], "must be integers, got '2,x'"),
            (["compare", "--samples", "x"], "must be integers, got 'x'"),
        ],
        ids=["cost-short-list", "cost-zero", "gen-data-token", "gen-data-zero", "run-token",
             "compare-token"],
    )
    def test_bad_sample_counts_exit_with_config_error(self, argv, message, tmp_path, capsys):
        if argv[0] == "gen-data":
            argv = argv + ["--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_nan_input_exits_with_protocol_error(self, tmp_path, capsys):
        paths = gen_data(2, 2, (2, 2), seed=7, out_dir=tmp_path)
        with open(paths[1], "w") as fh:
            fh.write("0.5,nan\n0.25,-0.5\n")
        rc = main(["run", "--parties", "2", "--features", "2", "--samples", "2",
                   "--data", ",".join(paths)])
        assert rc == EXIT_PROTOCOL
        err = capsys.readouterr().err
        assert err.startswith("error: nan cannot be represented")
        assert "Traceback" not in err

    def test_float_domain_nan_input_exits_with_protocol_error(self, tmp_path, capsys):
        paths = gen_data(2, 2, (2, 2), seed=7, out_dir=tmp_path)
        with open(paths[0], "w") as fh:
            fh.write("0.5,nan\n0.25,-0.5\n")
        rc = main(["run", "--domain", "float", "--parties", "2", "--features", "2",
                   "--samples", "2", "--data", ",".join(paths), "--sigma", "1"])
        assert rc == EXIT_PROTOCOL
        err = capsys.readouterr().err
        assert err.startswith("error: nan cannot be represented: reals must be finite")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--scale-bits", "-1", "--parties", "2", "--samples", "2"],
             "scale bits must be >= 0, got -1"),
            (["dump-scheme", "--d", "0"], "dot-product length must be >= 1, got 0"),
            (["cost", "--M", "1", "--f", "2", "--n", "3"], "need at least 2 input parties, got 1"),
            (["cost", "--M", "2", "--f", "0", "--n", "3"], "features must be >= 1, got 0"),
        ],
        ids=["run-negative-scale-bits", "dump-scheme-zero-d", "cost-one-party", "cost-zero-f"],
    )
    def test_invalid_numeric_arguments_exit_with_config_error(self, argv, message, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--features", "-1"], "features must be >= 1, got -1"),
            (["--features", "0"], "features must be >= 1, got 0"),
            (["--parties", "0"], "need at least 2 input parties, got 0"),
        ],
        ids=["negative-features", "zero-features", "zero-parties"],
    )
    def test_gen_data_invalid_counts_exit_with_config_error(self, flags, message, tmp_path,
                                                            capsys):
        assert main(["gen-data", *flags, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base", [-1, 65534, 70000])
    def test_base_port_out_of_range_exits_with_config_error(self, base, capsys):
        rc = main(["run", "--transport", "tcp", "--base-port", str(base), "--parties", "2",
                   "--samples", "2"])
        assert rc == EXIT_CONFIG
        assert f"base port must be 0 or in 1..65533 (ports base..base+2), got {base}" in (
            capsys.readouterr().err
        )

    def test_base_port_range(self):
        cfg = RunConfig(protocol="escaped", m=3, features=2, samples=(1, 1, 1))
        for ok in (0, 1, 65532):
            replace(cfg, base_port=ok).validate()
        for bad in (-5, 65533, 2**16):
            with pytest.raises(ConfigError, match="base port"):
                replace(cfg, base_port=bad).validate()

    def test_gen_data_cli(self, tmp_path, capsys):
        rc = main(
            ["gen-data", "--parties", "2", "--features", "3", "--samples", "2",
             "--out-dir", str(tmp_path)]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "party_1.csv").exists()

    def test_compare_cli(self, capsys):
        rc = main(
            ["compare", "--parties", "2", "--features", "4", "--samples", "2",
             "--seed", "3", "--verify"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "byte ratio re/escaped" in out

    def test_kernel_export_cli(self, tmp_path):
        out_csv = tmp_path / "kernel.csv"
        rc = main(
            ["run", "--parties", "2", "--features", "3", "--samples", "2",
             "--sigma", "1.0", "--kernel-out", str(out_csv)]
        )
        assert rc == EXIT_OK
        assert len(out_csv.read_text().strip().splitlines()) == 4

    def test_csv_ingestion_with_transpose(self, tmp_path):
        gen_data(2, 3, (2, 2), seed=6, out_dir=tmp_path)
        # rewrite transposed: samples as rows
        for i in (1, 2):
            path = tmp_path / f"party_{i}.csv"
            rows = [line.split(",") for line in path.read_text().strip().splitlines()]
            cols = list(zip(*rows))
            path.write_text("\n".join(",".join(c) for c in cols) + "\n")
        rc = main(
            ["run", "--parties", "2", "--features", "3", "--samples", "2",
             "--seed", "6", "--verify", "--transpose",
             "--data", f"{tmp_path}/party_1.csv,{tmp_path}/party_2.csv"]
        )
        assert rc == EXIT_OK
