"""End-to-end orchestration: runs, reports, comparison, data generation, CLI."""

import itertools
import json
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpgram import masking, party, runner
from mpgram import transport as tp
from mpgram.cli import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_VERIFY,
    _exit_code,
    main,
)
from mpgram.errors import ConfigError, ProtocolError
from mpgram.field import FieldDomain
from mpgram.kernel import export_matrix
from mpgram.party import LIFELINE, PartyOutcome
from mpgram.matrix import encode_real_matrix
from mpgram.runner import (
    RunConfig,
    _verify_against_oracle,
    collect_outcomes,
    compare,
    gen_data,
    plaintext_gram,
    run,
    synthesize_party_reals,
    tcp_ports,
)
from mpgram.seeds import party_key


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

    def test_float_domain_rejected(self):
        cfg = RunConfig(protocol="escaped", m=2, features=2, samples=(2, 2), domain="float")
        with pytest.raises(ConfigError, match="^domain must be field, got 'float'$"):
            cfg.validate()

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

    def test_re_tcp_matches_loopback(self):
        # RE's pair frames, their randoms and results, byte for byte over TCP
        from dataclasses import replace

        cfg = RunConfig(protocol="re", m=3, features=4, samples=(2, 3, 1), seed=15)
        loop = run(cfg)
        over_tcp = run(replace(cfg, transport="tcp"))
        assert over_tcp.report["verification"]["status"] == "pass"
        assert over_tcp.report["audit"]["ok"]
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

    def test_verify_catches_fixed_point_wrap(self):
        # Dot products of reals up to 3e4 reach ~2.3e9, past p / 2^33 ~ 2.7e8
        # at 16 fractional bits, so they wrap.  The field oracle wraps alike.
        # Input parties refuse such data before they send anything (below);
        # verify's float64 check is the second guard, reached here directly.
        dom = FieldDomain()
        rng = np.random.default_rng(0)
        reals = [rng.uniform(-3e4, 3e4, (4, 3)) for _ in (1, 2)]
        data = {i: encode_real_matrix(x, dom) for i, x in enumerate(reals, 1)}
        gram = plaintext_gram(dom, data)
        gram_real = dom.decode_dot(gram.data)
        x = np.hstack(reals)
        assert np.max(np.abs(gram_real - x.T @ x)) > 1e8
        v = _verify_against_oracle(dom, data, gram, gram_real)
        assert v["status"] == "fail"
        assert v["max_abs_deviation"] > 1e8 > v["bound"]
        assert "wrap-around" in v["reason"]

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_data_that_could_wrap_fails_the_run(self, tmp_path, transport):
        # party 2's reals up to 3e4 exceed the column norm limit; party 1's do not
        rng = np.random.default_rng(0)
        paths = []
        for i, bound in ((1, 1.0), (2, 3e4)):
            paths.append(str(tmp_path / f"party_{i}.csv"))
            np.savetxt(paths[-1], rng.uniform(-bound, bound, (4, 3)), fmt="%.17g", delimiter=",")
        cfg = RunConfig(protocol="escaped", m=2, features=4, samples=(3, 3), seed=1,
                        data_csv=tuple(paths), transport=transport, verify=False)
        with pytest.raises(ProtocolError, match=r"^party 2 failed: sample 0 of party 2 has "
                           r"encoded squared norm \d+ > \(p - 1\) / 2 = 1152921504606846975 "
                           r"\(norm [\d.e+]+ > 16384 in real units\)"):
            run(cfg)

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
        assert res.fp_result.gram == oracle

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_pair_and_block_counts(self, m):
        cfg = RunConfig(protocol="escaped", m=m, features=3, samples=(2,) * m, seed=8)
        res = run(cfg)
        assert len(res.fp_result.pair_results) == m * (m - 1) // 2
        assert len(res.fp_result.self_blocks) == m
        assert sorted(res.fp_result.self_blocks) == list(range(1, m + 1))

    def test_field_re_run_makes_no_scalar_domain_calls(self, monkeypatch):
        # the RE path is array expressions over the domain's bulk sampler and
        # array operations; a per-scalar fallback would show up here
        calls = []
        for name in ("add", "sub", "mul", "sample_nonzero"):
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
        # one launch; the function party's process forks the input parties, and
        # the launcher learns the file descriptor of its lifeline (``_run_tcp``)
        [env] = envs
        assert env.pop(LIFELINE).isdigit()
        assert env == {**before, "OPENBLAS_NUM_THREADS": "1"}
        assert dict(os.environ) == before

    def test_failing_party_ends_loopback_run_and_is_blamed(self, monkeypatch):
        original = party._ReParty.act_alice

        def act_alice(self, bob_id):
            if self.party_id == 2:
                raise RuntimeError("injected encode failure")
            original(self, bob_id)

        monkeypatch.setattr(party._ReParty, "act_alice", act_alice)
        # bounds the wait of a run that does not fail fast
        monkeypatch.setattr(tp, "IO_TIMEOUT", 10.0)
        cfg = RunConfig(protocol="re", m=3, features=4, samples=(2, 3, 2), verify=False)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match="^party 2 failed: injected encode failure$"):
            run(cfg)
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.parametrize("protocol, features, n", [("escaped", 4, 200), ("re", 32, 24)])
    def test_loopback_run_at_size_does_not_wedge(self, monkeypatch, protocol, features, n):
        # the parts outgrow a socket buffer here, so the function party must
        # read them in the order the parties send (party module docstring)
        monkeypatch.setattr(tp, "IO_TIMEOUT", 10.0)
        cfg = RunConfig(protocol=protocol, m=3, features=features, samples=(n, n, n),
                        verify=False)
        t0 = time.monotonic()
        assert run(cfg).report["audit"]["ok"]
        assert time.monotonic() - t0 < 5.0

    def test_tcp_run_at_size_does_not_wedge(self):
        # reading all of party 1's parts first waits out the 120 s recv timeout here
        cfg = RunConfig(protocol="re", m=3, features=32, samples=(100, 100, 100),
                        transport="tcp", verify=False)
        t0 = time.monotonic()
        assert run(cfg).report["audit"]["ok"]
        assert time.monotonic() - t0 < 20.0

    def test_failing_tcp_worker_ends_run_and_is_blamed(self):
        # party 2 cannot listen on its port for party 3, so party 3, which connects
        # there, would wait out its 120 s recv timeout if the runner waited on it
        cfg = RunConfig(protocol="escaped", m=3, features=2, samples=(1, 1, 1),
                        transport="tcp", base_port=_free_port_block(6), verify=False)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", tcp_ports(cfg)[2, 3]))
            taken.listen()
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match=r"^party 2 failed: .*cannot listen on"):
                run(cfg)
        assert time.monotonic() - t0 < 10.0

    def test_tcp_run_blames_the_root_cause(self, tmp_path, monkeypatch):
        # party 2 fails first; its peers then fail too, on the channels it closes
        _inject_site(tmp_path, monkeypatch, SITE_INJECT_ACT_ALICE)
        for _ in range(10):
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match="^party 2 failed: injected"):
                run(TCP_M4)
            assert time.monotonic() - t0 < 10.0

    def test_tcp_party_process_that_dies_after_connecting_is_blamed(self, tmp_path, monkeypatch):
        # party 2 dies in round 1, after its mesh and hellos; its peers, the
        # function party included, then record failures on the sockets its exit closes
        log = tmp_path / "pids.txt"
        _inject_site(tmp_path, monkeypatch,
                     SITE_EXIT_ACT_ALICE + f"\nLOG = {str(log)!r}\n" + SITE_LOG_PIDS)
        for _ in range(10):
            log.write_text("")
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match="^party 2 failed: exited 7: $"):
                run(TCP_M4)
            assert time.monotonic() - t0 < 10.0
            pids = [int(pid) for pid in log.read_text().split()]
            assert len(set(pids)) == TCP_M4.m + 1
            for pid in pids:  # gone and reaped, as in test_no_party_process_outlives_a_tcp_run
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    @pytest.mark.parametrize("case, runs", [
        ("exit-before-connecting", 1), ("exit-after-hellos", 10), ("sigkill-after-hellos", 10),
    ])
    def test_function_party_process_that_dies_is_blamed_and_no_party_process_outlives_it(
        self, tmp_path, monkeypatch, case, runs
    ):
        # the launcher's own process dies: the runner blames it by its exit, as
        # the launcher blames a child, and ends the children it leaves running
        site = {
            "exit-before-connecting": _site_ending(0, "import os; os._exit(9)"),
            "exit-after-hellos": _site_function_party_ending("os._exit(9)"),
            "sigkill-after-hellos":
                _site_function_party_ending("os.kill(os.getpid(), signal.SIGKILL)"),
        }[case]
        log = tmp_path / "pids.txt"
        _inject_site(tmp_path, monkeypatch, site + f"\nLOG = {str(log)!r}\n" + SITE_LOG_PIDS)
        for _ in range(runs):
            log.write_text("")
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match=r"^function party failed: exited -?9: $"):
                run(TCP_M4)
            assert time.monotonic() - t0 < 10.0
            pids = {int(pid) for pid in log.read_text().split()}
            assert len(pids) == TCP_M4.m + 1
            deadline = time.monotonic() + 2.0  # a process killed by signal runs on briefly
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [pid for pid in pids if _running(pid)] == []

    def test_tcp_run_blames_a_party_whose_error_does_not_unpickle(self, tmp_path, monkeypatch):
        # NeedsTwo cannot be rebuilt from its args: the worker hands it back by name
        _inject_site(tmp_path, monkeypatch, SITE_INJECT_NEEDS_TWO)
        for _ in range(3):
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match="^party 2 failed: NeedsTwo: injected in act_alice$"):
                run(TCP_M4)
            assert time.monotonic() - t0 < 10.0

    def test_tcp_run_blames_a_party_whose_error_class_the_runner_cannot_import(
        self, tmp_path, monkeypatch
    ):
        # Boom pickles in the worker, but only the worker's sitecustomize defines it
        _inject_site(tmp_path, monkeypatch, SITE_INJECT_BOOM)
        for _ in range(3):
            t0 = time.monotonic()
            with pytest.raises(ProtocolError, match="^party 2 failed: Boom: injected$"):
                run(TCP_M4)
            assert time.monotonic() - t0 < 10.0

    def test_tcp_worker_exiting_without_an_outcome_is_blamed_by_its_exit(
        self, tmp_path, monkeypatch
    ):
        _inject_site(tmp_path, monkeypatch, SITE_EXIT_WITHOUT_OUTCOME)
        with pytest.raises(ProtocolError, match="^party 2 failed: exited 1: no outcome from 2$"):
            run(TCP_M4)

    @pytest.mark.parametrize("ending, blame", [
        ('sys.exit("no outcome from {p}")', "exited 1: no outcome from {p}"),
        ("sys.exit(3)", "exited 3: "),
        ('print("last words", file=sys.stderr, end=""); sys.exit(4)', "exited 4: last words"),
        ('raise RuntimeError("boom")', "exited 1: RuntimeError: boom"),
    ])
    @pytest.mark.parametrize("who", [2, 0], ids=["forked-child", "launcher"])
    def test_tcp_party_process_ending_is_blamed_by_its_exit_code_and_stderr(
        self, tmp_path, monkeypatch, who, ending, blame
    ):
        _inject_site(tmp_path, monkeypatch, _site_ending(who, ending.format(p=who)))
        # buffered, "last words" reach err.txt only if the process flushes stderr
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        name = "function party" if who == 0 else f"party {who}"
        with pytest.raises(ProtocolError) as info:
            run(TCP_M4)
        assert str(info.value) == f"{name} failed: {blame.format(p=who)}"

    def test_every_tcp_party_process_runs_its_atexit_handlers(self, tmp_path, monkeypatch):
        for case, site, blame in [
            ("ok", "", None),
            ("party-2-raises", SITE_INJECT_ACT_ALICE, "injected"),
            # the launcher still waits to accept party 2's connection
            ("party-2-exits-unconnected", SITE_EXIT_WITHOUT_OUTCOME, "exited 1: no outcome from 2"),
        ]:
            log = tmp_path / f"{case}.txt"
            _inject_site(tmp_path, monkeypatch,
                         site + f"\nLOG = {str(log)!r}\n" + SITE_LOG_PIDS + SITE_LOG_ATEXIT)
            if blame is None:
                assert run(TCP_M4).report["audit"]["ok"]
            else:
                with pytest.raises(ProtocolError, match=f"^party 2 failed: {blame}$"):
                    run(TCP_M4)
            lines = [line.split() for line in log.read_text().splitlines()]
            pids = [int(words[0]) for words in lines if len(words) == 1]
            ran = [int(words[0]) for words in lines if words[1:] == ["atexit"]]
            if blame is None:
                assert len(set(pids)) == len(pids) == TCP_M4.m + 1
                assert sorted(ran) == sorted(pids)  # exactly once in every party's process
            else:
                # the children killed on party 2's failure run none; the
                # launcher, which logs its pid first, still ends through its handlers
                assert len(set(ran)) == len(ran) and ran.count(pids[0]) == 1, case

    @pytest.mark.parametrize("case", ["ok", "exit-without-outcome", "port-taken"])
    def test_no_party_process_outlives_a_tcp_run(self, tmp_path, monkeypatch, case):
        log = tmp_path / "pids.txt"
        site = SITE_EXIT_WITHOUT_OUTCOME if case == "exit-without-outcome" else ""
        _inject_site(tmp_path, monkeypatch, site + f"\nLOG = {str(log)!r}\n" + SITE_LOG_PIDS)
        with socket.socket() as taken:
            cfg = TCP_M4
            if case == "port-taken":  # as in test_failing_tcp_worker_ends_run_and_is_blamed
                cfg = replace(TCP_M4, base_port=_free_port_block(10))
                taken.bind(("127.0.0.1", tcp_ports(cfg)[2, 3]))
                taken.listen()
            if case == "ok":
                assert run(cfg).report["audit"]["ok"]
            else:
                with pytest.raises(ProtocolError, match="^party 2 failed: "):
                    run(cfg)
        pids = [int(pid) for pid in log.read_text().split()]
        assert len(set(pids)) == cfg.m + 1
        for pid in pids:  # gone and reaped: a zombie still takes signal 0
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
    def test_no_party_process_or_run_directory_outlives_a_killed_runner(self, tmp_path,
                                                                           monkeypatch, signum):
        # neither signal runs the runner's ``finally``: the launcher's lifeline alone
        # ends the parties, each waiting in act_alice, and removes their jobs
        up = tmp_path / "up"
        _inject_site(tmp_path, monkeypatch, f"UP = {str(up)!r}\n" + SITE_DELAY_ACT_ALICE)
        args = ["run", "--transport", "tcp", "--parties", "3", "--features", "4", "--samples", "3"]
        proc = subprocess.Popen([sys.executable, "-m", "mpgram", *args],
                                env={**os.environ, "TMPDIR": str(tmp_path)},
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30.0
            while not up.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert up.exists()
            proc.send_signal(signum)
            assert proc.wait() == -signum
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and (
                    _processes_naming(str(tmp_path)) or list(tmp_path.glob("mpgram-run-*"))):
                time.sleep(0.01)
            assert _processes_naming(str(tmp_path)) == []
            assert list(tmp_path.glob("mpgram-run-*")) == []
        finally:
            proc.kill()
            proc.wait()
            for pid in _processes_naming(str(tmp_path)):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_tcp_transport_needs_fork(self, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        cfg = RunConfig(protocol="escaped", m=2, features=2, samples=(1, 1), transport="tcp")
        with pytest.raises(ConfigError, match="^tcp transport starts its parties with os.fork"):
            run(cfg)
        rc = main(["run", "--transport", "tcp", "--parties", "2", "--features", "2",
                   "--samples", "1"])
        assert rc == EXIT_CONFIG
        assert "os.fork, which this platform does not have" in capsys.readouterr().err
        assert run(replace(cfg, transport="loopback")).report["audit"]["ok"]

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_every_transport_needs_sendmsg(self, monkeypatch, capsys, transport):
        class PlainSocket:  # a platform whose sockets have no sendmsg
            pass

        monkeypatch.setattr(socket, "socket", PlainSocket)
        cfg = RunConfig(protocol="re", m=2, features=2, samples=(1, 1), transport=transport)
        with pytest.raises(ConfigError, match="^every channel sends its frames with socket.sendmsg"):
            run(cfg)
        rc = main(["run", "--transport", transport, "--parties", "2", "--features", "2",
                   "--samples", "1"])
        assert rc == EXIT_CONFIG
        assert "socket.sendmsg, which this platform does not have" in capsys.readouterr().err


TCP_M4 = RunConfig(protocol="escaped", m=4, features=2, samples=(1, 2, 1, 2), transport="tcp",
                   verify=False)


def _inject_site(tmp_path, monkeypatch, code: str):
    """Have every worker import ``code`` first, as its ``sitecustomize``."""
    (tmp_path / "sitecustomize.py").write_text(code)
    src = os.path.dirname(os.path.dirname(party.__file__))
    paths = [str(tmp_path), src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))


# party 2's first act as Alice raises
SITE_INJECT_ACT_ALICE = """
from mpgram import party

_act_alice = party._EscapedParty.act_alice


def act_alice(self, bob_id):
    if self.state.party_id == 2:
        raise RuntimeError("injected")
    _act_alice(self, bob_id)


party._EscapedParty.act_alice = act_alice
"""

# party 2's process dies at its first act as Alice, without a word or an outcome
SITE_EXIT_ACT_ALICE = """
import os

from mpgram import party

_act_alice = party._EscapedParty.act_alice


def act_alice(self, bob_id):
    if self.state.party_id == 2:
        os._exit(7)
    _act_alice(self, bob_id)


party._EscapedParty.act_alice = act_alice
"""

# the same, with an error whose __init__ does not take its own args
SITE_INJECT_NEEDS_TWO = """
from mpgram import party

_act_alice = party._EscapedParty.act_alice


class NeedsTwo(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


def act_alice(self, bob_id):
    if self.state.party_id == 2:
        raise NeedsTwo("injected", "act_alice")
    _act_alice(self, bob_id)


party._EscapedParty.act_alice = act_alice
"""

# the same, with an error class that only the workers can import
SITE_INJECT_BOOM = """
from mpgram import party

_act_alice = party._EscapedParty.act_alice


class Boom(Exception):
    pass


def act_alice(self, bob_id):
    if self.state.party_id == 2:
        raise Boom("injected")
    _act_alice(self, bob_id)


party._EscapedParty.act_alice = act_alice
"""


def _site_ending(party_id: int, ending: str) -> str:
    """A ``sitecustomize`` in which party ``party_id``'s process runs the statement
    ``ending`` before it connects or records anything."""
    return f"""
import sys

from mpgram import party

_play_party = party.play_party


def play_party(spec, mesh, data, record, connect=None):
    if mesh.party_id == {party_id}:
        {ending}
    return _play_party(spec, mesh, data, record, connect)


party.play_party = play_party
"""


# party 2's worker exits 1 before it connects or records anything
SITE_EXIT_WITHOUT_OUTCOME = _site_ending(2, 'sys.exit("no outcome from 2")')


def _site_function_party_ending(ending: str) -> str:
    """A ``sitecustomize`` in which the function party's process runs the statement
    ``ending`` once it has its mesh and every hello, before it reads any part."""
    return f"""
import os
import signal

from mpgram import party


def function_party_session(spec, mesh):
    {ending}


party.function_party_session = function_party_session
"""


# every party's process has its pid appended to LOG: the launcher's at
# start-up, and each input party's by the launcher as soon as ``os.fork``
# returns it, so a child killed right after its fork is logged too
SITE_LOG_PIDS = """
import os


def _log_pid(pid):
    with open(LOG, "a") as fh:
        fh.write(f"{pid}\\n")


_fork = os.fork


def _fork_and_log():
    pid = _fork()
    if pid:
        _log_pid(pid)
    return pid


_log_pid(os.getpid())
os.fork = _fork_and_log
"""

# with SITE_LOG_PIDS: every atexit handler run appends "<pid> atexit" to LOG;
# the forked input parties inherit the launcher's registration
SITE_LOG_ATEXIT = """
import atexit


def _log_atexit():
    with open(LOG, "a") as fh:
        fh.write(f"{os.getpid()} atexit\\n")


atexit.register(_log_atexit)
"""

# every party's process appends "<pid> read <path>" for each job file it opens
# and "<pid> plays <party id>" when it starts its party
SITE_LOG_JOB_READS = """
import os
import sys

from mpgram import party


def _log(what):
    with open(LOG, "a") as fh:
        fh.write(f"{os.getpid()} {what}\\n")


def _audit(event, args):
    if event == "open" and str(args[0]).endswith("job.pickle"):
        _log(f"read {args[0]}")


sys.addaudithook(_audit)
_play_party = party.play_party


def play_party(spec, mesh, data, record, connect=None):
    _log(f"plays {mesh.party_id}")
    return _play_party(spec, mesh, data, record, connect)


party.play_party = play_party
"""


# every party notes in UP that it is up, at its first act as Alice, and then waits 30 s
SITE_DELAY_ACT_ALICE = """
import time

from mpgram import party

_act_alice = party._EscapedParty.act_alice


def act_alice(self, bob_id):
    with open(UP, "a") as fh:
        fh.write(f"{self.state.party_id}\\n")
    time.sleep(30)
    _act_alice(self, bob_id)


party._EscapedParty.act_alice = act_alice
"""


def _outcome(pid, failed_at=None):
    failure = None if failed_at is None else (failed_at, RuntimeError(f"boom {pid}"))
    return PartyOutcome(pid, [], failure=failure)


def test_collector_blames_the_earliest_failure_in_any_order():
    # party 2 failed first; parties 0 and 3 failed after it; party 1 finished
    failed_at = {0: 12.5, 1: None, 2: 10.0, 3: 11.0}
    for order in itertools.permutations(failed_at):
        outcomes = [_outcome(pid, failed_at[pid]) for pid in order]
        with pytest.raises(ProtocolError, match="^party 2 failed: boom 2$"):
            collect_outcomes(outcomes, 3)


def test_collector_names_parties_without_an_outcome():
    with pytest.raises(ProtocolError, match=r"^parties \[1, 3\] handed back no outcome"):
        collect_outcomes([_outcome(0), _outcome(2)], 3)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie; a killed orphan is
    reaped by PID 1, not by the runner."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return not re.search(r"^State:\s+Z", fh.read(), re.M)
    except FileNotFoundError:
        return False


def _processes_naming(text: str) -> list:
    """The pids of the running processes whose command line holds ``text``."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if text.encode() in fh.read():
                    pids.append(int(entry))
        except OSError:  # a process that has just ended
            pass
    return pids


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


# the run seed, chosen so that its decimal digits and its pickled bytes are distinctive
MASTER_SEED = 0x5EED0FC0FFEE


def _assert_holds_no_other_secret(blob: bytes, own_key, keys: dict):
    """``blob`` holds neither the run seed nor any party key but ``own_key``."""
    assert str(MASTER_SEED).encode() not in blob
    assert MASTER_SEED.to_bytes(6, "little") not in blob  # pickle's LONG1 form
    for key in keys.values():
        assert (key in blob) == (key == own_key)


class TestPartyKeys:
    @pytest.mark.parametrize("protocol", ["escaped", "re"])
    def test_loopback_parties_hold_only_their_own_key(self, monkeypatch, protocol):
        held = {}
        play_party = runner.play_party

        def play(spec, mesh, *args, **kwargs):
            held[mesh.party_id] = spec
            return play_party(spec, mesh, *args, **kwargs)

        monkeypatch.setattr(runner, "play_party", play)
        cfg = RunConfig(protocol=protocol, m=3, features=2, samples=(1, 2, 1), seed=MASTER_SEED)
        assert run(cfg).report["verification"]["status"] == "pass"
        keys = {i: party_key(MASTER_SEED, i) for i in (1, 2, 3)}
        assert {i: spec.key for i, spec in held.items()} == {0: None, **keys}
        for i, spec in held.items():
            _assert_holds_no_other_secret(pickle.dumps(spec), keys.get(i), keys)

    @pytest.mark.parametrize("protocol", ["escaped", "re"])
    def test_tcp_jobs_hold_only_their_own_key_in_their_own_directory(self, monkeypatch, protocol):
        jobs = {}
        real_popen = subprocess.Popen

        def popen(args, **kwargs):
            assert not jobs, "more than one launch"
            for path in args[args.index("mpgram.worker") + 1:]:
                with open(path, "rb") as fh:
                    blob = fh.read()
                job = pickle.loads(blob)
                jobs[job["party_id"]] = (os.path.dirname(path), blob, job)
            return real_popen(args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", popen)
        cfg = RunConfig(protocol=protocol, m=3, features=2, samples=(1, 2, 1), transport="tcp",
                        seed=MASTER_SEED, verify=False)
        res = run(cfg)
        assert res.report["audit"]["ok"]
        keys = {i: party_key(MASTER_SEED, i) for i in (1, 2, 3)}
        assert list(jobs) == [0, 1, 2, 3]  # job 0, the launcher's own, is the function party's
        assert len({where for where, _, _ in jobs.values()}) == 4
        for i, (where, blob, job) in jobs.items():
            assert set(job) == {"spec", "party_id", "host", "ports", "data"}
            assert job["spec"].key == keys.get(i)
            assert os.path.basename(where) == f"party_{i}"
            assert job["data"] is None if i == 0 else job["data"] == res.party_data[i]
            _assert_holds_no_other_secret(blob, keys.get(i), keys)

    def test_each_tcp_party_process_reads_only_its_own_job(self, tmp_path, monkeypatch):
        log = tmp_path / "jobs.txt"
        _inject_site(tmp_path, monkeypatch, f"LOG = {str(log)!r}\n" + SITE_LOG_JOB_READS)
        assert run(TCP_M4).report["audit"]["ok"]
        reads, plays = {}, {}
        for line in log.read_text().splitlines():
            pid, what, arg = line.split(" ", 2)
            if what == "read":
                reads.setdefault(pid, []).append(Path(arg))
            else:
                plays[pid] = int(arg)
        assert sorted(plays.values()) == list(range(TCP_M4.m + 1))  # one process per party
        assert reads.keys() == plays.keys()
        for pid, party_id in plays.items():
            [job] = reads[pid]
            assert (job.parent.name, job.name) == (f"party_{party_id}", "job.pickle")


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


# gram.sha256, transcript_sha256 and determinism_digest of one fixed config:
# a refactor of the matrix, codec or assembly layers must reproduce every
# byte.  The gram digests were recorded before matrices moved onto numpy
# arrays.  The other digests were re-pinned once, when the parties'
# randomness moved from random.Random streams of the run seed to SHAKE-256
# streams of per-party keys: every mask and RE random changed, so every
# transcript changed.
PINNED_DIGESTS = {
    ("escaped", "field"): (
        "ef18623e7fbc16c145acf9e935cc823a6e93be7e3c3811ea945052f631536df2",
        "b1ab693d897a9c42ba13fbfb578694e2fb5770cbc9781b088d9955b07408ee96",
        "b6ac0ea6389c03d0d77d1eabef0d6202cf6cfc76a7b6d421a7fea8d6504af72f",
    ),
    ("re", "field"): (
        "ef18623e7fbc16c145acf9e935cc823a6e93be7e3c3811ea945052f631536df2",
        "365212772d8e1580945cfc64079302137bfdc70f12a2f1395981eac578de0d36",
        "8a413d872fa96cb5ce9db557b1116f83bfc33fec4036f3f1853f222eeeb04f06",
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
            assert Path(a).read_text() == Path(b).read_text()

    def test_shapes_and_range(self, tmp_path):
        paths = gen_data(2, 5, (3, 4), seed=10, out_dir=tmp_path)
        rows = [line.split(",") for line in Path(paths[1]).read_text().strip().splitlines()]
        assert len(rows) == 5
        assert all(len(r) == 4 for r in rows)
        assert all(-1.0 <= float(x) <= 1.0 for r in rows for x in r)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_csv_run_equals_synthetic_run(self, tmp_path, transport):
        paths = gen_data(2, 4, (2, 3), seed=12, out_dir=tmp_path)
        synth = RunConfig(protocol="escaped", m=2, features=4, samples=(2, 3), seed=12)
        loaded = replace(synth, data_csv=tuple(str(p) for p in paths), transport=transport)
        want, got = run(synth).report, run(loaded).report
        for key in ("gram", "transcript_sha256"):
            assert got[key] == want[key]

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

    def test_run_prints_headroom_on_stdout_only(self, tmp_path, capsys):
        argv = ["run", "--protocol", "re", "--parties", "3", "--features", "5", "--samples",
                "4,2,3", "--seed", "9", "--report", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        text = (tmp_path / "r.json").read_text()
        cfg = RunConfig(protocol="re", m=3, features=5, samples=(4, 2, 3), seed=9, verify=False)
        res = run(cfg)
        # the report, its digests included, is that of a library run
        doc = json.loads(text)
        for key in ("determinism_digest", "transcript_sha256", "gram"):
            assert doc[key] == res.report[key], key
        assert "headroom" not in text
        lines = [line for line in out.splitlines() if line.startswith("headroom: ")]
        dom = res.party_data[1].domain
        largest = max(
            sum(v * v for v in dom.centred(m.data)[:, u].tolist())
            for m in res.party_data.values() for u in range(m.cols)
        )
        limit = (dom.p - 1) // 2
        assert lines == [f"headroom: largest encoded column squared norm {largest} of "
                         f"(p - 1) / 2 = {limit} ({largest / limit:.3g} of the limit)"]

    def test_kernel_out_without_sigma_exits_with_config_error(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        argv = ["run", "--parties", "2", "--features", "4", "--samples", "3",
                "--kernel-out", str(path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--kernel-out" in err and "--sigma" in err
        assert not path.exists()
        assert main(argv + ["--sigma", "1.5"]) == EXIT_OK
        assert path.exists()

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

    def test_domain_flag_is_unrecognized(self, tmp_path, capsys):
        report = tmp_path / "f.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--domain", "float", "--parties", "2", "--features", "4",
                  "--samples", "3", "--report", str(report)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --domain float" in capsys.readouterr().err
        assert not report.exists()

    def test_data_that_could_wrap_exits_with_protocol_error(self, tmp_path, capsys):
        # reals up to 3e4: without the range check this run exits 0 with a wrong gram
        rng = np.random.default_rng(0)
        paths = []
        for i in (1, 2):
            paths.append(str(tmp_path / f"party_{i}.csv"))
            np.savetxt(paths[-1], rng.uniform(-3e4, 3e4, (4, 3)), fmt="%.17g", delimiter=",")
        rc = main(["run", "--parties", "2", "--features", "4", "--samples", "3",
                   "--data", ",".join(paths)])
        assert rc == EXIT_PROTOCOL
        err = capsys.readouterr().err
        assert re.match(r"error: party (\d) failed: sample \d of party \1 has encoded squared norm",
                        err)

    @pytest.mark.parametrize(
        "content, detail",
        [
            (None, "No such file or directory"),
            ("dir", "Is a directory"),
            ("0.5,0.25\n1,x\n", "could not convert string 'x' to float64 at line 2, column 2."),
            ("0.5,0.25\n1\n", "the number of columns changed from 2 to 1 at line 2"),
            ("\n\n", "holds no numbers"),
            # numpy skips the blank line and calls these row 1 and row 2
            ("0.5,0.25\n\n1,x\n", "could not convert string 'x' to float64 at line 3, column 2."),
            ("\n0.5,0.25\n \n", "the number of columns changed from 2 to 1 at line 3"),
            (b"1,2\n\xff\xfe,3\n",
             "could not convert string '\ufffd\ufffd' to float64 at line 2, column 1."),
        ],
        ids=["missing", "unreadable", "non-number", "ragged", "no-numbers",
             "non-number-after-blank-line", "ragged-after-blank-line", "not-text"],
    )
    def test_bad_data_file_exits_with_config_error(self, tmp_path, capsys, monkeypatch,
                                                   content, detail):
        started = []
        monkeypatch.setattr(runner, "play_party", lambda *args, **kwargs: started.append(args))
        paths = gen_data(2, 2, (2, 2), seed=7, out_dir=tmp_path)
        bad = paths[1]
        os.remove(bad)
        if content == "dir":
            os.mkdir(bad)
        elif isinstance(content, bytes):
            Path(bad).write_bytes(content)
        elif content is not None:
            Path(bad).write_text(content)
        rc = main(["run", "--parties", "2", "--features", "2", "--samples", "2",
                   "--data", ",".join(paths)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: party 2 data file {bad}: {detail}\n"
        assert not started

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--parties", "2", "--features", "2", "--samples", "2", "--report"],
            ["run", "--parties", "2", "--features", "2", "--samples", "2", "--sigma", "1",
             "--kernel-out"],
            ["compare", "--parties", "2", "--features", "2", "--samples", "2", "--report"],
            ["cost", "--M", "2", "--f", "2", "--n", "2", "--report"],
            ["gen-data", "--parties", "2", "--features", "2", "--samples", "2", "--out-dir"],
        ],
        ids=["run-report", "run-kernel-out", "compare-report", "cost-report", "gen-data-out-dir"],
    )
    def test_unwritable_output_path_exits_with_config_error(self, argv, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")  # under a regular file, so it cannot be made
        assert main([*argv, out]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot write {out}: Not a directory\n"

    def test_exit_code_puts_the_audit_before_verification(self):
        def report(audit_ok, status):
            return {"audit": {"ok": audit_ok}, "verification": {"enabled": True, "status": status}}

        assert _exit_code(report(False, "fail")) == EXIT_AUDIT
        assert _exit_code(report(False, "pass")) == EXIT_AUDIT
        assert _exit_code(report(True, "fail")) == EXIT_VERIFY
        assert _exit_code(report(True, "pass")) == EXIT_OK
        # compare's two runs: one fails verification, the other the audit
        assert _exit_code(report(True, "fail"), report(False, "pass")) == EXIT_AUDIT
        unverified = {"audit": {"ok": True}, "verification": {"enabled": False, "status": "skipped"}}
        assert _exit_code(unverified) == EXIT_OK

    def test_bad_data_file_starts_no_tcp_worker(self, tmp_path, capsys, monkeypatch):
        def popen(*args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(subprocess, "Popen", popen)
        paths = gen_data(2, 2, (2, 2), seed=7, out_dir=tmp_path)
        Path(paths[0]).write_text("1,x\n0.5,0.25\n")
        rc = main(["run", "--transport", "tcp", "--parties", "2", "--features", "2",
                   "--samples", "2", "--data", ",".join(paths)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: party 1 data file {paths[0]}: could not convert")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--scale-bits", "-1", "--parties", "2", "--samples", "2"],
             "scale bits must be >= 0, got -1"),
            (["dump-scheme", "--d", "0"], "dot-product length must be >= 1, got 0"),
            (["cost", "--M", "1", "--f", "2", "--n", "3"], "need at least 2 input parties, got 1"),
            (["cost", "--M", "2", "--f", "0", "--n", "3"], "features must be >= 1, got 0"),
            (["run", "--parties", "2", "--features", "4", "--samples", "3", "--sigma", "nan"],
             "sigma must be positive and finite, got nan"),
            (["run", "--parties", "2", "--features", "4", "--samples", "3", "--sigma", "inf"],
             "sigma must be positive and finite, got inf"),
        ],
        ids=["run-negative-scale-bits", "dump-scheme-zero-d", "cost-one-party", "cost-zero-f",
             "run-nan-sigma", "run-inf-sigma"],
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
        for ok in (0, 1, 65530):  # ports base..base+5, one per pair of ids 0..3
            replace(cfg, base_port=ok).validate()
        for bad in (-5, 65531, 2**16):
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
        rc = main(["compare", "--parties", "2", "--features", "4", "--samples", "2",
                   "--seed", "3", "--verify"])
        assert rc == EXIT_OK
        assert "byte ratio re/escaped" in capsys.readouterr().out

    def test_kernel_export_cli(self, tmp_path):
        out_csv = tmp_path / "kernel.csv"
        rc = main(
            ["run", "--parties", "2", "--features", "3", "--samples", "2",
             "--sigma", "1.0", "--kernel-out", str(out_csv)]
        )
        assert rc == EXIT_OK
        assert len(out_csv.read_text().strip().splitlines()) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_kernel_out_writes_the_runs_kernel_as_export_matrix_does(self, tmp_path, fmt):
        out = tmp_path / f"kernel.{fmt}"
        rc = main(["run", "--parties", "2", "--features", "3", "--samples", "2", "--seed", "4",
                   "--sigma", "1.5", "--kernel-out", str(out), "--kernel-format", fmt])
        assert rc == EXIT_OK
        cfg = RunConfig(protocol="escaped", m=2, features=3, samples=(2, 2), seed=4, sigma=1.5)
        export_matrix(run(cfg).kernel, tmp_path / f"want.{fmt}", fmt=fmt)
        assert out.read_bytes() == (tmp_path / f"want.{fmt}").read_bytes()

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
