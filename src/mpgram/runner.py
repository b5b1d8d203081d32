"""End-to-end run orchestration: provision parties, execute, verify, report.

Loopback runs drive every party as a thread inside this process.  A TCP
run starts one interpreter, ``python -m mpgram.worker`` with every party's
job, and a single-threaded OpenBLAS: it forks one process per input party,
plays the function party itself, and reaps its children (``mpgram.worker``).
Each party's process loads only its own job and hands its
``PartyOutcome`` back in a pickle file, which the launcher writes for a
child that exited nonzero without one.  On both, one collector merges
the parties' sender-side transcripts and blames the earliest failure.
Each party gets its own copy of the ``SessionSpec``, which carries only
its own key (``party_specs``; see ``mpgram.seeds``).
With the ``verify`` flag the orchestrator recomputes the plaintext gram
matrix as an oracle and checks the protocol output against it, checks the
decoded gram against a float64 gram of the decoded inputs, a second guard
against fixed-point wrap-around after each party's own ``check_gram_range``,
and re-derives the party keys from the run seed for the protocol's
``leakage_check`` of the function party's view -- in a real deployment
that would defeat the point, so it is strictly a testing facility.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pickle
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import transport as tp
from .costs import ESCAPED, RE, cost_model, protocol_record, transcript_audit
from .errors import ConfigError, DataError, MpgramError, ProtocolError
from .field import make_domain
from .kernel import KernelMatrix, rbf_from_gram
from .matrix import Matrix, encode_real_matrix, gram_t, load_real_csv, save_csv
from .party import (LIFELINE, OUTCOME_FILE, FunctionPartyResult, SessionSpec,
                    build_loopback_meshes, exit_outcome, play_party)
from .seeds import derive_seed, party_key

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """One run's configuration; ``validate`` checks it, and ``run`` calls that first.

    ``verify`` defaults to True here: ``run`` then also computes the
    test-only plaintext oracle and the protocol's leakage recheck (module
    docstring), which a timed library call pays for too.  The CLI's
    ``--verify`` is off by default.
    """

    protocol: str
    m: int
    features: int
    samples: tuple
    domain: str = "field"
    scale_bits: int = 16
    transport: str = "loopback"
    base_port: int = 0
    seed: int = 0
    sigma: float = None
    data_csv: tuple = None
    transpose: bool = False
    verify: bool = True

    def validate(self):
        protocol_record(self.protocol)
        if self.m < 2:
            raise ConfigError(f"need at least 2 input parties, got {self.m}")
        if len(self.samples) != self.m:
            raise ConfigError(f"{self.m} parties but {len(self.samples)} sample counts")
        if any(n < 1 for n in self.samples):
            raise ConfigError("every party needs at least one sample")
        if self.features < 1:
            raise ConfigError(f"features must be >= 1, got {self.features}")
        if self.scale_bits < 0:
            raise ConfigError(f"scale bits must be >= 0, got {self.scale_bits}")
        if self.domain != "field":
            raise ConfigError(f"domain must be field, got {self.domain!r}")
        if self.transport not in ("loopback", "tcp"):
            raise ConfigError(f"transport must be loopback or tcp, got {self.transport!r}")
        if self.transport == "tcp" and not hasattr(os, "fork"):
            raise ConfigError("tcp transport starts its parties with os.fork, "
                              "which this platform does not have")
        if not hasattr(socket.socket, "sendmsg"):
            raise ConfigError("every channel sends its frames with socket.sendmsg, "
                              "which this platform does not have")
        last = self.m * (self.m + 1) // 2 - 1  # one port per pair of ids 0..m
        if self.base_port and not 1 <= self.base_port <= 65535 - last:
            raise ConfigError(f"base port must be 0 or in 1..{65535 - last} "
                              f"(ports base..base+{last}), got {self.base_port}")
        if self.data_csv is not None and len(self.data_csv) != self.m:
            raise ConfigError(f"{self.m} parties but {len(self.data_csv)} data files")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass
class RunResult:
    config: RunConfig
    report: dict
    fp_result: FunctionPartyResult
    transcript: tp.Transcript
    gram_real: np.ndarray
    kernel: KernelMatrix = None
    party_data: dict = field(default_factory=dict)


def synthesize_party_reals(seed: int, party_id: int, f: int, n: int) -> np.ndarray:
    """Reproducible synthetic data, a float64 array uniform in [-1, 1], shape f x n."""
    rng = np.random.default_rng(derive_seed(seed, "data", party_id))
    return rng.uniform(-1.0, 1.0, (f, n))


def gen_data(m: int, f: int, samples, seed: int, out_dir) -> list:
    """Write one features-x-samples CSV of reals per party; returns the paths."""
    RunConfig(ESCAPED, m, f, tuple(samples)).validate()  # the counts a run on them needs
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(1, m + 1):
        path = os.path.join(out_dir, f"party_{i}.csv")
        save_csv(synthesize_party_reals(seed, i, f, samples[i - 1]), path)
        paths.append(path)
    return paths


def _load_party_reals(config: RunConfig) -> dict:
    """{input party id: its reals, a float64 array of shape features x samples}."""
    reals = {}
    for i in range(1, config.m + 1):
        if config.data_csv is not None:
            path = config.data_csv[i - 1]
            try:
                x = load_real_csv(path, transpose=config.transpose)
            except DataError as exc:
                raise ConfigError(f"party {i} data file {path}: {exc}") from None
        else:
            x = synthesize_party_reals(config.seed, i, config.features, config.samples[i - 1])
        if x.shape != (config.features, config.samples[i - 1]):
            raise ConfigError(
                f"party {i} data is {x.shape[0]}x{x.shape[1]}, "
                f"expected {config.features} features x {config.samples[i - 1]} samples"
            )
        reals[i] = x
    return reals


def run(config: RunConfig) -> RunResult:
    config.validate()
    domain = make_domain(config.domain, config.scale_bits)
    t0 = time.perf_counter()
    data = {i: encode_real_matrix(x, domain) for i, x in _load_party_reals(config).items()}
    t_data = time.perf_counter() - t0

    t1 = time.perf_counter()
    specs = party_specs(config, domain)
    if config.transport == "loopback":
        outcomes = _run_loopback(specs, data)
    else:
        outcomes = _run_tcp(config, specs, data)
    fp_result, transcript = collect_outcomes(outcomes, config.m)
    t_protocol = time.perf_counter() - t1

    t2 = time.perf_counter()
    gram = fp_result.gram
    gram_real = domain.decode_dot(gram.data).astype(float)

    verification = {"enabled": bool(config.verify), "status": "skipped"}
    leakage = None
    if config.verify:
        verification = _verify_against_oracle(domain, data, gram, gram_real)
        check = protocol_record(config.protocol).leakage_check
        if check is not None:
            leakage = check(data, {i: party_key(config.seed, i) for i in data}, fp_result)

    prediction = cost_model(config.protocol, config.m, config.features, config.samples)
    audit = transcript_audit(transcript, prediction)

    kernel = None
    if config.sigma is not None:
        kernel = rbf_from_gram(gram_real, config.sigma)
    t_post = time.perf_counter() - t2

    report = {
        "schema_version": SCHEMA_VERSION,
        "protocol": config.protocol,
        "m": config.m,
        "features": config.features,
        "samples": list(config.samples),
        "domain": config.domain,
        "scale_bits": config.scale_bits,
        "transport": config.transport,
        "seed": config.seed,
        "sigma": config.sigma,
        "gram": {"n": gram.rows, "sha256": _gram_sha(gram)},
        "verification": verification,
        "leakage": leakage,
        "audit": audit.as_dict(),
        "costs": prediction.as_dict(),
        "totals": transcript.totals(),
        "transcript_sha256": transcript.digest(),
        "kernel": None
        if kernel is None
        else {"sigma": kernel.sigma, "sha256": _kernel_sha(kernel)},
        "timing": {
            "data_s": t_data,
            "protocol_s": t_protocol,
            "post_s": t_post,
            "total_s": time.perf_counter() - t0,
        },
    }
    report["determinism_digest"] = determinism_digest(report)
    return RunResult(
        config=config,
        report=report,
        fp_result=fp_result,
        transcript=transcript,
        gram_real=gram_real,
        kernel=kernel,
        party_data=data,
    )


def party_specs(config: RunConfig, domain) -> dict:
    """{party id: that party's own ``SessionSpec``}: input party i holds only
    ``party_key(config.seed, i)``, the function party no key."""
    return {
        i: SessionSpec(config.protocol, config.m, config.features, domain,
                       None if i == tp.FUNCTION_PARTY_ID else party_key(config.seed, i))
        for i in range(config.m + 1)
    }


def determinism_digest(report: dict) -> str:
    """Digest of the report minus wall-clock fields; equal for equal runs."""
    core = {k: v for k, v in report.items() if k not in ("timing", "determinism_digest")}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def _gram_sha(gram: Matrix) -> str:
    h = hashlib.sha256(struct.pack("<II", gram.rows, gram.cols))
    for part in gram.domain.pack(gram.data):
        h.update(part)
    return h.hexdigest()


def _kernel_sha(kernel: KernelMatrix) -> str:
    h = hashlib.sha256(struct.pack("<Id", kernel.n, kernel.sigma))
    h.update(kernel.entries.astype("<f8").tobytes())
    return h.hexdigest()


def plaintext_gram(domain, data: dict) -> Matrix:
    """Oracle: gram of the column-concatenated party matrices."""
    full = Matrix(np.hstack([data[i].data for i in sorted(data)]), domain)
    return gram_t(full, full)


def _verify_against_oracle(domain, data: dict, gram: Matrix, gram_real: np.ndarray) -> dict:
    oracle = plaintext_gram(domain, data)
    verdict = {"enabled": True, "status": "pass", "max_abs_deviation": 0.0, "bound": 0.0}
    if oracle != gram:
        dev = np.abs(domain.decode_dot(gram.data) - domain.decode_dot(oracle.data))
        verdict.update(
            status="fail", max_abs_deviation=float(np.max(dev)),
            reason="gram differs from the field oracle",
        )
        return verdict
    # The oracle computes in the same field, so a dot product that wraps
    # past p/2 fools it.  A float64 gram of the decoded inputs does not: it
    # is off by float64 rounding only, within (f+2) 2^-52 |X|^T |X|
    # entrywise, while a wrap moves an entry by a multiple of p / 2^(2s).
    x = np.hstack([domain.decode(data[i].data) for i in sorted(data)]).astype(float)
    dev = np.abs(gram_real - x.T @ x)
    tol = (x.shape[0] + 2) * 2.0**-52 * (np.abs(x).T @ np.abs(x))
    if (dev > tol).any():
        worst = np.unravel_index(np.argmax(dev - tol), dev.shape)
        verdict.update(
            status="fail", max_abs_deviation=float(dev[worst]), bound=float(tol[worst]),
            reason="decoded gram departs from float64 X^T X: fixed-point wrap-around",
        )
    return verdict


# -- party outcomes -----------------------------------------------------------

PARTY_TIMEOUT_S = 300.0  # for a whole run's parties, on either transport


def collect_outcomes(outcomes, m: int) -> tuple:
    """The function party's result and the merged transcript of parties 0..m.

    One blame rule for both transports: if any party failed, the earliest
    failure by ``time.monotonic()`` is the root cause.  A party records its
    outcome before it closes a socket, so a peer that fails from that close
    fails later.
    """
    outcomes = sorted(outcomes, key=lambda o: o.party_id)
    failed = [o for o in outcomes if o.failure is not None]
    if failed:
        first = min(failed, key=lambda o: o.failure[0])
        pid, (_, exc) = first.party_id, first.failure
        who = "function party" if pid == tp.FUNCTION_PARTY_ID else f"party {pid}"
        raise ProtocolError(f"{who} failed: {exc}") from exc
    missing = sorted(set(range(m + 1)) - {o.party_id for o in outcomes})
    if missing:
        raise ProtocolError(f"parties {missing} handed back no outcome")
    transcript = tp.Transcript()
    transcript.entries = [e for o in outcomes for e in o.entries]
    return outcomes[tp.FUNCTION_PARTY_ID].result, transcript


def _run_loopback(specs: dict, data: dict) -> list:
    """Every party as a thread of this process, each with its own spec; returns their outcomes."""
    meshes = build_loopback_meshes(len(specs) - 1)
    outcomes = []
    threads = [
        threading.Thread(
            target=play_party, args=(specs[i], mesh, data.get(i), outcomes.append), daemon=True
        )
        for i, mesh in meshes.items()
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + PARTY_TIMEOUT_S
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    return list(outcomes)


# -- TCP execution (one OS process per party) ---------------------------------


def _free_ports(count: int) -> list:
    import socket as _socket

    socks, ports = [], []
    for _ in range(count):
        s = _socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def tcp_ports(config: RunConfig) -> dict:
    """{(i, j): the port where party i listens for party j}, for each pair of ids
    i < j in ``itertools.combinations`` order: from ``base_port`` on, or free ports."""
    pairs = list(itertools.combinations(range(config.m + 1), 2))
    ports = range(config.base_port, 65536) if config.base_port else _free_ports(len(pairs))
    return dict(zip(pairs, ports))


def _wait_launcher(proc) -> tuple:
    """The launcher's exit code and stderr; the code is None if it outlives ``PARTY_TIMEOUT_S``.

    The launcher stops and reaps its own children (``mpgram.worker``), but
    a launcher that dies leaves them running.  So after every launch the
    runner kills what is left of the launcher's session, and then reaps the
    launcher if it has not yet.  The kernel reuses no PID that is still a
    process group's ID, so the kill reaches the launcher's group or none.
    """
    try:
        _, err = proc.communicate(timeout=PARTY_TIMEOUT_S)
        return proc.returncode, err.decode(errors="replace")
    except subprocess.TimeoutExpired:
        return None, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the launcher left nothing running
            pass
        if proc.returncode is None:
            proc.communicate()


def _write_jobs(rundir: str, specs: dict, data: dict, ports: dict) -> list:
    """Pickle party i's job, with its own spec and data, to ``<rundir>/party_i/job.pickle``
    for ids 0..m; returns the paths.  Its process writes its outcome beside it."""
    jobs = []
    for pid, spec in specs.items():  # ids 0..m, so job k is party k's
        jobs.append(os.path.join(rundir, f"party_{pid}", "job.pickle"))
        os.mkdir(os.path.dirname(jobs[-1]))
        job = {"spec": spec, "party_id": pid, "host": "127.0.0.1", "ports": ports,
               "data": data.get(pid)}
        with open(jobs[-1], "wb") as fh:
            pickle.dump(job, fh)
    return jobs


def _run_tcp(config: RunConfig, specs: dict, data: dict) -> list:
    """Every party as a process of one ``python -m mpgram.worker job_0 .. job_m``
    launch; returns their outcomes.

    The launcher plays the function party's job 0, forks one process per
    input party, and writes the outcome of a child that exited nonzero
    without one (``mpgram.worker``).  The runner applies the same rule to
    the launcher: if it exits nonzero with no function-party outcome, the
    function party is blamed by its exit code and last stderr line.  So the
    runner reads only the outcome files and the launcher's stderr.
    The launcher's lifeline is a pipe whose write end only the runner holds:
    if the runner dies first, the launcher removes ``rundir`` and kills its group.
    """
    rundir = tempfile.mkdtemp(prefix="mpgram-run-")
    lifeline = os.pipe()
    try:
        jobs = _write_jobs(rundir, specs, data, tcp_ports(config))
        # a party's BLAS calls are small: OpenBLAS's thread pool would only add
        # start-up time and spinning helper threads to each party
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", LIFELINE: str(lifeline[0])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mpgram.worker", *jobs], pass_fds=lifeline[:1],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, start_new_session=True,
        )
        code, err = _wait_launcher(proc)

        outcomes = []
        for job in jobs:
            try:
                with open(os.path.join(os.path.dirname(job), OUTCOME_FILE), "rb") as fh:
                    outcomes.append(pickle.load(fh))
            except Exception:  # noqa: BLE001 - no file, or one that does not load
                pass
        if code and all(o.party_id != tp.FUNCTION_PARTY_ID for o in outcomes):
            outcomes.append(exit_outcome(tp.FUNCTION_PARTY_ID, code, err))
        return outcomes
    finally:
        for fd in lifeline:
            os.close(fd)
        shutil.rmtree(rundir, ignore_errors=True)


# -- protocol comparison -------------------------------------------------------


@dataclass
class ComparisonResult:
    results: list
    byte_ratio: float  # re / escaped
    element_ratio: float
    grams_equal: bool

    def table_text(self) -> str:
        header = f"{'protocol':<10}{'wall_s':>10}{'bytes':>14}{'elements':>14}  verification"
        lines = [header, "-" * len(header)]
        for r in self.results:
            tot = r.report["totals"]["total"]
            lines.append(
                f"{r.config.protocol:<10}"
                f"{r.report['timing']['total_s']:>10.3f}"
                f"{tot['bytes']:>14}"
                f"{tot['elements']:>14}"
                f"  {r.report['verification']['status']}"
            )
        lines.append(
            f"byte ratio re/escaped: {self.byte_ratio:.2f}; "
            f"element ratio: {self.element_ratio:.2f}; "
            f"identical gram: {self.grams_equal}"
        )
        return "\n".join(lines)


def compare(configs) -> ComparisonResult:
    """Run the given configs (same everything, different protocol) and compare."""
    configs = list(configs)
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configs")
    base = configs[0]
    for c in configs[1:]:
        if replace(c, protocol=base.protocol) != base:
            raise ConfigError("compare configs must differ only in protocol")
    if len({c.protocol for c in configs}) != len(configs):
        raise ConfigError("compare configs must have distinct protocols")

    results = [run(c) for c in configs]
    by_proto = {r.config.protocol: r for r in results}
    shas = {r.report["gram"]["sha256"] for r in results}
    grams_equal = len(shas) == 1
    if not grams_equal:
        raise MpgramError("protocols disagree on the gram matrix over the field")
    byte_ratio = element_ratio = float("nan")
    if ESCAPED in by_proto and RE in by_proto:
        esc = by_proto[ESCAPED].report["totals"]["total"]
        ren = by_proto[RE].report["totals"]["total"]
        byte_ratio = ren["bytes"] / esc["bytes"]
        element_ratio = ren["elements"] / esc["elements"]
    return ComparisonResult(results, byte_ratio, element_ratio, grams_equal)
