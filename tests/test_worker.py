"""The TCP worker: which connections a party accepts, and as whom; the single-job form."""

import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from mpgram import party, runner, worker
from mpgram import transport as tp
from mpgram.errors import ProtocolError
from mpgram.field import FieldDomain, make_domain
from mpgram.party import Mesh, SessionSpec, run_party
from mpgram.runner import RunConfig, collect_outcomes, party_specs, run
from mpgram.worker import setup_mesh

HOST = "127.0.0.1"


def _cfg(party_id: int, m: int) -> dict:
    cfg = RunConfig(protocol="escaped", m=m, features=1, samples=(1,) * m, transport="tcp")
    return {"party_id": party_id, "host": HOST, "ports": runner.tcp_ports(cfg)}


def _connect_as(cfg: dict, pair: tuple, sender: int, kind: int = tp.HELLO) -> tp.Channel:
    """Connect to the port of ``pair``, where party ``pair[0]`` listens, and send one
    frame to that party that claims to come from ``sender``."""
    channel = tp.Channel(tp.tcp_connect(HOST, cfg["ports"][pair]), sender, pair[0], None)
    channel.send(kind, tp.u64_payload(2) if kind == tp.HELLO else b"")
    return channel


def _peer_sees_close(channel: tp.Channel) -> bool:
    """True once the other end of ``channel`` has closed, False while it is open."""
    channel.sock.settimeout(0.2)
    try:
        return channel.sock.recv(1) == b""
    except socket.timeout:
        return False


def test_function_party_names_each_connection_by_its_port():
    # party 2 connects first; each channel still goes to the id of its port
    cfg = _cfg(0, 2)
    mesh = Mesh(0, {})
    try:
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(setup_mesh, cfg, mesh)
            peers = [_connect_as(cfg, (0, 2), 2), _connect_as(cfg, (0, 1), 1)]
            future.result(timeout=10)
        assert {j: c.peer_id for j, c in mesh.channels.items()} == {1: 1, 2: 2}
        assert [mesh.peer_size(j) for j in (1, 2)] == [2, 2]
        # the listeners stay open until the mesh closes
        socket.create_connection((HOST, cfg["ports"][0, 1]), timeout=1).close()
    finally:
        mesh.close()
    assert all(_peer_sees_close(peer) for peer in peers)
    for j in (1, 2):
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((HOST, cfg["ports"][0, j]), timeout=1)
    for peer in peers:
        peer.close()


@pytest.mark.parametrize("claimed", [2, 1, 0, 4], ids=["own", "lower", "function-party", "above-m"])
def test_a_stranger_on_a_pairs_port_fails_at_its_first_frame(claimed):
    # party 2 of 3 connects to parties 0 and 1, then accepts party 3 on its port
    # for 3; a frame there from any other id names both
    cfg = _cfg(2, 3)
    lower = [tp.tcp_listen(HOST, cfg["ports"][j, 2]) for j in (0, 1)]
    mesh = Mesh(2, {})
    try:
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(setup_mesh, cfg, mesh)
            peer = _connect_as(cfg, (2, 3), claimed)
            future.result(timeout=10)
        with pytest.raises(ProtocolError, match=f"^party 2 expected a frame from 3, got one "
                                                f"from {claimed}$"):
            mesh.peer_size(3)
    finally:
        mesh.close()
    peer.close()
    for srv in lower:
        srv.close()


def test_first_frame_that_is_not_a_hello_fails_the_function_party():
    cfg = _cfg(0, 2)
    mesh = Mesh(0, {})
    try:
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(setup_mesh, cfg, mesh)
            peers = [_connect_as(cfg, (0, 1), 1), _connect_as(cfg, (0, 2), 2, kind=tp.DONE)]
            future.result(timeout=10)
        assert sorted(mesh.channels) == [1, 2]
        spec = SessionSpec("escaped", 2, 1, FieldDomain(), None)
        with pytest.raises(ProtocolError, match="expected hello from 2, got done"):
            run_party(spec, mesh)
    finally:
        mesh.close()
    for peer in peers:
        peer.close()


# a party's first act as Alice raises
SITE_FAIL_ACT_ALICE = """
from mpgram import party


def act_alice(self, bob_id):
    raise RuntimeError("injected")


party._EscapedParty.act_alice = act_alice
"""


def _write_jobs(rundir, cfg: RunConfig, data: dict) -> dict:
    """{party id: job path}, written by ``runner._write_jobs`` into ``rundir``
    with free ports and each party's own spec and data."""
    rundir.mkdir(parents=True, exist_ok=True)
    specs = party_specs(cfg, make_domain(cfg.domain, cfg.scale_bits))
    jobs = runner._write_jobs(str(rundir), specs, data, runner.tcp_ports(cfg))
    return {pid: Path(job) for pid, job in enumerate(jobs)}


def _play_single_jobs(jobs: dict, site_dirs: dict) -> dict:
    """Run ``python -m mpgram.worker <job>`` once per party, all at once, with
    ``site_dirs[pid]`` (if any) first on that party's path; {party id: exit code}.
    Each party's stderr goes to ``err.txt`` beside its job."""
    src = os.path.dirname(os.path.dirname(party.__file__))
    procs = {}
    for pid, job in jobs.items():
        paths = [str(site_dirs.get(pid, "")), src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        with open(job.parent / "err.txt", "wb") as err:
            procs[pid] = subprocess.Popen([sys.executable, "-m", "mpgram.worker", str(job)],
                                          stdout=subprocess.DEVNULL, stderr=err, env=env)
    try:
        return {pid: proc.wait(timeout=60) for pid, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _outcomes(jobs: dict) -> list:
    return [pickle.loads((job.parent / "outcome.pickle").read_bytes()) for job in jobs.values()]


def test_single_job_form_matches_a_loopback_run_and_blames_a_failed_party(tmp_path):
    cfg = RunConfig(protocol="escaped", m=3, features=2, samples=(1, 2, 1), verify=False)
    loopback = run(cfg)

    jobs = _write_jobs(tmp_path / "ok", cfg, loopback.party_data)
    assert _play_single_jobs(jobs, {}) == {pid: 0 for pid in jobs}
    _, transcript = collect_outcomes(_outcomes(jobs), cfg.m)
    assert transcript.digest() == loopback.report["transcript_sha256"]

    (tmp_path / "site").mkdir()
    (tmp_path / "site" / "sitecustomize.py").write_text(SITE_FAIL_ACT_ALICE)
    jobs = _write_jobs(tmp_path / "fail", cfg, loopback.party_data)
    assert _play_single_jobs(jobs, {2: tmp_path / "site"})[2] == 1
    err = (jobs[2].parent / "err.txt").read_text()
    assert err.splitlines()[-1] == "RuntimeError: injected"
    with pytest.raises(ProtocolError, match="^party 2 failed: injected$"):
        collect_outcomes(_outcomes(jobs), cfg.m)


# party 2's process exits 1 before it connects or records anything, and the
# other input parties wait, unconnected, until the launcher kills them
SITE_EXIT_WITHOUT_OUTCOME = """
import sys
import time

from mpgram import party

_play_party = party.play_party


def play_party(spec, mesh, data, record, connect=None):
    if mesh.party_id == 2:
        sys.exit("no outcome from 2")
    if mesh.party_id != 0:
        time.sleep(60)
    return _play_party(spec, mesh, data, record, connect)


party.play_party = play_party
"""


def test_a_launcher_that_stops_its_function_party_hands_back_that_partys_outcome(tmp_path):
    # the function party waits in accept for parties that never connect until
    # the launcher stops it; it still hands back a failure of its own, after party 2's
    cfg = RunConfig(protocol="escaped", m=3, features=2, samples=(1, 2, 1), verify=False)
    jobs = _write_jobs(tmp_path / "run", cfg, run(cfg).party_data)
    (tmp_path / "site").mkdir()
    (tmp_path / "site" / "sitecustomize.py").write_text(SITE_EXIT_WITHOUT_OUTCOME)
    src = os.path.dirname(os.path.dirname(party.__file__))
    paths = [str(tmp_path / "site"), src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    launch = subprocess.run([sys.executable, "-m", "mpgram.worker", *map(str, jobs.values())],
                            env=env, stdout=subprocess.DEVNULL, timeout=60)
    assert launch.returncode == 1
    files = [job.parent / "outcome.pickle" for job in jobs.values()]
    assert files[0].exists()
    outcomes = [pickle.loads(f.read_bytes()) for f in files if f.exists()]
    assert outcomes[0].party_id == 0
    assert str(outcomes[0].failure[1]) == "stopped: party 2 failed"
    with pytest.raises(ProtocolError, match="^party 2 failed: exited 1: no outcome from 2$"):
        collect_outcomes(outcomes, cfg.m)


# modules that no party runs
PARTY_FREE = ("mpgram.runner", "mpgram.kernel", "mpgram.costs", "mpgram.dare", "mpgram.cli")

LOAD_JOBS = """
import json, pickle, sys
import mpgram.worker
loaded = set(sys.modules)
for path in sys.argv[1:]:
    with open(path, "rb") as fh:
        pickle.load(fh)
print(json.dumps({"loaded": sorted(loaded), "added": sorted(set(sys.modules) - loaded)}))
"""


def test_a_party_process_imports_no_module_after_its_fork(tmp_path):
    # the launcher forks right after its imports; a module first imported by a
    # job's pickle would be imported again in every party process
    cfg = RunConfig(protocol="escaped", m=2, features=2, samples=(1, 2), verify=False)
    jobs = _write_jobs(tmp_path, cfg, run(cfg).party_data)
    src = os.path.dirname(os.path.dirname(party.__file__))
    paths = [src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run([sys.executable, "-c", LOAD_JOBS, *map(str, jobs.values())],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    modules = json.loads(out.stdout)
    assert "mpgram.field" in modules["loaded"]
    assert [name for name in PARTY_FREE if name in modules["loaded"]] == []
    assert modules["added"] == []


# a launcher stand-in: a sleeping child in its process group, then the lifeline
LIFELINE_ONLY = """
import subprocess, sys
from mpgram import worker
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
print(child.pid, flush=True)
worker._lifeline(int(sys.argv[1]), sys.argv[2])
"""


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return "\nState:\tZ" not in fh.read()
    except FileNotFoundError:
        return False


def test_a_lifeline_at_eof_removes_the_run_directory_and_kills_the_group(tmp_path):
    rundir = tmp_path / "run"
    (rundir / "party_0").mkdir(parents=True)
    src = os.path.dirname(os.path.dirname(party.__file__))
    paths = [src, *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    read, write = os.pipe()
    proc = subprocess.Popen([sys.executable, "-c", LIFELINE_ONLY, str(read), str(rundir)],
                            pass_fds=(read,), env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    os.close(read)
    child = None
    try:
        child = int(proc.stdout.readline())
        # while the write end is open, the lifeline holds
        with pytest.raises(subprocess.TimeoutExpired):
            proc.wait(timeout=0.3)
        assert rundir.exists() and _alive(child)
        os.close(write)
        write = None
        assert proc.wait(timeout=10) == -signal.SIGKILL
        assert not rundir.exists()
        deadline = time.monotonic() + 2.0
        while _alive(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(child)
    finally:
        if write is not None:
            os.close(write)
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)


def _main_without_a_party(monkeypatch, job: Path, **kwargs) -> list:
    """Run ``worker.main([job], **kwargs)`` in-process with a party that plays
    nothing; the (fd, run directory) of each lifeline it arms."""
    armed = []
    called = threading.Event()

    def lifeline(fd, rundir):
        armed.append((fd, rundir))
        called.set()

    monkeypatch.setattr(worker, "play_job", lambda path, record: 0)
    monkeypatch.setattr(worker, "_lifeline", lifeline)
    handler = signal.getsignal(signal.SIGUSR1)
    try:
        assert worker.main([str(job)], **kwargs) == 0
    finally:
        signal.signal(signal.SIGUSR1, handler)
    called.wait(timeout=5 if kwargs else 0.5)  # a thread it started has run by then
    return armed


def test_main_called_in_process_arms_no_lifeline(tmp_path, monkeypatch):
    # a lifeline named in the environment is the launched launcher's alone
    cfg = RunConfig(protocol="escaped", m=2, features=2, samples=(1, 2), verify=False)
    jobs = _write_jobs(tmp_path / "run", cfg, run(cfg).party_data)
    monkeypatch.setenv(party.LIFELINE, "0")
    assert _main_without_a_party(monkeypatch, jobs[0]) == []


def test_a_launchers_lifeline_guards_the_directory_its_jobs_were_written_to(tmp_path,
                                                                              monkeypatch):
    cfg = RunConfig(protocol="escaped", m=2, features=2, samples=(1, 2), verify=False)
    jobs = _write_jobs(tmp_path / "run", cfg, run(cfg).party_data)
    assert _main_without_a_party(monkeypatch, jobs[0], lifeline=7) == [
        (7, str(tmp_path / "run"))]
