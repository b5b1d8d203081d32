"""Entry point for TCP-mode parties: python -m mpgram.worker job_0 [job_1 ...].

Each job is a pickled dict: ``spec`` (the party's own ``SessionSpec``,
which holds its own key and no other), ``party_id``, ``host``, ``ports``
(``{(i, j): port}`` for each pair of ids i < j: where party i listens for
party j) and ``data`` (the party's own encoded ``Matrix``, None for the
function party).  ``party.play_party`` pickles the ``PartyOutcome`` to
``outcome.pickle`` beside the job before any socket of the mesh closes.  A
failed party then re-raises, so its process exits 1.

Before it reads any job or starts any thread, the process forks one child
per job after the first; each child sends its stderr to ``err.txt`` beside
its own job and loads only that job.  The parent plays job 0 while a
reaper thread waits for the children.  So one job forks nothing and plays
one party of a localhost run, and several start a whole localhost run from
one interpreter, whose job k is party k's: job 0 is the keyless function party.
A job holds one ``host``, on which ``setup_mesh`` both listens and connects
to every peer, and only ``runner._write_jobs`` writes jobs, all for
127.0.0.1; a deployment across hosts waits for ROADMAP item 12.

Before the fork the process has imported every module a party runs, and
no other: the package's ``__init__`` resolves its names lazily, so
``runner``, ``kernel``, ``costs``, ``dare`` and ``cli`` stay unloaded,
and this module imports ``field``, whose classes a job's pickle names,
and the ``idna`` codec that ``socket.getaddrinfo`` needs to connect.  A
module first imported after the fork would be imported in every party
process, each compiling it anew where no byte code is cached; one
imported before is shared by all of them copy-on-write.

One exit rule serves every party process: one that exits nonzero and
left no outcome is blamed by its exit (``party.exit_outcome``, failed at
-inf, with its stderr's last line), and whoever started it applies the
rule and ends what it leaves behind.  The launcher does so for a child
that exits nonzero on its own, not by the launcher's kill (with its
``err.txt``), and the runner for the launcher.  On the first nonzero code
the other children are killed and reaped, and the process ends: job 0's
as that party's own error, a child's with exit 1 once the rest are
reaped and the function party has an outcome (``_Children.stop``).  So
the launcher leaves a function-party outcome unless its process dies.
The launcher in turn ends with the runner: it inherits the read end of a
pipe whose write end only the runner holds and never writes, named by
``LIFELINE`` in its environment, and at EOF, when the runner's process has
ended, it removes the run directory and kills its group (``_lifeline``).

Every party's process, in either form, ends as ``multiprocessing`` ends a
forked child (``_exit``): the exit code is the one the interpreter would
give, an uncaught error or a ``sys.exit`` text goes to stderr, the
``atexit`` handlers run and the standard streams are flushed, and then
``os._exit`` skips the interpreter's teardown.  A forked child shares the
launcher's heap, numpy and the whole package included, copy-on-write; a
normal exit frees it object by object and so copies page after page,
some 2800 minor page faults and 37 ms of CPU per child.  With three
children on two cores the time from a child's last ``atexit`` handler to
its reaping fell from 123-165 ms to 6-16 ms, and a launcher's own exit
from 30 ms to 4 ms.  Only ``__main__`` and a forked child end this way,
so a caller of ``main`` in-process gets its return value or error back.

Connection topology: one connection per pair of ids 0..m, the function
party being id 0, so every party's mesh is its row of one complete graph.
Each pair has a port of its own, on which the lower id listens: party i
listens on one port per higher id, connects to every lower id (0
included), and then accepts each higher id on that id's port.  So an
accepted connection is named by the port it arrived on, and nothing is
read from it here; a stranger on a pair's port fails at its first frame,
whose header names another sender.  The worker sends and reads no hello of
its own: ``party.run_party`` sends and reads the same hellos (an input
party sends its own on every channel in id order, and a peer's is the
first frame read from it, when first needed) and runs the same session as
a loopback run, so the wire carries exactly the same frames, and a lost
hello fails as it does on loopback.
"""

from __future__ import annotations

import atexit
import encodings.idna  # noqa: F401 - socket.getaddrinfo encodes a host name with it
import functools
import os
import pickle
import shutil
import signal
import sys
import threading
import time
from dataclasses import replace
from typing import NoReturn

from . import field  # noqa: F401 - a job's pickle names its domain's class
from .errors import ProtocolError
from .party import LIFELINE, OUTCOME_FILE, Mesh, PartyOutcome, exit_outcome, play_party
from .transport import Channel, Transcript, tcp_accept, tcp_connect, tcp_listen


def setup_mesh(cfg: dict, mesh: Mesh) -> Mesh:
    """Connect party ``cfg["party_id"]`` to every other party (module docstring).

    The channels go into ``mesh``, and the listening sockets into
    ``mesh.sockets``.  Nothing is closed here, on a failure either: the
    mesh's owner records the failure first, then closes the mesh.
    """
    me, host, ports = cfg["party_id"], cfg["host"], cfg["ports"]
    higher = [j for i, j in ports if i == me]
    for j in higher:
        mesh.sockets.append(tcp_listen(host, ports[me, j]))
    for j in range(me):
        mesh.channels[j] = Channel(tcp_connect(host, ports[j, me]), me, j, mesh.transcript)
    for j, srv in zip(higher, mesh.sockets):
        mesh.channels[j] = Channel(tcp_accept(srv), me, j, mesh.transcript)
    return mesh


def write_outcome(path: str, outcome: PartyOutcome) -> None:
    """Pickle ``outcome`` to ``path`` atomically: a reader sees all of it or no file.

    A failure's error is handed back as itself only if the runner can unpickle
    it; any other as ``RuntimeError("<type>: <text>")``, so the runner can
    still blame the party.
    """
    if outcome.failure is not None:
        at, exc = outcome.failure
        if not _portable(exc):
            outcome = replace(outcome, failure=(at, RuntimeError(f"{type(exc).__name__}: {exc}")))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(outcome, fh)
    os.replace(tmp, path)


def _portable(exc: BaseException) -> bool:
    """Whether ``exc``'s class is one the runner imports (``builtins``, ``mpgram``)
    and ``exc`` survives a pickle round trip."""
    if type(exc).__module__.partition(".")[0] not in ("builtins", "mpgram"):
        return False
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any error of the round trip
        return False
    return True


def play_job(path: str, record=write_outcome) -> int:
    """Play the party whose job is pickled at ``path``; a failed party re-raises its error.

    ``record(path, outcome)`` hands the outcome back, to ``OUTCOME_FILE`` beside the job.
    """
    with open(path, "rb") as fh:
        job = pickle.load(fh)
    mesh = Mesh(job["party_id"], {}, Transcript())
    record = functools.partial(record, os.path.join(os.path.dirname(path), OUTCOME_FILE))
    connect = functools.partial(setup_mesh, job)
    outcome = play_party(job["spec"], mesh, job["data"], record, connect=connect)
    if outcome.failure is not None:
        raise outcome.failure[1]
    return 0


class _Children:
    """A launcher's forked parties: hands back one that died without an outcome."""

    def __init__(self, jobs: list):
        self.jobs = jobs  # job paths; job k is party k's
        self.running = {}  # pid -> job index
        self.failed = None  # job index of the first nonzero exit
        self.recorded = False  # whether the function party has recorded its outcome
        self._lock = threading.Lock()

    def ended(self, job: int, code: int) -> None:
        """Note ``job``'s exit; the first nonzero code kills every running child.  A child
        exiting nonzero not by that kill gets ``party.exit_outcome`` unless it left one."""
        with self._lock:
            if code == 0 or self.failed is not None and code == -signal.SIGKILL:
                return
            where = os.path.dirname(self.jobs[job])
            out = os.path.join(where, OUTCOME_FILE)
            if job != 0 and not os.path.exists(out):
                with open(os.path.join(where, "err.txt"), errors="replace") as err:
                    write_outcome(out, exit_outcome(job, code, err.read()))
            if self.failed is None:
                self.failed = job
                for pid in self.running:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:  # reaped, not yet popped by ``reap``
                        pass

    def record(self, path: str, outcome: PartyOutcome) -> None:
        """Write the launcher's own outcome; from then on ``stop`` leaves its party be."""
        self.recorded = True
        write_outcome(path, outcome)

    def reap(self) -> None:
        """Reap every child; if one of them failed first, then stop the main thread."""
        while self.running:
            pid, status = os.wait()
            with self._lock:
                job = self.running.pop(pid)
            self.ended(job, os.waitstatus_to_exitcode(status))
        if self.failed not in (None, 0):
            signal.pthread_kill(threading.main_thread().ident, signal.SIGUSR1)

    def stop(self, signum, frame) -> None:
        """SIGUSR1 handler: ends an unrecorded function party, which may wait in ``accept``
        for a child that is gone, with its own failure, later than that child's."""
        if not self.recorded:
            failure = (time.monotonic(), ProtocolError(f"stopped: party {self.failed} failed"))
            self.record(os.path.join(os.path.dirname(self.jobs[0]), OUTCOME_FILE),
                        PartyOutcome(0, [], failure=failure))
            raise SystemExit(1)


def _lifeline(fd: int, rundir: str) -> None:
    """At EOF on ``fd``, which comes only when the runner's process has ended, however
    it ended (module docstring), remove ``rundir`` and kill this process group."""
    while os.read(fd, 1):
        pass
    shutil.rmtree(rundir, ignore_errors=True)
    os.killpg(0, signal.SIGKILL)


def _exit(body) -> NoReturn:
    """End this process with ``body()``'s exit status, without interpreter teardown.

    ``body()``'s return value or ``SystemExit`` code maps to a status as in
    ``sys.exit``, whose text, if any, goes to stderr; any other error goes
    to ``sys.excepthook`` and gives 1.  Then the ``atexit`` handlers run,
    stdout and stderr are flushed, and ``os._exit`` ends the process.
    """
    try:
        code = body()
    except SystemExit as exc:
        code = exc.code
    except BaseException:  # noqa: BLE001 - reported as the interpreter would
        sys.excepthook(*sys.exc_info())
        code = 1
    if code is None or isinstance(code, int):
        status = code or 0
    else:
        print(code, file=sys.stderr)
        status = 1
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # gone, closed, or its pipe broke
            pass
    os._exit(status)


def main(argv=None, lifeline=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m mpgram.worker <job.pickle> [<job.pickle> ...]", file=sys.stderr)
        return 2

    children = _Children(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    for k, path in enumerate(argv[1:], start=1):
        try:  # the parent creates err.txt, so ``ended`` finds one for every child
            err = open(os.path.join(os.path.dirname(path), "err.txt"), "wb")
            pid = os.fork()
        except BaseException:
            children.ended(0, 1)
            children.reap()
            raise
        if pid == 0:
            os.dup2(err.fileno(), 2)
            _exit(functools.partial(play_job, path))
        err.close()
        children.running[pid] = k

    signal.signal(signal.SIGUSR1, children.stop)
    reaper = threading.Thread(target=children.reap, name="reaper")
    reaper.start()
    if lifeline is not None:  # only in a launcher that the runner started
        rundir = os.path.dirname(os.path.dirname(argv[0]))  # ``runner._write_jobs``
        threading.Thread(target=_lifeline, args=(lifeline, rundir), daemon=True).start()
    code = 1
    try:
        code = play_job(argv[0], children.record)
    finally:
        children.ended(0, code)
        reaper.join()
    return 1 if children.failed is not None else code


if __name__ == "__main__":
    fd = os.environ.get(LIFELINE)
    _exit(functools.partial(main, lifeline=None if fd is None else int(fd)))
