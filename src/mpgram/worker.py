"""Entry point for TCP-mode parties: python -m mpgram.worker job_0 [job_1 ...].

Each job is a pickled dict: ``spec`` (the party's own ``SessionSpec``,
which holds its own key and no other), ``party_id``, ``host``, ``ports``
(one per id 0..m), ``data`` (the party's own encoded ``Matrix``, None for
the function party) and ``out_path``, where ``party.play_party`` pickles
the ``PartyOutcome`` before any socket of the mesh closes.  A failed party
then re-raises, so its process exits 1.

Before it reads any job or starts any thread, the process forks one child
per job after the first; each child sends its stderr to ``err.txt`` beside
its own job and loads only that job.  The parent plays job 0 while a
reaper thread waits for the children.  So one job, the form for a party on
its own host, forks nothing, and several start a whole localhost run from
one interpreter, whose job 0 is the function party, which holds no key.

Before the fork the process has imported every module a party runs, and
no other: the package's ``__init__`` resolves its names lazily, so
``runner``, ``kernel``, ``costs``, ``dare`` and ``cli`` stay unloaded,
and this module imports ``field``, whose classes a job's pickle names,
and the ``idna`` codec that ``socket.getaddrinfo`` needs to connect.  A
module first imported after the fork would be imported in every party
process, each compiling it anew where no byte code is cached; one
imported before is shared by all of them copy-on-write.

Every job's exit code goes to stdout as one ``<job index> <code>`` line,
in the order the jobs end.  On the first nonzero code the other children
are killed and reaped, and the process ends: a child's failure ends it
with exit 1 once the rest are reaped (``_Children.stop``), job 0's as that
party's own error.  So every process of a run is reaped by its parent, on
every path.

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
Party i listens on its own port if a higher id exists, connects to every
lower id (0 included), and accepts the m - i higher ids.  An accepted
connection is identified by the sender id in the header of its first
frame, read with ``Channel.peek_sender`` and left unread; an id that is
out of range or already connected is rejected.  The worker sends and reads
no hello of its own: ``party.run_party`` runs the same hello phase (input
parties send theirs on every channel in id order, every party reads one
from each input party) and session as a loopback run, so the wire carries
exactly the same frames.

Party m has nothing to accept, so its mesh completes first; each lower
party's peek then completes once the next higher party's hello arrives.
"""

from __future__ import annotations

import atexit
import encodings.idna  # noqa: F401 - socket.getaddrinfo encodes a host name with it
import functools
import os
import pickle
import signal
import sys
import threading
from dataclasses import replace
from typing import NoReturn

from . import field  # noqa: F401 - a job's pickle names its domain's class
from .errors import ProtocolError
from .party import Mesh, PartyOutcome, play_party
from .transport import Channel, Transcript, tcp_accept, tcp_connect, tcp_listen


def setup_mesh(cfg: dict, mesh: Mesh) -> Mesh:
    """Connect party ``cfg["party_id"]`` to every other party (module docstring).

    The channels go into ``mesh``, and the listening socket and a rejected
    connection into ``mesh.sockets``.  Nothing is closed here, on a failure
    either: the mesh's owner records the failure first, then closes the mesh.
    """
    me, host, ports = cfg["party_id"], cfg["host"], cfg["ports"]
    m = len(ports) - 1
    if me < m:
        mesh.sockets.append(tcp_listen(host, ports[me]))
    for j in range(me):
        mesh.channels[j] = Channel(tcp_connect(host, ports[j]), me, j, mesh.transcript)
    for _ in range(m - me):
        channel = Channel(tcp_accept(mesh.sockets[0]), me, None, mesh.transcript)
        j = channel.peer_id = channel.peek_sender()
        if not me < j <= m or j in mesh.channels:
            mesh.sockets.append(channel)
            why = "already connected" if j in mesh.channels else f"not in {me + 1}..{m}"
            raise ProtocolError(f"party {me} got a connection claiming id {j}, {why}")
        mesh.channels[j] = channel
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

    ``record(out_path, outcome)`` hands the outcome back.
    """
    with open(path, "rb") as fh:
        job = pickle.load(fh)
    mesh = Mesh(job["party_id"], {}, Transcript())
    record = functools.partial(record, job["out_path"])
    connect = functools.partial(setup_mesh, job)
    outcome = play_party(job["spec"], mesh, job["data"], record, connect=connect)
    if outcome.failure is not None:
        raise outcome.failure[1]
    return 0


class _Children:
    """A launcher's forked parties: logs each job's exit and stops the rest on a failure."""

    def __init__(self):
        self.running = {}  # pid -> job index
        self.failed = None  # job index of the first nonzero exit
        self.recorded = False  # whether the function party has recorded its outcome
        self._lock = threading.Lock()

    def ended(self, job: int, code: int) -> None:
        """Log ``job``'s exit code on stdout; the first nonzero one kills every running child."""
        with self._lock:
            os.write(1, f"{job} {code}\n".encode())
            if code != 0 and self.failed is None:
                self.failed = job
                for pid in self.running:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:  # reaped, not yet popped by ``reap``
                        pass

    def record(self, path: str, outcome: PartyOutcome) -> None:
        """Write the launcher's own outcome, unless a child's failure came first.

        The children killed on that failure close their sockets, and the
        function party would otherwise record the consequence as a failure
        of its own, earlier than the child's exit.
        """
        with self._lock:
            self.recorded = True
            if self.failed is None:
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
        """SIGUSR1 handler: ends an unrecorded function party, which may wait in ``accept``."""
        if not self.recorded:
            raise SystemExit(1)


def _status(code) -> int:
    """The exit status the interpreter gives for ``sys.exit(code)``."""
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


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
    status = _status(code)
    if code is not None and not isinstance(code, int):
        print(code, file=sys.stderr)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # gone, closed, or its pipe broke
            pass
    os._exit(status)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m mpgram.worker <job.pickle> [<job.pickle> ...]", file=sys.stderr)
        return 2

    children = _Children()
    sys.stdout.flush()
    sys.stderr.flush()
    for k, path in enumerate(argv[1:], start=1):
        try:
            pid = os.fork()
        except BaseException:
            children.ended(0, 1)
            children.reap()
            raise
        if pid == 0:
            with open(os.devnull, "wb") as null, \
                    open(os.path.join(os.path.dirname(path), "err.txt"), "wb") as err:
                os.dup2(null.fileno(), 1)
                os.dup2(err.fileno(), 2)
            _exit(functools.partial(play_job, path))
        children.running[pid] = k

    signal.signal(signal.SIGUSR1, children.stop)
    reaper = threading.Thread(target=children.reap, name="reaper")
    reaper.start()
    code = 1
    try:
        code = play_job(argv[0], children.record)
    except SystemExit as exc:  # logged as the status it gives this process
        code = _status(exc.code)
        raise
    finally:
        children.ended(0, code)
        reaper.join()
    return 1 if children.failed is not None else code


if __name__ == "__main__":
    _exit(main)
