"""Subprocess entry point for TCP-mode parties: python -m mpgram.worker job.pickle.

The job is a pickled dict: ``spec`` (the party's own ``SessionSpec``, which
holds its own key and no other), ``party_id``, ``host``, ``ports`` (one per
id 0..m), ``data_csv`` (None for the function party) and ``out_path``,
where ``party.play_party`` pickles the ``PartyOutcome`` before any socket
of the mesh closes.  A failed party then re-raises, so the worker exits 1.

Connection topology: one connection per pair of ids 0..m, the function
party being id 0, so every party's mesh is its row of one complete graph.
Party i listens on its own port if a higher id exists, connects to every
lower id (0 included), and accepts the m - i higher ids.  An accepted
connection is identified by the sender id in the header of its first
frame, read with ``TcpEndpoint.peek_sender`` and left unread; an id that is
out of range or already connected is rejected.  The worker sends and reads
no hello of its own: ``party.run_party`` runs the same hello phase (input
parties send theirs on every channel in id order, every party reads one
from each input party) and session as a loopback run, so the wire carries
exactly the same frames.

Party m has nothing to accept, so its mesh completes first; each lower
party's peek then completes once the next higher party's hello arrives.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
from dataclasses import replace

from .errors import ProtocolError
from .matrix import encode_real_matrix, load_real_csv
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
        ep = tcp_accept(mesh.sockets[0])
        j = ep.peek_sender()
        if not me < j <= m or j in mesh.channels:
            mesh.sockets.append(ep)
            why = "already connected" if j in mesh.channels else f"not in {me + 1}..{m}"
            raise ProtocolError(f"party {me} got a connection claiming id {j}, {why}")
        mesh.channels[j] = Channel(ep, me, j, mesh.transcript)
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m mpgram.worker <job.pickle>", file=sys.stderr)
        return 2
    with open(argv[0], "rb") as fh:
        job = pickle.load(fh)

    spec = job["spec"]
    data = None
    if job["data_csv"] is not None:  # the function party has no data
        data = encode_real_matrix(load_real_csv(job["data_csv"]), spec.domain)
    mesh = Mesh(job["party_id"], {}, Transcript())
    record = functools.partial(write_outcome, job["out_path"])
    outcome = play_party(spec, mesh, data, record, connect=functools.partial(setup_mesh, job))
    if outcome.failure is not None:
        raise outcome.failure[1]
    return 0


if __name__ == "__main__":
    sys.exit(main())
