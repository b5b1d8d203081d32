"""Subprocess entry point for TCP-mode parties: python -m mpgram.worker cfg.json.

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

import json
import sys

from .errors import ProtocolError
from .field import make_domain
from .matrix import encode_real_matrix, load_real_csv
from .party import Mesh, SessionSpec, run_party
from .transport import Channel, Transcript, tcp_accept, tcp_connect, tcp_listen


def setup_mesh(cfg: dict, transcript: Transcript) -> Mesh:
    """Connect party ``cfg["party_id"]`` to every other party (module docstring)."""
    me, m, host = cfg["party_id"], cfg["m"], cfg["host"]
    ports = {int(k): v for k, v in cfg["ports"].items()}
    srv = tcp_listen(host, ports[me]) if me < m else None
    mesh = Mesh(me, {})
    try:
        for j in range(me):
            mesh.channels[j] = Channel(tcp_connect(host, ports[j]), me, j, transcript)
        for _ in range(m - me):
            ep = tcp_accept(srv)
            j = ep.peek_sender()
            if not me < j <= m or j in mesh.channels:
                ep.close()
                why = "already connected" if j in mesh.channels else f"not in {me + 1}..{m}"
                raise ProtocolError(f"party {me} got a connection claiming id {j}, {why}")
            mesh.channels[j] = Channel(ep, me, j, transcript)
    except BaseException:
        mesh.close()
        raise
    finally:
        if srv is not None:
            srv.close()
    return mesh


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m mpgram.worker <config.json>", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        cfg = json.load(fh)

    domain = make_domain(cfg["domain"], cfg["scale_bits"])
    spec = SessionSpec(cfg["protocol"], cfg["m"], cfg["features"], domain, cfg["seed"])
    data = None
    if cfg["data_csv"] is not None:  # the function party has no data
        data = encode_real_matrix(load_real_csv(cfg["data_csv"]), domain)
    transcript = Transcript()
    mesh = setup_mesh(cfg, transcript)
    result = run_party(spec, mesh, data)
    mesh.close()

    out = {"party_id": mesh.party_id, "transcript": transcript.to_json_entries()}
    if result is not None:
        out["result"] = result.to_doc()
    with open(cfg["out_path"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
