"""Subprocess entry point for TCP-mode parties: python -m mpgram.worker cfg.json.

Connection topology: every party listens on its own port; the higher id
connects to the lower one, and all input parties connect to the
function party (id 0).  The first frame on every connection is the
connector's hello, which both identifies the connection and announces
the sample count, so the wire carries exactly the same frames as a
loopback run.
"""

from __future__ import annotations

import json
import sys
import threading

from . import transport as tp
from .errors import ProtocolError
from .field import make_domain
from .matrix import encode_real_matrix, load_real_csv
from .party import (
    Mesh,
    SessionSpec,
    check_hello_size,
    function_party_session,
    input_party_session,
)
from .transport import Channel, Transcript, tcp_accept, tcp_connect, tcp_listen


def _accept_identified(srv, count: int) -> list:
    """Accept ``count`` connections, each identified by its first (hello) frame."""
    out = []
    for _ in range(count):
        ep = tcp_accept(srv)
        frame = ep.recv_frame()
        if frame.kind != tp.HELLO:
            raise ProtocolError(
                f"first frame on a new connection must be hello, got "
                f"{tp.KIND_NAMES.get(frame.kind, hex(frame.kind))}"
            )
        out.append((ep, frame))
    return out


def setup_ip_mesh(cfg: dict, n_samples: int, transcript: Transcript) -> Mesh:
    party_id = cfg["party_id"]
    m = cfg["m"]
    host = cfg["host"]
    ports = {int(k): v for k, v in cfg["ports"].items()}
    higher = list(range(party_id + 1, m + 1))
    accepted = []
    srv = tcp_listen(host, ports[party_id]) if higher else None
    err_box = []

    def acceptor():
        try:
            accepted.extend(_accept_identified(srv, len(higher)))
        except Exception as exc:  # noqa: BLE001 - re-raised on the main thread
            err_box.append(exc)

    th = None
    if higher:
        th = threading.Thread(target=acceptor, daemon=True)
        th.start()

    mesh = Mesh(party_id, {}, None)
    fp_ep = tcp_connect(host, ports[0])
    mesh.fp_channel = Channel(fp_ep, party_id, tp.FUNCTION_PARTY_ID, transcript)
    mesh.fp_channel.send(tp.HELLO, tp.u64_payload(n_samples))
    for j in range(1, party_id):
        ep = tcp_connect(host, ports[j])
        ch = Channel(ep, party_id, j, transcript)
        mesh.peer_channels[j] = ch
        ch.send(tp.HELLO, tp.u64_payload(n_samples))

    if th is not None:
        th.join()
        srv.close()
        if err_box:
            raise err_box[0]
    for ep, frame in accepted:
        j = frame.sender
        if j <= party_id or j > m:
            raise ProtocolError(f"party {party_id} got a connection claiming id {j}")
        ch = Channel(ep, party_id, j, transcript)
        mesh.peer_channels[j] = ch
        mesh.n_by_peer[j] = check_hello_size(j, tp.u64_from_payload(frame.payload))
        ch.send(tp.HELLO, tp.u64_payload(n_samples))
    for j in range(1, party_id):
        frame = mesh.peer_channels[j].recv(tp.HELLO)
        mesh.n_by_peer[j] = check_hello_size(j, tp.u64_from_payload(frame.payload))
    return mesh


def setup_fp_mesh(cfg: dict, transcript: Transcript) -> Mesh:
    m = cfg["m"]
    ports = {int(k): v for k, v in cfg["ports"].items()}
    srv = tcp_listen(cfg["host"], ports[0])
    mesh = Mesh(tp.FUNCTION_PARTY_ID, {}, None)
    for ep, frame in _accept_identified(srv, m):
        i = frame.sender
        if not 1 <= i <= m:
            raise ProtocolError(f"function party got a connection claiming id {i}")
        mesh.peer_channels[i] = Channel(ep, tp.FUNCTION_PARTY_ID, i, transcript)
        mesh.n_by_peer[i] = check_hello_size(i, tp.u64_from_payload(frame.payload))
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
    transcript = Transcript()
    out = {"party_id": cfg["party_id"]}

    if cfg["role"] == "ip":
        rows = load_real_csv(cfg["data_csv"])
        data = encode_real_matrix(rows, domain)
        mesh = setup_ip_mesh(cfg, data.cols, transcript)
        input_party_session(spec, cfg["party_id"], data, mesh)
        mesh.close()
    elif cfg["role"] == "fp":
        mesh = setup_fp_mesh(cfg, transcript)
        result = function_party_session(spec, mesh)
        mesh.close()
        out["result"] = result.to_doc()
    else:
        print(f"unknown role {cfg['role']!r}", file=sys.stderr)
        return 2

    out["transcript"] = transcript.to_json_entries()
    with open(cfg["out_path"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
