"""TCP mesh setup of the worker: which connections a party accepts, and as whom."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from mpgram import transport as tp
from mpgram.errors import ProtocolError
from mpgram.field import FieldDomain
from mpgram.party import SessionSpec, run_party
from mpgram.runner import _free_ports
from mpgram.worker import setup_mesh

HOST = "127.0.0.1"


def _cfg(party_id: int, m: int) -> dict:
    ports = _free_ports(m + 1)
    return {"party_id": party_id, "m": m, "host": HOST, "ports": dict(enumerate(ports))}


def _connect_as(cfg: dict, to: int, sender: int, kind: int = tp.HELLO) -> tp.TcpEndpoint:
    """Connect to party ``to`` and send one frame that claims to come from ``sender``."""
    ep = tp.tcp_connect(HOST, cfg["ports"][to])
    payload = tp.u64_payload(2) if kind == tp.HELLO else b""
    ep.send_bytes(tp.frame_encode(kind, sender, to, payload))
    return ep


def test_function_party_rejects_a_repeated_id():
    cfg = _cfg(0, 2)
    with ThreadPoolExecutor(1) as pool:
        mesh = pool.submit(setup_mesh, cfg, None)
        eps = [_connect_as(cfg, 0, 1), _connect_as(cfg, 0, 1)]
        with pytest.raises(ProtocolError, match="claiming id 1, already connected"):
            mesh.result(timeout=10)
    for ep in eps:
        ep.close()


@pytest.mark.parametrize("claimed", [2, 1, 0, 4], ids=["own", "lower", "function-party", "above-m"])
def test_input_party_accepts_only_higher_ids(claimed):
    # party 2 of 3 connects to parties 0 and 1, then accepts party 3 only
    cfg = _cfg(2, 3)
    lower = [tp.tcp_listen(HOST, cfg["ports"][j]) for j in (0, 1)]
    with ThreadPoolExecutor(1) as pool:
        mesh = pool.submit(setup_mesh, cfg, None)
        ep = _connect_as(cfg, 2, claimed)
        with pytest.raises(ProtocolError, match=f"party 2 got a connection claiming id {claimed}"):
            mesh.result(timeout=10)
    ep.close()
    for srv in lower:
        srv.close()


def test_first_frame_that_is_not_a_hello_fails_the_hello_phase():
    cfg = _cfg(0, 2)
    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(setup_mesh, cfg, None)
        eps = [_connect_as(cfg, 0, 1), _connect_as(cfg, 0, 2, kind=tp.DONE)]
        mesh = future.result(timeout=10)
    assert sorted(mesh.channels) == [1, 2]
    spec = SessionSpec("escaped", 2, 1, FieldDomain(), 0)
    with pytest.raises(ProtocolError, match="expected hello from 2, got done"):
        run_party(spec, mesh)
    mesh.close()
    for ep in eps:
        ep.close()
