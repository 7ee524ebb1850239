"""Every HTTP response leaves the server in one socket write.

A response written as a header ``send()`` plus a body ``send()`` on a
keep-alive connection waits ~40 ms for the client's delayed ACK
(Nagle's algorithm), so the count of server-side ``send``/``sendall``
calls per response is pinned at one.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.cluster import ClusterConfig, ClusterSupervisor
from repro.serve.api import ModelServer


class _SendCounter:
    """Counts ``send``/``sendall`` calls on sockets bound to ``port``.

    Accepted server sockets share the listening port as their local
    port; the client's socket has an ephemeral one, so it is not
    counted.
    """

    def __init__(self, monkeypatch, port: int) -> None:
        self.port = port
        self.calls = 0
        for name in ("send", "sendall"):
            original = getattr(socket.socket, name)
            monkeypatch.setattr(socket.socket, name, self._counted(original))

    def _counted(self, original):
        def counted(sock, *args, **kwargs):
            if sock.getsockname()[1] == self.port:
                self.calls += 1
            return original(sock, *args, **kwargs)

        return counted


def _exchange(conn, counter, method, path, payload=None):
    """One request on ``conn``; returns (status, body, server writes)."""
    before = counter.calls
    body = None if payload is None else json.dumps(payload).encode()
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, data, counter.calls - before


@pytest.fixture
def server(registry, tiny_tree):
    registry.publish(tiny_tree)
    with ModelServer(registry, port=0, monitor=False) as running:
        yield running


class TestOneWritePerResponse:
    def test_server_responses(self, server, monkeypatch):
        host, port = server.address
        counter = _SendCounter(monkeypatch, port)
        predict = {"instances": [[0.1, 0.2, 0.3], [0.7, 0.5, 0.9]]}
        exchanges = [
            ("POST", "/v1/models/latest/predict", predict, 200),
            ("POST", "/v1/models/latest/predict", {"instances": []}, 400),
            ("GET", "/no/such/route", None, 404),
            ("GET", "/metrics", None, 200),
        ]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # All on one keep-alive connection, each response following
            # an earlier one, as in a closed-loop client.
            for method, path, payload, status in exchanges * 2:
                got, body, writes = _exchange(
                    conn, counter, method, path, payload
                )
                assert got == status, body
                assert writes == 1, f"{method} {path} -> {status}"
                if status == 400:
                    error = json.loads(body)["error"]
                    assert error["code"] == "invalid_instances"
        finally:
            conn.close()

    def test_supervisor_admin_healthz(self, tmp_path, monkeypatch):
        supervisor = ClusterSupervisor(
            ClusterConfig(registry_dir=str(tmp_path), workers=1, admin_port=0)
        )
        supervisor._start_admin()  # the admin endpoint alone, no workers
        try:
            port = supervisor.admin_port
            counter = _SendCounter(monkeypatch, port)
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                for _ in range(2):
                    got, body, writes = _exchange(
                        conn, counter, "GET", "/healthz"
                    )
                    assert got == 200, body
                    assert writes == 1
            finally:
                conn.close()
        finally:
            supervisor.shutdown()


class TestExpectContinue:
    def test_interim_response_precedes_the_body(self, server):
        """The buffered writer still sends ``100 Continue`` at once, so
        a client that waits for it before sending its body is not
        stalled."""
        body = json.dumps({"instances": [[0.1, 0.2, 0.3]]}).encode()
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(
                b"POST /v1/models/latest/predict HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim.startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 200")
