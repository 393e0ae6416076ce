"""End-to-end HTTP tests: real sockets, real client, resident world.

One module-scoped world backs two listeners (TCP on an ephemeral
loopback port, and a unix-domain socket), each with its own
:class:`ScanService`.  The tests drive them through :class:`ScanClient`
— the same code path the load tester and README walkthrough use — plus
raw ``http.client`` where the contract is about wire details
(Retry-After header, X-Tenant header, malformed bodies).
"""

from __future__ import annotations

import datetime as _dt
import http.client
import json
import socket
import time

import pytest

from repro import api
from repro.core.ethics import EthicsControls
from repro.errors import ServeError
from repro.serve import ScanClient, ScanService, start_server
from repro.serve import httpd
from repro.serve.httpd import MAX_BODY_BYTES

SCALE = 0.002
SEED = 5


@pytest.fixture(scope="module")
def handle():
    h = api.open_run(api.RunConfig(scale=SCALE, seed=SEED))
    h.ensure_initial()
    return h


@pytest.fixture(scope="module")
def domain(handle):
    return handle.simulation.population.name_at(0)


def _limits():
    # A short reconnect wait so rate-limit tests re-admit quickly while
    # still exercising the refusal path.
    return EthicsControls(min_reconnect_wait=_dt.timedelta(seconds=90))


@pytest.fixture(scope="module")
def tcp_server(handle):
    service = ScanService(handle, tenant_limits=_limits)
    server, thread = start_server(service, host="127.0.0.1", port=0)
    yield server
    server.shutdown()
    service.stop()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def unix_server(handle, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "scan.sock")
    service = ScanService(handle, tenant_limits=_limits)
    server, thread = start_server(service, socket_path=path)
    server.socket_path = path
    yield server
    server.shutdown()
    service.stop()
    thread.join(timeout=10)


def _client(tcp_server, **kwargs) -> ScanClient:
    host, port = tcp_server.server_address[:2]
    return ScanClient(host, port, **kwargs)


class TestTCPEndpoints:
    def test_healthz(self, tcp_server):
        with _client(tcp_server) as client:
            assert client.healthz() is True

    def test_probe_domain_returns_typed_result(self, tcp_server, domain):
        with _client(tcp_server, tenant="probe-tcp") as client:
            result = client.probe_domain(domain)
            assert result.kind == "probe_domain"
            assert result.target == domain
            assert result.ips

    def test_check_mta(self, tcp_server, handle, domain):
        ip = handle.census_row(domain)["ips"][0]
        with _client(tcp_server, tenant="mta-tcp") as client:
            result = client.check_mta(ip)
            assert result.kind == "check_mta"
            assert result.target == ip

    def test_census_row(self, tcp_server, domain):
        with _client(tcp_server) as client:
            row = client.census_row(domain)
            assert row["domain"] == domain
            assert row["v"] == api.SCHEMA_VERSION

    def test_patch_status_since(self, tcp_server, domain):
        with _client(tcp_server) as client:
            status = client.patch_status_since(domain, since=0)
            assert status["domain"] == domain
            assert isinstance(status["patched"], bool)

    def test_malformed_since_is_400(self, tcp_server, domain):
        with _client(tcp_server) as client:
            status, body = client.request(
                "patch_status_since", {"target": domain, "since": "abc"}
            )
            assert status == 400
            assert "since" in body["error"]

    def test_other_schema_version_is_400(self, tcp_server, domain):
        with _client(tcp_server) as client:
            status, body = client.request(
                "spf_census_row", {"v": 2, "target": domain}
            )
            assert status == 400
            assert "schema version 2" in body["error"]

    def test_run_status_get_and_post(self, tcp_server, handle):
        with _client(tcp_server) as client:
            body = client.run_status()
            assert body["domains"] == len(handle.simulation.population)
            assert "service" in body
        # The GET spelling answers the same document shape.
        host, port = tcp_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/v1/run_status")
            response = conn.getresponse()
            decoded = json.loads(response.read().decode("utf-8"))
            assert response.status == 200
            assert decoded["domains"] == len(handle.simulation.population)
        finally:
            conn.close()

    def test_unknown_method_404(self, tcp_server):
        with _client(tcp_server) as client:
            status, body = client.request("explode", {})
            assert status == 404
            assert "unknown method" in body["error"]

    def test_unknown_path_404(self, tcp_server):
        host, port = tcp_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/nope", body=b"{}")
            assert conn.getresponse().status == 404
        finally:
            conn.close()

    def test_unknown_domain_raises_serve_error(self, tcp_server):
        with _client(tcp_server) as client:
            with pytest.raises(ServeError, match="unknown domain"):
                client.census_row("no-such.invalid")

    def test_bad_json_body_400(self, tcp_server):
        host, port = tcp_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/spf_census_row", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 400
            assert "not JSON" in body["error"]
        finally:
            conn.close()

    def test_non_object_body_400(self, tcp_server):
        host, port = tcp_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/v1/spf_census_row", body=b"[1, 2]")
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 400
            assert "JSON object" in body["error"]
        finally:
            conn.close()


def _raw_post(tcp_server, content_length: str, body: bytes = b"") -> bytes:
    """One POST over a fresh socket, read until the server closes it.

    The socket timeout turns a server that waits for a body it will
    never get into a failed test instead of a hung one.
    """
    host, port = tcp_server.server_address[:2]
    head = (
        "POST /v1/run_status HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {content_length}\r\n"
        "Connection: close\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(head.encode("ascii") + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _status(response: bytes) -> int:
    return int(response.split(b"\r\n", 1)[0].split()[1])


class TestContentLength:
    """The declared body length is checked before any body is read."""

    @pytest.mark.parametrize(
        "content_length, status",
        [("-1", 400), ("abc", 400), (str(MAX_BODY_BYTES + 1), 413)],
        ids=["negative", "not_a_number", "over_the_cap"],
    )
    def test_refused_before_reading(self, tcp_server, content_length, status):
        response = _raw_post(tcp_server, content_length)
        assert _status(response) == status
        assert b"Content-Length" in response.split(b"\r\n\r\n", 1)[0]

    def test_a_body_at_the_cap_is_read(self, tcp_server):
        body = b"{}".ljust(MAX_BODY_BYTES)
        response = _raw_post(tcp_server, str(len(body)), body)
        assert _status(response) == 200


class TestSlowClient:
    def test_stalled_request_is_closed(self, tcp_server, monkeypatch):
        """A client that sends half a request line and stops is dropped
        after the handler timeout, and the server keeps answering."""
        # The shipped timeout is finite, and far above a live client's
        # pauses; the test shortens it to keep the run fast.
        assert httpd._Handler.timeout is not None
        assert httpd._Handler.timeout >= 30
        monkeypatch.setattr(httpd._Handler, "timeout", 0.5)
        host, port = tcp_server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /v1/")
            started = time.monotonic()
            assert sock.recv(65536) == b""
            assert time.monotonic() - started < 5
        with _client(tcp_server) as client:
            assert client.healthz()


class TestAdmissionOverHTTP:
    def test_rate_limit_sends_retry_after_header(self, tcp_server, domain):
        host, port = tcp_server.server_address[:2]
        payload = json.dumps(
            {"target": domain, "tenant": "limited-tcp"}
        ).encode("utf-8")
        conn = http.client.HTTPConnection(host, port, timeout=300)
        try:
            for expected in (200, 429):
                conn.request("POST", "/v1/probe_domain", body=payload)
                response = conn.getresponse()
                body = json.loads(response.read().decode("utf-8"))
                assert response.status == expected
            assert body["reason"] == "rate-limit"
            assert int(response.headers["Retry-After"]) >= 1
        finally:
            conn.close()

    def test_tenant_header_scopes_rate_limits(self, tcp_server, domain):
        """X-Tenant alone (no body field) must isolate tenants."""
        host, port = tcp_server.server_address[:2]
        payload = json.dumps({"target": domain}).encode("utf-8")

        def probe(tenant):
            conn = http.client.HTTPConnection(host, port, timeout=300)
            try:
                conn.request(
                    "POST", "/v1/probe_domain", body=payload,
                    headers={"X-Tenant": tenant},
                )
                return conn.getresponse().status
            finally:
                conn.close()

        assert probe("header-alice") == 200
        assert probe("header-alice") == 429
        assert probe("header-bob") == 200


class TestUnixSocket:
    def test_full_surface_over_unix_socket(self, unix_server, handle, domain):
        with ScanClient(
            socket_path=unix_server.socket_path, tenant="unix-probe"
        ) as client:
            assert client.healthz() is True
            result = client.probe_domain(domain)
            assert result.target == domain
            row = client.census_row(domain)
            assert row["domain"] == domain
            status = client.run_status()
            assert status["domains"] == len(handle.simulation.population)

    def test_client_reconnects_after_close(self, unix_server, domain):
        client = ScanClient(socket_path=unix_server.socket_path)
        try:
            assert client.census_row(domain)["domain"] == domain
            client.close()
            # A fresh connection is opened transparently.
            assert client.census_row(domain)["domain"] == domain
        finally:
            client.close()
