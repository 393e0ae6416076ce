"""The daemon's listener: a stdlib HTTP front over :class:`ScanService`.

One endpoint shape: ``POST /v1/<method>`` with a JSON body
(``{"target": ..., "since": ..., "tenant": ...}``), answered with a JSON
document and a meaningful status code (200 OK, 400 malformed, 404
unknown method/domain, 413 body over :data:`MAX_BODY_BYTES`, 429
admission refusal with ``Retry-After``, 500 internal).
``GET /v1/run_status`` and ``GET /healthz`` serve monitoring.  The
tenant is taken from the body's ``tenant`` field or the ``X-Tenant``
header (body wins), defaulting to ``"public"``.

The listener binds either a TCP loopback address or a unix-domain
socket — both are fronted by :class:`http.server.ThreadingHTTPServer`,
so many clients can block concurrently while the service's single
dispatcher thread keeps world access serialized (see
:mod:`repro.serve.service` for why that ordering is load-bearing).
"""

from __future__ import annotations

import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..errors import ServeError
from .service import ScanService

#: API prefix every method endpoint lives under.
API_PREFIX = "/v1/"
#: the largest request body accepted (real bodies are a few hundred bytes).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Parses one request, delegates to the service, writes JSON back."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Responses are one small JSON write after a burst of header writes;
    # without this, Nagle + delayed ACK quantizes every round trip to
    # ~40ms regardless of the actual service time.  (StreamRequestHandler
    # reads this in setup(); it has no effect on the server class.)
    disable_nagle_algorithm = True
    # Seconds a connection may go without sending a byte before it is
    # closed (``setup()`` sets it on the socket).  Without it a client
    # that stops halfway through a request holds its handler thread
    # forever; 60 s is far above any pause between a live client's
    # requests, and ``ScanClient`` retries once on a closed keep-alive.
    timeout = 60

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Request logging is the service's accounting job; stderr noise
        # per request would swamp daemon output under load tests.
        pass

    def _send(self, status: int, body: dict) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        retry_after = body.get("retry_after")
        if status == 429 and isinstance(retry_after, (int, float)):
            self.send_header("Retry-After", str(max(1, int(retry_after))))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send(200, {"ok": True})
            return
        if self.path == API_PREFIX + "run_status":
            status, body = self.server.service.submit(
                "run_status", {}, self._tenant({})
            )
            self._send(status, body)
            return
        self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        # Refused unread, so the connection closes: ``rfile.read(-1)``
        # would block until the client hung up, and an unbounded length
        # would be read into memory whatever its size.
        if length < 0:
            self.close_connection = True
            self._send(400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send(
                413,
                {"error": f"request body over {MAX_BODY_BYTES:,} bytes"},
            )
            return
        # Drain the body before any rejection: unread bytes would be
        # parsed as the next request line on this keep-alive connection.
        raw = self.rfile.read(length) if length else b"{}"
        if not self.path.startswith(API_PREFIX):
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        method = self.path[len(API_PREFIX):]
        try:
            payload = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except (UnicodeDecodeError, ValueError) as error:
            self._send(400, {"error": f"request body is not JSON: {error}"})
            return
        if not isinstance(payload, dict):
            self._send(400, {"error": "request body must be a JSON object"})
            return
        status, body = self.server.service.submit(
            method, payload, self._tenant(payload)
        )
        self._send(status, body)

    def _tenant(self, payload: dict) -> str:
        tenant = payload.get("tenant") or self.headers.get("X-Tenant")
        return str(tenant) if tenant else "public"


class _UnixHandler(_Handler):
    # setup() would setsockopt(IPPROTO_TCP, ...) — not a thing on AF_UNIX.
    disable_nagle_algorithm = False


class ScanHTTPServer(ThreadingHTTPServer):
    """TCP listener; request threads block on the service dispatcher."""

    daemon_threads = True
    allow_reuse_address = True
    handler_class = _Handler

    def __init__(self, address: Tuple[str, int], service: ScanService) -> None:
        self.service = service
        super().__init__(address, self.handler_class)


class UnixScanHTTPServer(ScanHTTPServer):
    """The same listener over a unix-domain socket path."""

    address_family = socket.AF_UNIX
    handler_class = _UnixHandler

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, (tuple, list)):
            path = path[0]
        if os.path.exists(path):
            os.unlink(path)
        self.socket.bind(path)
        # BaseHTTPRequestHandler expects host/port attributes to exist.
        self.server_name = path
        self.server_port = 0

    def get_request(self):
        request, _ = self.socket.accept()
        return request, ("local", 0)


def start_server(
    service: ScanService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: Optional[str] = None,
) -> Tuple[ScanHTTPServer, threading.Thread]:
    """Bind a listener, start serving in a thread, and start the service.

    Returns ``(server, thread)``; ``port=0`` binds an ephemeral TCP port
    (read it back from ``server.server_address``).  Stop with
    ``server.shutdown()`` then ``service.stop()``.
    """
    if socket_path:
        server: ScanHTTPServer = UnixScanHTTPServer(socket_path, service)
    else:
        try:
            server = ScanHTTPServer((host, port), service)
        except OSError as error:
            raise ServeError(f"cannot bind {host}:{port}: {error}") from error
    service.start()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return server, thread
