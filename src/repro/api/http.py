"""A dependency-free HTTP binding of the wire protocol.

:func:`serve_http` exposes one :class:`~repro.api.v1.AuditService` over a
stdlib :class:`~http.server.ThreadingHTTPServer`. Every operation of the
protocol plane maps to one endpoint:

====================  ======  ==============================================
path                  method  body
====================  ======  ==============================================
``/v1/open``          POST    :class:`~repro.api.protocol.Request` JSON
``/v1/observe``       POST    Request JSON
``/v1/decide``        POST    Request JSON (``seq``/``idempotency_key`` honored)
``/v1/submit``        POST    ndjson stream of ``AlertEvent`` lines; the
                              response streams ``SignalDecision`` lines back
                              (chunked) while later events are still deciding
``/v1/close_cycle``   POST    Request JSON (envelope ``tenant``)
``/v1/report``        POST    Request JSON (envelope ``tenant``)
``/v1/close``         POST    Request JSON (envelope ``tenant``)
``/v1/stats``         POST    Request JSON
``/healthz``          GET     — liveness + protocol version + open tenants
``/stats``            GET     — service-wide ``ServiceStats``
====================  ======  ==============================================

Non-``submit`` responses are :class:`~repro.api.protocol.Response` JSON with
an HTTP status derived from the stable error code (:data:`STATUS_BY_CODE`).
All requests funnel through one :class:`~repro.api.protocol.ProtocolHandler`
— the same object the in-process transport calls — so the service hot path
and the per-tenant determinism contract are shared, not reimplemented.
Thread safety comes from the handler's dispatch lock; the threading server
only parallelizes socket I/O.

Connections are HTTP/1.1 keep-alive on both ends. The server keeps a
connection open across requests (announcing any close it makes), and
:class:`ConnectionPool` is the client half shared by
:class:`~repro.api.client.HttpTransport` and the cluster router: one
persistent connection per thread and base URL, checked for a peer close
before every reuse.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
from contextlib import contextmanager
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterator

from repro.errors import ProtocolError
from repro.api.protocol import (
    OP_STATS,
    OPS,
    OP_SUBMIT,
    ProtocolHandler,
    Request,
    Response,
    decode_ndjson,
)
from repro.api.v1.types import AlertEvent

#: HTTP status for each stable error code (default 500 for the rest).
STATUS_BY_CODE: dict[str, int] = {
    "unknown_tenant": HTTPStatus.NOT_FOUND,
    "invalid_event": HTTPStatus.BAD_REQUEST,
    "protocol_error": HTTPStatus.BAD_REQUEST,
    "idempotency_conflict": HTTPStatus.CONFLICT,
    "session_state": HTTPStatus.CONFLICT,
    "session_closed": HTTPStatus.CONFLICT,
    "model_invalid": HTTPStatus.UNPROCESSABLE_ENTITY,
    "model_payoff": HTTPStatus.UNPROCESSABLE_ENTITY,
    "model_budget": HTTPStatus.UNPROCESSABLE_ENTITY,
    "experiment_invalid": HTTPStatus.UNPROCESSABLE_ENTITY,
    "data_invalid": HTTPStatus.UNPROCESSABLE_ENTITY,
    "data_query": HTTPStatus.UNPROCESSABLE_ENTITY,
    "cluster_error": HTTPStatus.INTERNAL_SERVER_ERROR,
    "worker_unavailable": HTTPStatus.SERVICE_UNAVAILABLE,
}

#: Events decided per streamed ``submit`` chunk.
SUBMIT_CHUNK = 256


def _status_for(response: Response) -> int:
    if response.ok:
        return int(HTTPStatus.OK)
    return int(STATUS_BY_CODE.get(
        response.error.code, HTTPStatus.INTERNAL_SERVER_ERROR
    ))


def _split_url(base_url: str) -> tuple[str, str, str]:
    """``(scheme, host[:port], path prefix)`` of an ``http(s)://`` URL."""
    scheme, _, rest = base_url.partition("://")
    if scheme not in ("http", "https"):
        raise ValueError(f"not an http(s) URL: {base_url!r}")
    netloc, slash, prefix = rest.partition("/")
    return scheme, netloc, (slash + prefix).rstrip("/")


def _peer_closed(sock: socket.socket) -> bool:
    """True when an idle pooled socket must not carry another request.

    Between requests an HTTP/1.1 peer sends nothing, so a readable idle
    socket means the peer closed or reset it (or broke the protocol);
    either way a request written to it could be lost mid-send. One
    zero-timeout ``select`` decides, without reading anything.
    """
    try:
        readable, _, _ = select.select([sock], [], [], 0)
    except (OSError, ValueError):
        return True
    return bool(readable)


class ConnectionPool:
    """Persistent HTTP/1.1 client connections: one per thread and base URL.

    The client side of the keep-alive wire path:
    :class:`~repro.api.client.HttpTransport` (client → server or router)
    and :class:`~repro.api.cluster.AuditCluster` (router → worker) each
    hold one. A thread reuses its connection to a base URL for every
    request, so a request costs no TCP handshake and the server no new
    handler thread.

    Before a pooled socket is reused, :func:`_peer_closed` checks it for
    peer EOF; a dropped connection (killed or restarted server) is
    discarded and a fresh one opened. A dead server therefore fails the
    *connect* with ``ConnectionRefusedError`` — still the one failure that
    proves a request was never sent. Keying by base URL means a server
    that comes back on a new URL always gets a new connection.
    """

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: set[http.client.HTTPConnection] = set()

    @contextmanager
    def post(
        self, base_url: str, path: str, body: bytes, content_type: str
    ) -> Iterator[http.client.HTTPResponse]:
        """POST ``body`` to ``base_url + path`` and yield the reply.

        Read the reply to its end inside the ``with`` block: a connection
        whose reply was left unread, or whose exchange raised, is closed
        instead of going back to the pool.
        """
        connection = self._checkout(base_url)
        reply = None
        try:
            connection.request(
                "POST",
                _split_url(base_url)[2] + path,
                body=body,
                headers={"Content-Type": content_type},
            )
            reply = connection.getresponse()
            yield reply
        except BaseException:
            self._discard(base_url, connection, reply)
            raise
        if not reply.isclosed():
            self._discard(base_url, connection, reply)

    def close(self) -> None:
        """Close every pooled connection, on every thread.

        The pool stays usable: a later request opens a fresh connection.
        """
        with self._lock:
            connections, self._open = self._open, set()
        for connection in connections:
            connection.close()

    def _connections(self) -> dict[str, http.client.HTTPConnection]:
        try:
            return self._local.connections
        except AttributeError:
            self._local.connections = {}
            return self._local.connections

    def _checkout(self, base_url: str) -> http.client.HTTPConnection:
        connections = self._connections()
        connection = connections.get(base_url)
        if connection is not None:
            if connection.sock is not None and not _peer_closed(
                connection.sock
            ):
                return connection
            self._discard(base_url, connection)
        # Opening a connection is the rare path: also drop this thread's
        # connections whose peers are gone (a restarted worker's old URL
        # is never asked for again).
        for url, other in list(connections.items()):
            if other.sock is None or _peer_closed(other.sock):
                self._discard(url, other)
        scheme, netloc, _prefix = _split_url(base_url)
        klass = (
            http.client.HTTPSConnection if scheme == "https"
            else http.client.HTTPConnection
        )
        connection = klass(netloc, timeout=self._timeout)
        connections[base_url] = connection
        with self._lock:
            self._open.add(connection)
        return connection

    def _discard(
        self,
        base_url: str,
        connection: http.client.HTTPConnection,
        reply: http.client.HTTPResponse | None = None,
    ) -> None:
        if reply is not None:
            reply.close()
        connection.close()
        connections = self._connections()
        if connections.get(base_url) is connection:
            del connections[base_url]
        with self._lock:
            self._open.discard(connection)


class _ApiRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange → one protocol dispatch.

    Connections are HTTP/1.1 keep-alive: every response carries its length
    (``Content-Length`` or a terminated chunked stream), and whenever the
    handler does close the connection it says so in a ``Connection: close``
    header first. ``TCP_NODELAY`` stops the header and body writes of one
    response from waiting on the peer's delayed ACK.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-api/1"
    disable_nagle_algorithm = True

    # The ProtocolHandler is attached to the server object by ReproHttpServer.

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def setup(self) -> None:
        super().setup()
        self.server.live_connections.add(self.connection)

    def finish(self) -> None:
        self.server.live_connections.discard(self.connection)
        super().finish()

    # ------------------------------------------------------------------
    # GET: liveness and stats
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        handler: ProtocolHandler = self.server.protocol_handler
        self._read_body()
        if self.path == "/healthz":
            response = handler.handle(Request(op="healthz"))
        elif self.path == "/stats":
            response = handler.handle(Request(op=OP_STATS))
        else:
            self._send_json(
                int(HTTPStatus.NOT_FOUND),
                {"ok": False, "error": {"code": "protocol_error",
                                        "message": f"no such path {self.path}"}},
            )
            return
        body = (
            response.payload if response.ok
            else {"ok": False, "error": response.error.to_dict()}
        )
        self._send_json(_status_for(response), body)

    # ------------------------------------------------------------------
    # POST: the protocol operations
    # ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # Read the body first, whatever the endpoint: on a kept-alive
        # connection unread bytes would be parsed as the next request.
        raw = self._read_body()
        op = self._path_op()
        if op is None:
            self._send_json(
                int(HTTPStatus.NOT_FOUND),
                {"ok": False, "error": {
                    "code": "protocol_error",
                    "message": (f"no such endpoint {self.path!r}; "
                                f"POST /v1/<op> with op in {OPS}"),
                }},
            )
            return
        if op == OP_SUBMIT:
            self._do_submit(raw)
            return
        try:
            request = Request.from_json(raw.decode("utf-8"))
            if request.op != op:
                raise ProtocolError(
                    f"envelope op {request.op!r} does not match endpoint "
                    f"/v1/{op}"
                )
        except ProtocolError as exc:
            self._send_response(Response.failure(op, exc))
            return
        except Exception as exc:
            self._send_response(Response.failure(
                op, ProtocolError(f"request body is not a valid envelope: {exc}")
            ))
            return
        handler: ProtocolHandler = self.server.protocol_handler
        self._send_response(handler.handle(request))

    def _do_submit(self, raw: bytes) -> None:
        """The streaming hot path: ndjson events in, ndjson decisions out.

        Decisions leave in one chunk per :data:`SUBMIT_CHUNK` events — the
        granularity at which :meth:`ProtocolHandler.submit_stream` decides —
        so early chunks stream while later ones are still deciding. The
        stream always ends with the terminating chunk, so the connection
        stays usable for the next request.
        """
        handler: ProtocolHandler = self.server.protocol_handler
        try:
            events = tuple(decode_ndjson(raw.decode("utf-8"), AlertEvent))
        except Exception as exc:
            self._send_response(Response.failure(
                OP_SUBMIT,
                exc if isinstance(exc, ProtocolError)
                else ProtocolError(f"submit body is not ndjson events: {exc}"),
            ))
            return
        self.send_response(int(HTTPStatus.OK))
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self._end_headers()
        lines: list[str] = []
        try:
            for decision in handler.submit_stream(events, SUBMIT_CHUNK):
                lines.append(decision.to_json())
                if len(lines) == SUBMIT_CHUNK:
                    self._write_chunk(lines)
                    lines = []
        except OSError:
            # The client went away mid-stream; there is nobody to tell.
            self.close_connection = True
            return
        except Exception as exc:
            # Headers are gone; surface the failure as a trailer line the
            # client-side codec reports with its stable code.
            lines.append(Response.failure(OP_SUBMIT, exc).to_json())
        try:
            self._write_chunk(lines)
            self.wfile.write(b"0\r\n\r\n")
        except OSError:
            self.close_connection = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _path_op(self) -> str | None:
        prefix = "/v1/"
        if not self.path.startswith(prefix):
            return None
        op = self.path[len(prefix):].strip("/")
        return op if op in OPS else None

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        return self.rfile.read(length) if length > 0 else b""

    def _end_headers(self) -> None:
        """End the header block, announcing a close the handler will do.

        ``close_connection`` is already set here when the client asked for
        ``Connection: close`` or spoke HTTP/1.0.
        """
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()

    def _write_chunk(self, lines: list[str]) -> None:
        """One chunk of ndjson lines (nothing for an empty list)."""
        if lines:
            data = ("\n".join(lines) + "\n").encode("utf-8")
            self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))

    def _send_response(self, response: Response) -> None:
        self._send_bytes(
            _status_for(response), response.to_json().encode("utf-8")
        )

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self._send_bytes(status, data)

    def _send_bytes(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self._end_headers()
        self.wfile.write(data)


class ReproHttpServer:
    """A running (or startable) HTTP binding of one audit service.

    Use :func:`serve_http` to construct. ``serve_forever`` blocks;
    ``start_background`` runs the accept loop on a daemon thread and
    returns immediately — tests and the loopback benchmark use that mode,
    then ``shutdown``.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.handler = ProtocolHandler(service)
        self._httpd = ThreadingHTTPServer((host, port), _ApiRequestHandler)
        self._httpd.protocol_handler = self.handler
        self._httpd.verbose = verbose
        self._httpd.daemon_threads = True
        self._httpd.live_connections = set()
        self._thread: threading.Thread | None = None
        self._started = False

    @property
    def service(self):
        """The audit service behind this server."""
        return self.handler.service

    @property
    def open_connections(self) -> int:
        """Client connections currently held open (kept-alive or busy)."""
        return len(self._httpd.live_connections)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even for port 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should connect to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def write_ready_file(self, path: str | Path) -> None:
        """Write the bound URL to ``path`` (for shell/CI orchestration)."""
        Path(path).write_text(self.url + "\n", encoding="utf-8")

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        self._started = True
        self._httpd.serve_forever()

    def start_background(self) -> "ReproHttpServer":
        """Serve on a daemon thread; returns self once accepting."""
        self._started = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the accept loop (if running) and release the sockets.

        Kept-alive client connections are shut down too, so no handler
        thread goes on serving after the server has stopped; their
        clients see the close and reconnect (and are refused).

        Safe on a server whose accept loop never started —
        ``BaseServer.shutdown`` would otherwise wait forever on an event
        only ``serve_forever`` sets.
        """
        if self._started:
            self._httpd.shutdown()
            self._started = False
        self._httpd.server_close()
        for connection in list(self._httpd.live_connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ReproHttpServer":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()


def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ReproHttpServer:
    """Bind ``service`` to an HTTP socket (port 0 = ephemeral).

    Returns the unstarted server; call ``serve_forever()`` to block (the
    CLI's ``repro serve --http``) or ``start_background()`` for an
    in-process loopback (tests, benchmarks)::

        with serve_http(service).start_background() as server:
            client = ReproClient.connect(server.url)
    """
    return ReproHttpServer(service, host=host, port=port, verbose=verbose)


__all__ = [
    "STATUS_BY_CODE",
    "ConnectionPool",
    "SUBMIT_CHUNK",
    "ReproHttpServer",
    "serve_http",
]
