"""A dependency-free HTTP binding of the wire protocol.

:func:`serve_http` exposes one :class:`~repro.api.v1.AuditService` over a
stdlib threading TCP server. Every operation of the protocol plane maps to
one endpoint:

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

Messages on both ends are framed by :mod:`repro.api.wire`, and
connections are HTTP/1.1 keep-alive. The server keeps a connection open
across requests (announcing any close it makes), and
:class:`ConnectionPool` is the client half behind
:class:`~repro.api.client.HttpTransport`: one persistent connection per
thread and base URL, checked for a peer close before every reuse.
"""

from __future__ import annotations

import json
import select
import socket
import socketserver
import sys
import threading
import urllib.parse
from contextlib import contextmanager
from http import HTTPStatus
from pathlib import Path
from typing import Iterator

from repro.errors import ProtocolError
from repro.api import wire
from repro.api.protocol import (
    OP_HEALTHZ,
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


def split_url(base_url: str) -> tuple[str, int, str, str, bool]:
    """``(host, port, Host header, path prefix, https)`` of a base URL."""
    parts = urllib.parse.urlsplit(base_url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"not an http(s) URL: {base_url!r}")
    https = parts.scheme == "https"
    port = parts.port or (443 if https else 80)
    return parts.hostname, port, parts.netloc, parts.path.rstrip("/"), https


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


class _Connection:
    """One client socket (``TCP_NODELAY``; TLS for ``https``) to a base URL."""

    __slots__ = ("sock", "rfile", "host", "prefix")

    def __init__(self, base_url: str, timeout: float) -> None:
        hostname, port, self.host, self.prefix, https = split_url(base_url)
        sock = socket.create_connection((hostname, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if https:
                import ssl

                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=hostname
                )
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Reply:
    """A reply read from a pooled connection.

    ``status`` and ``headers`` (by lower-case name) arrive with the head.
    Read the body whole with :meth:`read`, or iterate it line by line as
    it streams in.
    """

    def __init__(self, head: wire.HttpReply, rfile) -> None:
        self.status = head.status
        self.headers = head.headers
        self.keep_alive = head.keep_alive
        self._rfile = rfile
        #: True once the body has been read to its end.
        self.complete = False

    def read(self) -> bytes:
        """The whole body."""
        body = wire.drive(
            wire.parse_body(self.headers, until_eof=True), self._rfile
        )
        self.complete = True
        return body

    def __iter__(self) -> Iterator[bytes]:
        """Body lines (``b"\\n"`` kept), each as soon as its chunk lands."""
        if self.headers.get("transfer-encoding", "").lower() != "chunked":
            yield from self.read().splitlines(keepends=True)
            return
        pending = b""
        while piece := wire.drive(wire.parse_chunk(), self._rfile):
            *lines, pending = (pending + piece).split(b"\n")
            for line in lines:
                yield line + b"\n"
        self.complete = True
        if pending:
            yield pending


class ConnectionPool:
    """Persistent HTTP/1.1 client connections: one per thread and base URL.

    The blocking client side of the keep-alive wire path, held by
    :class:`~repro.api.client.HttpTransport`. A thread reuses its
    connection to a base URL for every request, so a request costs no TCP
    handshake and the server no new handler thread. Requests and replies
    are framed by :mod:`repro.api.wire`.

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
        self._open: set[_Connection] = set()

    @contextmanager
    def post(
        self, base_url: str, path: str, body: bytes, content_type: str
    ) -> Iterator[Reply]:
        """POST ``body`` to ``base_url + path`` and yield the reply.

        Read the reply to its end inside the ``with`` block: a connection
        whose reply was left unread, or whose exchange raised, is closed
        instead of going back to the pool.
        """
        connection = self._checkout(base_url)
        try:
            connection.sock.sendall(wire.format_request(
                connection.prefix + path, connection.host, content_type, body
            ))
            reply = Reply(
                wire.drive(wire.parse_reply_head(), connection.rfile),
                connection.rfile,
            )
            yield reply
        except BaseException:
            self._discard(base_url, connection)
            raise
        if not (reply.complete and reply.keep_alive):
            self._discard(base_url, connection)

    def close(self) -> None:
        """Close every pooled connection, on every thread.

        The pool stays usable: a later request opens a fresh connection.
        """
        with self._lock:
            connections, self._open = self._open, set()
        for connection in connections:
            connection.close()

    def _connections(self) -> dict[str, _Connection]:
        try:
            return self._local.connections
        except AttributeError:
            self._local.connections = {}
            return self._local.connections

    def _checkout(self, base_url: str) -> _Connection:
        connections = self._connections()
        connection = connections.get(base_url)
        if connection is not None:
            if not _peer_closed(connection.sock):
                return connection
            self._discard(base_url, connection)
        # Opening a connection is the rare path: also drop this thread's
        # connections whose peers are gone (a restarted server's old URL
        # is never asked for again).
        for url, other in list(connections.items()):
            if _peer_closed(other.sock):
                self._discard(url, other)
        connection = _Connection(base_url, self._timeout)
        connections[base_url] = connection
        with self._lock:
            self._open.add(connection)
        return connection

    def _discard(self, base_url: str, connection: _Connection) -> None:
        connection.close()
        connections = self._connections()
        if connections.get(base_url) is connection:
            del connections[base_url]
        with self._lock:
            self._open.discard(connection)


def parse_envelope(op: str, raw: bytes) -> Request:
    """The request envelope of a ``POST /v1/<op>`` body.

    Raises :class:`~repro.errors.ProtocolError` when ``raw`` is not a
    valid envelope for ``op``.
    """
    try:
        request = Request.from_json(raw.decode("utf-8"))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            f"request body is not a valid envelope: {exc}"
        ) from exc
    if request.op != op:
        raise ProtocolError(
            f"envelope op {request.op!r} does not match endpoint /v1/{op}"
        )
    return request


def path_op(path: str) -> str | None:
    """The operation a ``/v1/<op>`` path names, or None."""
    prefix = "/v1/"
    if not path.startswith(prefix):
        return None
    op = path[len(prefix):].strip("/")
    return op if op in OPS else None


def no_such_endpoint(method: str, path: str) -> ProtocolError:
    """The error for a request no endpoint serves (answered with 404)."""
    return ProtocolError(
        f"no such endpoint {method} {path!r}; "
        f"POST /v1/<op> with op in {OPS}"
    )


def framing_error_reply(exc: wire.FramingError) -> bytes:
    """The reply to a request that cannot be framed; the server closes
    the connection after it."""
    return wire.format_response(
        int(exc.status), "application/json", _json_bytes(_error_doc(exc)),
        "close",
    )


def _error_doc(exc: ProtocolError | wire.FramingError) -> dict:
    return {"ok": False, "error": {"code": "protocol_error",
                                   "message": str(exc)}}


def _json_bytes(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _lines_chunk(lines: list[str]) -> bytes:
    """One chunk of ndjson lines (nothing for an empty list)."""
    return wire.format_chunk(
        ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    )


class _ApiRequestHandler(socketserver.StreamRequestHandler):
    """One connection: a loop of HTTP exchanges, each one protocol dispatch.

    Requests are framed by :mod:`repro.api.wire`. Connections are HTTP/1.1
    keep-alive: every response carries its length (``Content-Length`` or
    a terminated chunked stream), and whenever the handler closes the
    connection it says so in a ``Connection: close`` header first.
    ``TCP_NODELAY`` keeps a streamed reply's writes from waiting on the
    peer's delayed ACK.
    """

    disable_nagle_algorithm = True

    # The ProtocolHandler is attached to the server object by ReproHttpServer.

    def setup(self) -> None:
        super().setup()
        self.server.live_connections.add(self.connection)

    def finish(self) -> None:
        self.server.live_connections.discard(self.connection)
        super().finish()

    def handle(self) -> None:
        try:
            while True:
                try:
                    request = wire.drive(
                        wire.parse_request(), self.rfile, self.wfile
                    )
                except wire.FramingError as exc:
                    self.wfile.write(framing_error_reply(exc))
                    return
                if request is None:
                    return
                if self.server.verbose:
                    sys.stderr.write(
                        f"{self.client_address[0]} - \"{request.method} "
                        f"{request.target} {request.version}\"\n"
                    )
                self._dispatch(request)
                if not request.keep_alive:
                    return
        except OSError:
            pass  # the client went away, possibly mid-message

    def _dispatch(self, request: wire.HttpRequest) -> None:
        handler: ProtocolHandler = self.server.protocol_handler
        connection = request.reply_connection
        op = path_op(request.target) if request.method == "POST" else None
        if op == OP_SUBMIT:
            self._submit(request.body, connection)
            return
        if op is not None:
            try:
                envelope = parse_envelope(op, request.body)
            except ProtocolError as exc:
                response = Response.failure(op, exc)
            else:
                response = handler.handle(envelope)
            self._send(
                _status_for(response), response.to_json().encode("utf-8"),
                connection,
            )
            return
        if request.method == "GET" and request.target in _GET_OPS:
            response = handler.handle(Request(op=_GET_OPS[request.target]))
            body = (
                response.payload if response.ok
                else {"ok": False, "error": response.error.to_dict()}
            )
            self._send(_status_for(response), _json_bytes(body), connection)
            return
        self._send(
            int(HTTPStatus.NOT_FOUND),
            _json_bytes(_error_doc(
                no_such_endpoint(request.method, request.target)
            )),
            connection,
        )

    def _submit(self, raw: bytes, connection: str | None) -> None:
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
            response = Response.failure(
                OP_SUBMIT,
                exc if isinstance(exc, ProtocolError)
                else ProtocolError(f"submit body is not ndjson events: {exc}"),
            )
            self._send(
                _status_for(response), response.to_json().encode("utf-8"),
                connection,
            )
            return
        write = self.wfile.write
        write(wire.format_response(
            int(HTTPStatus.OK), "application/x-ndjson", None, connection
        ))
        lines: list[str] = []
        try:
            for decision in handler.submit_stream(events, SUBMIT_CHUNK):
                lines.append(decision.to_json())
                if len(lines) == SUBMIT_CHUNK:
                    write(_lines_chunk(lines))
                    lines = []
        except OSError:
            raise  # the client went away mid-stream; nobody to tell
        except Exception as exc:
            # Headers are gone; surface the failure as a trailer line the
            # client-side codec reports with its stable code.
            lines.append(Response.failure(OP_SUBMIT, exc).to_json())
        write(_lines_chunk(lines) + wire.LAST_CHUNK)

    def _send(self, status: int, data: bytes, connection: str | None) -> None:
        self.wfile.write(wire.format_response(
            status, "application/json", data, connection
        ))


#: ``GET`` paths and the operation each one runs.
_GET_OPS = {"/healthz": OP_HEALTHZ, "/stats": OP_STATS}


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


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
        self._httpd = _ThreadingServer((host, port), _ApiRequestHandler)
        self._httpd.protocol_handler = self.handler
        self._httpd.verbose = verbose
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
    "Reply",
    "SUBMIT_CHUNK",
    "ReproHttpServer",
    "serve_http",
]
