"""HTTP/1.1 message framing: the one place that knows the wire format.

Every HTTP endpoint in the serving plane frames its messages here — the
client's :class:`~repro.api.http.ConnectionPool`, the worker's request
handler, the cluster router's front door, and the router's forwards to
its workers. The module covers exactly what those peers exchange:

* request and response heads, with the stdlib's limits: a line longer
  than :data:`MAX_LINE` bytes or more than :data:`MAX_HEADERS` header
  lines is refused (414 for the request line, 431 for a header line or
  too many headers; any other malformed head is a 400);
* ``Content-Length`` bodies and chunked bodies (chunk extensions and
  trailers are read and dropped);
* ``Expect: 100-continue``: the interim ``100 Continue`` goes out after
  the head and before the body is read;
* keep-alive: HTTP/1.1 keeps the connection unless a ``Connection:
  close`` says otherwise, HTTP/1.0 closes it unless the request asks for
  ``keep-alive``;
* heads formatted into one buffer, so a message leaves in one write.

The parse logic is written once, as generators that ask for bytes:
each ``yield`` is :data:`LINE` (the next line, ``None`` when it is over
:data:`MAX_LINE`), :data:`REST` (everything up to EOF), an ``int`` (that
many bytes, fewer only at EOF), or ``bytes`` to send to the peer. Two
adapters answer those requests — :func:`drive` from a blocking binary
file (a socket's ``makefile``), :func:`drive_async` from an asyncio
``StreamReader`` — so the blocking and asyncio peers parse identically.
"""

from __future__ import annotations

import asyncio
from http import HTTPStatus
from typing import Generator

#: Longest accepted head line, line ending included (the stdlib's limit).
MAX_LINE = 65536

#: Most header lines accepted in one head (the stdlib's limit).
MAX_HEADERS = 100

#: ``StreamReader`` limit that makes ``readline`` refuse exactly the lines
#: longer than :data:`MAX_LINE` (asyncio accepts a line of ``limit + 1``).
STREAM_LIMIT = MAX_LINE - 1

#: Parser request: the next line.
LINE = -1

#: Parser request: every byte up to EOF.
REST = -2

#: The interim reply a server sends to ``Expect: 100-continue``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

#: The chunk that ends a chunked body (no trailers).
LAST_CHUNK = b"0\r\n\r\n"

_BLANK = (b"\r\n", b"\n")
_HEX_DIGITS = b"0123456789abcdefABCDEF"

Parser = Generator[object, object, object]


class FramingError(ValueError):
    """A malformed message; ``status`` is the reply a server owes it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class IncompleteMessage(ConnectionError):
    """The peer closed the connection in the middle of a message."""


def _tokens(value: str) -> set[str]:
    return {token.strip().lower() for token in value.split(",")}


class HttpRequest:
    """One parsed request: its head fields and its whole body."""

    __slots__ = ("method", "target", "version", "headers", "body")

    def __init__(
        self,
        method: str,
        target: str,
        version: str,
        headers: dict[str, str],
        body: bytes = b"",
    ) -> None:
        self.method = method
        self.target = target
        self.version = version
        #: Header values by lower-case name (repeats joined with ``", "``).
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        """Whether the connection stays open after the reply."""
        tokens = _tokens(self.headers.get("connection", ""))
        if self.version == "HTTP/1.1":
            return "close" not in tokens
        return "keep-alive" in tokens and "close" not in tokens

    @property
    def reply_connection(self) -> str | None:
        """The ``Connection`` header the reply must carry, if any."""
        if not self.keep_alive:
            return "close"
        return "keep-alive" if self.version != "HTTP/1.1" else None


class HttpReply:
    """One parsed response head; ``body`` is set once the body is read."""

    __slots__ = ("status", "version", "headers", "body")

    def __init__(
        self, status: int, version: str, headers: dict[str, str]
    ) -> None:
        self.status = status
        self.version = version
        #: Header values by lower-case name (repeats joined with ``", "``).
        self.headers = headers
        self.body: bytes | None = None

    @property
    def keep_alive(self) -> bool:
        """Whether the server keeps the connection after this reply."""
        tokens = _tokens(self.headers.get("connection", ""))
        if "close" in tokens:
            return False
        if self.version != "HTTP/1.1" and "keep-alive" not in tokens:
            return False
        # A body delimited by the close of the connection ends it.
        return (
            "transfer-encoding" in self.headers
            or "content-length" in self.headers
        )


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------


def _complete_line(line: bytes) -> bytes:
    if not line.endswith(b"\n"):
        raise IncompleteMessage("connection closed inside a message head")
    return line


def _headers() -> Parser:
    """Header lines up to the blank line, by lower-case name."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = yield LINE
        if line is None:
            raise FramingError(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                               "header line too long")
        if line in _BLANK:
            return headers
        name, colon, value = _complete_line(line).partition(b":")
        if not colon or not name or name != name.strip():
            raise FramingError(HTTPStatus.BAD_REQUEST,
                               f"malformed header line {line[:80]!r}")
        key = name.decode("latin-1").lower()
        text = value.strip().decode("latin-1")
        headers[key] = f"{headers[key]}, {text}" if key in headers else text
    raise FramingError(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                       f"more than {MAX_HEADERS} headers")


def parse_chunk() -> Parser:
    """One chunk's data; ``b""`` for the last chunk, trailers consumed."""
    line = yield LINE
    if line is None:
        raise FramingError(HTTPStatus.BAD_REQUEST, "chunk size line too long")
    size_text = _complete_line(line).split(b";", 1)[0].strip()
    if not size_text or size_text.strip(_HEX_DIGITS):
        raise FramingError(HTTPStatus.BAD_REQUEST,
                           f"bad chunk size {size_text[:40]!r}")
    size = int(size_text, 16)
    if size == 0:
        for _ in range(MAX_HEADERS + 1):
            line = yield LINE
            if line is None:
                raise FramingError(HTTPStatus.BAD_REQUEST,
                                   "trailer line too long")
            if line in _BLANK:
                return b""
            _complete_line(line)
        raise FramingError(HTTPStatus.BAD_REQUEST,
                           f"more than {MAX_HEADERS} trailer lines")
    data = yield size
    if len(data) < size:
        raise IncompleteMessage("connection closed inside a chunk")
    end = yield LINE
    if end not in _BLANK:
        if end == b"":
            raise IncompleteMessage("connection closed inside a chunk")
        raise FramingError(HTTPStatus.BAD_REQUEST, "chunk data overruns its size")
    return data


def _chunked() -> Parser:
    parts = []
    while True:
        piece = yield from parse_chunk()
        if not piece:
            return b"".join(parts)
        parts.append(piece)


def parse_body(headers: dict[str, str], until_eof: bool = False) -> Parser:
    """The message body its headers delimit.

    Without ``Transfer-Encoding`` or ``Content-Length`` a request has no
    body; a response (``until_eof``) runs to the close of the connection.
    """
    coding = headers.get("transfer-encoding")
    if coding is not None:
        if coding.lower() != "chunked":
            raise FramingError(HTTPStatus.NOT_IMPLEMENTED,
                               f"unsupported transfer coding {coding!r}")
        return (yield from _chunked())
    length_text = headers.get("content-length")
    if length_text is None:
        return (yield REST) if until_eof else b""
    if not (length_text.isascii() and length_text.isdigit()):
        raise FramingError(HTTPStatus.BAD_REQUEST,
                           f"bad Content-Length {length_text[:40]!r}")
    length = int(length_text)
    if length == 0:
        return b""
    data = yield length
    if len(data) < length:
        raise IncompleteMessage("connection closed inside a message body")
    return data


def parse_request() -> Parser:
    """One request, head and body, or ``None`` at a clean EOF.

    Answers ``Expect: 100-continue`` with :data:`CONTINUE` before reading
    the body.
    """
    line = yield LINE
    while line in _BLANK:  # stray line ends between requests
        line = yield LINE
    if line == b"":
        return None
    if line is None:
        raise FramingError(HTTPStatus.REQUEST_URI_TOO_LONG,
                           "request line too long")
    words = _complete_line(line).split()
    if len(words) != 3:
        raise FramingError(HTTPStatus.BAD_REQUEST,
                           f"bad request line {line[:80]!r}")
    method, target, version = (word.decode("latin-1") for word in words)
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise FramingError(
            HTTPStatus.HTTP_VERSION_NOT_SUPPORTED
            if version.startswith("HTTP/") else HTTPStatus.BAD_REQUEST,
            f"unsupported protocol version {version[:20]!r}",
        )
    headers = yield from _headers()
    if (
        version == "HTTP/1.1"
        and headers.get("expect", "").lower() == "100-continue"
    ):
        yield CONTINUE
    body = yield from parse_body(headers)
    return HttpRequest(method, target, version, headers, body)


def parse_reply_head() -> Parser:
    """The final response head (interim ``1xx`` heads are skipped)."""
    while True:
        line = yield LINE
        if line == b"":
            raise IncompleteMessage("connection closed before a reply")
        if line is None:
            raise FramingError(HTTPStatus.BAD_GATEWAY, "status line too long")
        version, _, rest = _complete_line(line).partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/1.") and code.isdigit()):
            raise FramingError(HTTPStatus.BAD_GATEWAY,
                               f"bad status line {line[:80]!r}")
        headers = yield from _headers()
        status = int(code)
        if status >= 200 or status < 100:
            return HttpReply(status, version.decode("latin-1"), headers)


def parse_reply() -> Parser:
    """One whole response: its head with ``body`` filled in."""
    reply = yield from parse_reply_head()
    reply.body = yield from parse_body(reply.headers, until_eof=True)
    return reply


# ----------------------------------------------------------------------
# Adapters: feed a parser from a blocking file or an asyncio stream
# ----------------------------------------------------------------------


def drive(parser: Parser, rfile, wfile=None):
    """Run ``parser`` on a blocking binary file; returns its result.

    ``rfile`` is buffered (``socket.makefile("rb")``); ``wfile`` takes
    the parser's interim writes.
    """
    step = next(parser)
    while True:
        if type(step) is bytes:
            wfile.write(step)
            data = None
        elif step >= 0:
            data = rfile.read(step)
        elif step == LINE:
            data = rfile.readline(MAX_LINE + 1)
            if len(data) > MAX_LINE:
                data = None
        else:
            data = rfile.read()
        try:
            step = parser.send(data)
        except StopIteration as done:
            return done.value


async def drive_async(
    parser: Parser,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter | None = None,
):
    """Run ``parser`` on an asyncio stream; returns its result.

    ``reader``'s limit must be :data:`STREAM_LIMIT`, so that ``readline``
    refuses the same lines :func:`drive` does.
    """
    step = next(parser)
    while True:
        if type(step) is bytes:
            writer.write(step)
            data = None
        elif step >= 0:
            try:
                data = await reader.readexactly(step)
            except asyncio.IncompleteReadError as exc:
                data = exc.partial
        elif step == LINE:
            try:
                data = await reader.readline()
            except ValueError:  # over the stream limit
                data = None
        else:
            data = await reader.read()
        try:
            step = parser.send(data)
        except StopIteration as done:
            return done.value


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------


def format_request(
    target: str, host: str, content_type: str, body: bytes
) -> bytes:
    """A whole ``POST`` request, head and body, in one buffer."""
    return (
        f"POST {target} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def format_response(
    status: int,
    content_type: str,
    body: bytes | None,
    connection: str | None = None,
) -> bytes:
    """A response head plus ``body``, in one buffer.

    ``body=None`` starts a chunked stream instead: send the head, then
    :func:`format_chunk` pieces, then :data:`LAST_CHUNK`.
    """
    length = (
        "Transfer-Encoding: chunked" if body is None
        else f"Content-Length: {len(body)}"
    )
    extra = f"Connection: {connection}\r\n" if connection else ""
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: {content_type}\r\n{length}\r\n{extra}\r\n"
    ).encode("latin-1")
    return head if body is None else head + body


def format_chunk(data: bytes) -> bytes:
    """One chunk of a chunked body (nothing for empty data)."""
    return b"%x\r\n%s\r\n" % (len(data), data) if data else b""


__all__ = [
    "CONTINUE",
    "LAST_CHUNK",
    "LINE",
    "MAX_HEADERS",
    "MAX_LINE",
    "REST",
    "STREAM_LIMIT",
    "FramingError",
    "HttpReply",
    "HttpRequest",
    "IncompleteMessage",
    "drive",
    "drive_async",
    "format_chunk",
    "format_request",
    "format_response",
    "parse_body",
    "parse_chunk",
    "parse_reply",
    "parse_reply_head",
    "parse_request",
]
