"""HTTP/1.1 framing: one module, the same behaviour on every server.

Two halves. The parity table sends raw bytes to a ``serve_http`` worker
and to a 2-worker cluster router and asserts both answer with the same
status lines and the same connection behaviour. The property tests round
trip :mod:`repro.api.wire`'s format and parse functions through both of
its adapters, with the bytes split at arbitrary boundaries.
"""

import asyncio
import http.client
import io
import json
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import serve_cluster, serve_http, wire
from repro.api.protocol import PROTOCOL_VERSION
from repro.api.v1 import AuditService

from apihelpers import make_config, make_history

STATS = json.dumps({"op": "stats", "version": PROTOCOL_VERSION}).encode()


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """``{"http": (host, port), "cluster": (host, port)}``, both serving."""
    service = AuditService()
    service.open_session(make_config(), make_history())
    state_dir = tmp_path_factory.mktemp("wire-cluster")
    with serve_http(service).start_background() as single, serve_cluster(
        workers=2, state_dir=state_dir
    ).start_background() as cluster:
        host, port = cluster.url.rsplit("/", 1)[1].split(":")
        yield {"http": single.address, "cluster": (host, int(port))}


class _SharedFile:
    """One buffered reply stream that ``http.client`` reads but never closes,
    so pipelined replies are parsed one after another."""

    def __init__(self, rfile):
        self._rfile = rfile

    def makefile(self, *_args, **_kwargs):
        return self

    def close(self):
        pass

    def __getattr__(self, name):
        return getattr(self._rfile, name)


def _read_reply(rfile):
    """``(status line, Connection header)`` of the next reply (stdlib parse)."""
    reply = http.client.HTTPResponse(_SharedFile(rfile))
    reply.begin()
    reply.read()
    return f"HTTP/1.1 {reply.status} {reply.reason}", reply.getheader("Connection")


def _stats_request(**headers):
    head = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    return (
        f"POST /v1/stats HTTP/1.1\r\nHost: t\r\n{head}"
        f"Content-Length: {len(STATS)}\r\n\r\n"
    ).encode() + STATS


def _outcome(address, raw: bytes, replies: int):
    """Send ``raw`` in one write; return the replies and whether the server
    then closed the connection (a follow-up request goes unanswered)."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(raw)
        rfile = sock.makefile("rb")
        try:
            answers = [_read_reply(rfile) for _ in range(replies)]
            try:
                sock.sendall(_stats_request())
                closed = _read_reply(rfile)[0] != "HTTP/1.1 200 OK"
            except (ConnectionError, http.client.HTTPException):
                closed = True
        finally:
            rfile.close()
    return answers, closed


_CHUNKED_WITH_TRAILER = (
    b"POST /v1/stats HTTP/1.1\r\nHost: t\r\n"
    b"Transfer-Encoding: chunked\r\n\r\n"
    + b"%x\r\n%s\r\n" % (10, STATS[:10])
    + b"%x;ext=1\r\n%s\r\n" % (len(STATS) - 10, STATS[10:])
    + b"0\r\nX-Trailer: yes\r\n\r\n"
)

#: ``(raw request bytes, replies expected, expected outcome)``.
PARITY_CASES = {
    "header line over 64 KiB": (
        _stats_request(**{"X-Long": "a" * 70000}), 1,
        ([("HTTP/1.1 431 Request Header Fields Too Large", "close")], True),
    ),
    "more than 100 headers": (
        _stats_request(**{f"X-H{index}": "v" for index in range(101)}), 1,
        ([("HTTP/1.1 431 Request Header Fields Too Large", "close")], True),
    ),
    "HTTP/1.0 without keep-alive": (
        _stats_request().replace(b"HTTP/1.1", b"HTTP/1.0", 1), 1,
        ([("HTTP/1.1 200 OK", "close")], True),
    ),
    "HTTP/1.0 with keep-alive": (
        _stats_request(Connection="keep-alive").replace(
            b"HTTP/1.1", b"HTTP/1.0", 1
        ), 1,
        ([("HTTP/1.1 200 OK", "keep-alive")], False),
    ),
    "chunked body with a trailer": (
        _CHUNKED_WITH_TRAILER, 1, ([("HTTP/1.1 200 OK", None)], False),
    ),
    "two requests pipelined in one write": (
        _stats_request() + _CHUNKED_WITH_TRAILER, 2,
        ([("HTTP/1.1 200 OK", None)] * 2, False),
    ),
    "mixed-case header names": (
        (b"POST /v1/stats HTTP/1.1\r\nhOsT: t\r\ncOnTeNt-LeNgTh: %d\r\n"
         b"CONNECTION: Close\r\n\r\n%s" % (len(STATS), STATS)), 1,
        ([("HTTP/1.1 200 OK", "close")], True),
    ),
    "malformed header line": (
        _stats_request().replace(b"Host: t", b"no colon here", 1), 1,
        ([("HTTP/1.1 400 Bad Request", "close")], True),
    ),
    "unknown transfer coding": (
        _stats_request(**{"Transfer-Encoding": "gzip"}), 1,
        ([("HTTP/1.1 501 Not Implemented", "close")], True),
    ),
}


class TestFramingParity:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_worker_and_router_frame_alike(self, servers, case):
        raw, replies, expected = PARITY_CASES[case]
        assert _outcome(servers["http"], raw, replies) == expected
        assert _outcome(servers["cluster"], raw, replies) == expected

    @pytest.mark.parametrize("kind", ["http", "cluster"])
    def test_interim_continue_arrives_before_the_body(self, servers, kind):
        body = STATS + b" " * 3000  # trailing whitespace keeps it valid JSON
        head = (
            b"POST /v1/stats HTTP/1.1\r\nHost: t\r\n"
            b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        with socket.create_connection(servers[kind], timeout=5) as sock:
            sock.sendall(head)
            rfile = sock.makefile("rb")
            try:
                # Nothing of the body is sent until the interim reply is in;
                # a server that waits for the body times this read out.
                assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert rfile.readline() == b"\r\n"
                sock.sendall(body)
                assert _read_reply(rfile) == ("HTTP/1.1 200 OK", None)
            finally:
                rfile.close()


class TestEnvelopeValidation:
    @pytest.mark.parametrize("op", ["stats", "healthz"])
    @pytest.mark.parametrize("body", [
        b"not json", b'{"op": "decide", "version": 1}',
    ])
    def test_fanin_envelopes_are_checked_like_a_worker(self, servers, op, body):
        answers = {}
        for kind, address in servers.items():
            connection = http.client.HTTPConnection(*address, timeout=30)
            try:
                connection.request("POST", f"/v1/{op}", body=body)
                reply = connection.getresponse()
                answers[kind] = (
                    reply.status, json.loads(reply.read())["error"]["code"]
                )
            finally:
                connection.close()
        assert answers["http"] == answers["cluster"] == (400, "protocol_error")


# ----------------------------------------------------------------------
# Round trips through both adapters, split at arbitrary byte boundaries
# ----------------------------------------------------------------------


class _Pieces(io.RawIOBase):
    """A raw stream that hands out its bytes one given piece at a time."""

    def __init__(self, pieces):
        self._pieces = list(pieces)

    def readable(self):
        return True

    def readinto(self, buffer):
        while self._pieces and not self._pieces[0]:
            self._pieces.pop(0)
        if not self._pieces:
            return 0
        piece = self._pieces[0]
        size = min(len(buffer), len(piece))
        buffer[:size] = piece[:size]
        self._pieces[0] = piece[size:]
        return size


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({cut % (len(data) + 1) for cut in cuts})
    return [data[a:b] for a, b in zip([0, *points], [*points, len(data)])]


def _parse_both(make_parser, pieces):
    """The parser's result from the blocking and the asyncio adapter."""
    written = io.BytesIO()
    blocking = wire.drive(
        make_parser(), io.BufferedReader(_Pieces(pieces)), written
    )

    async def run_async():
        reader = asyncio.StreamReader(limit=wire.STREAM_LIMIT)

        class _Writer:
            def write(self, data):
                written_async.append(data)

        written_async: list[bytes] = []
        task = asyncio.ensure_future(
            wire.drive_async(make_parser(), reader, _Writer())
        )
        for piece in pieces:
            reader.feed_data(piece)
            await asyncio.sleep(0)
        reader.feed_eof()
        return await task, b"".join(written_async)

    result, interim = asyncio.run(run_async())
    assert written.getvalue() == interim
    return blocking, result, interim


_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-", min_size=1,
    max_size=12,
).filter(lambda name: name.lower() not in {
    "content-length", "transfer-encoding", "connection", "expect",
})
_VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    max_size=20,
)
_CUTS = st.lists(st.integers(min_value=0, max_value=10_000), max_size=12)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(
        target=st.from_regex(r"/[a-z0-9/_]{0,20}", fullmatch=True),
        content_type=st.sampled_from(["application/json", "application/x-ndjson"]),
        body=st.binary(max_size=300),
        cuts=_CUTS,
    )
    def test_request(self, target, content_type, body, cuts):
        raw = wire.format_request(target, "example:80", content_type, body)
        for parsed in _parse_both(wire.parse_request, _split(raw, cuts))[:2]:
            assert (parsed.method, parsed.target, parsed.version) == (
                "POST", target, "HTTP/1.1"
            )
            assert parsed.headers["content-type"] == content_type
            assert parsed.headers["host"] == "example:80"
            assert parsed.body == body and parsed.keep_alive

    @settings(max_examples=60, deadline=None)
    @given(
        headers=st.dictionaries(_TOKEN, _VALUE, max_size=6),
        chunks=st.lists(st.binary(min_size=1, max_size=80), max_size=5),
        trailers=st.dictionaries(_TOKEN, _VALUE, max_size=3),
        expect=st.booleans(),
        cuts=_CUTS,
    )
    def test_chunked_request(self, headers, chunks, trailers, expect, cuts):
        fields = {name.lower(): value for name, value in headers.items()}
        head = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        if expect:
            head += "Expect: 100-continue\r\n"
        raw = (
            f"PUT /x HTTP/1.1\r\n{head}Transfer-Encoding: chunked\r\n\r\n"
        ).encode()
        raw += b"".join(wire.format_chunk(chunk) for chunk in chunks)
        raw += b"0\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in trailers.items()
        ).encode() + b"\r\n"
        blocking, streamed, interim = _parse_both(
            wire.parse_request, _split(raw, cuts)
        )
        assert interim == (wire.CONTINUE if expect else b"")
        for parsed in (blocking, streamed):
            assert parsed.body == b"".join(chunks)
            for name, value in fields.items():
                assert parsed.headers[name].endswith(value.strip())

    @settings(max_examples=60, deadline=None)
    @given(
        status=st.sampled_from([200, 400, 404, 409, 431, 503]),
        body=st.one_of(st.none(), st.binary(max_size=300)),
        chunks=st.lists(st.binary(max_size=80), max_size=5),
        connection=st.sampled_from([None, "close", "keep-alive"]),
        interim=st.booleans(),
        cuts=_CUTS,
    )
    def test_reply(self, status, body, chunks, connection, interim, cuts):
        raw = wire.format_response(status, "application/json", body, connection)
        if body is None:
            raw += b"".join(wire.format_chunk(chunk) for chunk in chunks)
            raw += wire.LAST_CHUNK
        if interim:
            raw = wire.CONTINUE + raw
        for parsed in _parse_both(wire.parse_reply, _split(raw, cuts))[:2]:
            assert parsed.status == status
            assert parsed.body == (b"".join(chunks) if body is None else body)
            assert parsed.keep_alive == (connection != "close")

    def test_clean_eof_is_no_request(self):
        assert _parse_both(wire.parse_request, [])[:2] == (None, None)

    @pytest.mark.parametrize("raw", [
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
        b"POST / HTTP/1.1\r\nHost: t",
    ])
    def test_eof_inside_a_request_is_incomplete(self, raw):
        with pytest.raises(wire.IncompleteMessage):
            wire.drive(wire.parse_request(), io.BytesIO(raw))

    @pytest.mark.parametrize("raw, status", [
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET / HTTP/2.0\r\n\r\n", 505),
        (b"GET /\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0x5\r\n", 400),
        (b"GET / HTTP/1.1\r\n folded: line\r\n\r\n", 400),
    ])
    def test_malformed_requests_carry_their_status(self, raw, status):
        with pytest.raises(wire.FramingError) as caught:
            wire.drive(wire.parse_request(), io.BytesIO(raw))
        assert caught.value.status == status
