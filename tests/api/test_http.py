"""The HTTP binding: endpoints, status mapping, streaming submit."""

import gc
import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.api import ReproClient, serve_http
from repro.api.http import STATUS_BY_CODE, ConnectionPool
from repro.api.protocol import Request, Response
from repro.api.v1 import AlertEvent, AuditService

from apihelpers import make_config, make_events, make_history


@pytest.fixture()
def server():
    service = AuditService()
    service.open_session(make_config(), make_history())
    with serve_http(service).start_background() as running:
        yield running


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


def _post(url: str, body: bytes, content_type="application/json"):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, reply.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestGetEndpoints:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["tenants"] == ["a"]

    def test_stats(self, server):
        status, body = _get(server.url + "/stats")
        assert status == 200
        assert body["stats"]["open_sessions"] == 1

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_stats_export_matches_in_process_snapshot(self, server):
        # A table-mode tenant lands alongside the fixture's cache-mode one,
        # so the wire export must carry the policy-table counters — and the
        # whole body must be exactly the in-process ServiceStats snapshot,
        # not a hand-maintained projection that can drift.
        service = server.service
        service.open_session(
            make_config(tenant="tbl", budget=50.0, policy_table=True),
            make_history(),
        )
        service.submit(make_events(tenant="tbl", n=12))
        status, body = _get(server.url + "/stats")
        assert status == 200
        snapshot = service.stats().to_dict()
        assert body["stats"] == json.loads(json.dumps(snapshot))
        assert body["stats"]["table_hits"] + body["stats"]["fallbacks"] == 12
        assert body["stats"]["compile_seconds"] > 0.0
        by_tenant = {
            entry["tenant"]: entry for entry in body["stats"]["per_tenant"]
        }
        assert by_tenant["tbl"]["table_hits"] == body["stats"]["table_hits"]
        assert by_tenant["a"]["table_hits"] == 0


class TestPostEndpoints:
    def test_decide(self, server):
        event = make_events(n=1)[0]
        request = Request(op="decide", payload={"event": event.to_dict()})
        status, body = _post(
            server.url + "/v1/decide", request.to_json().encode()
        )
        assert status == 200
        response = Response.from_json(body)
        assert response.ok
        assert response.payload["decision"]["type_id"] == 1

    def test_unknown_tenant_maps_to_404(self, server):
        event = AlertEvent(tenant="ghost", type_id=1, time_of_day=0.0)
        request = Request(op="decide", payload={"event": event.to_dict()})
        status, body = _post(
            server.url + "/v1/decide", request.to_json().encode()
        )
        assert status == STATUS_BY_CODE["unknown_tenant"] == 404
        assert Response.from_json(body).error.code == "unknown_tenant"

    def test_malformed_body_maps_to_400(self, server):
        status, body = _post(server.url + "/v1/decide", b"not json at all")
        assert status == 400
        assert Response.from_json(body).error.code == "protocol_error"

    def test_mismatched_endpoint_op_rejected(self, server):
        request = Request(op="stats")
        status, body = _post(
            server.url + "/v1/decide", request.to_json().encode()
        )
        assert status == 400
        assert Response.from_json(body).error.code == "protocol_error"

    def test_unknown_endpoint_rejected(self, server):
        # Unknown paths are 404 (same as GET), not 400 — clients and load
        # balancers distinguish "no such endpoint" from "bad request".
        for path in ("/v1/frobnicate", "/v2/decide", "/decide"):
            status, body = _post(server.url + path, b"{}")
            assert status == 404, path
            assert json.loads(body)["error"]["code"] == "protocol_error"

    def test_lifecycle_over_the_wire(self, server):
        events = make_events(n=3)
        for event in events:
            request = Request(op="decide", payload={"event": event.to_dict()})
            status, _ = _post(
                server.url + "/v1/decide", request.to_json().encode()
            )
            assert status == 200
        status, body = _post(
            server.url + "/v1/close_cycle",
            Request(op="close_cycle", tenant="a").to_json().encode(),
        )
        assert status == 200
        assert Response.from_json(body).payload["report"]["alerts"] == 3
        status, body = _post(
            server.url + "/v1/close",
            Request(op="close", tenant="a").to_json().encode(),
        )
        assert status == 200
        assert Response.from_json(body).payload["stats"]["state"] == "closed"


class TestServerLifecycle:
    def test_shutdown_without_start_does_not_hang(self):
        # BaseServer.shutdown waits on an event only serve_forever sets;
        # an unstarted server must still close cleanly (and quickly).
        unstarted = serve_http(AuditService())
        unstarted.shutdown()

    def test_shutdown_is_idempotent(self):
        running = serve_http(AuditService()).start_background()
        running.shutdown()
        running.shutdown()


class TestStreamingSubmit:
    def test_ndjson_in_ndjson_out(self, server):
        from repro.api.protocol import encode_ndjson
        from repro.api.v1 import SignalDecision

        events = make_events(n=6)
        status, body = _post(
            server.url + "/v1/submit",
            encode_ndjson(events).encode(),
            content_type="application/x-ndjson",
        )
        assert status == 200
        decisions = [
            SignalDecision.from_dict(json.loads(line))
            for line in body.splitlines() if line.strip()
        ]
        assert [decision.sequence for decision in decisions] == list(range(6))

    def test_bad_event_line_rejected(self, server):
        status, body = _post(
            server.url + "/v1/submit",
            b'{"tenant": "a"}\n',
            content_type="application/x-ndjson",
        )
        assert status == 400
        assert Response.from_json(body).error.code == "protocol_error"

    def test_mid_stream_failure_emits_error_trailer(self, server):
        # An unknown tenant fails validation inside the hot path after
        # headers are sent for a large enough stream; with a small stream
        # the submit is validated atomically, so the error arrives as a
        # trailer response line.
        events = make_events(n=2) + [
            AlertEvent(tenant="ghost", type_id=1, time_of_day=90000.0)
        ]
        from repro.api.protocol import encode_ndjson

        status, body = _post(
            server.url + "/v1/submit",
            encode_ndjson(events).encode(),
            content_type="application/x-ndjson",
        )
        assert status == 200  # headers were already committed
        lines = [json.loads(line) for line in body.splitlines() if line.strip()]
        assert lines[-1]["ok"] is False
        assert lines[-1]["error"]["code"] == "unknown_tenant"


# ----------------------------------------------------------------------
# Keep-alive: one connection carries many requests
# ----------------------------------------------------------------------


def _connection(server):
    host, port = server.address
    return http.client.HTTPConnection(host, port, timeout=10)


def _exchange(connection, path, body, content_type="application/json"):
    connection.request(
        "POST", path, body=body, headers={"Content-Type": content_type}
    )
    reply = connection.getresponse()
    return reply, reply.read().decode("utf-8")


def _decide_body(event):
    return Request(op="decide", payload={"event": event.to_dict()}).to_json()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestKeepAlive:
    def test_submit_submit_decide_on_one_connection(self, server):
        from repro.api.protocol import encode_ndjson

        events = make_events(n=6)
        connection = _connection(server)
        try:
            for batch in (events[:3], events[3:5]):
                reply, body = _exchange(
                    connection, "/v1/submit", encode_ndjson(batch).encode(),
                    "application/x-ndjson",
                )
                sock = connection.sock
                assert reply.status == 200
                assert reply.getheader("Connection") is None
                assert len(body.splitlines()) == len(batch)
            reply, body = _exchange(
                connection, "/v1/decide", _decide_body(events[5]).encode()
            )
            assert reply.status == 200
            assert Response.from_json(body).payload["decision"]["sequence"] == 5
            # No silent reconnect: the same socket carried all three.
            assert connection.sock is sock
            assert server.open_connections == 1
        finally:
            connection.close()

    def test_connection_survives_a_mid_stream_failure(self, server):
        from repro.api.protocol import encode_ndjson

        events = make_events(n=3)
        ghost = AlertEvent(tenant="ghost", type_id=1, time_of_day=90000.0)
        connection = _connection(server)
        try:
            reply, body = _exchange(
                connection, "/v1/submit",
                encode_ndjson(events[:2] + [ghost]).encode(),
                "application/x-ndjson",
            )
            assert json.loads(body.splitlines()[-1])["error"]["code"] == (
                "unknown_tenant"
            )
            reply, body = _exchange(
                connection, "/v1/decide", _decide_body(events[2]).encode()
            )
            assert reply.status == 200 and Response.from_json(body).ok
        finally:
            connection.close()

    def test_rejected_bodies_are_drained(self, server):
        # Unknown endpoints and malformed envelopes must consume their body,
        # or its bytes would be parsed as the next request on the connection.
        connection = _connection(server)
        try:
            reply, _ = _exchange(connection, "/v1/frobnicate", b'{"x": 1}')
            assert reply.status == 404
            reply, _ = _exchange(connection, "/v1/decide", b"not json")
            assert reply.status == 400
            reply, body = _exchange(
                connection, "/v1/decide",
                _decide_body(make_events(n=1)[0]).encode(),
            )
            assert reply.status == 200 and Response.from_json(body).ok
        finally:
            connection.close()

    def test_a_close_is_announced(self, server):
        connection = _connection(server)
        try:
            connection.request(
                "POST", "/v1/decide",
                body=_decide_body(make_events(n=1)[0]).encode(),
                headers={"Content-Type": "application/json",
                         "Connection": "close"},
            )
            reply = connection.getresponse()
            reply.read()
            assert reply.status == 200
            assert reply.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_sequential_decides_do_not_stall(self, server):
        # Headers and body leave in separate writes; with Nagle's algorithm
        # on, each keep-alive reply would wait ~40 ms for the client's
        # delayed ACK (>= 0.8 s for 20 decides).
        events = make_events(n=21)
        connection = _connection(server)
        try:
            _exchange(connection, "/v1/decide", _decide_body(events[0]).encode())
            started = time.perf_counter()
            for event in events[1:]:
                reply, _ = _exchange(
                    connection, "/v1/decide", _decide_body(event).encode()
                )
                assert reply.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.5, f"20 keep-alive decides took {elapsed:.3f}s"

    def test_shutdown_closes_kept_alive_connections(self):
        running = serve_http(AuditService()).start_background()
        connection = _connection(running)
        try:
            _exchange(
                connection, "/v1/stats", Request(op="stats").to_json().encode()
            )
            assert running.open_connections == 1
            running.shutdown()
            assert _wait_for(lambda: running.open_connections == 0)
        finally:
            connection.close()
            running.shutdown()


class TestConnectionPool:
    def test_one_connection_per_thread(self, server):
        pool = ConnectionPool(timeout=10)
        body = Request(op="stats").to_json().encode()

        def post():
            with pool.post(server.url, "/v1/stats", body,
                           "application/json") as reply:
                assert reply.status == 200
                reply.read()

        try:
            for _ in range(3):
                post()
            assert server.open_connections == 1
            worker = threading.Thread(target=lambda: [post(), post()])
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert server.open_connections == 2
        finally:
            pool.close()
        assert _wait_for(lambda: server.open_connections == 0)

    def test_concurrent_threads_keep_their_own_connections(self, server):
        # More threads than cores, with a short switch interval so the
        # pool's shared bookkeeping interleaves: every reply must be the
        # thread's own, and close() must still find every connection.
        pool = ConnectionPool(timeout=10)
        errors: list[BaseException] = []
        threads_n, rounds = 8, 15

        def run():
            body = Request(op="healthz").to_json().encode()
            try:
                for _ in range(rounds):
                    with pool.post(server.url, "/v1/healthz", body,
                                   "application/json") as reply:
                        assert json.loads(reply.read())["ok"]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert errors == []
        assert _wait_for(lambda: server.open_connections == 0)

    def test_unread_reply_is_not_reused(self, server):
        pool = ConnectionPool(timeout=10)
        body = Request(op="stats").to_json().encode()
        try:
            with pool.post(server.url, "/v1/stats", body,
                           "application/json") as reply:
                assert reply.status == 200  # body left unread
            with pool.post(server.url, "/v1/stats", body,
                           "application/json") as reply:
                assert json.loads(reply.read())["ok"]
        finally:
            pool.close()

    def test_server_restarted_on_the_same_port_gets_a_fresh_connection(self):
        # The dead server's socket is at EOF; writing a request into it
        # could lose the request mid-send. The pool must notice before
        # sending and connect anew, so the restarted server is reached.
        first = serve_http(AuditService()).start_background()
        host, port = first.address
        pool = ConnectionPool(timeout=10)
        body = Request(op="healthz").to_json().encode()
        try:
            with pool.post(first.url, "/v1/healthz", body,
                           "application/json") as reply:
                assert json.loads(reply.read())["payload"]["tenants"] == []
            first.shutdown()
            service = AuditService()
            service.open_session(make_config(tenant="b"), make_history())
            second = serve_http(service, host=host, port=port)
            with second.start_background():
                with pool.post(second.url, "/v1/healthz", body,
                               "application/json") as reply:
                    payload = json.loads(reply.read())["payload"]
                assert payload["tenants"] == ["b"]
                assert second.open_connections == 1
        finally:
            pool.close()
            first.shutdown()

    def test_a_new_url_gets_its_own_connection(self, server):
        pool = ConnectionPool(timeout=10)
        body = Request(op="healthz").to_json().encode()
        other_service = AuditService()
        other_service.open_session(make_config(tenant="b"), make_history())
        try:
            with serve_http(other_service).start_background() as other:
                for url, tenants in (
                    (server.url, ["a"]), (other.url, ["b"]), (server.url, ["a"])
                ):
                    with pool.post(url, "/v1/healthz", body,
                                   "application/json") as reply:
                        payload = json.loads(reply.read())["payload"]
                    assert payload["tenants"] == tenants
                assert server.open_connections == 1
                assert other.open_connections == 1
        finally:
            pool.close()

    def test_refused_connect_surfaces_as_connection_refused(self):
        running = serve_http(AuditService()).start_background()
        url = running.url
        pool = ConnectionPool(timeout=10)
        body = Request(op="healthz").to_json().encode()
        try:
            with pool.post(url, "/v1/healthz", body,
                           "application/json") as reply:
                reply.read()
            running.shutdown()
            with pytest.raises(ConnectionRefusedError):
                with pool.post(url, "/v1/healthz", body,
                               "application/json") as reply:
                    reply.read()
        finally:
            pool.close()
            running.shutdown()


class TestClientRelease:
    def _use(self, url):
        client = ReproClient.connect(url)
        client.healthz()
        worker = threading.Thread(target=client.stats)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return client

    @staticmethod
    def _resource_warnings(action):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            action()
            gc.collect()
        return [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_close_releases_every_threads_connection(self, server):
        def run():
            client = self._use(server.url)
            assert server.open_connections == 2
            client.close()
            assert _wait_for(lambda: server.open_connections == 0)

        assert self._resource_warnings(run) == []

    def test_context_manager_exit_releases_connections(self, server):
        def run():
            with ReproClient.connect(server.url) as client:
                client.healthz()
                assert server.open_connections == 1
            assert _wait_for(lambda: server.open_connections == 0)

        assert self._resource_warnings(run) == []

    def test_an_unclosed_client_is_what_leaks(self, server):
        # The control for the two tests above: dropping a client without
        # close() leaves its sockets for the garbage collector to find.
        def run():
            self._use(server.url)

        assert self._resource_warnings(run)

    def test_submit_and_decide_share_one_connection(self, server):
        events = make_events(n=12)
        with ReproClient.connect(server.url) as client:
            client.submit(events[:5])
            client.submit(events[5:10])
            client.decide(events[10])
            client.submit(events[11:])
            assert server.open_connections == 1

    def test_closed_client_reconnects_on_next_use(self, server):
        with ReproClient.connect(server.url) as client:
            client.healthz()
            client.close()
            assert client.healthz()["tenants"] == ["a"]
