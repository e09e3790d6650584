"""The tenant-sharded multi-process serving tier.

:class:`AuditCluster` is an asyncio front door speaking the exact wire
protocol of :mod:`repro.api.http`, dispatching each request to one of N
worker processes (each a whole durable :class:`~repro.api.v1.AuditService`
plus HTTP server — see :mod:`repro.api.supervisor`) sharded by **tenant**
via the consistent-hash ring of :mod:`repro.api.hashring`:

* **Routing** — per-tenant operations (``open``/``observe``/``decide``/
  ``close_cycle``/``report``/``close``) forward verbatim to the tenant's
  shard, so per-tenant ordering, sequence numbers, and determinism are
  exactly the single-process story. ``submit`` streams fan **out** per
  shard (concurrently) and fan back in input order; ``stats`` and
  ``healthz`` fan **in** across every shard
  (:meth:`~repro.api.v1.types.ServiceStats.merge`).
* **Supervision** — a dead worker is restarted on the next request routed
  to it (WAL replay restores its state first); requests that provably
  never reached a worker are retried transparently, as are idempotent
  requests (``decide`` with a ``seq``/``idempotency_key``, reads) after a
  mid-flight crash. Non-idempotent requests that *may* have been
  partially processed surface ``worker_unavailable`` instead of guessing.
* **Rebalancing** — :meth:`AuditCluster.add_worker` /
  :meth:`AuditCluster.remove_worker` pause routing, drain in-flight
  requests, gracefully stop the affected shards, move the per-tenant
  write-ahead logs to their new owners, and restart — the new owner
  replays the moved WALs, so the handoff carries decisions, cycle state,
  budget, and the idempotency window with it.

A cluster URL is just another endpoint for
:class:`~repro.api.client.ReproClient` — clients cannot tell the router
from a single process (``tests/api/test_cluster_equivalence.py`` holds
the tier to bit-identical per-tenant behavior).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
import urllib.parse
from http import HTTPStatus
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.errors import ClusterError, ProtocolError, WorkerUnavailableError
from repro.api.hashring import DEFAULT_REPLICAS, HashRing
from repro.api.http import STATUS_BY_CODE, ConnectionPool
from repro.api.protocol import (
    OP_CLOSE,
    OP_CLOSE_CYCLE,
    OP_DECIDE,
    OP_HEALTHZ,
    OP_OBSERVE,
    OP_OPEN,
    OP_REPORT,
    OP_STATS,
    OP_SUBMIT,
    OPS,
    PROTOCOL_VERSION,
    Response,
    decode_ndjson,
    encode_ndjson,
)
from repro.api.supervisor import WorkerSpec, WorkerSupervisor
from repro.api.v1.types import AlertEvent, ServiceStats

#: Forward attempts per request (first try + retries after revival).
MAX_FORWARD_ATTEMPTS = 4

#: Seconds a forwarded request may take end to end (solver calls under
#: ``close_cycle`` can be slow; this is a safety net, not a pacing knob).
DEFAULT_REQUEST_TIMEOUT = 600.0

#: Operations safe to retry after a *mid-flight* worker crash: reads, or
#: ``decide`` when the request carries a seq/idempotency key (the WAL
#: journals before the reply, so the revived worker replays instead of
#: double-charging). Everything else only retries when the connection
#: was refused — provably never sent.
_ALWAYS_RETRY_SAFE = (OP_HEALTHZ, OP_STATS, OP_REPORT)


def _error_body(op: str, exc: BaseException) -> tuple[int, bytes]:
    response = Response.failure(op, exc)
    status = int(STATUS_BY_CODE.get(
        response.error.code, HTTPStatus.INTERNAL_SERVER_ERROR
    ))
    return status, (response.to_json()).encode("utf-8")


class AuditCluster:
    """N shard workers behind one protocol-speaking asyncio router.

    ``workers`` is a count (shards named ``shard-0..N-1``) or explicit
    worker ids. Each worker journals to ``<state_dir>/<worker_id>/``;
    without a ``state_dir`` the cluster keeps a temporary directory for
    its lifetime (the tier is always durable — crash recovery and shard
    handoff both ride on the WALs).

    Use :func:`serve_cluster` to construct, then ``start_background()``
    (tests, benchmarks) or ``serve_forever()`` (the CLI's
    ``repro serve --cluster``).
    """

    def __init__(
        self,
        workers: int | list[str] | tuple[str, ...] = 2,
        state_dir: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = DEFAULT_REPLICAS,
        fsync: bool = False,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_restarts: int | None = None,
        verbose: bool = False,
    ) -> None:
        if isinstance(workers, int):
            if workers < 1:
                raise ClusterError(f"need at least 1 worker, got {workers}")
            worker_ids = [f"shard-{index}" for index in range(workers)]
        else:
            worker_ids = list(workers)
        if not worker_ids:
            raise ClusterError("need at least 1 worker id")
        self._tempdir: TemporaryDirectory | None = None
        if state_dir is None:
            self._tempdir = TemporaryDirectory(prefix="repro-cluster-")
            state_dir = self._tempdir.name
        self._state_root = Path(state_dir)
        self._state_root.mkdir(parents=True, exist_ok=True)
        self._host = host
        self._port = port
        self._fsync = fsync
        self._request_timeout = request_timeout
        self._verbose = verbose
        self._ring = HashRing(worker_ids, replicas=replicas)
        # Router → worker connections, one per forwarding thread and
        # worker URL (a revived worker's new URL gets a new connection).
        self._pool = ConnectionPool(request_timeout)
        supervisor_kwargs = {}
        if max_restarts is not None:
            supervisor_kwargs["max_restarts"] = max_restarts
        self._supervisor = WorkerSupervisor(
            [self._spec(worker_id) for worker_id in worker_ids],
            **supervisor_kwargs,
        )
        # Routing gate: cleared during a rebalance so new requests park
        # while in-flight ones drain; plain threading primitives because
        # forwards run on to_thread workers anyway.
        self._gate = threading.Event()
        self._gate.set()
        self._inflight = 0
        self._count_lock = threading.Lock()
        self._admin_lock = threading.RLock()
        # Router lifecycle.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_async: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._bound: tuple[str, int] | None = None
        self._ready_path: Path | None = None
        self._workers_started = False
        # Open client connections and their handler tasks, for shutdown.
        self._clients: dict[asyncio.StreamWriter, asyncio.Task] = {}

    def _spec(self, worker_id: str) -> WorkerSpec:
        return WorkerSpec(
            worker_id=worker_id,
            state_dir=str(self._state_root / worker_id),
            host=self._host,
            fsync=self._fsync,
        )

    # ------------------------------------------------------------------
    # Topology introspection
    # ------------------------------------------------------------------

    @property
    def ring(self) -> HashRing:
        """The live consistent-hash ring (read it, don't mutate it)."""
        return self._ring

    @property
    def supervisor(self) -> WorkerSupervisor:
        """The worker supervisor (chaos tests kill through this)."""
        return self._supervisor

    @property
    def worker_ids(self) -> tuple[str, ...]:
        """Shard ids currently on the ring."""
        return self._ring.workers

    def owner_of(self, tenant: str) -> str:
        """The shard id serving ``tenant``."""
        return self._ring.owner(tenant)

    def shard_dir(self, worker_id: str) -> Path:
        """The shard's state directory (WALs, worker.pid, worker.url)."""
        return self._state_root / worker_id

    @property
    def url(self) -> str:
        """The router's base URL (valid once serving)."""
        if self._bound is None:
            raise ClusterError("the cluster router is not serving yet")
        host, port = self._bound
        return f"http://{host}:{port}"

    def write_ready_file(self, path: str | Path) -> None:
        """Write the router URL to ``path`` once bound (CI orchestration)."""
        self._ready_path = Path(path)
        if self._bound is not None:
            self._ready_path.write_text(self.url + "\n", encoding="utf-8")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_workers(self) -> dict[str, str]:
        """Boot every shard worker (idempotent); returns their URLs."""
        urls = self._supervisor.start_all()
        self._workers_started = True
        return urls

    def start_background(self) -> "AuditCluster":
        """Workers up, router accepting on a daemon thread; returns self."""
        self.start_workers()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise ClusterError("cluster router failed to bind within 60s")
        return self

    def serve_forever(self) -> None:
        """Workers up, router accepting on this thread; blocks."""
        self.start_workers()
        asyncio.run(self._main())

    def join(self, timeout: float | None = None) -> bool:
        """Wait for a background router thread; True once it has exited."""
        if self._thread is None:
            return True
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()

    def shutdown(self) -> None:
        """Stop the router (if running) and every worker."""
        if self._loop is not None and self._stop_async is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:
                pass  # the loop already finished
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._pool.close()
        self._supervisor.stop_all()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "AuditCluster":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._bound = server.sockets[0].getsockname()[:2]
        if self._ready_path is not None:
            self._ready_path.write_text(self.url + "\n", encoding="utf-8")
        self._ready.set()
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            await self._close_clients()
            await server.wait_closed()

    async def _close_clients(self) -> None:
        """End every kept-alive client connection before the loop stops.

        Closing the transports hands each connection's handler an EOF, so
        it returns on its own instead of being cancelled mid-read when
        ``asyncio.run`` tears the loop down.
        """
        handlers = list(self._clients.values())
        for writer in list(self._clients):
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=10.0)

    # ------------------------------------------------------------------
    # HTTP front door (hand-rolled HTTP/1.1 over asyncio streams)
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._clients[writer] = asyncio.current_task()
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                close = headers.get("connection", "").lower() == "close"
                try:
                    status, ctype, payload = await self._route(
                        method, path, body
                    )
                except Exception as exc:  # router bug or worker loss
                    status, payload = _error_body("healthz", exc)
                    ctype = "application/json"
                head = (
                    f"HTTP/1.1 {status} "
                    f"{HTTPStatus(status).phrase}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n"
                    "\r\n"
                ).encode("ascii")
                writer.write(head + payload)
                await writer.drain()
                if close:
                    break
        except (
            asyncio.IncompleteReadError, ConnectionError, ValueError
        ):
            pass  # malformed request or client went away
        finally:
            self._clients.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line:
            return None
        method, path, _version = request_line.decode("ascii").split()
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if headers.get("transfer-encoding", "").lower() == "chunked":
            parts = []
            while True:
                size_line = await reader.readline()
                size = int(size_line.strip().split(b";")[0], 16)
                if size == 0:
                    await reader.readline()
                    break
                parts.append(await reader.readexactly(size))
                await reader.readexactly(2)
            body = b"".join(parts)
        else:
            length = int(headers.get("content-length", 0))
            if length > 0:
                body = await reader.readexactly(length)
        return method, path, headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes]:
        await self._enter()
        try:
            if method == "GET" and path == "/healthz":
                payload = await asyncio.to_thread(self._health_fanin)
                status = 200 if payload["ok"] else 503
                return status, "application/json", _dump(payload)
            if method == "GET" and path == "/stats":
                merged = await asyncio.to_thread(self._stats_fanin)
                return 200, "application/json", _dump(
                    {"stats": merged.to_dict()}
                )
            if method == "GET" and path == "/cluster":
                return 200, "application/json", _dump(self._topology())
            op = self._path_op(path) if method == "POST" else None
            if op is None:
                _status, payload = _error_body("healthz", ProtocolError(
                    f"no such endpoint {method} {path!r}; "
                    f"POST /v1/<op> with op in {OPS}"
                ))
                return int(HTTPStatus.NOT_FOUND), "application/json", payload
            if op == OP_SUBMIT:
                return await self._submit_fanout(body)
            if op in (OP_STATS, OP_HEALTHZ):
                return await asyncio.to_thread(self._envelope_fanin, op)
            worker_id, retry_safe = self._routing_target(op, body)
            status, ctype, payload = await asyncio.to_thread(
                self._forward,
                worker_id,
                f"/v1/{op}",
                body,
                retry_safe,
                op,
            )
            return status, ctype, payload
        finally:
            self._exit()

    async def _enter(self) -> None:
        while True:
            if not self._gate.is_set():
                await asyncio.to_thread(self._gate.wait)
            with self._count_lock:
                if self._gate.is_set():
                    self._inflight += 1
                    return

    def _exit(self) -> None:
        with self._count_lock:
            self._inflight -= 1

    @staticmethod
    def _path_op(path: str) -> str | None:
        prefix = "/v1/"
        if not path.startswith(prefix):
            return None
        op = path[len(prefix):].strip("/")
        return op if op in OPS else None

    def _routing_target(self, op: str, body: bytes) -> tuple[str, bool]:
        """The shard for this request plus its retry classification.

        Parsing here is deliberately lenient: a malformed envelope still
        forwards (to the ring's first worker), so the worker's protocol
        layer produces the exact same error a single process would.
        """
        tenant = None
        retry_safe = op in _ALWAYS_RETRY_SAFE
        try:
            doc = json.loads(body.decode("utf-8"))
            payload = doc.get("payload") or {}
            if op == OP_OPEN:
                if "config" in payload:
                    tenant = payload["config"].get("tenant")
                elif "scenario" in payload:
                    tenant = payload["scenario"].get("name")
            elif op in (OP_OBSERVE, OP_DECIDE):
                tenant = (payload.get("event") or {}).get("tenant")
            elif op in (OP_CLOSE_CYCLE, OP_REPORT, OP_CLOSE):
                tenant = doc.get("tenant")
            if op == OP_DECIDE and (
                doc.get("seq") is not None
                or doc.get("idempotency_key") is not None
            ):
                retry_safe = True
        except Exception:
            pass
        if isinstance(tenant, str) and tenant:
            return self._ring.owner(tenant), retry_safe
        return self._ring.workers[0], retry_safe

    # ------------------------------------------------------------------
    # Forwarding with supervision-aware retry
    # ------------------------------------------------------------------

    def _forward(
        self,
        worker_id: str,
        path: str,
        body: bytes,
        retry_safe: bool,
        op: str,
        content_type: str = "application/json",
    ) -> tuple[int, str, bytes]:
        """POST to one shard; revive-and-retry per the idempotency rules."""
        last_exc: BaseException | None = None
        for attempt in range(MAX_FORWARD_ATTEMPTS):
            try:
                url = self._supervisor.ensure(worker_id)
            except WorkerUnavailableError as exc:
                status, payload = _error_body(op, exc)
                return status, "application/json", payload
            try:
                with self._pool.post(url, path, body, content_type) as reply:
                    # Worker-produced error envelopes pass through verbatim.
                    return (
                        reply.status,
                        reply.headers.get("Content-Type", "application/json"),
                        reply.read(),
                    )
            except (http.client.HTTPException, OSError) as exc:
                last_exc = exc
                # Only a refused connect proves nothing was sent: the pool
                # never writes to a socket whose peer has gone.
                never_sent = isinstance(exc, ConnectionRefusedError)
                if not (never_sent or retry_safe):
                    break
                # The worker died under us; ensure() on the next loop
                # iteration restarts it (WAL replay first). A breath here
                # lets the OS reap the dead process.
                time.sleep(0.05 * (attempt + 1))
        assert last_exc is not None
        status, payload = _error_body(op, WorkerUnavailableError(
            f"shard {worker_id!r} failed mid-request and "
            f"{'retries were exhausted' if retry_safe else f'operation {op!r} is not retry-safe'}"
            f": {last_exc}"
        ))
        return status, "application/json", payload

    # ------------------------------------------------------------------
    # submit: fan out per shard, fan back in input order
    # ------------------------------------------------------------------

    async def _submit_fanout(self, body: bytes) -> tuple[int, str, bytes]:
        try:
            events = tuple(
                decode_ndjson(body.decode("utf-8"), AlertEvent)
            )
        except Exception as exc:
            status, payload = _error_body(OP_SUBMIT, exc)
            return status, "application/json", payload
        if not events:
            return 200, "application/x-ndjson", b""
        owners = [self._ring.owner(event.tenant) for event in events]
        groups: dict[str, list[AlertEvent]] = {}
        for event, owner in zip(events, owners):
            groups.setdefault(owner, []).append(event)

        async def _one(worker_id: str, group: list[AlertEvent]):
            status, _ctype, payload = await asyncio.to_thread(
                self._forward,
                worker_id,
                "/v1/submit",
                encode_ndjson(group).encode("utf-8"),
                False,  # decisions advance session state: refused-only retry
                OP_SUBMIT,
                "application/x-ndjson",
            )
            lines = payload.decode("utf-8").splitlines()
            if status != 200 and len(lines) == 1:
                # Pre-stream failure: one envelope, zero decisions.
                return iter(()), lines[0]
            if len(lines) < len(group):
                trailer = lines[-1] if lines else Response.failure(
                    OP_SUBMIT,
                    WorkerUnavailableError(
                        f"shard {worker_id!r} truncated its decision stream"
                    ),
                ).to_json()
                return iter(lines[:-1] if lines else []), trailer
            return iter(lines), None

        results = await asyncio.gather(*(
            _one(worker_id, group) for worker_id, group in groups.items()
        ))
        streams = {
            worker_id: result
            for worker_id, result in zip(groups, results)
        }
        out: list[str] = []
        for owner in owners:
            iterator, trailer = streams[owner]
            line = next(iterator, None)
            if line is None:
                # This shard's stream ended early: surface its trailer at
                # the position the next decision was due, then stop — the
                # same halt-at-first-error shape a single process streams.
                if trailer is not None:
                    out.append(trailer)
                break
            out.append(line)
        payload = ("\n".join(out) + "\n").encode("utf-8") if out else b""
        return 200, "application/x-ndjson", payload

    # ------------------------------------------------------------------
    # stats / healthz: fan in across every shard
    # ------------------------------------------------------------------

    def _stats_fanin(self) -> ServiceStats:
        parts: list[ServiceStats] = []
        for worker_id in self._ring.workers:
            status, _ctype, payload = self._forward(
                worker_id,
                "/v1/stats",
                _dump({"op": OP_STATS, "version": PROTOCOL_VERSION}),
                True,
                OP_STATS,
            )
            doc = json.loads(payload)
            if not doc.get("ok"):
                raise WorkerUnavailableError(
                    f"shard {worker_id!r} stats failed: {doc.get('error')}"
                )
            parts.append(ServiceStats.from_dict(doc["payload"]["stats"]))
        return ServiceStats.merge(tuple(parts))

    def _health_fanin(self) -> dict:
        tenants: list[str] = []
        workers: dict[str, dict] = {}
        all_ok = True
        for worker_id in self._ring.workers:
            entry: dict = {
                "alive": self._supervisor.is_alive(worker_id),
                "restarts": self._supervisor.restarts(worker_id),
                "pid": self._supervisor.pid(worker_id),
            }
            try:
                status, _ctype, payload = self._forward(
                    worker_id,
                    "/v1/healthz",
                    _dump({"op": OP_HEALTHZ, "version": PROTOCOL_VERSION}),
                    True,
                    OP_HEALTHZ,
                )
                doc = json.loads(payload)
                ok = bool(doc.get("ok"))
                if ok:
                    tenants.extend(doc["payload"]["tenants"])
                    entry["alive"] = True
                    entry["pid"] = self._supervisor.pid(worker_id)
                    entry["restarts"] = self._supervisor.restarts(worker_id)
                entry["ok"] = ok
            except Exception as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
            all_ok = all_ok and entry["ok"]
            workers[worker_id] = entry
        return {
            "ok": all_ok,
            "protocol": PROTOCOL_VERSION,
            "tenants": tenants,
            "cluster": True,
            "workers": workers,
        }

    def _envelope_fanin(self, op: str) -> tuple[int, str, bytes]:
        try:
            if op == OP_STATS:
                merged = self._stats_fanin()
                response = Response.success(
                    OP_STATS, {"stats": merged.to_dict()}
                )
            else:
                health = self._health_fanin()
                response = Response.success(OP_HEALTHZ, health)
            return 200, "application/json", response.to_json().encode("utf-8")
        except Exception as exc:
            status, payload = _error_body(op, exc)
            return status, "application/json", payload

    def _topology(self) -> dict:
        return {
            "workers": [
                {
                    "id": worker_id,
                    "alive": self._supervisor.is_alive(worker_id),
                    "pid": self._supervisor.pid(worker_id),
                    "restarts": self._supervisor.restarts(worker_id),
                    "state_dir": str(self.shard_dir(worker_id)),
                }
                for worker_id in self._ring.workers
            ],
            "ring": {
                "replicas": self._ring.replicas,
                "workers": list(self._ring.workers),
            },
        }

    # ------------------------------------------------------------------
    # Rebalancing: WAL handoff on membership change
    # ------------------------------------------------------------------

    def add_worker(self, worker_id: str | None = None) -> str:
        """Grow the ring by one shard; moved tenants' WALs hand off.

        Routing pauses, in-flight requests drain, every shard losing a
        tenant stops gracefully, the moved tenants' write-ahead logs move
        into the new shard's directory, and everyone restarts — the new
        worker replays the moved logs, so budgets, cycle state, and the
        idempotency window arrive intact. Returns the new worker's id.
        """
        with self._admin_lock:
            if worker_id is None:
                worker_id = self._next_worker_id()
            new_ring = self._ring.with_worker(worker_id)
            self._rebalance(new_ring, added=worker_id, removed=None)
            return worker_id

    def remove_worker(self, worker_id: str) -> None:
        """Shrink the ring by one shard; its tenants' WALs hand off."""
        with self._admin_lock:
            if len(self._ring) == 1:
                raise ClusterError("cannot remove the last worker")
            new_ring = self._ring.without_worker(worker_id)
            self._rebalance(new_ring, added=None, removed=worker_id)

    def _next_worker_id(self) -> str:
        taken = set(self._ring.workers)
        index = len(taken)
        while f"shard-{index}" in taken:
            index += 1
        return f"shard-{index}"

    def _shard_tenants(self, worker_id: str) -> list[str]:
        """Tenants with a WAL in this shard's directory (open or closed)."""
        from repro.logstore.wal import WAL_SUFFIX

        directory = self.shard_dir(worker_id)
        if not directory.is_dir():
            return []
        return [
            urllib.parse.unquote(path.name[: -len(WAL_SUFFIX)])
            for path in sorted(directory.glob(f"*{WAL_SUFFIX}"))
        ]

    def _rebalance(
        self, new_ring: HashRing, added: str | None, removed: str | None
    ) -> None:
        # 1. Pause routing and drain in-flight requests.
        self._gate.clear()
        try:
            while True:
                with self._count_lock:
                    if self._inflight == 0:
                        break
                time.sleep(0.005)
            # 2. Plan the moves off the WAL files on disk — the one
            # source of truth that covers closed sessions too.
            moves: list[tuple[str, str, str]] = []  # (tenant, src, dst)
            for source in self._ring.workers:
                for tenant in self._shard_tenants(source):
                    destination = new_ring.owner(tenant)
                    if destination != source:
                        moves.append((tenant, source, destination))
            affected = {source for _t, source, _d in moves}
            affected |= {dest for _t, _s, dest in moves if dest != added}
            if removed is not None:
                affected.add(removed)
            # 3. Stop every shard whose directory changes hands (SIGTERM;
            # WAL appends flush per record, so nothing is in flight).
            for worker_id in sorted(affected):
                self._supervisor.stop(worker_id)
            # 4. Move the WAL files to their new owners.
            from repro.logstore.wal import WAL_SUFFIX

            for tenant, source, destination in moves:
                name = urllib.parse.quote(tenant, safe="") + WAL_SUFFIX
                target_dir = self.shard_dir(destination)
                target_dir.mkdir(parents=True, exist_ok=True)
                (self.shard_dir(source) / name).rename(target_dir / name)
            # 5. Apply membership and restart: the new owner replays the
            # moved WALs on boot, the shrunken sources replay what stayed.
            if added is not None:
                self.shard_dir(added).mkdir(parents=True, exist_ok=True)
                self._supervisor.add(self._spec(added))
            if removed is not None:
                self._supervisor.remove(removed)
            for worker_id in sorted(affected - {removed}):
                self._supervisor.start(worker_id)
            self._ring = new_ring
        finally:
            # 6. Resume routing.
            self._gate.set()


def _dump(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def serve_cluster(
    workers: int | list[str] | tuple[str, ...] = 2,
    state_dir: str | Path | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    replicas: int = DEFAULT_REPLICAS,
    fsync: bool = False,
    verbose: bool = False,
    **kwargs,
) -> AuditCluster:
    """Build a tenant-sharded cluster (unstarted), mirroring ``serve_http``.

    ::

        with serve_cluster(workers=4, state_dir="state").start_background() as cluster:
            client = ReproClient.connect(cluster.url)
    """
    return AuditCluster(
        workers=workers,
        state_dir=state_dir,
        host=host,
        port=port,
        replicas=replicas,
        fsync=fsync,
        verbose=verbose,
        **kwargs,
    )


__all__ = [
    "DEFAULT_REQUEST_TIMEOUT",
    "MAX_FORWARD_ATTEMPTS",
    "AuditCluster",
    "serve_cluster",
]
