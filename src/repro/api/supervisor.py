"""Worker processes and their supervision for the sharded serving tier.

One **worker** is a whole single-process serving plane pinned to a shard:
a durable :class:`~repro.api.v1.AuditService` journaling to the shard's
own ``state_dir`` plus the stdlib HTTP server
(:func:`repro.api.http.serve_http`) on an ephemeral loopback port. The
:class:`WorkerSupervisor` spawns workers as fresh interpreter processes
(``multiprocessing`` *spawn* context — no inherited locks or sockets),
learns each bound URL over a pipe, and keeps them alive:

* **Crash recovery** — a worker found dead (or failing its health check)
  is restarted; on boot a worker always replays any write-ahead logs in
  its shard directory, so a SIGKILL'd worker comes back with exactly the
  state it had acknowledged (see ``tests/api/test_cluster_chaos.py``).
* **Bounded restarts with backoff** — restarts within
  ``restart_window`` seconds are counted; past ``max_restarts`` the
  shard is declared down and requests fail fast with
  :class:`~repro.errors.WorkerUnavailableError` instead of looping.
  Consecutive restarts sleep an exponential backoff first.
* **Operational breadcrumbs** — each worker writes ``worker.pid`` and
  ``worker.url`` into its shard directory, so shell orchestration (the
  CI chaos smoke) can SIGKILL a real process and watch it come back.

The supervisor is transport-agnostic glue: routing lives in
:mod:`repro.api.cluster`, durability in the shard WALs. Everything here
is thread-safe behind one lock, so the router's event loop, its health
monitor, and on-demand revives can all call in concurrently; the
introspection the event loop calls never waits on that lock.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ClusterError, WorkerUnavailableError

#: Seconds a freshly spawned worker gets to bind and report its URL.
DEFAULT_START_TIMEOUT = 60.0

#: Restart budget: restarts allowed within the sliding restart window.
DEFAULT_MAX_RESTARTS = 5

#: The sliding window (seconds) the restart budget applies to.
DEFAULT_RESTART_WINDOW = 60.0

#: First-restart backoff (seconds); doubles per consecutive restart.
DEFAULT_BACKOFF_BASE = 0.05

#: Backoff ceiling (seconds).
DEFAULT_BACKOFF_CAP = 2.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to (re)spawn one shard's worker process."""

    worker_id: str
    state_dir: str
    host: str = "127.0.0.1"
    fsync: bool = False

    def __post_init__(self) -> None:
        if not self.worker_id or not isinstance(self.worker_id, str):
            raise ClusterError("worker_id must be a non-empty string")


def _worker_entry(spec_payload: dict, conn) -> None:
    """The spawned worker process: restore the shard, bind, serve.

    Runs in a fresh interpreter (spawn context). Any WAL already in the
    shard directory is replayed before the socket binds — a restarted
    worker never serves a request until its state is back — then the
    bound URL travels to the supervisor over ``conn``.
    """
    from repro.logstore.wal import WAL_SUFFIX
    from repro.api.http import serve_http
    from repro.api.v1 import AuditService

    state_dir = Path(spec_payload["state_dir"])
    state_dir.mkdir(parents=True, exist_ok=True)
    if any(state_dir.glob(f"*{WAL_SUFFIX}")):
        service = AuditService.restore(state_dir, fsync=spec_payload["fsync"])
    else:
        service = AuditService(
            state_dir=state_dir, fsync=spec_payload["fsync"]
        )
    server = serve_http(service, host=spec_payload["host"], port=0)

    # A graceful stop (rebalance handoff, cluster shutdown) must release
    # the socket promptly; WAL appends are already flushed per record,
    # so SIGTERM and SIGKILL both leave a replayable log.
    def _terminate(_signum, _frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    # A terminal Ctrl-C hits the whole foreground process group; shutdown
    # belongs to the supervisor (SIGTERM), not the tty.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    (state_dir / "worker.pid").write_text(f"{os.getpid()}\n", encoding="utf-8")
    (state_dir / "worker.url").write_text(server.url + "\n", encoding="utf-8")
    conn.send(server.url)
    conn.close()
    try:
        server.serve_forever()
    finally:
        server.shutdown()


class _WorkerHandle:
    """One shard's live process, URL, and restart accounting."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.process = None
        self.url: str | None = None
        self.restarts = 0
        self.restart_times: list[float] = []
        self.failed_reason: str | None = None

    @property
    def alive(self) -> bool:
        process = self.process
        return process is not None and process.is_alive()


class WorkerSupervisor:
    """Spawns, watches, restarts, and stops the shard workers."""

    def __init__(
        self,
        specs: list[WorkerSpec] | tuple[WorkerSpec, ...],
        start_timeout: float = DEFAULT_START_TIMEOUT,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        restart_window: float = DEFAULT_RESTART_WINDOW,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        health_timeout: float = 5.0,
    ) -> None:
        if not specs:
            raise ClusterError("a supervisor needs at least one worker spec")
        ids = [spec.worker_id for spec in specs]
        if len(ids) != len(set(ids)):
            raise ClusterError(f"duplicate worker ids: {ids}")
        self._handles: dict[str, _WorkerHandle] = {
            spec.worker_id: _WorkerHandle(spec) for spec in specs
        }
        self._start_timeout = start_timeout
        self._max_restarts = max_restarts
        self._restart_window = restart_window
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._health_timeout = health_timeout
        self._lock = threading.RLock()
        self._context = multiprocessing.get_context("spawn")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def worker_ids(self) -> tuple[str, ...]:
        """Supervised shard ids, in spec order."""
        with self._lock:
            return tuple(self._handles)

    def spec(self, worker_id: str) -> WorkerSpec:
        """The spawn spec of one worker."""
        return self._handle(worker_id).spec

    def restarts(self, worker_id: str) -> int:
        """How many times this worker has been restarted."""
        return self._handle(worker_id).restarts

    def is_alive(self, worker_id: str) -> bool:
        """Whether the worker's process is currently running.

        Reads without the lock, so it never waits out a restart.
        """
        return self._handle(worker_id).alive

    def pid(self, worker_id: str) -> int | None:
        """The worker's process id (None before the first start)."""
        process = self._handle(worker_id).process
        return process.pid if process is not None else None

    def url(self, worker_id: str) -> str | None:
        """The worker's last bound URL (None while it is stopped)."""
        return self._handle(worker_id).url

    def live_url(self, worker_id: str) -> str | None:
        """The worker's URL if it is serving right now, without waiting.

        None means :meth:`ensure` must run first: the worker is dead or
        down, or another thread holds the lock (a restart in progress).
        The router's event loop calls this before every forward.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            handle = self._handle(worker_id)
            if handle.failed_reason is None and handle.alive:
                return handle.url
            return None
        finally:
            self._lock.release()

    def _handle(self, worker_id: str) -> _WorkerHandle:
        try:
            return self._handles[worker_id]
        except KeyError:
            raise ClusterError(
                f"unknown worker {worker_id!r}; supervised: "
                f"{tuple(self._handles)}"
            ) from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_all(self) -> dict[str, str]:
        """Start every worker; returns ``{worker_id: url}``."""
        with self._lock:
            return {
                worker_id: self._start(handle)
                for worker_id, handle in self._handles.items()
            }

    def start(self, worker_id: str) -> str:
        """Start (or confirm) one worker outside the restart budget.

        Administrative starts — boot, rebalance handoff — go through
        here and also clear a tripped restart budget; *crash* recovery
        goes through :meth:`ensure`, which counts against it.
        """
        with self._lock:
            handle = self._handle(worker_id)
            handle.failed_reason = None
            return self._start(handle)

    def _start(self, handle: _WorkerHandle) -> str:
        if handle.alive:
            return handle.url
        spec = handle.spec
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        payload = {
            "state_dir": str(spec.state_dir),
            "host": spec.host,
            "fsync": spec.fsync,
        }
        process = self._context.Process(
            target=_worker_entry,
            args=(payload, child_conn),
            name=f"repro-worker-{spec.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        # WAL replay happens before the URL is reported, so a worker with
        # a deep log may take a while; poll in slices so a dead child is
        # noticed early instead of after the whole timeout.
        deadline = time.monotonic() + self._start_timeout
        while not parent_conn.poll(0.05):
            if not process.is_alive():
                parent_conn.close()
                raise WorkerUnavailableError(
                    f"worker {spec.worker_id!r} exited with code "
                    f"{process.exitcode} before binding its socket "
                    f"(state_dir={spec.state_dir})"
                )
            if time.monotonic() > deadline:
                parent_conn.close()
                process.kill()
                raise WorkerUnavailableError(
                    f"worker {spec.worker_id!r} did not report a bound URL "
                    f"within {self._start_timeout:.0f}s"
                )
        url = parent_conn.recv()
        parent_conn.close()
        handle.process = process
        handle.url = url
        return url

    def ensure(self, worker_id: str) -> str:
        """The worker's URL, restarting the process first if it died.

        The router calls this before every forward: a live worker costs
        one lock + liveness check; a dead one is restarted under the
        bounded-restart budget (WAL replay brings its state back before
        the new URL is returned).
        """
        with self._lock:
            handle = self._handle(worker_id)
            if handle.failed_reason is not None:
                raise WorkerUnavailableError(
                    f"worker {worker_id!r} is down: {handle.failed_reason}"
                )
            if handle.alive:
                return handle.url
            return self._restart(handle)

    def _restart(self, handle: _WorkerHandle) -> str:
        now = time.monotonic()
        window_start = now - self._restart_window
        recent = [t for t in handle.restart_times if t >= window_start]
        if len(recent) >= self._max_restarts:
            handle.failed_reason = (
                f"restart budget exhausted ({self._max_restarts} restarts "
                f"within {self._restart_window:.0f}s)"
            )
            raise WorkerUnavailableError(
                f"worker {handle.spec.worker_id!r} is down: "
                f"{handle.failed_reason}"
            )
        if recent:
            backoff = min(
                self._backoff_base * (2 ** (len(recent) - 1)),
                self._backoff_cap,
            )
            time.sleep(backoff)
        if handle.process is not None:
            handle.process.join(timeout=1.0)
        url = self._start(handle)
        handle.restarts += 1
        handle.restart_times = recent + [time.monotonic()]
        return url

    def check_health(self) -> dict[str, bool]:
        """Probe every worker: process liveness plus an HTTP ``/healthz``.

        Dead or unresponsive workers are restarted (within the restart
        budget). Returns ``{worker_id: healthy_now}`` — False only for
        workers that are down *and* could not be revived.
        """
        results: dict[str, bool] = {}
        for worker_id in self.worker_ids:
            try:
                url = self.ensure(worker_id)
            except WorkerUnavailableError:
                results[worker_id] = False
                continue
            results[worker_id] = self._probe(worker_id, url)
        return results

    def _probe(self, worker_id: str, url: str) -> bool:
        try:
            with urllib.request.urlopen(
                url + "/healthz", timeout=self._health_timeout
            ) as reply:
                return bool(json.loads(reply.read()).get("ok"))
        except Exception:
            # Alive process, dead socket: kill it so the next ensure()
            # restarts under the budget.
            with self._lock:
                handle = self._handle(worker_id)
                if handle.alive:
                    handle.process.kill()
            return False

    # ------------------------------------------------------------------
    # Membership (rebalancing support)
    # ------------------------------------------------------------------

    def add(self, spec: WorkerSpec) -> str:
        """Adopt and start a new worker; returns its URL."""
        with self._lock:
            if spec.worker_id in self._handles:
                raise ClusterError(
                    f"worker {spec.worker_id!r} is already supervised"
                )
            handle = _WorkerHandle(spec)
            self._handles[spec.worker_id] = handle
            try:
                return self._start(handle)
            except Exception:
                del self._handles[spec.worker_id]
                raise

    def remove(self, worker_id: str) -> None:
        """Stop a worker and drop it from supervision."""
        with self._lock:
            self.stop(worker_id)
            del self._handles[worker_id]

    # ------------------------------------------------------------------
    # Stopping and chaos
    # ------------------------------------------------------------------

    def stop(self, worker_id: str, timeout: float = 10.0) -> None:
        """Gracefully stop one worker (SIGTERM, then SIGKILL fallback).

        After this returns the process is gone: its WAL files are quiet
        and safe to hand to another shard.
        """
        with self._lock:
            handle = self._handle(worker_id)
            process = handle.process
            if process is None:
                return
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=timeout)
            handle.process = None
            handle.url = None

    def kill(self, worker_id: str) -> int:
        """SIGKILL one worker (chaos/fault injection); returns the pid.

        Deliberately *not* graceful: the process gets no chance to flush
        or clean up, exactly like a crash. The next request routed to
        the shard (or the health monitor) triggers the restart.
        """
        with self._lock:
            handle = self._handle(worker_id)
            if handle.process is None or not handle.process.is_alive():
                raise ClusterError(
                    f"worker {worker_id!r} has no live process to kill"
                )
            pid = handle.process.pid
            handle.process.kill()
            handle.process.join(timeout=10.0)
            return pid

    def stop_all(self) -> None:
        """Stop every worker (cluster shutdown)."""
        with self._lock:
            for worker_id in list(self._handles):
                self.stop(worker_id)

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.stop_all()


__all__ = [
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_MAX_RESTARTS",
    "DEFAULT_RESTART_WINDOW",
    "DEFAULT_START_TIMEOUT",
    "WorkerSpec",
    "WorkerSupervisor",
]
