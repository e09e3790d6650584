"""Server processes under test: ``repro serve --http`` and ``--cluster``.

Each server runs through the CLI as a separate process group (its own
session), so the load generator never shares an interpreter lock with the
router or the workers, and a crash can kill the whole tree at once.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import group_cpu_s, group_peak_rss_mb, group_pids

#: Seconds a server may take to write its ready file.
READY_TIMEOUT = 120.0


class ServerProcess:
    """One ``python -m repro.cli serve`` process tree.

    ``peak_rss_mb`` is sampled from the live tree before every stop, and
    the largest sample is kept.
    """

    def __init__(self, root: Path, workdir: Path, name: str, args: list[str]) -> None:
        self._root = root
        self._workdir = workdir
        self._name = name
        self._args = args
        self._proc: subprocess.Popen | None = None
        self._launches = 0
        self.url: str | None = None
        self.peak_rss_mb = 0.0

    def start(self) -> str:
        """Launch and block until the server's ready file holds its URL."""
        self._launches += 1
        ready = self._workdir / f"{self._name}.ready.{self._launches}"
        log = self._workdir / f"{self._name}.log"
        env = dict(os.environ, PYTHONPATH=str(self._root / "src"))
        with open(log, "a", encoding="utf-8") as sink:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", *self._args,
                 "--port", "0", "--ready-file", str(ready)],
                cwd=self._root, env=env, stdout=sink, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            if ready.exists():
                text = ready.read_text(encoding="utf-8").strip()
                if text:
                    self.url = text
                    return text
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"{self._name} exited with {self._proc.returncode} before "
                    f"it was ready; see {log}"
                )
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"{self._name} not ready within {READY_TIMEOUT}s")
            time.sleep(0.005)

    def cpu_s(self) -> float:
        """CPU seconds the live tree has used so far."""
        return group_cpu_s(self._proc.pid) if self._proc is not None else 0.0

    def sample_rss(self) -> None:
        """Fold the live tree's current peak RSS into ``peak_rss_mb``."""
        if self._proc is not None and self._proc.poll() is None:
            self.peak_rss_mb = max(self.peak_rss_mb, group_peak_rss_mb(self._proc.pid))

    def kill(self) -> None:
        """Crash the whole tree (SIGKILL to the process group)."""
        self._signal_group(signal.SIGKILL)

    def stop(self) -> None:
        """Stop the tree: SIGTERM, then SIGKILL if it lingers."""
        self._signal_group(signal.SIGTERM)

    def _signal_group(self, signum: int) -> None:
        if self._proc is None:
            return
        self.sample_rss()
        pgid = self._proc.pid
        try:
            os.killpg(pgid, signum)
        except ProcessLookupError:
            pass
        try:
            self._proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            os.killpg(pgid, signal.SIGKILL)
            self._proc.wait(timeout=15.0)
        # Workers are grandchildren; wait until none of the group is left.
        deadline = time.monotonic() + 15.0
        while group_pids(pgid) and time.monotonic() < deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self._proc = None
        self.url = None


def cluster(root: Path, workdir: Path, state_dir: Path, name: str = "cluster") -> ServerProcess:
    """The durable two-worker sharded tier."""
    return ServerProcess(root, workdir, name, [
        "--cluster", "--workers", "2", "--state-dir", str(state_dir),
    ])


def http(root: Path, workdir: Path, state_dir: Path, name: str = "http") -> ServerProcess:
    """One durable ``serve --http`` process."""
    return ServerProcess(root, workdir, name, [
        "--http", "--state-dir", str(state_dir),
    ])
