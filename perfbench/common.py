"""Shared pieces of the benchmark: inputs, sizes, statistics, GC, memory,
spans, and machine speed.

Every stream comes from :func:`repro.experiments.runtime.synthetic_stream_workload`
seeded from the ``--seed`` argument; the program under test only ever sees
the generated :class:`~repro.api.v1.AlertEvent` payloads.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.api.hashring import HashRing
from repro.api.v1 import AlertEvent, SessionConfig
from repro.experiments.runtime import synthetic_stream_workload

#: Tenants per workload; pinned two per shard of the two-worker ring.
TENANTS = 4
WORKERS = ("shard-0", "shard-1")
N_TYPES = 5
BUDGET = 50.0
#: Events per submit call (the documented hot-path chunk).
BATCH = 256
#: Per-event decide latency limit that defines ``decide_rate_max``.
LATENCY_LIMIT_MS = 50.0
#: Certified solve mode: the documented recommended cache settings.
SOLVE_CACHE = dict(
    cache_error_budget=1e-6, cache_budget_step=0.5, cache_rate_step=1.0
)
#: Agreement bound between served and exactly re-solved game values.
EXACT_TOL = 1e-6


@dataclass(frozen=True)
class Size:
    """How much work one run does (scaled from ``--seconds``).

    ``decide_steps`` are ``(rate per second, events)`` pairs, lowest rate
    first; the middle one is the reference rate ``decide_ms.*`` report.
    """

    day_events: int
    history_days: int
    setup_reps: int
    bulk_days: int
    decide_steps: tuple[tuple[float, int], ...]
    ladder_events: int
    ladder_days: int
    probe_decides: int
    loadgen_events: int


def scaled(size: Size, seconds: float, reference: float = 20.0) -> Size:
    """``size`` with its timed work scaled from ``reference`` seconds."""
    factor = max(seconds, 1.0) / reference

    def grow(count: int, floor: int) -> int:
        return max(floor, int(round(count * factor)))

    return replace(
        size,
        bulk_days=grow(size.bulk_days, 1),
        decide_steps=tuple(
            (rate, grow(events, 8)) for rate, events in size.decide_steps
        ),
    )


@dataclass
class Inputs:
    """One seed's payoffs, training history, tenants, and day streams."""

    seed: int
    payoffs: dict
    costs: dict
    history: dict
    tenants: tuple[str, ...]
    days: list[tuple[AlertEvent, ...]] = field(default_factory=list)

    def configs(self, mode: str, **overrides) -> list[SessionConfig]:
        """One config per tenant; ``mode`` is ``"table"`` or ``"solve"``."""
        options = dict(policy_table=True) if mode == "table" else dict(SOLVE_CACHE)
        options.update(overrides)
        return [
            SessionConfig(
                tenant=tenant,
                budget=BUDGET,
                payoffs=self.payoffs,
                costs=self.costs,
                backend="analytic",
                seed=self.seed * 100 + index,
                **options,
            )
            for index, tenant in enumerate(self.tenants)
        ]

    def day(self, index: int) -> tuple[AlertEvent, ...]:
        """Day ``index`` (the pre-built days repeat cyclically)."""
        return self.days[index % len(self.days)]


def pinned_tenants(count: int = TENANTS) -> tuple[str, ...]:
    """Tenant names placed evenly on the worker ring, shards alternating."""
    ring = HashRing(list(WORKERS))
    per_shard = count // len(WORKERS)
    found: dict[str, list[str]] = {worker: [] for worker in WORKERS}
    index = 0
    while any(len(names) < per_shard for names in found.values()):
        name = f"org-{index}"
        owner = ring.owner(name)
        if len(found[owner]) < per_shard:
            found[owner].append(name)
        index += 1
    return tuple(
        found[worker][slot] for slot in range(per_shard) for worker in WORKERS
    )


def build_inputs(seed: int, size: Size, n_days: int = 8) -> Inputs:
    """Generate one seed's workload: ``n_days`` distinct day streams.

    Each day is one ``synthetic_stream_workload`` stream split round-robin
    over the tenants, so every tenant's slice is chronological.
    """
    tenants = pinned_tenants()
    payoffs, costs, history, types, times = synthetic_stream_workload(
        n_types=N_TYPES,
        n_alerts=size.day_events,
        seed=seed,
        n_history_days=size.history_days,
    )
    inputs = Inputs(seed, payoffs, costs, history, tenants)
    for day in range(n_days):
        if day:
            _p, _c, _h, types, times = synthetic_stream_workload(
                n_types=N_TYPES,
                n_alerts=size.day_events,
                seed=seed * 1000 + day,
                n_history_days=1,
            )
        inputs.days.append(tuple(
            AlertEvent(
                tenant=tenants[index % len(tenants)],
                type_id=int(type_id),
                time_of_day=float(at),
            )
            for index, (type_id, at) in enumerate(zip(types, times))
        ))
    return inputs


def batches(events, size: int = BATCH):
    """Consecutive ``size``-event chunks of ``events``."""
    return [events[start:start + size] for start in range(0, len(events), size)]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; infinite entries (failures) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Runtime: GC pauses and memory
# ----------------------------------------------------------------------


class GcMonitor:
    """Counts generation-2 collections and GC pause time via ``gc.callbacks``.

    GC stays enabled: users pay these pauses, so the windows include them.
    """

    def __init__(self) -> None:
        self.gen2_collections = 0
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self._started: float | None = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            pause = time.perf_counter() - self._started
            self._started = None
            self.pause_s += pause
            self.max_pause_s = max(self.max_pause_s, pause)
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *_exc_info) -> None:
        gc.callbacks.remove(self._callback)


def _status_kb(pid: int | str, field_name: str) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith(field_name + ":"):
            return float(line.split()[1])
    return 0.0


def self_peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``)."""
    return _status_kb("self", "VmHWM") / 1024.0


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry.name))
    return pids


def group_cpu_s(pgid: int) -> float:
    """User plus system CPU seconds of every live process in group ``pgid``."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in group_pids(pgid):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def group_peak_rss_mb(pgid: int) -> float:
    """Summed peak RSS of every live process in process group ``pgid``."""
    return sum(_status_kb(pid, "VmHWM") for pid in group_pids(pgid)) / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans around calls into each layer, written out at the end.

    A span is ``(id, parent, name, start, end, events)``; ``self_s`` in the
    summary is a span's duration minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []

    def record(self, name: str, start: float, end: float, events: int = 0,
               parent: int | None = None) -> int:
        self.spans.append((len(self.spans), parent, name, start, end, events))
        return len(self.spans) - 1

    def open(self, name: str, parent: int | None = None) -> int:
        """Start a span now; close it with :meth:`close`."""
        return self.record(name, time.perf_counter(), math.nan, 0, parent)

    def close(self, span: int, events: int = 0) -> None:
        sid, parent, name, start, _end, _events = self.spans[span]
        self.spans[span] = (sid, parent, name, start, time.perf_counter(), events)

    def summary(self) -> dict[str, dict[str, float]]:
        child_time: dict[int, float] = {}
        for _sid, parent, _name, start, end, _events in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, name, start, end, events in self.spans:
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "events": 0}
            )
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(sid, 0.0)
            entry["events"] += events
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, events in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "events": events,
                }) + "\n")


def environment(root: Path) -> dict[str, object]:
    """CPU count, interpreter, NumPy/SciPy versions, and source revision.

    The revision is read only when ``root`` itself is a git work tree; a
    plain checkout reports ``"unknown"``.
    """
    import platform
    import subprocess

    import numpy
    import scipy

    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=False,
            ).stdout.strip() or "unknown"
        except OSError:
            pass
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }



# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------

#: Reference-kernel CPU seconds that define nominal machine speed (about
#: what one kernel run takes on the 2-CPU guest the sizes were set on).
NOMINAL_REFERENCE_S = 0.0048


class Reference:
    """A fixed kernel timed on the measuring thread between timed windows.

    This guest's speed drifts by a quarter between runs as neighbours come
    and go, and every time and CPU figure drifts with it. The kernel is
    benchmark code (interpreter loop, JSON, a NumPy gather over 16 MB), so
    its cost moves only with the machine; ``factor`` is nominal ÷ measured
    kernel cost over a set of samples, and a figure multiplied by it reads
    at nominal machine speed.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._array = rng.random(1 << 21)
        self._index = rng.integers(0, self._array.size, 1 << 16)
        self._payload = [
            {"tenant": f"org-{i % 4}", "type_id": i % 5,
             "time_of_day": i * 1.5, "theta": 0.25 + i * 1e-4}
            for i in range(200)
        ]
        self.samples: list[float] = []

    def sample(self, count: int = 3) -> None:
        """Run the kernel ``count`` times, keeping each run's thread CPU."""
        for _ in range(count):
            started = time.thread_time()
            total = 0.0
            table: dict[int, float] = {}
            for i in range(6000):
                table[i & 255] = total
                total += (i * 0.5) % 7.0
            json.loads(json.dumps(self._payload))
            total += float(self._array[self._index].sum())
            total += float(np.sqrt(self._array[: 1 << 18]).sum())
            self.samples.append(time.thread_time() - started)

    def factor(self, since: int = 0) -> float:
        """Nominal ÷ mean kernel cost of the samples from index ``since``."""
        window = self.samples[since:]
        return NOMINAL_REFERENCE_S / (sum(window) / len(window))
