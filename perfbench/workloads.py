"""The three workloads and their untraced end-to-end run.

Every workload is one deployment driven through the same phases:

1. set-up, repeated ``setup_reps`` times (``setup_s`` is the median);
2. one warm-up day of 256-event submits, outside every timed window;
3. open-loop per-event decides at fixed rates, one audit cycle per rate;
4. a crash and the time until every tenant answers ``report`` again,
   repeated ``setup_reps`` times (``restore_s`` is the median);
5. closed-loop 256-event submits over ``bulk_days`` audit cycles; the
   throughput and CPU cost cover the whole phase, because a generation-2
   GC pause lands in some cycles and not others.

The deployments differ in what they put behind those calls:

* ``table_bulk``: in-process :class:`AuditService`, compiled policy tables;
* ``solve_bulk``: in-process :class:`AuditService`, certified cache;
* ``wire_durable``: ``repro serve --cluster --workers 2 --state-dir`` as a
  separate process tree, reached through :class:`ReproClient`.

An in-process deployment keeps no log, so coming back after a crash means
re-opening every session from its config and history (tables recompile);
the durable tier restarts on its state directory and replays its logs.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

from common import (
    GcMonitor,
    Reference,
    Inputs,
    Size,
    batches,
    percentile,
    self_peak_rss_mb,
)
import procs
from gate import Gate
from loadgen import open_loop, rate_max

from repro.api import ReproClient
from repro.api.v1 import AuditService, AuditSession

#: Per-workload sizes at the reference 20 s measurement budget.
SIZES = {
    "table_bulk": Size(
        day_events=4000, history_days=3, setup_reps=3,
        bulk_days=60,
        decide_steps=((1000.0, 1000), (2000.0, 3000), (32000.0, 3000)),
        ladder_events=4000, ladder_days=5, probe_decides=200,
        loadgen_events=2000,
    ),
    "solve_bulk": Size(
        day_events=4000, history_days=3, setup_reps=3,
        bulk_days=8,
        decide_steps=((250.0, 250), (500.0, 1000), (16000.0, 1000)),
        ladder_events=1024, ladder_days=3, probe_decides=200,
        loadgen_events=500,
    ),
    "wire_durable": Size(
        day_events=4000, history_days=3, setup_reps=3,
        bulk_days=3,
        decide_steps=((50.0, 50), (100.0, 300), (400.0, 200)),
        ladder_events=4000, ladder_days=5, probe_decides=200,
        loadgen_events=200,
    ),
}

#: Session mode of each workload.
MODES = {"table_bulk": "table", "solve_bulk": "solve", "wire_durable": "table"}


class InProcess:
    """An in-process, non-durable :class:`AuditService`."""

    lanes = 1

    def __init__(self, inputs: Inputs, mode: str) -> None:
        self._inputs = inputs
        self._configs = inputs.configs(mode)
        self.service: AuditService | None = None

    def setup(self) -> float:
        """Open every session on a fresh service; seconds until all answer."""
        started = time.perf_counter()
        service = AuditService()
        for config in self._configs:
            service.open_session(config, self._inputs.history)
        for tenant in self._inputs.tenants:
            service.session(tenant).report()
        elapsed = time.perf_counter() - started
        self.service = service
        return elapsed

    def senders(self):
        return [lambda _index, event: self.service.decide(event)]

    def submit(self, batch):
        return self.service.submit(batch)

    def close_cycles(self):
        return [self.service.close_cycle(t) for t in self._inputs.tenants]

    def restore(self) -> tuple[float, float]:
        """No log to replay: re-open every session from scratch.

        Returns wall and CPU seconds.
        """
        self.service = None
        cpu = time.process_time()
        wall = self.setup()
        return wall, time.process_time() - cpu

    def cpu_s(self) -> float:
        return time.process_time()

    def server_cpu_s(self) -> float:
        return 0.0

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def stop(self) -> None:
        self.service = None


class Wire:
    """The durable sharded tier as a separate process tree."""

    lanes = 2

    def __init__(self, root: Path, workdir: Path, inputs: Inputs, mode: str) -> None:
        self._root = root
        self._workdir = workdir
        self._inputs = inputs
        self._configs = inputs.configs(mode)
        self._server = None
        self._boots = 0
        self._peak_rss = 0.0
        self._seq = {tenant: 0 for tenant in inputs.tenants}
        self.client: ReproClient | None = None
        self.recovered: dict[int, object] = {}
        self.unrecovered: list[int] = []

    def setup(self) -> float:
        """Boot a fresh cluster and open every session through the router."""
        self.stop()
        self._boots += 1
        state = self._workdir / f"state-{self._boots}"
        self._seq = {tenant: 0 for tenant in self._inputs.tenants}
        started = time.perf_counter()
        self._server = procs.cluster(
            self._root, self._workdir, state, name=f"cluster-{self._boots}"
        )
        url = self._server.start()
        self.client = ReproClient.connect(url, timeout=60.0)
        for config in self._configs:
            self.client.open_session(config, self._inputs.history)
        for tenant in self._inputs.tenants:
            self.client.report(tenant)
        return time.perf_counter() - started

    def next_seq(self, tenant: str) -> int:
        self._seq[tenant] += 1
        return self._seq[tenant]

    def senders(self):
        """One connection per lane; a failed decide is retried once.

        The retry reuses the sequence number, so the server answers it from
        its recorded decision if the first attempt landed; the original
        failure still counts against the step.
        """
        self.recovered = {}

        def make():
            client = ReproClient.connect(self._server.url, timeout=10.0)

            def send(index, event):
                seq = self.next_seq(event.tenant)
                try:
                    return client.decide(event, seq=seq)
                except Exception:
                    try:
                        self.recovered[index] = client.decide(event, seq=seq)
                    except Exception:
                        self.unrecovered.append(index)
                    raise

            return send

        return [make() for _ in range(self.lanes)]

    def submit(self, batch):
        return self.client.submit(batch)

    def close_cycles(self):
        return [self.client.close_cycle(t) for t in self._inputs.tenants]

    def restore(self) -> tuple[float, float]:
        """Kill the tree, restart on the same state dir, wait for all tenants.

        Returns wall seconds and the CPU seconds of the new tree plus this
        process until every tenant answered.
        """
        self._server.kill()
        self._peak_rss = max(self._peak_rss, self._server.peak_rss_mb)
        cpu = time.process_time()
        started = time.perf_counter()
        url = self._server.start()
        self.client = ReproClient.connect(url, timeout=60.0)
        for tenant in self._inputs.tenants:
            self.client.report(tenant)
        wall = time.perf_counter() - started
        return wall, self._server.cpu_s() + time.process_time() - cpu

    def cpu_s(self) -> float:
        """CPU seconds of this process plus the whole server tree."""
        return time.process_time() + self.server_cpu_s()

    def server_cpu_s(self) -> float:
        return self._server.cpu_s()

    def peak_rss_mb(self) -> float:
        if self._server is not None:
            self._server.sample_rss()
            self._peak_rss = max(self._peak_rss, self._server.peak_rss_mb)
        return self_peak_rss_mb() + self._peak_rss

    def stop(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._peak_rss = max(self._peak_rss, self._server.peak_rss_mb)
            self._server = None


def split_lanes(events, lanes: int) -> list[list[tuple[int, object]]]:
    """Event ``i`` goes to lane ``i % lanes``; round-robin tenants keep
    each tenant on one lane."""
    return [
        [(index, event) for index, event in enumerate(events) if index % lanes == lane]
        for lane in range(lanes)
    ]


class Counter:
    """Operations attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_e2e(name: str, inputs: Inputs, size: Size, deployment, gate: Gate,
            log) -> tuple[dict[str, tuple[float, str]], Counter]:
    """Run every phase; returns ``{metric: (value, unit)}`` and op counts.

    ``setup_s`` and ``cpu_us_per_decision`` are read at nominal machine
    speed: each is multiplied by the :class:`Reference` factor of kernel
    samples taken around and between its timed windows (never inside one);
    ``<name>.raw`` keeps the figure as measured.
    """
    mode = MODES[name]
    reference = Reference()
    wire = isinstance(deployment, Wire)
    ops = Counter()
    # (events, served decisions) per audit cycle, replayed on the mirror.
    history: list[tuple[tuple, list]] = []
    day = 0

    reference.sample(10)
    setups = repeated(deployment.setup, size.setup_reps)
    reference.sample(10)
    setup_factor = reference.factor()
    ops.attempted += len(setups)
    log(f"setup_s: median of {len(setups)}: {summary(setups)}")

    def close_cycles() -> None:
        for report in deployment.close_cycles():
            ops.attempted += 1
            gate.cycle(report, mode)

    events = inputs.day(day)
    day += 1
    served = []
    for batch in batches(events):
        out = deployment.submit(batch)
        ops.attempted += 1
        gate.answered(batch, out, "warm-up submit")
        served.extend(out)
    close_cycles()
    warm = (events, served)
    history.append(warm)

    steps = []
    step_cpu = []
    for rate, count in size.decide_steps:
        events = inputs.day(day)[:count]
        day += 1
        gc.collect()
        lanes = split_lanes(events, deployment.lanes)
        server_cpu = deployment.server_cpu_s()
        with GcMonitor() as step_gc:
            step, replies = open_loop(lanes, rate, deployment.senders())
        server_cpu = deployment.server_cpu_s() - server_cpu
        step_cpu.append((step.call_cpu_s + server_cpu) / step.attempted * 1e6)
        ops.attempted += step.attempted
        ops.failed += step.failed + step.unsent
        sent = sorted(replies)
        recovered = getattr(deployment, "recovered", {})
        history.append((
            tuple(events[index] for index in sent),
            [replies[index] or recovered.get(index) for index in sent],
        ))
        close_cycles()
        steps.append(step)
        log(
            f"decide @ {rate:g}/s: n={step.attempted} p50={step.ms(50):.3f} ms "
            f"p99={step.ms(99):.3f} ms lag_max={step.lag_s_max * 1e3:.3f} ms "
            f"backlog_max={step.backlog_max} failed={step.failed + step.unsent} "
            f"achieved={step.achieved_rate:.1f}/s gc gen2={step_gc.gen2_collections} "
            f"max={step_gc.max_pause_s * 1e3:.1f} ms cpu/decide="
            f"{step_cpu[-1]:.1f} us {'pass' if step.passed else 'miss'}"
        )
    gate.check(not getattr(deployment, "unrecovered", ()),
               "a failed decide could not be recovered by its idempotent retry")

    restores, restore_cpu = zip(*repeated(deployment.restore, size.setup_reps))
    ops.attempted += len(restores)
    log(f"restore_s: median of {len(restores)}: {summary(restores)}; "
        f"cpu: {summary(restore_cpu)}")
    if wire:
        # The first decide of every tenant after the last restart.
        events = inputs.day(day)[:len(inputs.tenants)]
        day += 1
        served = [
            deployment.client.decide(event, seq=deployment.next_seq(event.tenant))
            for event in events
        ]
        ops.attempted += len(events)
        history.append((events, served))
        close_cycles()

    submit_s: list[float] = []
    day_rates: list[float] = []
    day_cpu: list[float] = []
    bulk_events = 0
    mark = len(reference.samples)
    per_cycle = max(3, 32 // size.bulk_days)
    with GcMonitor() as gc_stats:
        for _ in range(size.bulk_days):
            events = inputs.day(day)
            day += 1
            served = []
            day_s = 0.0
            reference.sample(per_cycle)
            gc.collect()
            cpu = deployment.cpu_s()
            for batch in batches(events):
                started = time.perf_counter()
                out = deployment.submit(batch)
                elapsed = time.perf_counter() - started
                submit_s.append(elapsed)
                day_s += elapsed
                ops.attempted += 1
                gate.answered(batch, out, "bulk submit")
                if wire:
                    served.extend(out)
            day_cpu.append(deployment.cpu_s() - cpu)
            day_rates.append(len(events) / day_s)
            bulk_events += len(events)
            close_cycles()
            if wire:
                history.append((events, served))
    reference.sample(per_cycle)
    bulk_factor = reference.factor(mark)
    log(
        f"bulk: {len(submit_s)} submits over {len(day_rates)} cycles, "
        f"gc gen2={gc_stats.gen2_collections} pause={gc_stats.pause_s:.3f} s "
        f"max={gc_stats.max_pause_s * 1e3:.1f} ms; per-cycle decisions/s: "
        f"{', '.join(f'{rate:.0f}' for rate in day_rates)}; per-cycle CPU s: "
        f"{', '.join(f'{cpu:.3f}' for cpu in day_cpu)}"
    )

    if wire:
        check_mirror(inputs, mode, history, gate)
    check_exact(inputs, mode, warm, gate)

    middle = len(steps) // 2
    ref = steps[middle]
    metrics = {
        "setup_s": (statistics.median(setups) * setup_factor, "s"),
        "setup_s.raw": (statistics.median(setups), "s"),
        "decisions_per_s": (bulk_events / sum(submit_s), "1/s"),
        "cpu_us_per_decision": (sum(day_cpu) / bulk_events * 1e6 * bulk_factor, "us"),
        "cpu_us_per_decision.raw": (sum(day_cpu) / bulk_events * 1e6, "us"),
        "submit_ms.p50": (percentile(submit_s, 50) * 1e3, "ms"),
        "submit_ms.p99": (percentile(submit_s, 99) * 1e3, "ms"),
        "decide_ms.p50": (ref.ms(50), "ms"),
        "decide_ms.p99": (ref.ms(99), "ms"),
        "decide_cpu_us": (step_cpu[middle], "us"),
        "decide_rate_max": (rate_max(steps), "1/s"),
        "restore_s": (statistics.median(restores), "s"),
        "restore_cpu_s": (statistics.median(restore_cpu), "s"),
        "peak_rss_mb": (deployment.peak_rss_mb(), "MB"),
    }
    log(f"machine speed factor: setup {setup_factor:.3f} bulk {bulk_factor:.3f}")
    log(f"submit samples: {len(submit_s)}; decide samples at the reference "
        f"rate {ref.rate:g}/s: {ref.attempted}")
    return metrics, ops


def repeated(measure, reps: int, min_seconds: float = 1.0) -> list:
    """Call ``measure`` at least ``reps`` times and until ``min_seconds`` of
    wall clock went into it, so millisecond set-ups get enough samples for
    a steady median. ``measure`` returns seconds or ``(seconds, ...)``."""
    samples = []
    started = time.perf_counter()
    while len(samples) < reps or (
        time.perf_counter() - started < min_seconds and len(samples) < 1000
    ):
        samples.append(measure())
    return samples


def summary(values) -> str:
    return (f"min {min(values):.4f} median {statistics.median(values):.4f} "
            f"max {max(values):.4f}")


def check_mirror(inputs: Inputs, mode: str, history, gate: Gate) -> None:
    """Replay every served cycle on an in-process mirror and compare."""
    mirror = AuditService()
    for config in inputs.configs(mode):
        mirror.open_session(config, inputs.history)
    for cycle, (events, served) in enumerate(history):
        mirrored = mirror.submit(events) if events else ()
        gate.identical(served, mirrored, f"mirror cycle {cycle}")
        if cycle < len(history) - 1:
            for tenant in inputs.tenants:
                mirror.close_cycle(tenant)


def check_exact(inputs: Inputs, mode: str, warm, gate: Gate) -> None:
    """The first tenant's warm-up decisions against exact re-solves."""
    events, served = warm
    tenant = inputs.tenants[0]
    mine = [i for i, event in enumerate(events) if event.tenant == tenant]
    config = inputs.configs(mode, policy_table=False, cache_enabled=False,
                            cache_error_budget=None, cache_budget_step=0.0,
                            cache_rate_step=0.0)[0]
    exact = AuditSession.open(config, inputs.history).decide_batch(
        [events[i] for i in mine]
    )
    gate.exact([served[i] for i in mine], exact, inputs.payoffs,
               f"{mode} vs exact solve ({tenant}, {len(mine)} events)")
