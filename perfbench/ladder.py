"""The traced run: the same batches down a ladder of entry points.

Rungs, each opened with identical :class:`SessionConfig` objects and fed
the same days of the workload (one warm-up day, then ``ladder_days``
timed days, with the cycle closed between days):

1. ``BatchAuditEngine.process_stream``, one call per tenant group;
2. ``AuditSession.decide_batch``;
3. ``AuditService.submit``;
4. ``AuditService.submit`` on a durable service (write-ahead log on);
5. ``ReproClient.submit`` against one ``repro serve --http --state-dir``;
6. ``ReproClient.submit`` against ``repro serve --cluster --workers 2``.

Every call is a span recorded by this module, so nothing inside ``src/``
is instrumented; a layer's cost is the difference between adjacent rungs
of the same run. All rungs must return the same decisions, which the gate
checks. Counts come from the program's own ``EngineStats``/``CycleReport``
/``ServiceStats``.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from pathlib import Path

import numpy as np

import procs
from common import (
    GcMonitor,
    Inputs,
    Size,
    Tracer,
    WORKERS,
    batches,
)
from gate import Gate
from loadgen import open_loop
from workloads import MODES, Counter, split_lanes

from repro.api import ReproClient
from repro.api.hashring import HashRing
from repro.api.protocol import (
    OP_DECIDE,
    Request,
    Response,
    decode_ndjson,
    encode_ndjson,
)
from repro.api.v1 import AlertEvent, AuditService, AuditSession, SignalDecision
from repro.core.game import SAGConfig
from repro.engine.cache import SSESolutionCache
from repro.engine.stream import BatchAuditEngine
from repro.logstore.wal import WAL_SUFFIX, scan_records
from repro.stats.estimator import FutureAlertEstimator, RollbackEstimator

RUNGS = ("engine", "session", "service", "durable", "http", "cluster")


def build_engine(config, history) -> BatchAuditEngine:
    """The engine exactly as :class:`AuditSession` wires it for ``config``."""
    cache = (
        SSESolutionCache(
            budget_step=config.cache_budget_step,
            rate_step=config.cache_rate_step,
            error_budget=config.cache_error_budget,
        )
        if config.cache_enabled
        else None
    )
    return BatchAuditEngine(
        SAGConfig(
            payoffs=config.payoffs,
            costs=config.costs,
            budget=config.budget,
            backend=config.backend,
            signaling_method=config.signaling_method,
            signaling_enabled=config.signaling_enabled,
            budget_charging=config.budget_charging,
            robust_margin=config.robust_margin,
            fp_iterations=config.fp_iterations,
        ),
        RollbackEstimator(
            FutureAlertEstimator({
                int(t): [np.asarray(day, dtype=float) for day in days]
                for t, days in history.items()
            }),
            enabled=config.rollback_enabled,
        ),
        rng=np.random.default_rng(config.seed),
        cache=cache,
        policy_table=config.policy_table,
    )


def by_tenant(batch) -> dict[str, list[AlertEvent]]:
    groups: dict[str, list[AlertEvent]] = {}
    for event in batch:
        groups.setdefault(event.tenant, []).append(event)
    return groups


class Digest:
    """Order-sensitive fingerprint of (tenant, theta, warned, game value)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, tenant: str, decisions) -> None:
        for decision in decisions:
            self._hash.update(
                f"{tenant}|{decision.theta!r}|{bool(decision.warned)}|"
                f"{decision.game_value!r};".encode()
            )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Rung:
    """One entry point: how a batch goes in and how a cycle ends."""

    def __init__(self, name: str, call, close, digest: bool = True,
                 before_timed=None) -> None:
        self.name = name
        self.call = call
        self.close = close
        self.before_timed = before_timed
        self.fingerprint = Digest() if digest else None
        self.per_day: list[float] = []


class Ladder:
    """Drives the rungs and keeps their timings, counts, and digests."""

    def __init__(self, inputs: Inputs, size: Size, mode: str, gate: Gate,
                 log) -> None:
        self.inputs = inputs
        self.size = size
        self.mode = mode
        self.gate = gate
        self.log = log
        self.tracer = Tracer()
        self.ops = Counter()
        self.days = [
            inputs.day(day)[:size.ladder_events]
            for day in range(1 + size.ladder_days)
        ]
        self.timed_events = sum(len(day) for day in self.days[1:])
        self.us: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    # -- driving -------------------------------------------------------

    def drive(self, rungs: list[Rung], days=None) -> None:
        """A warm-up day, then timed days, each day on every rung.

        The rung order rotates from day to day, so machine drift and GC
        pauses fall on all rungs alike; a rung's figure is the median of
        its timed days' us per event. Only the calls are timed.
        """
        days = days or self.days
        for index, events in enumerate(days):
            shift = index % len(rungs)
            for rung in rungs[shift:] + rungs[:shift]:
                self._day(rung, events, index)
        for rung in rungs:
            self.us[rung.name] = statistics.median(rung.per_day)
            if rung.fingerprint is not None:
                self.digests[rung.name] = rung.fingerprint.hexdigest()
            self.log(f"rung {rung.name}: {self.us[rung.name]:.2f} us/event "
                     f"(days: {', '.join(f'{v:.2f}' for v in rung.per_day)})")

    def _day(self, rung: Rung, events, index: int) -> None:
        timed = index > 0
        if index == 1 and rung.before_timed is not None:
            rung.before_timed()
        if timed:
            gc.collect()
            parent = self.tracer.open(f"{rung.name}.day")
        spent = 0.0
        for batch in batches(events):
            started = time.perf_counter()
            out = rung.call(batch)
            ended = time.perf_counter()
            self.ops.attempted += 1
            if timed:
                self.tracer.record(rung.name, started, ended, len(batch), parent)
                spent += ended - started
                if rung.fingerprint is not None:
                    for tenant, decisions in out:
                        rung.fingerprint.add(tenant, decisions)
        if timed:
            self.tracer.close(parent, len(events))
            rung.per_day.append(spent / len(events) * 1e6)
        rung.close()

    def close_reports(self, reports) -> None:
        for report in reports:
            self.ops.attempted += 1
            self.gate.cycle(report, self.mode)

    # -- rungs ---------------------------------------------------------

    def engine(self, mode: str, name: str) -> tuple[Rung, dict, dict]:
        """Rung 1 in ``mode``: the rung, its engines, and timed-day counters."""
        configs = self.inputs.configs(mode)
        engines = {c.tenant: build_engine(c, self.inputs.history) for c in configs}
        counts = {"alerts": 0, "table_hits": 0, "fallbacks": 0,
                  "sse_solves": 0, "cache_hits": 0}
        timed_day = [False]

        def call(batch):
            out = []
            for tenant, group in by_tenant(batch).items():
                result = engines[tenant].process_stream(
                    [e.type_id for e in group], [e.time_of_day for e in group]
                )
                if timed_day[0]:
                    for key in counts:
                        counts[key] += getattr(result.stats, key)
                out.append((tenant, result.decisions))
            return out

        def close():
            timed_day[0] = True
            for engine in engines.values():
                engine.reset()

        return Rung(name, call, close, digest=mode == self.mode), engines, counts

    def check_engine(self, mode: str, counts: dict) -> None:
        if mode == "table":
            self.gate.check(
                counts["table_hits"] + counts["fallbacks"] == counts["alerts"],
                "engine rung: table_hits + fallbacks != alerts",
            )
        else:
            self.gate.check(
                counts["sse_solves"] + counts["cache_hits"] == counts["alerts"],
                "engine rung: sse_solves + cache_hits != alerts",
            )

    def session(self) -> Rung:
        sessions = {
            c.tenant: AuditSession.open(c, self.inputs.history)
            for c in self.inputs.configs(self.mode)
        }

        def call(batch):
            return [
                (tenant, sessions[tenant].decide_batch(group))
                for tenant, group in by_tenant(batch).items()
            ]

        def close():
            self.close_reports(s.close_cycle() for s in sessions.values())

        return Rung("session", call, close)

    def open_sessions(self, target) -> None:
        """Open every tenant on a service or a client."""
        for config in self.inputs.configs(self.mode):
            target.open_session(config, self.inputs.history)

    def submit_rung(self, name: str, submit, close_cycle, before_timed=None) -> Rung:
        def call(batch):
            decisions = submit(batch)
            self.gate.answered(batch, decisions, f"{name} rung")
            groups: dict[str, list] = {}
            for decision in decisions:
                groups.setdefault(decision.tenant, []).append(decision)
            return groups.items()

        def close():
            self.close_reports(close_cycle(t) for t in self.inputs.tenants)

        return Rung(name, call, close, before_timed=before_timed)

    def service_pass(self, service: AuditService, traced: bool) -> float:
        """The service rung's timed days again, timed per day as a whole,
        with or without one span per submit call (the tracing overhead)."""
        per_day = []
        for events in self.days[1:]:
            gc.collect()
            chunks = batches(events)
            started = time.perf_counter()
            for batch in chunks:
                begun = time.perf_counter()
                service.submit(batch)
                if traced:
                    self.tracer.record("service.retraced", begun,
                                       time.perf_counter(), len(batch))
            per_day.append((time.perf_counter() - started) / len(events) * 1e6)
            self.ops.attempted += len(chunks)
            self.close_reports(service.close_cycle(t) for t in self.inputs.tenants)
        return statistics.median(per_day)

    def decide_probe(self, decide, label: str) -> float:
        """Median closed-loop per-decide seconds on a fresh cycle's events."""
        events = self.inputs.day(len(self.days))[:self.size.probe_decides]
        times = []
        for event in events:
            started = time.perf_counter()
            decide(event)
            times.append(time.perf_counter() - started)
            self.ops.attempted += 1
        value = statistics.median(times)
        self.log(f"decide probe {label}: median {value * 1e6:.1f} us "
                 f"over {len(times)} decides")
        return value


def codec_costs(ladder: Ladder, service_decisions) -> tuple[float, float, float]:
    """Wire codec on the ladder's batches: (us/event, bytes/event, envelope us)."""
    spent = 0.0
    size = 0
    events_total = 0
    for batch, decisions in service_decisions:
        started = time.perf_counter()
        text = encode_ndjson(batch)
        back = list(decode_ndjson(text, AlertEvent))
        answer = encode_ndjson(decisions)
        decoded = list(decode_ndjson(answer, SignalDecision))
        spent += time.perf_counter() - started
        ladder.gate.check(back == list(batch) and decoded == list(decisions),
                          "ndjson codec does not round-trip the ladder batches")
        size += len(text.encode()) + len(answer.encode())
        events_total += len(batch)
    envelope = []
    for seq, (batch, decisions) in enumerate(service_decisions[:8]):
        for event, decision in zip(batch, decisions):
            started = time.perf_counter()
            wire = Request(op=OP_DECIDE, payload={"event": event.to_dict()},
                           seq=seq).to_json()
            request = Request.from_json(wire)
            reply = Response.success(
                request.op, {"decision": decision.to_dict(), "replayed": False},
                seq=request.seq,
            ).to_json()
            SignalDecision.from_dict(Response.from_json(reply).payload["decision"])
            envelope.append(time.perf_counter() - started)
    return spent / events_total * 1e6, size / events_total, statistics.median(envelope) * 1e6


def wal_totals(state_dir: Path) -> tuple[int, int]:
    """(bytes, records) over every log in ``state_dir``."""
    paths = sorted(state_dir.glob(f"*{WAL_SUFFIX}"))
    return (
        sum(path.stat().st_size for path in paths),
        sum(len(scan_records(path)[0]) for path in paths),
    )


def run_ladder(workload: str, inputs: Inputs, size: Size, root: Path,
               workdir: Path, gate: Gate, log):
    """The traced run; returns ``{metric: (value, unit)}`` and op counts."""
    mode = MODES[workload]
    side = "solve" if mode == "table" else "table"
    ladder = Ladder(inputs, size, mode, gate, log)

    # The engine in the other mode, on its own: it shares no difference.
    side_rung, side_engines, side_counts = ladder.engine(side, f"engine.{side}")
    side_days = ladder.days if side == "table" else [d[:1024] for d in ladder.days[:2]]
    ladder.drive([side_rung], days=side_days)
    ladder.check_engine(side, side_counts)

    engine_rung, engines, counts = ladder.engine(mode, "engine")
    service = AuditService()
    ladder.open_sessions(service)
    # The warm-up day's batches and answers, for the codec measurement.
    recorded: list[tuple[tuple, tuple]] = []
    warm_batches = len(batches(ladder.days[0]))

    def submit_and_keep(batch):
        decisions = service.submit(batch)
        if len(recorded) < warm_batches:
            recorded.append((tuple(batch), tuple(decisions)))
        return decisions

    wal_dir = workdir / "ladder-wal"
    durable = AuditService(state_dir=wal_dir)
    ladder.open_sessions(durable)
    before: list[int] = []
    http_server = procs.http(root, workdir, workdir / "ladder-http")
    cluster_dir = workdir / "ladder-cluster"
    cluster = procs.cluster(root, workdir, cluster_dir)
    try:
        http_client = ReproClient.connect(http_server.start(), timeout=60.0)
        ladder.open_sessions(http_client)
        cluster_client = ReproClient.connect(cluster.start(), timeout=60.0)
        ladder.open_sessions(cluster_client)
        rungs = [
            engine_rung,
            ladder.session(),
            ladder.submit_rung("service", submit_and_keep, service.close_cycle),
            ladder.submit_rung(
                "durable", durable.submit, durable.close_cycle,
                before_timed=lambda: before.extend(wal_totals(wal_dir)),
            ),
            ladder.submit_rung("http", http_client.submit, http_client.close_cycle),
            ladder.submit_rung("cluster", cluster_client.submit,
                               cluster_client.close_cycle),
        ]
        with GcMonitor() as gc_stats:
            ladder.drive(rungs)
        after = wal_totals(wal_dir)
        ladder.check_engine(mode, counts)

        untraced = ladder.service_pass(service, traced=False)
        traced = ladder.service_pass(service, traced=True)
        if workload != "wire_durable":
            step = loadgen_step(ladder, size, service.decide, lanes=1)
        durable_decide = ladder.decide_probe(
            lambda event: durable.decide_idempotent(event)[0],
            "in-process durable service",
        )
        http_decide = ladder.decide_probe(http_client.decide, "repro serve --http")
        cluster_decide = ladder.decide_probe(cluster_client.decide,
                                             "repro serve --cluster")
        ring = HashRing(list(WORKERS))
        per_worker = {worker: 0 for worker in WORKERS}
        for stats in cluster_client.stats().per_tenant:
            per_worker[ring.owner(stats.tenant)] += stats.events
        skew = max(per_worker.values()) / (sum(per_worker.values()) / len(per_worker))
        if workload == "wire_durable":
            for tenant in inputs.tenants:
                cluster_client.close_cycle(tenant)
            lanes = [ReproClient.connect(cluster.url, timeout=10.0) for _ in range(2)]
            step = loadgen_step(ladder, size, [lane.decide for lane in lanes], lanes=2)
    finally:
        http_server.stop()
        cluster.stop()
        durable.close()
    codec_us, codec_bytes, envelope_us = codec_costs(ladder, recorded)

    started = time.perf_counter()
    restored = AuditService.restore(cluster_dir / WORKERS[0])
    restore_s = time.perf_counter() - started
    replay_s = restore_s - restored.stats().compile_seconds
    log(f"in-process restore of {WORKERS[0]}: {restore_s:.3f} s "
        f"({len(restored.tenants)} tenants, replay {replay_s:.3f} s)")

    table_engines, table = (engines, counts) if mode == "table" else (side_engines, side_counts)
    solve = counts if mode == "solve" else side_counts
    digests = set(ladder.digests.values())
    gate.check(
        sorted(ladder.digests) == sorted(RUNGS) and len(digests) == 1,
        f"ladder rungs disagree on the decisions: {ladder.digests}",
    )
    us = ladder.us
    timed = ladder.timed_events
    metrics = {
        "engine.table.us_per_event": (us["engine" if mode == "table" else "engine.table"], "us"),
        "engine.table.hit_ratio": (table["table_hits"] / table["alerts"], "1"),
        "engine.fallbacks": (table["fallbacks"], "count"),
        "engine.compile_s": (sum(e.compile_seconds for e in table_engines.values()), "s"),
        "engine.recompiles": (sum(e.recompiles for e in table_engines.values()), "count"),
        "engine.solve.us_per_event": (us["engine" if mode == "solve" else "engine.solve"], "us"),
        "engine.cache.hit_ratio": (
            solve["cache_hits"] / (solve["cache_hits"] + solve["sse_solves"]), "1"
        ),
        "engine.sse_solves": (solve["sse_solves"], "count"),
        "session.us_per_event": (us["session"] - us["engine"], "us"),
        "service.us_per_event": (us["service"] - us["session"], "us"),
        "runtime.gc_pause_s": (gc_stats.pause_s, "s"),
        "runtime.gc_gen2_collections": (gc_stats.gen2_collections, "count"),
        "runtime.gc_pause_ms.max": (gc_stats.max_pause_s * 1e3, "ms"),
        "logstore.wal.us_per_event": (us["durable"] - us["service"], "us"),
        "logstore.wal.bytes_per_event": ((after[0] - before[0]) / timed, "B"),
        "logstore.wal.records": (after[1] - before[1], "count"),
        "logstore.restore_s": (restore_s, "s"),
        "logstore.restore.replay_s": (replay_s, "s"),
        "protocol.codec.us_per_event": (codec_us, "us"),
        "protocol.bytes_per_event": (codec_bytes, "B"),
        "protocol.envelope_us": (envelope_us, "us"),
        "http.us_per_event": (us["http"] - us["durable"] - codec_us, "us"),
        "http.decide_us": (
            (http_decide - durable_decide) * 1e6 - envelope_us, "us"
        ),
        "cluster.router.us_per_event": (us["cluster"] - us["http"], "us"),
        "cluster.router.decide_us": ((cluster_decide - http_decide) * 1e6, "us"),
        "cluster.shard_skew": (skew, "1"),
        "loadgen.lag_ms.max": (step.lag_s_max * 1e3, "ms"),
        "loadgen.backlog.max": (step.backlog_max, "count"),
        "trace.overhead_us_per_event": (traced - untraced, "us"),
    }
    for rung in RUNGS:
        metrics[f"ladder.{rung}.us_per_event"] = (us[rung], "us")
    spans = root / ".perfbench_out" / f"spans-{workload}-seed{inputs.seed}.jsonl"
    ladder.tracer.write(spans)
    for name, entry in sorted(ladder.tracer.summary().items()):
        log(f"span {name}: count={entry['count']} total={entry['total_s']:.4f} s "
            f"self={entry['self_s']:.4f} s events={entry['events']}")
    log(f"spans written to {spans.relative_to(root)}")
    return metrics, ladder.ops


def loadgen_step(ladder: Ladder, size: Size, decides, lanes: int):
    """One open-loop step at the workload's reference rate.

    ``decides`` is one decide callable, or one per lane; the events are a
    fresh day's, so the target's cycle must have just been closed.
    """
    rate = size.decide_steps[len(size.decide_steps) // 2][0]
    events = ladder.inputs.day(len(ladder.days) + 1)[:size.loadgen_events]
    if callable(decides):
        decides = [decides]
    senders = [lambda _index, event, decide=decide: decide(event) for decide in decides]
    step, _replies = open_loop(split_lanes(events, lanes), rate, senders)
    ladder.ops.attempted += step.attempted
    ladder.ops.failed += step.failed + step.unsent
    ladder.log(f"loadgen @ {rate:g}/s: n={step.attempted} lag_max="
               f"{step.lag_s_max * 1e3:.3f} ms backlog_max={step.backlog_max} "
               f"p99={step.ms(99):.3f} ms")
    return step
