"""One tenant's audit session: lifecycle, state, and decisions.

:class:`AuditSession` is the stateful half of the v1 API. It owns exactly
one tenant's game state — the :class:`~repro.engine.stream.BatchAuditEngine`
(and through it the :class:`~repro.core.game.SignalingAuditGame`, the
budget ledger, and the rollback estimator), the session-lifetime
:class:`~repro.engine.cache.SSESolutionCache`, and the seeding contract
(``config.seed`` fully determines the signal-sampling stream).

The lifecycle is explicit::

    open --> observe / decide / decide_batch --> close_cycle --> ... --> close
              (events of one audit cycle)          (CycleReport)        (stats)

``close_cycle`` ends the current audit day — budget and estimator reset,
the solution cache survives (previous states stay valid lookups) — and a
session serves any number of cycles before ``close`` retires it. Events
must arrive in nondecreasing time order within a cycle; the batch path
(:meth:`AuditSession.decide_batch`) runs the same per-alert pipeline as
:meth:`AuditSession.decide`, so batching never changes a decision — the
property the service's throughput benchmark and the async-equivalence
tests pin down.
"""

from __future__ import annotations

import time as _time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.errors import (
    InvalidEventError,
    ModelError,
    SessionClosedError,
    SessionStateError,
)
from repro.core.game import AlertDecision, SAGConfig
from repro.engine.cache import SSESolutionCache
from repro.engine.stream import BatchAuditEngine
from repro.learning.attackers import (
    BayesianLearningAttacker,
    NoRegretAttacker,
)
from repro.stats.estimator import FutureAlertEstimator, RollbackEstimator
from repro.api.v1.types import (
    SESSION_CLOSED,
    SESSION_OPEN,
    AlertEvent,
    CycleReport,
    SessionConfig,
    SessionStats,
    SignalDecision,
)

#: Type alias for the training history a session estimates from:
#: per-type lists of sorted arrival-time arrays, one per historical day.
History = Mapping[int, Sequence[np.ndarray]]


def _build_learning_attacker(config: SessionConfig):
    """The session's simulated learning adversary, or ``None``.

    ``config.attacker`` validation already guarantees membership in
    :data:`repro.api.v1.types.SESSION_ATTACKERS`; ``"rational"`` (the
    default) means no simulated learner and zeroed learning metrics.
    """
    if config.attacker == "bayesian_learning":
        return BayesianLearningAttacker(observation_weight=config.learning_rate)
    if config.attacker == "no_regret":
        return NoRegretAttacker(learning_rate=config.learning_rate)
    return None


@dataclass
class _Tally:
    """Decide-path accounting since a snapshot of the lifetime counters.

    The cycle in progress counts from a snapshot taken when it started;
    the closed-cycle totals count from zero, at session open.
    """

    events: int = 0
    warnings: int = 0
    wall_seconds: float = 0.0
    table_hits: int = 0
    table_misses: int = 0
    fallbacks: int = 0
    hits_at_start: int = 0
    misses_at_start: int = 0
    recompiles_at_start: int = 0
    compile_seconds_at_start: float = 0.0

    def __add__(self, other: "_Tally") -> "_Tally":
        """This tally with ``other``'s counts added (baselines kept)."""
        return replace(
            self,
            events=self.events + other.events,
            warnings=self.warnings + other.warnings,
            wall_seconds=self.wall_seconds + other.wall_seconds,
            table_hits=self.table_hits + other.table_hits,
            table_misses=self.table_misses + other.table_misses,
            fallbacks=self.fallbacks + other.fallbacks,
        )


class AuditSession:
    """One tenant's stateful audit session (build via :meth:`open`).

    Parameters mirror :meth:`open`; construct through the classmethods so
    the estimator and engine wiring stays in one place.
    """

    def __init__(self, config: SessionConfig, history: History) -> None:
        self._config = config
        self._history = {
            int(type_id): [np.asarray(day, dtype=float) for day in days]
            for type_id, days in history.items()
        }
        self._cache = (
            SSESolutionCache(
                budget_step=config.cache_budget_step,
                rate_step=config.cache_rate_step,
                error_budget=config.cache_error_budget,
            )
            if config.cache_enabled
            else None
        )
        self._engine = BatchAuditEngine(
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
                FutureAlertEstimator(self._history),
                enabled=config.rollback_enabled,
                **(
                    {"threshold": config.rollback_threshold}
                    if config.rollback_threshold is not None
                    else {}
                ),
            ),
            rng=np.random.default_rng(config.seed),
            cache=self._cache,
            policy_table=config.policy_table,
        )
        self._state = SESSION_OPEN
        self._cycle = 0
        self._cycles_closed = 0
        self._closed = _Tally()
        self._last_time: float | None = None
        # The simulated adversary learning against this session's published
        # coverage, if the config asks for one. Learning is observational:
        # the attacker watches each closed cycle's realized coverage and
        # its metrics land on CycleReport — decisions are never affected,
        # so decide/submit determinism is untouched.
        self._attacker = _build_learning_attacker(config)
        self._learning_cycles_total = 0
        self._regret_sum = 0.0
        self._entropy_sum = 0.0
        self._gap_sum = 0.0
        self._counters = self._fresh_counters()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, config: SessionConfig, history: History) -> "AuditSession":
        """Open a session from its configuration and training history."""
        return cls(config, history)

    @classmethod
    def from_scenario(cls, spec) -> "AuditSession":
        """Open a session for a :class:`ScenarioSpec`'s evaluation world.

        Use :func:`open_scenario` when the scenario's test-day events are
        needed too (it builds the world once for both).
        """
        session, _events = open_scenario(spec)
        return session

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def tenant(self) -> str:
        """The tenant this session serves."""
        return self._config.tenant

    @property
    def config(self) -> SessionConfig:
        """The immutable session configuration."""
        return self._config

    @property
    def state(self) -> str:
        """Lifecycle state: ``"open"`` or ``"closed"``."""
        return self._state

    @property
    def training_history(self) -> History:
        """The normalized per-type training history this session opened with.

        The serving plane's write-ahead log persists this next to the
        session config so :meth:`AuditService.restore` can rebuild the
        estimator exactly (see :mod:`repro.logstore.wal`).
        """
        return self._history

    @property
    def cycle(self) -> int:
        """Index of the audit cycle in progress (0-based)."""
        return self._cycle

    @property
    def budget_remaining(self) -> float:
        """Budget left in the current cycle."""
        return self._engine.game.budget_remaining

    # ------------------------------------------------------------------
    # Event path
    # ------------------------------------------------------------------

    def observe(self, event: AlertEvent) -> None:
        """Process a background alert without materializing a decision.

        The alert still runs the full pipeline (it moves the estimator and
        the budget — the game cannot skip it), but no response payload is
        built; use for bulk background traffic where only the
        :meth:`close_cycle` report matters.
        """
        self._process(event)

    def decide(self, event: AlertEvent) -> SignalDecision:
        """Run the online pipeline for one event and return the decision."""
        sequence = self._counters.events
        decision = self._process(event)
        return self._wrap(event, decision, sequence)

    def decide_batch(
        self, events: Sequence[AlertEvent]
    ) -> tuple[SignalDecision, ...]:
        """The hot path: decide a chronological batch of events at once.

        Routes the whole batch through the engine's stream API (one
        :class:`~repro.engine.stream.StreamResult` pass) instead of
        per-event calls; decisions are identical to calling
        :meth:`decide` event by event, because the stream drives the same
        per-alert pipeline. The batch is validated in full before any
        event is processed, so a batch rejected at validation leaves the
        session untouched. (A solver failure mid-batch is different —
        already-processed alerts stay processed, and the session's
        accounting reconciles to exactly what landed.)
        """
        self.validate_events(events)
        return self._decide_batch_validated(events)

    def _decide_batch_validated(
        self, events: Sequence[AlertEvent]
    ) -> tuple[SignalDecision, ...]:
        """The batch body, assuming :meth:`validate_events` already passed.

        The service hot path validates whole submissions up front and
        calls this directly, so events are never walked twice.
        """
        wrapped, _result = self._decide_batch_stream(events)
        return wrapped

    def _decide_batch_stream(
        self, events: Sequence[AlertEvent], batched_ossp: bool = True
    ) -> tuple[tuple[SignalDecision, ...], "object | None"]:
        """Validated batch body returning the engine stream result too.

        The service's cross-tenant submit path needs the raw
        :class:`~repro.engine.stream.StreamResult` (marginals, recorded
        OSSP values) next to the wrapped decisions, so it can run one
        stacked closed-form derivation across tenants; ``batched_ossp``
        forwards to :meth:`BatchAuditEngine.process_stream`.
        """
        if not events:
            return (), None
        first_sequence = self._counters.events
        decided_before = len(self._engine.game.decisions)
        started = _time.perf_counter()
        try:
            result = self._engine.process_stream(
                [event.type_id for event in events],
                [event.time_of_day for event in events],
                batched_ossp=batched_ossp,
            )
        except BaseException:
            # A mid-stream solver failure leaves some alerts processed in
            # the game; reconcile the session's accounting with whatever
            # actually landed so cycle reports and the chronology
            # watermark stay consistent with the engine state.
            self._reconcile_partial(decided_before, started)
            raise
        self._last_time = float(events[-1].time_of_day)
        self._counters.events += len(events)
        self._counters.warnings += int(np.sum(result.warned))
        self._counters.wall_seconds += result.stats.wall_seconds
        self._counters.table_hits += result.stats.table_hits
        self._counters.table_misses += result.stats.table_misses
        self._counters.fallbacks += result.stats.fallbacks
        wrapped = tuple(
            self._wrap(event, decision, first_sequence + offset)
            for offset, (event, decision) in enumerate(
                zip(events, result.decisions)
            )
        )
        return wrapped, result

    def _reconcile_partial(self, decided_before: int, started: float) -> None:
        """Align counters with the game after a failed batch."""
        elapsed = _time.perf_counter() - started
        landed = self._engine.game.decisions[decided_before:]
        if landed:
            self._last_time = float(landed[-1].time_of_day)
        self._counters.events += len(landed)
        self._counters.warnings += sum(d.warned for d in landed)
        self._counters.wall_seconds += elapsed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close_cycle(self) -> CycleReport:
        """End the audit cycle and report it; the next cycle starts fresh.

        Budget, estimator anchor, and decision history reset; the solution
        cache is kept — states from previous cycles remain valid lookups
        (exactly the contract of :meth:`BatchAuditEngine.reset`).
        """
        self._require_open()
        decisions = self._engine.game.decisions
        values = [d.game_value for d in decisions]
        counters = self._counters
        # Feed the cycle's realized per-type coverage to the learning
        # attacker BEFORE the engine resets (the decisions are about to be
        # discarded). Empty cycles teach nothing and report zeros.
        learning_cycles = 0
        regret = posterior_entropy = exploit_gap = 0.0
        if self._attacker is not None and decisions:
            theta_sums: dict[int, float] = {}
            theta_counts: dict[int, int] = {}
            for decision in decisions:
                theta_sums[decision.type_id] = (
                    theta_sums.get(decision.type_id, 0.0) + decision.theta
                )
                theta_counts[decision.type_id] = (
                    theta_counts.get(decision.type_id, 0) + 1
                )
            coverage = {
                type_id: theta_sums[type_id] / theta_counts[type_id]
                for type_id in theta_sums
            }
            metrics = self._attacker.observe_cycle(
                coverage, self._config.payoffs
            )
            learning_cycles = 1
            regret = metrics.regret
            posterior_entropy = metrics.posterior_entropy
            exploit_gap = metrics.exploit_gap
            self._learning_cycles_total += 1
            self._regret_sum += regret
            self._entropy_sum += posterior_entropy
            self._gap_sum += exploit_gap
        report = CycleReport(
            tenant=self.tenant,
            cycle=self._cycle,
            alerts=counters.events,
            warnings_sent=counters.warnings,
            budget_initial=self._config.budget,
            budget_final=self.budget_remaining,
            mean_game_value=float(np.mean(values)) if values else 0.0,
            final_game_value=float(values[-1]) if values else 0.0,
            backend=self._config.backend,
            **self._counters_since(counters),
            learning_cycles=learning_cycles,
            regret=regret,
            posterior_entropy=posterior_entropy,
            exploit_gap=exploit_gap,
        )
        # Snapshot the next cycle's baselines BEFORE reset: a stale-region
        # recompile executes inside engine.reset() and must land in the
        # next cycle's report, not vanish between snapshots.
        next_counters = self._fresh_counters()
        self._engine.reset()
        self._cycle += 1
        self._cycles_closed += 1
        self._closed += counters
        self._last_time = None
        self._counters = next_counters
        return report

    def report(self) -> SessionStats:
        """Cumulative session accounting (any lifecycle state)."""
        total = self._closed + self._counters
        return SessionStats(
            tenant=self.tenant,
            state=self._state,
            cycle=self._cycle,
            cycles_closed=self._cycles_closed,
            events=total.events,
            budget_remaining=self.budget_remaining,
            **self._counters_since(total),
            learning_cycles=self._learning_cycles_total,
            regret=self._regret_sum / max(1, self._learning_cycles_total),
            posterior_entropy=(
                self._entropy_sum / max(1, self._learning_cycles_total)
            ),
            exploit_gap=self._gap_sum / max(1, self._learning_cycles_total),
        )

    def close(self) -> SessionStats:
        """Retire the session; further events raise ``SessionClosedError``.

        Closing mid-cycle is allowed (the unfinished cycle is simply
        abandoned); returns the final cumulative stats.
        """
        self._require_open()
        self._state = SESSION_CLOSED
        return self.report()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _counters_since(self, tally: _Tally) -> dict[str, Any]:
        """The solver counters accrued since ``tally``'s baselines."""
        if self._cache is not None:
            sse_solves = self._cache.misses - tally.misses_at_start
            cache_hits = self._cache.hits - tally.hits_at_start
            entries = len(self._cache)
        else:
            # Every event but a table hit took the solve path.
            sse_solves = tally.events - tally.table_hits
            cache_hits = entries = 0
        return dict(
            sse_solves=sse_solves,
            cache_hits=cache_hits,
            cache_entries=entries,
            wall_seconds=tally.wall_seconds,
            table_hits=tally.table_hits,
            table_misses=tally.table_misses,
            fallbacks=tally.fallbacks,
            recompiles=self._engine.recompiles - tally.recompiles_at_start,
            compile_seconds=(
                self._engine.compile_seconds - tally.compile_seconds_at_start
            ),
        )

    def _fresh_counters(self) -> _Tally:
        return _Tally(
            hits_at_start=self._cache.hits if self._cache is not None else 0,
            misses_at_start=self._cache.misses if self._cache is not None else 0,
            recompiles_at_start=self._engine.recompiles,
            compile_seconds_at_start=self._engine.compile_seconds,
        )

    def _require_open(self) -> None:
        if self._state != SESSION_OPEN:
            raise SessionClosedError(
                f"session {self.tenant!r} is closed and accepts no operations"
            )

    def validate_events(self, events: Sequence[AlertEvent]) -> None:
        """Check events against the session without touching any state.

        Verifies the session is open and that every event addresses this
        tenant, names a known alert type, and keeps chronological order
        (both against the cycle's last processed event and within the
        sequence). Raising here guarantees nothing was processed — the
        precheck :meth:`decide_batch` and the service hot path rely on to
        stay all-or-nothing.
        """
        self._require_open()
        last_time = self._last_time
        for event in events:
            if event.tenant != self.tenant:
                raise InvalidEventError(
                    f"event for tenant {event.tenant!r} routed to session "
                    f"{self.tenant!r}"
                )
            if event.type_id not in self._config.payoffs:
                raise ModelError(
                    f"unknown alert type {event.type_id} for tenant "
                    f"{self.tenant!r}"
                )
            if last_time is not None and event.time_of_day < last_time:
                raise InvalidEventError(
                    f"event at t={event.time_of_day} arrived after t="
                    f"{last_time}; events must be chronological within "
                    "a cycle (close_cycle() starts a new day)"
                )
            last_time = float(event.time_of_day)

    def _process(self, event: AlertEvent) -> AlertDecision:
        self.validate_events((event,))
        if self._engine.policy is not None:
            # Table mode: the stream path IS the per-alert pipeline (a
            # one-element stream), so single decides hit the table too.
            result = self._engine.process_stream(
                [int(event.type_id)], [float(event.time_of_day)]
            )
            decision = result.decisions[0]
            elapsed = result.stats.wall_seconds
            self._counters.table_hits += result.stats.table_hits
            self._counters.table_misses += result.stats.table_misses
            self._counters.fallbacks += result.stats.fallbacks
        else:
            started = _time.perf_counter()
            decision = self._engine.game.process_alert(
                int(event.type_id), float(event.time_of_day)
            )
            elapsed = _time.perf_counter() - started
        # Commit the chronology watermark only after a successful solve,
        # so a rejected event never blocks later valid ones.
        self._last_time = float(event.time_of_day)
        self._counters.events += 1
        self._counters.warnings += int(decision.warned)
        self._counters.wall_seconds += elapsed
        return decision

    def _wrap(
        self, event: AlertEvent, decision: AlertDecision, sequence: int
    ) -> SignalDecision:
        return SignalDecision(
            tenant=self.tenant,
            event_id=event.event_id,
            type_id=event.type_id,
            time_of_day=float(event.time_of_day),
            cycle=self._cycle,
            sequence=sequence,
            theta=decision.theta,
            warned=decision.warned,
            audit_probability=decision.audit_probability,
            budget_remaining=decision.budget_after,
            game_value=decision.game_value,
            ossp_utility=decision.ossp_utility,
            sse_utility=decision.sse_utility,
            signaling_applied=decision.signaling_applied,
        )


def open_scenario(spec) -> tuple[AuditSession, tuple[AlertEvent, ...]]:
    """Open a session for a scenario and return its test-day event stream.

    Builds the scenario's evaluation world once (training history for the
    estimator, the frozen test day as :class:`AlertEvent` payloads) — the
    façade-level equivalent of :meth:`ScenarioSpec.build_world` that the
    CLI ``serve``/``decide`` subcommands and the examples go through.
    The spec's ``source`` knob picks the alert source; use
    :func:`open_source` to supply a live
    :class:`~repro.ingest.source.AlertSource` instance directly.
    """
    return _open_with_store(spec, spec.build_store())


def open_source(spec, source) -> tuple[AuditSession, tuple[AlertEvent, ...]]:
    """Open a session over an :class:`~repro.ingest.source.AlertSource`.

    Same split semantics as :func:`open_scenario` — the source's earlier
    days train the estimator, the first test day becomes the decision
    stream — but the alert log comes from ``source.build_store()``
    instead of the spec's registered source. This is how ``repro ingest``
    serves a freshly mapped foreign dump without journaling it first; the
    spec contributes the game configuration (payoffs, budget, backend)
    and the tenant name only.
    """
    return _open_with_store(spec, source.build_store())


def _open_with_store(spec, store) -> tuple[AuditSession, tuple[AlertEvent, ...]]:
    harness = spec.build_harness(store)
    split = harness.splits(window=spec.resolved_window(store))[0]
    alerts = harness.test_alerts(split)
    if not alerts:
        raise SessionStateError(
            f"scenario {spec.name!r}: test day {split.test_day} has no alerts"
        )
    history = store.times_by_type(split.train_days, spec.type_ids())
    session = AuditSession.open(SessionConfig.from_scenario(spec), history)
    events = tuple(
        AlertEvent(
            tenant=spec.name,
            type_id=alert.type_id,
            time_of_day=alert.time_of_day,
            event_id=alert.alert_id,
        )
        for alert in alerts
    )
    return session, events
