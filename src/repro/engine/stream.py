"""Batch alert-stream engine: whole-cycle processing over alert arrays.

The per-alert API (:meth:`repro.core.game.SignalingAuditGame.process_alert`)
is the paper-faithful interface, but heavy-traffic workloads arrive as
streams. :class:`BatchAuditEngine` consumes whole cycles — parallel arrays
of ``(type_id, time_of_day)`` — and drives a :class:`SignalingAuditGame`
configured for throughput:

* the vectorized analytic SSE solver (:mod:`repro.engine.analytic`) instead
  of per-candidate generic LPs (the game's ``backend`` is honored, so the
  same engine also benchmarks the LP backends);
* a state-keyed :class:`~repro.engine.cache.SSESolutionCache`, so revisited
  (or quantization-equivalent) states become dictionary lookups;
* one shared Poisson reciprocal-moment memo for the whole engine lifetime.

The alert-by-alert loop itself cannot be collapsed: the budget path is
sequential (each charge depends on the sampled signal of the previous
alert). Everything around it can — the engine evaluates the Theorem-3
closed-form OSSP over the *whole batch* of recorded marginals in one NumPy
pass (:func:`batch_closed_form_ossp`), and reports per-cycle
:class:`EngineStats` (solves, cache hits, wall time).
"""

from __future__ import annotations

import time as _time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExperimentError, PayoffError
from repro.core.budget import SpendRecord
from repro.core.game import (
    CHARGE_EXPECTED,
    SCOPE_ALL,
    AlertDecision,
    SAGConfig,
    SignalingAuditGame,
)
from repro.core.payoffs import PayoffMatrix
from repro.core.signaling import _PROB_TOL, SignalingScheme
from repro.core.sse import SSESolution
from repro.engine.cache import SSESolutionCache
from repro.obs import SolverCounters, merge_counters
from repro.stats.estimator import RollbackEstimator
from repro.stats.poisson import PoissonReciprocalMoment

if TYPE_CHECKING:  # policy_table builds on this module's stats
    from repro.engine.policy_table import CompiledPolicy

_new = object.__new__
_setattr = object.__setattr__

#: Sentinel distinguishing "no cache argument" from an explicit ``None``.
_DEFAULT_CACHE = object()


def batch_closed_form_ossp(
    thetas: np.ndarray, payoff: PayoffMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 3's closed-form OSSP over an array of marginals.

    Vectorized counterpart of
    :func:`repro.core.signaling.solve_ossp_closed_form`: given marginals
    ``thetas`` (all for one payoff matrix), returns the stacked
    ``(p1, q1, p0, q0)`` arrays. Requires the Theorem 3 payoff condition
    ``U_ac U_du - U_dc U_au > 0``.
    """
    if not payoff.satisfies_theorem3_condition():
        raise PayoffError(
            "batched closed-form OSSP requires U_ac*U_du - U_dc*U_au > 0; "
            "solve via the LP instead"
        )
    thetas = np.asarray(thetas, dtype=float)
    beta = thetas * payoff.u_ac + (1.0 - thetas) * payoff.u_au
    deterred = beta <= 0.0
    q0 = np.where(deterred, 0.0, beta / payoff.u_au)
    q1 = np.where(deterred, 1.0 - thetas, np.clip(1.0 - thetas - q0, 0.0, None))
    p1 = thetas
    p0 = np.zeros_like(thetas)
    return p1, q1, p0, q0


def batch_ossp_auditor_utility(
    thetas: np.ndarray, payoff: PayoffMatrix
) -> np.ndarray:
    """Auditor's OSSP value ``p0 U_dc + q0 U_du`` over an array of marginals.

    Under the Theorem 3 condition this is ``(U_du / U_au) * max(0, beta)``
    with ``beta`` the attacker's expected utility at each marginal — one
    fused expression instead of a per-theta scheme construction.
    """
    if not payoff.satisfies_theorem3_condition():
        raise PayoffError(
            "batched OSSP value requires U_ac*U_du - U_dc*U_au > 0; "
            "solve via the LP instead"
        )
    thetas = np.asarray(thetas, dtype=float)
    beta = thetas * payoff.u_ac + (1.0 - thetas) * payoff.u_au
    return (payoff.u_du / payoff.u_au) * np.clip(beta, 0.0, None)


def batch_sse_auditor_utility(
    thetas: np.ndarray, payoff: PayoffMatrix
) -> np.ndarray:
    """No-signaling auditor value over an array of marginals."""
    thetas = np.asarray(thetas, dtype=float)
    return thetas * payoff.u_dc + (1.0 - thetas) * payoff.u_du


@dataclass(frozen=True)
class EngineStats(SolverCounters):
    """Per-cycle accounting of the engine's solver work.

    The counters and how they reconcile with ``alerts`` are declared in
    :class:`~repro.obs.SolverCounters`. ``recompiles`` and
    ``compile_seconds`` report the table compilation work that landed
    since the previous stats snapshot (the initial compile is attributed
    to the first cycle).
    """

    alerts: int
    backend: str

    @property
    def hit_rate(self) -> float:
        """Fraction of per-alert solves served from the cache."""
        return self.cache_hits / self.alerts if self.alerts else 0.0

    @property
    def table_hit_rate(self) -> float:
        """Fraction of alerts served straight from the policy table."""
        return self.table_hits / self.alerts if self.alerts else 0.0

    @property
    def alerts_per_second(self) -> float:
        """Processed alert throughput (0 when the clock read as instant)."""
        return self.alerts / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @classmethod
    def merge(cls, shards: Sequence["EngineStats"]) -> "EngineStats":
        """Combine per-shard accounting into one aggregate.

        Used by the scenario suite's sharded runner, where each worker
        process drives its own engine/cache. Counters merge by their
        declared rule (:func:`~repro.obs.merge_counters`): worker caches
        are disjoint, so entries add; ``wall_seconds`` adds too, so the
        merged figure is the total worker-side processing time across
        shards (whatever each shard measured — whole-trial time in the
        suite), not elapsed wall-clock (shards overlap in real time).
        """
        if not shards:
            raise ExperimentError("cannot merge zero EngineStats shards")
        backends = {shard.backend for shard in shards}
        if len(backends) != 1:
            raise ExperimentError(
                f"cannot merge stats across backends: {sorted(backends)}"
            )
        return cls(
            alerts=sum(s.alerts for s in shards),
            backend=shards[0].backend,
            **merge_counters(shards),
        )


@dataclass(frozen=True)
class StreamResult:
    """Arrays-of-structs view of one processed cycle.

    ``ossp_utilities`` is recomputed from the recorded marginals through the
    *batched* Theorem-3 closed form wherever it applies (falling back to
    the per-decision value otherwise) — a vectorized derivation that doubles
    as a cross-check of the per-alert pipeline.
    """

    type_ids: np.ndarray
    times: np.ndarray
    thetas: np.ndarray
    game_values: np.ndarray
    ossp_utilities: np.ndarray
    audit_probabilities: np.ndarray
    warned: np.ndarray
    budget_path: np.ndarray
    stats: EngineStats
    decisions: tuple[AlertDecision, ...]

    @property
    def final_budget(self) -> float:
        """Budget remaining after the last alert."""
        return float(self.budget_path[-1]) if self.budget_path.size else 0.0


class BatchAuditEngine:
    """Stream-oriented front end over :class:`SignalingAuditGame`.

    Parameters
    ----------
    config:
        Game configuration. For the fast path use ``backend="analytic"``
        (:func:`analytic_config` builds one).
    estimator:
        Rollback-aware future-alert estimator for the cycle.
    rng:
        Signal-sampling randomness (defaults to a fresh deterministic
        generator, as in the game).
    cache:
        SSE solution cache. Defaults to a fresh exact-mode
        :class:`SSESolutionCache`; pass quantization steps via your own
        instance, or ``None`` to disable caching entirely.
    cache_error_budget:
        Convenience for the certified adaptive policy: when set (and
        ``cache`` is left at its default), the engine builds an
        error-bounded cache — the cache itself defaults its search index
        to the adaptive grid — whose cross-state reuse is certified
        within this game-value budget. Incompatible with an explicit
        ``cache`` instance; configure the instance directly in that case.
    moment:
        Optional shared reciprocal-moment memo.
    policy_table:
        Compile the cycle's reachable ``(budget, rates)`` region into a
        certified :class:`~repro.engine.policy_table.CompiledPolicy` and
        serve in-region alerts from it with zero solves; out-of-region
        states fall back to the solve/cache path. Requires the analytic
        backend (the compiled geometry *is* the analytic solver's).
    policy_table_options:
        Optional compiler keywords (``error_budget``, ``max_budget_cells``,
        ``max_columns``, ``budget_floor``) forwarded to
        :class:`~repro.engine.policy_table.PolicyTableCompiler`.
    """

    def __init__(
        self,
        config: SAGConfig,
        estimator: RollbackEstimator,
        rng: np.random.Generator | None = None,
        cache: SSESolutionCache | None | object = _DEFAULT_CACHE,
        moment: PoissonReciprocalMoment | None = None,
        cache_error_budget: float | None = None,
        policy_table: bool = False,
        policy_table_options: Mapping[str, object] | None = None,
    ) -> None:
        requested_error_budget = cache_error_budget
        if cache is _DEFAULT_CACHE:
            cache = SSESolutionCache(error_budget=cache_error_budget)
        elif cache_error_budget is not None:
            raise ExperimentError(
                "cache_error_budget only applies to the engine's default "
                "cache; set error_budget on the explicit cache instead"
            )
        elif cache is not None and not isinstance(cache, SSESolutionCache):
            raise ExperimentError(
                f"cache must be an SSESolutionCache or None, got {cache!r}"
            )
        self._cache = cache
        self._estimator = estimator
        self._game = SignalingAuditGame(
            config,
            estimator,
            rng=rng,
            moment=moment,
            solution_cache=self._cache,
        )
        self._policy: "CompiledPolicy | None" = None
        self._table_options: dict[str, object] = dict(policy_table_options or {})
        self._pending_recompiles = 0
        self._pending_compile_seconds = 0.0
        self._total_recompiles = 0
        self._total_compile_seconds = 0.0
        self._stale_columns = False
        self._stale_floor = False
        if policy_table_options is not None and not policy_table:
            raise ExperimentError(
                "policy_table_options given but policy_table is False"
            )
        if policy_table:
            if config.backend != "analytic":
                raise ExperimentError(
                    "policy_table requires backend='analytic'; the compiled "
                    f"geometry is the analytic solver's (got {config.backend!r})"
                )
            if (
                "error_budget" not in self._table_options
                and requested_error_budget is not None
            ):
                self._table_options["error_budget"] = requested_error_budget
            self._compile_table()

    def _compile_table(self) -> None:
        """(Re)compile the policy table for the current estimator state."""
        from repro.engine.policy_table import PolicyTableCompiler

        compiler = PolicyTableCompiler(
            self._game.config,
            self._estimator,
            moment=self._game.moment,
            **self._table_options,
        )
        policy = compiler.compile()
        self._policy = policy
        self._pending_compile_seconds += policy.compile_seconds
        self._total_compile_seconds += policy.compile_seconds
        self._stale_columns = False
        self._stale_floor = False

    @property
    def game(self) -> SignalingAuditGame:
        """The underlying per-alert game."""
        return self._game

    @property
    def cache(self) -> SSESolutionCache | None:
        """The SSE solution cache, when caching is enabled."""
        return self._cache

    @property
    def policy(self) -> "CompiledPolicy | None":
        """The compiled policy table, when table mode is on."""
        return self._policy

    @property
    def recompiles(self) -> int:
        """Lifetime count of table recompilations (initial compile excluded)."""
        return self._total_recompiles

    @property
    def compile_seconds(self) -> float:
        """Lifetime seconds spent compiling policy tables."""
        return self._total_compile_seconds

    def reset(self) -> None:
        """Start a fresh audit cycle (cache contents are kept — states from
        previous cycles stay valid lookups).

        In table mode, a region marked stale during the cycle — rates that
        drifted past the compiled trajectory prefix, or budget exhaustion
        below the grid floor — triggers a recompile over the widened
        region, so the next cycle serves those states from the table again.
        """
        self._game.reset()
        if self._policy is not None and (self._stale_columns or self._stale_floor):
            if self._stale_columns:
                self._table_options["max_columns"] = int(
                    self._policy.region.total_columns
                )
            if self._stale_floor:
                self._table_options["budget_floor"] = 0.0
            self._compile_table()
            self._pending_recompiles += 1
            self._total_recompiles += 1

    def process_stream(
        self,
        type_ids: Sequence[int] | np.ndarray,
        times: Sequence[float] | np.ndarray,
        batched_ossp: bool = True,
    ) -> StreamResult:
        """Run one whole cycle over parallel ``(type_id, time)`` arrays.

        ``batched_ossp=False`` skips the vectorized OSSP re-derivation and
        returns the per-decision values verbatim in ``ossp_utilities`` —
        the service's cross-tenant submit path sets this because it runs
        one stacked derivation over *all* tenants' marginals instead of
        one pass per tenant.
        """
        type_arr = np.asarray(type_ids, dtype=int)
        time_arr = np.asarray(times, dtype=float)
        if type_arr.ndim != 1 or type_arr.shape != time_arr.shape:
            raise ExperimentError(
                "type_ids and times must be parallel one-dimensional arrays"
            )
        if type_arr.size == 0:
            raise ExperimentError("cannot process an empty alert stream")
        if np.any(np.diff(time_arr) < 0):
            raise ExperimentError("alert stream must be chronological")

        hits_before = self._cache.hits if self._cache is not None else 0
        misses_before = self._cache.misses if self._cache is not None else 0
        started = _time.perf_counter()
        if self._policy is not None:
            decisions, table_hits, fallbacks = self._table_stream(
                type_arr, time_arr
            )
        else:
            decisions = [
                self._game.process_alert(int(t), float(s))
                for t, s in zip(type_arr, time_arr)
            ]
            table_hits, fallbacks = 0, 0
        wall = _time.perf_counter() - started

        n = type_arr.size
        solved = n if self._policy is None else fallbacks
        if self._cache is not None:
            cache_hits = self._cache.hits - hits_before
            sse_solves = self._cache.misses - misses_before
            entries = len(self._cache)
        else:
            cache_hits, sse_solves, entries = 0, solved, 0
        recompiles = self._pending_recompiles
        compile_seconds = self._pending_compile_seconds
        self._pending_recompiles = 0
        self._pending_compile_seconds = 0.0
        stats = EngineStats(
            alerts=n,
            sse_solves=sse_solves,
            cache_hits=cache_hits,
            cache_entries=entries,
            wall_seconds=wall,
            backend=self._game.config.backend,
            table_hits=table_hits,
            table_misses=fallbacks,
            fallbacks=fallbacks,
            recompiles=recompiles,
            compile_seconds=compile_seconds,
        )

        thetas = np.array([d.theta for d in decisions])
        return StreamResult(
            type_ids=type_arr,
            times=time_arr,
            thetas=thetas,
            game_values=np.array([d.game_value for d in decisions]),
            ossp_utilities=(
                self._batched_ossp_utilities(type_arr, thetas, decisions)
                if batched_ossp
                else np.array([d.ossp_utility for d in decisions])
            ),
            audit_probabilities=np.array([d.audit_probability for d in decisions]),
            warned=np.array([d.warned for d in decisions], dtype=bool),
            budget_path=np.array([d.budget_after for d in decisions]),
            stats=stats,
            decisions=tuple(decisions),
        )

    def _table_stream(
        self, type_arr: np.ndarray, time_arr: np.ndarray
    ) -> tuple[list[AlertDecision], int, int]:
        """One cycle through the compiled policy table.

        The estimator's rollback-anchor recursion and the trajectory-row
        placement are precomputed for the whole batch in NumPy; the
        sequential residue — the budget path, the signal draws, and the
        decision objects — runs in a tight scalar loop that touches only
        Python floats, tuples and bytes. Alerts that miss the table (rates
        past the compiled prefix, budget off the grid, uncertified cells)
        drop to :meth:`SignalingAuditGame.process_alert` after syncing the
        estimator anchor and flushing the buffered ledger state, so the
        fallback decision is bit-identical to the plain cache path.
        """
        policy = self._policy
        assert policy is not None
        game = self._game
        est = self._estimator
        ledger = game.ledger

        anchor0 = est.anchor_time
        if time_arr[0] < anchor0:
            # A prior batch in this cycle saw later times; the anchor
            # recursion cannot be replayed from here. Keep the exact path.
            decisions = [
                game.process_alert(int(t), float(s))
                for t, s in zip(type_arr, time_arr)
            ]
            return decisions, 0, len(decisions)

        rows = np.searchsorted(policy.boundaries, time_arr, side="right")
        rich = policy.totals[rows] >= est.threshold
        anchor_after = np.maximum.accumulate(
            np.where(rich, time_arr, anchor0)
        )
        anchor_before = np.empty_like(anchor_after)
        anchor_before[0] = anchor0
        anchor_before[1:] = anchor_after[:-1]
        if est.enabled:
            effective = np.where(rich, time_arr, anchor_before)
            columns = np.searchsorted(policy.boundaries, effective, side="right")
        else:
            columns = rows

        # Scalarize once; the loop below must not touch NumPy.
        columns_l = columns.tolist()
        types_l = type_arr.tolist()
        times_l = time_arr.tolist()
        anchors_l = anchor_before.tolist()

        region = policy.region
        n_columns = region.columns
        floor = region.budget_floor
        ceiling = region.budget_ceiling
        inv_step = 1.0 / region.budget_step
        last_cell = region.budget_cells - 1
        valid_l = policy.valid
        winner_l = policy.winner
        g_l = policy.g
        xs_l = policy.xs
        a_l = policy.a
        b_l = policy.b
        inv_coef_l = policy.inv_coef
        type_ids = policy.type_ids
        index_of = policy.index_of
        n_types = len(type_ids)
        u_du = policy.u_du
        u_dc = policy.u_dc
        u_au = policy.u_au
        gap = policy.gap
        span = policy.span
        costs = policy.costs
        labels = tuple(f"type={t}" for t in type_ids)

        config = game.config
        signaling = config.signaling_enabled
        scope_all = config.scope == SCOPE_ALL
        charge_expected = config.budget_charging == CHARGE_EXPECTED
        rng_random = game.rng.random
        record = game.record_decision
        process_alert = game.process_alert
        scan = policy.scan

        rem = ledger.remaining
        pending: list[SpendRecord] = []
        pending_append = pending.append
        out: list[AlertDecision] = []
        out_append = out.append
        hits = 0
        falls = 0

        for i in range(len(types_l)):
            alert_type = types_l[i]
            t_local = index_of.get(alert_type)
            column = columns_l[i]
            budget = rem
            winner = -1
            if (
                t_local is not None
                and column < n_columns
                and floor <= budget <= ceiling
            ):
                cell = int((budget - floor) * inv_step)
                if cell > last_cell:
                    cell = last_cell
                if valid_l[column][cell]:
                    winner = winner_l[column][cell]
                    # Exact water-filling at the queried budget (same
                    # arithmetic as CompiledPolicy.water_fill, inlined).
                    gs = g_l[column][winner]
                    xw = xs_l[winner]
                    m = len(gs)
                    k = 0
                    in_budget = budget + 1e-9
                    while k + 1 < m and gs[k + 1] <= in_budget:
                        k += 1
                    if k == m - 1:
                        x = xw[k]
                    else:
                        g_lo = gs[k]
                        dg = gs[k + 1] - g_lo
                        x_lo = xw[k]
                        if dg <= 0.0:
                            x = x_lo
                        else:
                            x_hi = xw[k + 1]
                            x = x_lo + (budget - g_lo) * (x_hi - x_lo) / dg
                            if x < x_lo:
                                x = x_lo
                            elif x > x_hi:
                                x = x_hi
                else:
                    # Uncertified cell (winner handoff): exact zero-solve
                    # scan over every candidate at this precise budget.
                    found = scan(column, budget)
                    if found is not None:
                        winner, x = found
            if winner < 0:
                # Fallback: hand the buffered sequential state back to the
                # stateful objects, then run the exact per-alert pipeline.
                est.sync_anchor(anchors_l[i])
                if pending:
                    ledger.sync(rem, pending)
                    pending.clear()
                decision = process_alert(alert_type, times_l[i])
                rem = ledger.remaining
                out_append(decision)
                falls += 1
                continue

            aw = a_l[winner]
            bw = b_l[winner]
            inv = inv_coef_l[column]
            thetas = {}
            allocations = {}
            for j in range(n_types):
                if j == winner:
                    theta_j = x
                else:
                    theta_j = aw[j] + bw[j] * x
                    if theta_j < 0.0:
                        theta_j = 0.0
                    elif theta_j > 1.0:
                        theta_j = 1.0
                thetas[type_ids[j]] = theta_j
                allocations[type_ids[j]] = theta_j * inv[j]
            attacker = u_au[winner] + x * gap[winner]
            auditor = u_du[winner] + x * span[winner]
            sse = _new(SSESolution)
            _setattr(sse, "__dict__", {
                "thetas": thetas,
                "allocations": allocations,
                "best_response": type_ids[winner],
                "auditor_utility": auditor,
                "attacker_utility": attacker,
                "lps_solved": 0,
                "lps_feasible": 0,
                "certificate": None,
            })

            theta = thetas[alert_type]
            sse_utility = theta * u_dc[t_local] + (1.0 - theta) * u_du[t_local]
            if signaling:
                # Game value: the BR type's OSSP objective, via the same
                # closed-form float path as solve_ossp_closed_form.
                if attacker <= 0.0:
                    game_value = 0.0 * u_dc[winner] + 0.0 * u_du[winner]
                else:
                    game_value = 0.0 * u_dc[winner] + (
                        attacker / u_au[winner]
                    ) * u_du[winner]
                applied = scope_all or t_local == winner
            else:
                game_value = 0.0 if attacker < 0.0 else auditor
                applied = False

            if applied:
                beta = attacker if t_local == winner else (
                    u_au[t_local] + theta * gap[t_local]
                )
                if beta <= 0.0:
                    p1 = theta
                    q1 = 1.0 - theta
                    p0 = 0.0
                    q0 = 0.0
                    ossp_utility = p0 * u_dc[t_local] + q0 * u_du[t_local]
                else:
                    q0 = beta / u_au[t_local]
                    q1 = 1.0 - theta - q0
                    if q1 < 0.0:
                        q1 = 0.0
                    p1 = theta
                    p0 = 0.0
                    ossp_utility = p0 * u_dc[t_local] + q0 * u_du[t_local]
                scheme = _new(SignalingScheme)
                _setattr(scheme, "__dict__", {
                    "p1": p1, "q1": q1, "p0": p0, "q0": q0,
                })
                warning_probability = p1 + q1
                warned = rng_random() < warning_probability
                if warned:
                    audit_probability = (
                        p1 / warning_probability
                        if warning_probability > _PROB_TOL
                        else 0.0
                    )
                else:
                    silence = p0 + q0
                    audit_probability = (
                        p0 / silence if silence > _PROB_TOL else 0.0
                    )
            else:
                scheme = None
                ossp_utility = sse_utility
                warned = False
                audit_probability = theta

            amount = (
                theta if charge_expected else audit_probability
            ) * costs[t_local]
            charged = amount if amount < rem else rem
            rem = budget - charged
            spend = _new(SpendRecord)
            _setattr(spend, "__dict__", {
                "time_of_day": times_l[i],
                "amount": charged,
                "label": labels[t_local],
            })
            pending_append(spend)

            decision = _new(AlertDecision)
            _setattr(decision, "__dict__", {
                "time_of_day": times_l[i],
                "type_id": alert_type,
                "sse": sse,
                "scheme": scheme,
                "warned": warned,
                "audit_probability": audit_probability,
                "budget_before": budget,
                "budget_after": rem,
                "charged": charged,
                "ossp_utility": ossp_utility,
                "sse_utility": sse_utility,
                "game_value": game_value,
                "solve_seconds": 0.0,
                "signaling_applied": applied,
            })
            record(decision)
            out_append(decision)
            hits += 1

        est.sync_anchor(float(anchor_after[-1]))
        if pending:
            ledger.sync(rem, pending)
        if self._stale_floor is False and rem < floor and floor > 0.0:
            self._stale_floor = True
        if not self._stale_columns and region.truncated:
            if int(columns.max()) >= n_columns:
                self._stale_columns = True
        return out, hits, falls

    def _batched_ossp_utilities(
        self,
        type_arr: np.ndarray,
        thetas: np.ndarray,
        decisions: list[AlertDecision],
    ) -> np.ndarray:
        """Per-alert OSSP values, one vectorized pass per alert type.

        The batched closed form applies exactly when the per-alert pipeline
        itself used it: signaling applied, classic (non-robust) OSSP, and
        the Theorem 3 payoff condition. All other alerts keep their recorded
        per-decision value.
        """
        values = np.array([d.ossp_utility for d in decisions])
        config = self._game.config
        if (
            not config.signaling_enabled
            or config.robust_margin > 0
            or config.signaling_method != "closed_form"
        ):
            return values
        applied = np.array([d.signaling_applied for d in decisions], dtype=bool)
        for type_id in np.unique(type_arr):
            payoff = config.payoffs[int(type_id)]
            if not payoff.satisfies_theorem3_condition():
                continue
            mask = (type_arr == type_id) & applied
            if np.any(mask):
                values[mask] = batch_ossp_auditor_utility(thetas[mask], payoff)
        return values


def analytic_config(config: SAGConfig) -> SAGConfig:
    """A copy of ``config`` switched to the analytic solver backend."""
    from dataclasses import replace

    return replace(config, backend="analytic")
