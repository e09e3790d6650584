"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` names everything needed to reproduce one
Monte Carlo evaluation world — population volume, diurnal alert profile,
attacker model, budget regime, solver backend, cache policy — as plain
JSON-compatible values. Specs are the unit the scenario suite sweeps
(:mod:`repro.scenarios.matrix`), shards (:mod:`repro.scenarios.runner`),
and persists in result files, so every field is a scalar or a string
naming a registered object; nothing in a spec holds live state.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigError, ExperimentError
from repro.audit.attacker import QuantalResponseAttacker, RationalAttacker
from repro.learning.attackers import BayesianLearningAttacker, NoRegretAttacker
from repro.audit.evaluation import EvaluationHarness, TrainTestSplit
from repro.audit.montecarlo import TIMING_LATE, TIMING_UNIFORM
from repro.audit.policies import CycleContext
from repro.core.payoffs import PayoffMatrix
from repro.experiments.config import (
    MULTI_TYPE_BUDGET,
    SINGLE_TYPE_BUDGET,
    SINGLE_TYPE_ID,
    TABLE2_PAYOFFS,
    paper_costs,
)
from repro.experiments.dataset import build_alert_store
from repro.ingest.registry import (
    SOURCE_SIMULATOR,
    available_sources,
    store_for,
)
from repro.logstore.store import AlertLogStore, AlertRecord
from repro.solvers.registry import available_backends
from repro.stats.diurnal import PROFILE_FACTORIES

#: Payoff settings (which slice of Table 2 the scenario plays).
SETTING_SINGLE = "single"   # Figure 2 world: type 1 only
SETTING_MULTI = "multi"     # Figure 3 world: all seven types
SETTINGS = (SETTING_SINGLE, SETTING_MULTI)

#: Attacker models.
ATTACKER_RATIONAL = "rational"   # the paper's perfectly rational attacker
ATTACKER_QUANTAL = "quantal"     # boundedly rational (logit) attacker
ATTACKER_ROBUST = "robust"       # quantal attacker vs margin-hardened OSSP
ATTACKER_MULTI = "multi"         # m independent symmetric rational attackers
ATTACKER_BAYESIAN = "bayesian_learning"  # Beta-posterior coverage learner
ATTACKER_NO_REGRET = "no_regret"         # Hedge over attack types
#: Attackers that adapt across cycles (see :mod:`repro.learning`). The
#: suite runs the multi-cycle learning loop for these and embeds the
#: regret/entropy/exploitability curves in the deterministic payload.
LEARNING_ATTACKERS = (ATTACKER_BAYESIAN, ATTACKER_NO_REGRET)
ATTACKERS = (
    ATTACKER_RATIONAL,
    ATTACKER_QUANTAL,
    ATTACKER_ROBUST,
    ATTACKER_MULTI,
    *LEARNING_ATTACKERS,
)

#: Cache policies for the suite's Monte Carlo trials.
CACHE_SHARED = "shared"       # one exact-mode cache per worker (never changes results)
CACHE_PER_TRIAL = "per-trial" # fresh (possibly quantized) cache per trial
CACHE_OFF = "off"             # no caching
CACHE_MODES = (CACHE_SHARED, CACHE_PER_TRIAL, CACHE_OFF)

_BACKENDS = available_backends()
_TIMINGS = (TIMING_UNIFORM, TIMING_LATE)
_CHARGING = ("conditional", "expected")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified evaluation scenario.

    Every field is JSON-serializable; :meth:`to_dict`/:meth:`from_dict`
    round-trip exactly. Fields with ``None`` defaults resolve to the
    paper's values for the chosen ``setting`` (see :meth:`resolved_budget`
    and :meth:`resolved_window`).

    Attributes
    ----------
    name:
        Unique identifier; matrix expansion appends ``/axis=value`` parts.
    setting:
        ``"single"`` (Figure 2: type 1 only) or ``"multi"`` (Figure 3: all
        seven Table 2 types).
    budget:
        Per-cycle audit budget; ``None`` means the paper's budget for the
        setting (20 single / 50 multi).
    seed:
        Master seed for the dataset *and* the trial-seed expansion.
    n_days:
        Simulated dataset length; the first rolling train/test group is the
        evaluation world.
    training_window:
        History days per group; ``None`` = ``min(41, n_days - 1)``.
    normal_daily_mean:
        Routine (non-engineered) accesses per simulated day — the
        population-volume knob (``source="simulator"`` only).
    diurnal:
        Named intra-day arrival profile: ``hospital``/``uniform``/``night``.
    source:
        Where the alert stream comes from (:mod:`repro.ingest`):
        ``"simulator"`` (the calibrated EMR pipeline, replayable from
        ``seed``), ``"log"`` (a journaled alert log at ``source_path``),
        or ``"mapped"`` (a foreign-schema dump directory with a
        ``mapping.json`` at ``source_path``). Path-backed sources ignore
        the simulator volume knobs; ``seed`` still drives the trial-seed
        expansion.
    source_path:
        Filesystem path for the path-backed sources; must be ``None``
        for ``source="simulator"``.
    attacker:
        ``rational``, ``quantal``, ``robust`` (= quantal attacker against a
        margin-hardened OSSP; requires ``robust_margin > 0``), ``multi``
        (``n_attackers`` independent symmetric rational attackers), or a
        learning model — ``bayesian_learning`` (Beta posterior over
        per-type coverage) / ``no_regret`` (Hedge over attack types); see
        :mod:`repro.learning`.
    rationality:
        Quantal-response precision (used by ``quantal``/``robust``).
    n_attackers:
        Simultaneous attackers per trial (``multi`` only; any other
        attacker with ``n_attackers != 1`` is a :class:`ConfigError`).
    learning_rate:
        Step size for the learning attackers (Hedge rate for
        ``no_regret``; observation weight for ``bayesian_learning``).
    learning_cycles:
        Cycles of the adaptive learning loop the suite runs for learning
        attackers (ignored otherwise).
    fp_iterations:
        Iteration budget for the ``fictitious_play`` backend's dynamics
        (the equilibrium itself stays exact at any budget; this bounds the
        reported exploitability-gap quality).
    robust_margin:
        Hardened quit-constraint margin as a fraction of ``|U_au|``.
    timing:
        ``uniform`` or ``late`` attack timing.
    signaling_enabled:
        ``False`` evaluates the online-SSE (no warning) baseline.
    n_trials:
        Monte Carlo trials (shardable across workers).
    backend:
        Solver backend: ``analytic`` (fast path), ``scipy``, ``simplex``.
    budget_charging:
        ``conditional`` (paper-faithful) or ``expected`` (variance-free).
    cache_mode / cache_budget_step / cache_rate_step / cache_error_budget:
        SSE solution-cache policy. ``shared`` requires exact mode (steps
        0, no error budget) — quantized or certified-adaptive shared
        caches would make results depend on how trials shard across
        workers; ``per-trial`` confines such a cache to one trial, which
        keeps sharding invariance. ``cache_error_budget`` enables the
        certified adaptive mode: cross-state cache reuse only when the
        stored per-state certificate bounds the game-value error within
        the budget (see :mod:`repro.engine.cache`).
    policy_table:
        Compile the session's reachable ``(budget, rates)`` region into a
        certified policy table and serve in-region decisions from it with
        zero solves (see :mod:`repro.engine.policy_table`). Requires the
        analytic backend, ``robust_margin == 0``, and (with signaling) the
        closed-form method.
    """

    name: str
    setting: str = SETTING_SINGLE
    budget: float | None = None
    seed: int = 7
    n_days: int = 48
    training_window: int | None = None
    normal_daily_mean: float = 4000.0
    diurnal: str = "hospital"
    source: str = SOURCE_SIMULATOR
    source_path: str | None = None
    attacker: str = ATTACKER_RATIONAL
    rationality: float = 20.0
    n_attackers: int = 1
    learning_rate: float = 0.5
    learning_cycles: int = 10
    fp_iterations: int = 400
    robust_margin: float = 0.0
    timing: str = TIMING_UNIFORM
    signaling_enabled: bool = True
    n_trials: int = 60
    backend: str = "analytic"
    budget_charging: str = "conditional"
    cache_mode: str = CACHE_SHARED
    cache_budget_step: float = 0.0
    cache_rate_step: float = 0.0
    cache_error_budget: float | None = None
    policy_table: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ExperimentError("scenario name must be a non-empty string")
        # Type checks come first so wrong-typed CLI/JSON values (e.g. an
        # --axis string landing in a numeric field) surface as clean
        # ExperimentErrors instead of TypeErrors from the range checks.
        for field_name in (
            "seed", "n_days", "n_trials", "n_attackers",
            "learning_cycles", "fp_iterations",
        ):
            _require_int(getattr(self, field_name), field_name)
        if self.training_window is not None:
            _require_int(self.training_window, "training_window")
        for field_name in (
            "normal_daily_mean", "rationality", "robust_margin",
            "cache_budget_step", "cache_rate_step", "learning_rate",
        ):
            _require_number(getattr(self, field_name), field_name)
        if self.budget is not None:
            _require_number(self.budget, "budget")
        if not isinstance(self.signaling_enabled, bool):
            raise ExperimentError(
                "signaling_enabled must be a boolean, got "
                f"{self.signaling_enabled!r}"
            )
        if not isinstance(self.policy_table, bool):
            raise ExperimentError(
                f"policy_table must be a boolean, got {self.policy_table!r}"
            )
        if self.policy_table and self.backend != "analytic":
            raise ExperimentError(
                "policy_table requires backend='analytic' (the compiled "
                f"geometry is the analytic solver's), got {self.backend!r}"
            )
        if self.policy_table and self.robust_margin > 0:
            raise ExperimentError(
                "policy_table covers the classic OSSP only; robust_margin "
                "must be 0"
            )
        _require(self.setting, SETTINGS, "setting")
        _require(self.attacker, ATTACKERS, "attacker")
        _require(self.timing, _TIMINGS, "timing")
        _require(self.backend, _BACKENDS, "backend")
        _require(self.budget_charging, _CHARGING, "budget_charging")
        _require(self.cache_mode, CACHE_MODES, "cache_mode")
        _require(self.diurnal, tuple(sorted(PROFILE_FACTORIES)), "diurnal")
        _require(self.source, available_sources(), "source")
        if self.source == SOURCE_SIMULATOR:
            if self.source_path is not None:
                raise ConfigError(
                    "source_path is only meaningful for path-backed "
                    f"sources, got source_path={self.source_path!r} with "
                    "source='simulator'"
                )
        elif not self.source_path or not isinstance(self.source_path, str):
            raise ConfigError(
                f"source={self.source!r} needs a source_path string "
                "(the journal file or dump directory to replay)"
            )
        if self.budget is not None and self.budget < 0:
            raise ExperimentError(f"budget must be non-negative, got {self.budget}")
        if self.n_trials <= 0:
            raise ExperimentError(f"n_trials must be positive, got {self.n_trials}")
        if self.n_days < 2:
            raise ExperimentError(f"need at least 2 days, got {self.n_days}")
        if self.training_window is not None and not (
            0 < self.training_window < self.n_days
        ):
            raise ExperimentError(
                f"training_window must lie in (0, n_days), got {self.training_window}"
            )
        if self.rationality < 0:
            raise ExperimentError(
                f"rationality must be non-negative, got {self.rationality}"
            )
        if self.robust_margin < 0:
            raise ExperimentError(
                f"robust_margin must be non-negative, got {self.robust_margin}"
            )
        if self.attacker == ATTACKER_ROBUST and self.robust_margin <= 0:
            raise ExperimentError(
                "the 'robust' attacker scenario needs robust_margin > 0"
            )
        if self.n_attackers < 1:
            raise ExperimentError(
                f"n_attackers must be >= 1, got {self.n_attackers}"
            )
        if self.attacker != ATTACKER_MULTI and self.n_attackers != 1:
            raise ConfigError(
                f"n_attackers={self.n_attackers} requires attacker='multi'; "
                f"attacker={self.attacker!r} plays a single attacker per "
                "trial — drop n_attackers or switch the attacker model"
            )
        if not self.learning_rate > 0:
            raise ExperimentError(
                f"learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.learning_cycles < 1:
            raise ExperimentError(
                f"learning_cycles must be >= 1, got {self.learning_cycles}"
            )
        if self.fp_iterations < 1:
            raise ExperimentError(
                f"fp_iterations must be >= 1, got {self.fp_iterations}"
            )
        if self.cache_budget_step < 0 or self.cache_rate_step < 0:
            raise ExperimentError("cache quantization steps must be non-negative")
        if self.cache_error_budget is not None:
            _require_number(self.cache_error_budget, "cache_error_budget")
            if self.cache_error_budget < 0:
                raise ExperimentError(
                    "cache_error_budget must be non-negative, got "
                    f"{self.cache_error_budget}"
                )
        if self.cache_mode == CACHE_SHARED and (
            self.cache_budget_step > 0
            or self.cache_rate_step > 0
            or self.cache_error_budget is not None
        ):
            raise ExperimentError(
                "cache_mode='shared' requires exact caching (steps 0, no "
                "error budget); a lossy or certified-adaptive shared cache "
                "would make results depend on trial sharding — use "
                "cache_mode='per-trial' instead"
            )

    # ------------------------------------------------------------------
    # Resolution helpers (None defaults -> paper values)
    # ------------------------------------------------------------------

    def resolved_budget(self) -> float:
        """The cycle budget, defaulting to the paper's value per setting."""
        if self.budget is not None:
            return float(self.budget)
        return SINGLE_TYPE_BUDGET if self.setting == SETTING_SINGLE else MULTI_TYPE_BUDGET

    def resolved_window(self, store: AlertLogStore | None = None) -> int:
        """Training window, defaulting to the paper's 41-day cap.

        An explicit ``training_window`` always wins; otherwise the cap
        applies to ``store``'s actual day count when one is given (an
        explicitly passed store may be smaller than ``n_days``), else to
        ``n_days``.
        """
        if self.training_window is not None:
            return self.training_window
        n_days = len(store.days) if store is not None else self.n_days
        return min(41, n_days - 1)

    def payoffs(self) -> dict[int, PayoffMatrix]:
        """Table 2 payoffs for the chosen setting."""
        if self.setting == SETTING_SINGLE:
            return {SINGLE_TYPE_ID: TABLE2_PAYOFFS[SINGLE_TYPE_ID]}
        return dict(TABLE2_PAYOFFS)

    def costs(self) -> dict[int, float]:
        """Per-type audit costs for the chosen setting."""
        return {type_id: paper_costs()[type_id] for type_id in self.payoffs()}

    def type_ids(self) -> tuple[int, ...]:
        """Alert types in play."""
        return tuple(sorted(self.payoffs()))

    def attacker_model(
        self,
    ) -> (
        RationalAttacker
        | QuantalResponseAttacker
        | BayesianLearningAttacker
        | NoRegretAttacker
    ):
        """A fresh attacker instance the Monte Carlo trials play against.

        Learning attackers are stateful (beliefs move at cycle
        boundaries); callers that need sharding invariance build one per
        trial via this factory.
        """
        if self.attacker in (ATTACKER_QUANTAL, ATTACKER_ROBUST):
            return QuantalResponseAttacker(self.rationality)
        if self.attacker == ATTACKER_BAYESIAN:
            return BayesianLearningAttacker(observation_weight=self.learning_rate)
        if self.attacker == ATTACKER_NO_REGRET:
            return NoRegretAttacker(learning_rate=self.learning_rate)
        return RationalAttacker()

    @property
    def learning_attacker(self) -> bool:
        """Whether this scenario's attacker adapts across cycles."""
        return self.attacker in LEARNING_ATTACKERS

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------

    def build_store(self) -> AlertLogStore:
        """The (memoized) alert store this scenario evaluates on.

        Routes through the :mod:`repro.ingest` source registry: the
        simulator source keeps its parameter-keyed memoization in
        :func:`repro.experiments.dataset.build_alert_store`; path-backed
        sources (``log``/``mapped``) load from ``source_path``.
        """
        if self.source == SOURCE_SIMULATOR:
            return build_alert_store(
                seed=self.seed,
                n_days=self.n_days,
                normal_daily_mean=self.normal_daily_mean,
                diurnal=self.diurnal,
            )
        return store_for(self.source, self.source_path)

    def build_harness(self, store: AlertLogStore | None = None) -> EvaluationHarness:
        """Evaluation harness over this scenario's store and parameters."""
        return EvaluationHarness(
            store if store is not None else self.build_store(),
            payoffs=self.payoffs(),
            costs=self.costs(),
            budget=self.resolved_budget(),
            type_ids=self.type_ids(),
            backend=self.backend,
            seed=self.seed,
            budget_charging=self.budget_charging,
            fp_iterations=self.fp_iterations,
        )

    def build_world(
        self, store: AlertLogStore | None = None
    ) -> tuple[list[AlertRecord], CycleContext, TrainTestSplit]:
        """The first rolling group's (alerts, context, split) triple.

        This is the frozen evaluation world every Monte Carlo trial
        replays; the runner computes it once per scenario and ships it
        (pickled) to shard workers, so shards never re-simulate it.
        """
        if store is None:
            store = self.build_store()
        harness = self.build_harness(store)
        split = harness.splits(window=self.resolved_window(store))[0]
        alerts = harness.test_alerts(split)
        if not alerts:
            raise ExperimentError(
                f"scenario {self.name!r}: test day {split.test_day} has no alerts"
            )
        return alerts, harness.context_for(split), split

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible scalars only)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ExperimentError(
                f"unknown ScenarioSpec fields: {sorted(unknown)}"
            )
        return cls(**dict(payload))

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ExperimentError("a ScenarioSpec JSON document must be an object")
        return cls.from_dict(payload)

    def with_updates(self, **changes: Any) -> "ScenarioSpec":
        """A copy with fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)


def _require(value: str, allowed: tuple[str, ...], field_name: str) -> None:
    if value not in allowed:
        raise ExperimentError(
            f"unknown {field_name} {value!r}; expected one of {list(allowed)}"
        )


def _require_int(value: Any, field_name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExperimentError(
            f"{field_name} must be an integer, got {value!r}"
        )


def _require_number(value: Any, field_name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExperimentError(
            f"{field_name} must be a number, got {value!r}"
        )
