"""Typed request/response contracts of the v1 serving API.

Every type here is a frozen dataclass of JSON-compatible scalars (plus
:class:`~repro.core.payoffs.PayoffMatrix`, itself four floats) and
round-trips exactly through ``to_dict``/``from_dict`` and
``to_json``/``from_json`` — the same contract :class:`ScenarioSpec`
established for scenario files. Requests (:class:`AlertEvent`,
:class:`SessionConfig`) travel into the service; responses
(:class:`SignalDecision`, :class:`CycleReport`, :class:`SessionStats`,
:class:`ServiceStats`) travel out. Nothing in a payload holds live
state, so every message can be logged, shipped over a wire, and replayed.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import InvalidEventError
from repro.core.payoffs import PayoffMatrix
from repro.obs import SolverCounters, merge_counters

#: Session lifecycle states (see :class:`repro.api.v1.AuditSession`).
SESSION_OPEN = "open"
SESSION_CLOSED = "closed"

#: Attacker models a session can track across cycle closes. ``"rational"``
#: (the default) attaches nothing; the learning models
#: (:mod:`repro.learning`) observe each closed cycle's mean coverage and
#: surface regret/entropy/exploitability diagnostics on the reports.
SESSION_ATTACKERS = ("rational", "bayesian_learning", "no_regret")


#: Field values passed through ``to_dict`` as they are (immutable leaves).
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})

#: Dataclass type → its field names, computed once per class.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(cls)
        )
    return names


def _plain(value: Any) -> Any:
    """``dataclasses.asdict``'s value conversion in one pass.

    Leaves come back as they are; dataclasses, lists, tuples and dicts come
    back as fresh containers of converted values; anything else is
    deep-copied, exactly as ``asdict`` does.
    """
    kind = type(value)
    if kind in _LEAF_TYPES:
        return value
    if hasattr(kind, "__dataclass_fields__"):
        return {
            name: _plain(getattr(value, name)) for name in _field_names(kind)
        }
    if kind is list:
        return [_plain(item) for item in value]
    if kind is dict:
        return {_plain(key): _plain(item) for key, item in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return kind(*[_plain(item) for item in value])
    if isinstance(value, (list, tuple)):
        return kind(_plain(item) for item in value)
    if isinstance(value, dict):
        return kind((_plain(key), _plain(item)) for key, item in value.items())
    return copy.deepcopy(value)


class _Payload:
    """Shared serde for the API dataclasses.

    ``to_dict`` flattens to JSON-compatible values; ``from_dict`` is the
    exact inverse and rejects unknown keys, so a payload written by one
    version never silently drops fields when read by another.
    """

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible values only).

        Equal to ``dataclasses.asdict(self)`` with fresh containers, but
        walks a per-class field list instead of recursing through
        ``asdict``'s generic machinery.
        """
        return {
            name: _plain(getattr(self, name))
            for name in _field_names(type(self))
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        unknown = set(payload).difference(_field_names(cls))
        if unknown:
            raise InvalidEventError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}"
            )
        return cls(**cls._decode(dict(payload)))

    @classmethod
    def _decode(cls, payload: dict[str, Any]) -> dict[str, Any]:
        """Hook for subclasses that carry non-scalar fields."""
        return payload

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise InvalidEventError(
                f"a {cls.__name__} JSON document must be an object"
            )
        return cls.from_dict(payload)


@dataclass(frozen=True)
class AlertEvent(_Payload):
    """One arriving alert, addressed to a tenant's session.

    Attributes
    ----------
    tenant:
        The organization whose session must handle this event.
    type_id:
        Alert type (must be covered by the session's payoffs).
    time_of_day:
        Arrival time in seconds since cycle start (nondecreasing within a
        cycle).
    event_id:
        Optional caller-supplied correlation id, echoed on the decision.
    """

    tenant: str
    type_id: int
    time_of_day: float
    event_id: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise InvalidEventError("event tenant must be a non-empty string")
        if self.time_of_day < 0:
            raise InvalidEventError(
                f"time_of_day must be non-negative, got {self.time_of_day}"
            )


@dataclass(frozen=True)
class SignalDecision(_Payload):
    """The auditor's realized decision for one event — the API response.

    The per-alert pipeline's outcome (:class:`repro.core.game.AlertDecision`)
    projected onto stable wire fields: the marginal ``theta``, the sampled
    warning, the signal-conditional audit probability, the budget after the
    charge, and the three utility readings the figures plot.
    """

    tenant: str
    event_id: int | None
    type_id: int
    time_of_day: float
    cycle: int
    sequence: int
    theta: float
    warned: bool
    audit_probability: float
    budget_remaining: float
    game_value: float
    ossp_utility: float
    sse_utility: float
    signaling_applied: bool

    @property
    def signaling_gain(self) -> float:
        """Value of the warning mechanism for this alert (Theorem 2: >= 0)."""
        return self.ossp_utility - self.sse_utility


@dataclass(frozen=True)
class CycleReport(_Payload, SolverCounters):
    """Per-cycle accounting returned by ``close_cycle``.

    The solver counters (:class:`~repro.obs.SolverCounters`) reconcile
    with ``alerts`` exactly like
    :class:`~repro.engine.stream.EngineStats`; ``wall_seconds`` is the
    decide-path processing time of the cycle. ``recompiles``/
    ``compile_seconds`` report table compilation work that landed during
    this cycle (a recompile triggered by this cycle's close executes at
    reset and is attributed to the next cycle). ``learning_cycles`` is 1
    when a learning attacker observed this cycle's coverage at close, and
    the learning diagnostics are that observation's.
    """

    tenant: str
    cycle: int
    alerts: int
    warnings_sent: int
    budget_initial: float
    budget_final: float
    mean_game_value: float
    final_game_value: float
    backend: str

    @property
    def hit_rate(self) -> float:
        """Fraction of per-alert solves served from the session cache."""
        return self.cache_hits / self.alerts if self.alerts else 0.0

    @property
    def table_hit_rate(self) -> float:
        """Fraction of alerts served straight from the policy table."""
        return self.table_hits / self.alerts if self.alerts else 0.0

    @property
    def alerts_per_second(self) -> float:
        """Cycle throughput (0 when the clock read as instant)."""
        return self.alerts / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclass(frozen=True)
class SessionStats(_Payload, SolverCounters):
    """One tenant's cumulative accounting across every cycle so far.

    The solver counters (:class:`~repro.obs.SolverCounters`) are lifetime
    figures; ``compile_seconds`` includes the initial policy-table compile
    at session open.
    """

    tenant: str
    state: str
    cycle: int
    cycles_closed: int
    events: int
    budget_remaining: float

    @property
    def hit_rate(self) -> float:
        """Lifetime fraction of solves served from the cache."""
        return self.cache_hits / self.events if self.events else 0.0

    @property
    def table_hit_rate(self) -> float:
        """Lifetime fraction of events served straight from the table."""
        return self.table_hits / self.events if self.events else 0.0


@dataclass(frozen=True)
class ServiceStats(_Payload, SolverCounters):
    """Service-wide accounting: per-tenant stats plus their merge.

    The solver counters merge over tenants by their declared rule
    (:func:`~repro.obs.merge_counters`, the same merge as
    :meth:`EngineStats.merge`); sessions own disjoint caches, and closed
    sessions keep contributing their final numbers.
    """

    tenants: int
    open_sessions: int
    cycles_closed: int
    events: int
    per_tenant: tuple[SessionStats, ...] = field(default_factory=tuple)

    @property
    def hit_rate(self) -> float:
        """Service-wide fraction of solves served from session caches."""
        return self.cache_hits / self.events if self.events else 0.0

    @property
    def table_hit_rate(self) -> float:
        """Service-wide fraction of events served from policy tables."""
        return self.table_hits / self.events if self.events else 0.0

    @property
    def events_per_second(self) -> float:
        """Decide-path throughput over the summed processing time."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @classmethod
    def from_sessions(cls, sessions: tuple[SessionStats, ...]) -> "ServiceStats":
        """Merge per-tenant snapshots into the service-wide aggregate.

        Counters sum; the learning diagnostics are averaged weighted by
        each tenant's ``learning_cycles`` (so the aggregate is the mean
        over all observed learning cycles, and merging shard aggregates
        through :meth:`merge` reconstructs the same figure).
        """
        return cls(
            tenants=len(sessions),
            open_sessions=sum(s.state == SESSION_OPEN for s in sessions),
            cycles_closed=sum(s.cycles_closed for s in sessions),
            events=sum(s.events for s in sessions),
            per_tenant=sessions,
            **merge_counters(sessions),
        )

    @classmethod
    def merge(cls, parts: "tuple[ServiceStats, ...]") -> "ServiceStats":
        """Merge shard-level aggregates into one cluster-wide aggregate.

        Tenants are disjoint across shards (the hash ring partitions
        them), so merging is exactly :meth:`from_sessions` over the
        concatenated per-tenant snapshots — the cluster ``/stats`` fan-in
        reproduces what a single process holding every session would
        report, modulo per-tenant ordering.
        """
        sessions: list[SessionStats] = []
        for part in parts:
            sessions.extend(part.per_tenant)
        return cls.from_sessions(tuple(sessions))

    @classmethod
    def _decode(cls, payload: dict[str, Any]) -> dict[str, Any]:
        payload["per_tenant"] = tuple(
            SessionStats.from_dict(entry) for entry in payload.get("per_tenant", ())
        )
        return payload


@dataclass(frozen=True)
class SessionConfig(_Payload):
    """Everything needed to open one tenant's audit session.

    The static game configuration (:class:`~repro.core.game.SAGConfig`
    fields), the seeding contract (``seed`` fully determines the session's
    signal-sampling stream), and the session cache policy. The training
    history itself — per-type arrays of past arrival times — is live data,
    not configuration, and is passed to
    :meth:`repro.api.v1.AuditSession.open` separately.
    """

    tenant: str
    budget: float
    payoffs: Mapping[int, PayoffMatrix]
    costs: Mapping[int, float]
    backend: str = "analytic"
    seed: int = 0
    signaling_enabled: bool = True
    signaling_method: str = "closed_form"
    budget_charging: str = "conditional"
    robust_margin: float = 0.0
    rollback_enabled: bool = True
    rollback_threshold: float | None = None
    cache_enabled: bool = True
    cache_budget_step: float = 0.0
    cache_rate_step: float = 0.0
    cache_error_budget: float | None = None
    policy_table: bool = False
    attacker: str = "rational"
    learning_rate: float = 0.5
    fp_iterations: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise InvalidEventError("tenant must be a non-empty string")
        if self.attacker not in SESSION_ATTACKERS:
            raise InvalidEventError(
                f"unknown session attacker {self.attacker!r}; "
                f"expected one of {SESSION_ATTACKERS}"
            )
        if isinstance(self.learning_rate, bool) or not isinstance(
            self.learning_rate, (int, float)
        ):
            raise InvalidEventError(
                f"learning_rate must be a number, got {self.learning_rate!r}"
            )
        if not self.learning_rate > 0:
            raise InvalidEventError(
                f"learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.fp_iterations is not None and (
            isinstance(self.fp_iterations, bool)
            or not isinstance(self.fp_iterations, int)
            or self.fp_iterations < 1
        ):
            raise InvalidEventError(
                f"fp_iterations must be a positive integer or None, "
                f"got {self.fp_iterations!r}"
            )
        if self.cache_error_budget is not None:
            if isinstance(self.cache_error_budget, bool) or not isinstance(
                self.cache_error_budget, (int, float)
            ):
                raise InvalidEventError(
                    "cache_error_budget must be a number, got "
                    f"{self.cache_error_budget!r}"
                )
            if self.cache_error_budget < 0:
                raise InvalidEventError(
                    "cache_error_budget must be non-negative, got "
                    f"{self.cache_error_budget}"
                )
        # Normalize mappings to plain int-keyed dicts; the full validation
        # (sign conventions, budget ranges) happens in SAGConfig at open().
        object.__setattr__(
            self, "payoffs", {int(k): v for k, v in dict(self.payoffs).items()}
        )
        object.__setattr__(
            self, "costs", {int(k): float(v) for k, v in dict(self.costs).items()}
        )

    def to_dict(self) -> dict[str, Any]:
        payload = super().to_dict()
        # JSON objects have string keys; encode type ids as strings so the
        # document survives json.dumps -> json.loads unchanged.
        payload["payoffs"] = {
            str(type_id): _plain(payoff)
            for type_id, payoff in sorted(self.payoffs.items())
        }
        payload["costs"] = {
            str(type_id): cost for type_id, cost in sorted(self.costs.items())
        }
        return payload

    @classmethod
    def _decode(cls, payload: dict[str, Any]) -> dict[str, Any]:
        payoffs = payload.get("payoffs", {})
        payload["payoffs"] = {
            int(type_id): (
                entry if isinstance(entry, PayoffMatrix) else PayoffMatrix(**entry)
            )
            for type_id, entry in payoffs.items()
        }
        payload["costs"] = {
            int(type_id): float(cost)
            for type_id, cost in payload.get("costs", {}).items()
        }
        return payload

    @classmethod
    def from_scenario(cls, spec) -> "SessionConfig":
        """A session configuration equivalent to a :class:`ScenarioSpec`.

        The tenant is the scenario name; budget/payoffs/costs resolve to
        the scenario's setting, and the cache policy maps ``"off"`` to a
        disabled cache (quantization steps and the certified
        ``cache_error_budget`` carry over otherwise).
        """
        from repro.scenarios.spec import CACHE_OFF

        attacker = (
            spec.attacker if spec.attacker in SESSION_ATTACKERS else "rational"
        )
        return cls(
            tenant=spec.name,
            budget=spec.resolved_budget(),
            payoffs=spec.payoffs(),
            costs=spec.costs(),
            backend=spec.backend,
            seed=spec.seed,
            signaling_enabled=spec.signaling_enabled,
            budget_charging=spec.budget_charging,
            robust_margin=spec.robust_margin,
            cache_enabled=spec.cache_mode != CACHE_OFF,
            cache_budget_step=spec.cache_budget_step,
            cache_rate_step=spec.cache_rate_step,
            cache_error_budget=spec.cache_error_budget,
            policy_table=spec.policy_table,
            attacker=attacker,
            learning_rate=spec.learning_rate,
            fp_iterations=spec.fp_iterations,
        )
