"""The solver counters every stats type reports, declared once.

An alert's decision comes either from the compiled policy table or from a
solve through the SSE cache, and the serving stack reconciles those paths
at four levels: one engine stream (:class:`~repro.engine.stream.EngineStats`),
one audit cycle (:class:`~repro.api.v1.types.CycleReport`), one tenant's
lifetime (:class:`~repro.api.v1.types.SessionStats`) and the whole service
or cluster (:class:`~repro.api.v1.types.ServiceStats`). All four inherit
their counters from :class:`SolverCounters`, and every merge across
shards, tenants or workers goes through :func:`merge_counters`, which
reads each counter's merge rule from its field declaration.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import Any

#: Merge rule: the merged value is the sum over the parts.
SUM = "sum"

#: Merge rule: the merged value is the mean over the parts weighted by each
#: part's ``learning_cycles`` (0.0 when no part observed a learning cycle),
#: so merging partial aggregates reproduces the mean over all cycles.
LEARNING_MEAN = "learning_mean"


def _counter(rule: str, **kwargs: Any) -> Any:
    return field(metadata={"merge": rule}, **kwargs)


@dataclass(frozen=True, kw_only=True)
class SolverCounters:
    """The solver-work counters shared by every stats type.

    ``sse_solves`` counts actual LP (2) evaluations and ``cache_hits`` the
    solves served from the SSE cache (``cache_entries`` is its size): with
    a cache attached ``sse_solves + cache_hits`` equals the alerts that
    took the solve path. That is every alert, except in policy-table mode,
    where ``table_hits + fallbacks`` equals the alerts and only the
    fallbacks are solved. ``table_misses`` counts failed table lookups
    (out-of-region budget or rates, uncertified cells); every miss falls
    back, so it equals ``fallbacks`` unless mixed-mode parts were merged. ``recompiles``/``compile_seconds`` are the table
    compilation work, and ``wall_seconds`` the decide-path processing time.

    ``learning_cycles`` counts cycles a learning attacker observed (see
    :mod:`repro.learning`); ``regret``, ``posterior_entropy`` and
    ``exploit_gap`` average those cycles' diagnostics (0.0 without one).

    The first four counters are required, so a payload that lacks one is
    rejected rather than read as zero. Fields are keyword-only: subclasses
    keep their own positional fields and the counters' defaults.
    """

    sse_solves: int = _counter(SUM)
    cache_hits: int = _counter(SUM)
    cache_entries: int = _counter(SUM)
    wall_seconds: float = _counter(SUM)
    table_hits: int = _counter(SUM, default=0)
    table_misses: int = _counter(SUM, default=0)
    fallbacks: int = _counter(SUM, default=0)
    recompiles: int = _counter(SUM, default=0)
    compile_seconds: float = _counter(SUM, default=0.0)
    learning_cycles: int = _counter(SUM, default=0)
    regret: float = _counter(LEARNING_MEAN, default=0.0)
    posterior_entropy: float = _counter(LEARNING_MEAN, default=0.0)
    exploit_gap: float = _counter(LEARNING_MEAN, default=0.0)


#: ``(name, is_float)`` of every summed counter, and the names of the
#: learning-weighted means, in declaration order.
_SUMMED = tuple(
    (f.name, f.type is float)
    for f in fields(SolverCounters)
    if f.metadata["merge"] == SUM
)
_LEARNING = tuple(
    f.name for f in fields(SolverCounters) if f.metadata["merge"] == LEARNING_MEAN
)


def merge_counters(parts: Sequence[SolverCounters]) -> dict[str, Any]:
    """Every counter of ``parts`` merged by its rule, keyed by field name.

    Parts merge in the order given; an empty sequence gives all zeros.
    Callers add their own identity fields and pass the result to their
    constructor as keyword arguments.
    """
    merged: dict[str, Any] = {}
    for name, is_float in _SUMMED:
        total = sum(getattr(part, name) for part in parts)
        merged[name] = float(total) if is_float else total
    weight = merged["learning_cycles"]
    for name in _LEARNING:
        merged[name] = (
            sum(getattr(part, name) * part.learning_cycles for part in parts)
            / weight
            if weight
            else 0.0
        )
    return merged
