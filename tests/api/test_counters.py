"""The one counter model: declaration, generic merge, and export.

Every stats type inherits its solver counters from
:class:`repro.obs.SolverCounters` and merges them through
:func:`repro.obs.merge_counters`. These tests hold the merge rules over
drawn tenant populations (including learning tenants) and check that
every declared counter reaches each wire payload and survives a JSON
round trip.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.api.v1 import AuditService
from repro.api.v1.types import CycleReport, ServiceStats, SessionStats
from repro.engine.stream import EngineStats
from repro.obs import LEARNING_MEAN, SUM, SolverCounters, merge_counters

from apihelpers import make_config, make_events, make_history

COUNTERS = tuple(f.name for f in dataclasses.fields(SolverCounters))
LEARNING = ("regret", "posterior_entropy", "exploit_gap")
REQUIRED = ("sse_solves", "cache_hits", "cache_entries", "wall_seconds")
STATS_TYPES = (EngineStats, CycleReport, SessionStats, ServiceStats)

_counts = st.integers(min_value=0, max_value=10_000)
_seconds = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_diagnostic = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def _session_stats(draw, index):
    learning_cycles = draw(st.integers(min_value=0, max_value=6))
    return SessionStats(
        tenant=f"tenant-{index}",
        state=draw(st.sampled_from(("open", "closed"))),
        cycle=draw(_counts),
        cycles_closed=draw(_counts),
        events=draw(_counts),
        budget_remaining=draw(_seconds),
        sse_solves=draw(_counts),
        cache_hits=draw(_counts),
        cache_entries=draw(_counts),
        wall_seconds=draw(_seconds),
        table_hits=draw(_counts),
        table_misses=draw(_counts),
        fallbacks=draw(_counts),
        recompiles=draw(_counts),
        compile_seconds=draw(_seconds),
        learning_cycles=learning_cycles,
        regret=draw(_diagnostic) if learning_cycles else 0.0,
        posterior_entropy=draw(_diagnostic) if learning_cycles else 0.0,
        exploit_gap=draw(_diagnostic) if learning_cycles else 0.0,
    )


@st.composite
def _tenants(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    sessions = tuple(draw(_session_stats(index)) for index in range(n))
    assume(any(s.learning_cycles for s in sessions))
    return sessions


def _engine_shard(stats, backend="analytic"):
    counters = {name: getattr(stats, name) for name in COUNTERS}
    return EngineStats(alerts=stats.events, backend=backend, **counters)


class TestDeclaration:
    def test_thirteen_counters_with_their_merge_rules(self):
        rules = {
            f.name: f.metadata["merge"]
            for f in dataclasses.fields(SolverCounters)
        }
        assert len(rules) == 13
        assert {name for name, rule in rules.items() if rule == LEARNING_MEAN} == (
            set(LEARNING)
        )
        assert all(rules[name] == SUM for name in set(rules) - set(LEARNING))

    @pytest.mark.parametrize("cls", STATS_TYPES, ids=lambda c: c.__name__)
    def test_stats_types_inherit_not_redeclare(self, cls):
        assert issubclass(cls, SolverCounters)
        assert not set(cls.__dict__.get("__annotations__", {})) & set(COUNTERS)
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for name in REQUIRED:
            assert fields[name].default is dataclasses.MISSING
            assert fields[name].default_factory is dataclasses.MISSING

    def test_empty_merge_is_all_zero(self):
        merged = merge_counters(())
        assert set(merged) == set(COUNTERS)
        assert all(value == 0 for value in merged.values())
        assert isinstance(merged["wall_seconds"], float)
        assert isinstance(merged["compile_seconds"], float)


class TestMergeRules:
    @settings(max_examples=60, deadline=None)
    @given(sessions=_tenants(), data=st.data())
    def test_service_merge_over_any_partition_equals_whole(self, sessions, data):
        cuts = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=len(sessions) - 1))
                if len(sessions) > 1
                else st.just(set())
            )
        )
        bounds = [0, *cuts, len(sessions)]
        parts = tuple(
            ServiceStats.from_sessions(sessions[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        )
        assert ServiceStats.merge(parts) == ServiceStats.from_sessions(sessions)

    @settings(max_examples=60, deadline=None)
    @given(sessions=_tenants())
    def test_engine_merge_weights_learning_by_cycles(self, sessions):
        merged = EngineStats.merge([_engine_shard(s) for s in sessions])
        weights = np.array([s.learning_cycles for s in sessions], dtype=float)
        assert merged.learning_cycles == int(weights.sum())
        for name in LEARNING:
            values = np.array([getattr(s, name) for s in sessions])
            assert getattr(merged, name) == pytest.approx(
                np.average(values, weights=weights), rel=1e-9, abs=1e-9
            )
        for name in set(COUNTERS) - set(LEARNING):
            assert getattr(merged, name) == pytest.approx(
                sum(getattr(s, name) for s in sessions)
            )
        # The service aggregate runs the very same merge.
        service = ServiceStats.from_sessions(sessions)
        assert all(
            getattr(service, name) == getattr(merged, name) for name in COUNTERS
        )

    @settings(max_examples=30, deadline=None)
    @given(sessions=_tenants())
    def test_no_learning_shard_gives_zero(self, sessions):
        # Diagnostics of shards that observed no learning cycle carry no
        # weight, however large they are.
        shards = [
            dataclasses.replace(
                _engine_shard(s), learning_cycles=0, regret=7.5,
                posterior_entropy=-3.0, exploit_gap=1.25,
            )
            for s in sessions
        ]
        merged = EngineStats.merge(shards)
        assert merged.learning_cycles == 0
        assert all(getattr(merged, name) == 0.0 for name in LEARNING)


@pytest.fixture(scope="module")
def live_stats():
    """Reports from two live tenants: a learning one in table mode with
    forced fallbacks, and a plain cache-mode one."""
    service = AuditService()
    learner = service.open_session(
        make_config(tenant="a", budget=50.0, policy_table=True,
                    attacker="no_regret"),
        make_history(),
    )
    learner._engine._table_options["max_columns"] = 1
    learner._engine._compile_table()
    service.open_session(make_config(tenant="b"), make_history())
    reports = []
    for tenant in ("a", "b"):
        service.submit(make_events(tenant=tenant, n=12))
        reports.append(service.close_cycle(tenant))
    # A repeated day replays cached states; a cycle is left in progress.
    service.submit(make_events(tenant="a", n=6) + make_events(tenant="b", n=12))
    return reports, service.stats()


class TestExport:
    def test_live_reports_exercise_the_counters(self, live_stats):
        reports, stats = live_stats
        assert reports[0].learning_cycles == 1
        assert reports[0].fallbacks > 0
        assert stats.table_hits > 0 and stats.cache_hits > 0

    def test_every_counter_in_every_payload(self, live_stats):
        reports, stats = live_stats
        payloads = [*reports, *stats.per_tenant, stats]
        for payload in payloads:
            exported = payload.to_dict()
            for name in COUNTERS:
                assert exported[name] == getattr(payload, name)
            assert type(payload).from_json(payload.to_json()) == payload
        for entry in stats.to_dict()["per_tenant"]:
            assert set(COUNTERS) <= set(entry)

    @pytest.mark.parametrize("name", REQUIRED)
    def test_missing_required_counter_rejected(self, live_stats, name):
        reports, stats = live_stats
        for payload in (reports[0], stats.per_tenant[0], stats):
            document = payload.to_dict()
            del document[name]
            with pytest.raises(TypeError):
                type(payload).from_dict(document)
        nested = stats.to_dict()
        del nested["per_tenant"][0][name]
        with pytest.raises(TypeError):
            ServiceStats.from_dict(nested)
