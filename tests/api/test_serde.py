"""Single-pass payload serde is a drop-in for ``dataclasses.asdict``.

``_Payload.to_dict`` walks a cached per-class field list instead of
calling ``dataclasses.asdict``. Everything that reads its output — the
wire envelopes, the ndjson codec, and the write-ahead logs, whose replay
compares recorded decision dicts field for field — relies on three
properties, pinned here for every payload type:

* the dict equals ``dataclasses.asdict`` (or the class's own override);
* its containers are fresh, so mutating them never reaches the instance;
* ``to_json`` is byte-identical to the ``asdict``-based encoding.

A write-ahead log written through the ``asdict`` serializer must also
restore bit-identically, and the new serializer must write the same bytes.
"""

import dataclasses
import json

import pytest

from repro.api.protocol import ErrorBody, Request, Response
from repro.api.v1 import (
    AlertEvent,
    AuditService,
    CycleReport,
    ServiceStats,
    SessionConfig,
    SessionStats,
    SignalDecision,
)
from repro.api.v1.types import _Payload
from repro.core.payoffs import PayoffMatrix

from apihelpers import make_config, make_events, make_history

PAY = PayoffMatrix(u_dc=100.0, u_du=-400.0, u_ac=-2000.0, u_au=400.0)


def _asdict_to_dict(payload):
    """The ``asdict``-based serializer every payload used before."""
    return dataclasses.asdict(payload)


def _asdict_config_to_dict(config):
    """``SessionConfig``'s override on top of the ``asdict`` serializer."""
    payload = dataclasses.asdict(config)
    payload["payoffs"] = {
        str(type_id): dataclasses.asdict(payoff)
        for type_id, payoff in sorted(config.payoffs.items())
    }
    payload["costs"] = {
        str(type_id): cost for type_id, cost in sorted(config.costs.items())
    }
    return payload


def _reference_dict(payload):
    if isinstance(payload, SessionConfig):
        return _asdict_config_to_dict(payload)
    return _asdict_to_dict(payload)


def _session_stats(tenant):
    return SessionStats(
        tenant=tenant, state="open", cycle=1, cycles_closed=1, events=10,
        sse_solves=6, cache_hits=4, cache_entries=6, wall_seconds=0.25,
        budget_remaining=3.0, table_hits=2, fallbacks=1, regret=0.125,
    )


def _instances():
    decision = SignalDecision(
        tenant="a", event_id=4, type_id=1, time_of_day=120.5, cycle=0,
        sequence=9, theta=0.25, warned=True, audit_probability=0.5,
        budget_remaining=12.25, game_value=-40.0, ossp_utility=-40.0,
        sse_utility=-100.0, signaling_applied=True,
    )
    return {
        "AlertEvent": AlertEvent(
            tenant="a", type_id=3, time_of_day=42.5, event_id=7
        ),
        "AlertEvent-no-id": AlertEvent(tenant="b", type_id=1, time_of_day=0.0),
        "SignalDecision": decision,
        "CycleReport": CycleReport(
            tenant="a", cycle=2, alerts=10, warnings_sent=3,
            budget_initial=20.0, budget_final=1.5, mean_game_value=-50.0,
            final_game_value=-80.0, backend="analytic", sse_solves=6,
            cache_hits=4, cache_entries=6, wall_seconds=0.5,
            compile_seconds=0.01, exploit_gap=0.5,
        ),
        "SessionStats": _session_stats("a"),
        "ServiceStats": ServiceStats.from_sessions(
            (_session_stats("a"), _session_stats("b"))
        ),
        "SessionConfig": SessionConfig(
            tenant="a", budget=5.0, payoffs={2: PAY, 1: PAY},
            costs={2: 2.0, 1: 1.0}, seed=11, rollback_threshold=0.5,
            cache_error_budget=1e-6, fp_iterations=40,
        ),
        "Request": Request(
            op="decide",
            payload={
                "event": {"tenant": "a", "type_id": 1, "time_of_day": 1.0},
                "nested": {"list": [1, [2.5, None]], "tuple": (3, (4, "x"))},
                "flags": [True, False],
            },
            seq=12,
            idempotency_key="k-1",
        ),
        "Response": Response.success(
            "decide", {"decision": decision.to_dict(), "replayed": False},
            seq=3,
        ),
        "Response-error": Response(
            op="submit", ok=False,
            error=ErrorBody(code="unknown_tenant", message="no tenant 'x'"),
        ),
        "ErrorBody": ErrorBody(code="protocol_error", message="bad"),
    }


INSTANCES = _instances()


def _containers(value):
    """Every list/dict/tuple reachable from ``value`` (``value`` included)."""
    found = []
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            found.append(item)
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            found.append(item)
            stack.extend(item)
    return found


def test_every_payload_subclass_is_covered():
    covered = {type(instance) for instance in INSTANCES.values()}

    def subclasses(klass):
        for sub in klass.__subclasses__():
            yield sub
            yield from subclasses(sub)

    api_types = {
        klass for klass in subclasses(_Payload)
        if klass.__module__.startswith("repro.api")
    }
    assert api_types <= covered, sorted(
        klass.__name__ for klass in api_types - covered
    )


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_to_dict_equals_asdict(name):
    payload = INSTANCES[name]
    got = payload.to_dict()
    want = _reference_dict(payload)
    assert got == want
    # Equal types too: a tuple must not come back as a list, nor the other
    # way round (json encodes both alike, but WAL replay compares dicts).
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_to_dict_returns_fresh_containers(name):
    payload = INSTANCES[name]
    before = _reference_dict(payload)
    out = payload.to_dict()
    for container in _containers(out):
        if isinstance(container, dict):
            container.clear()
            container["injected"] = object()
        elif isinstance(container, list):
            container.clear()
            container.append("injected")
    assert _reference_dict(payload) == before
    assert payload.to_dict() == before


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("indent", [None, 2])
def test_to_json_is_byte_identical_to_asdict_encoding(name, indent):
    payload = INSTANCES[name]
    want = json.dumps(_reference_dict(payload), indent=indent, sort_keys=True)
    assert payload.to_json(indent=indent) == want


def test_to_json_golden_bytes():
    # Literal bytes, so even a change in the encoder settings shows up.
    assert INSTANCES["AlertEvent"].to_json() == (
        '{"event_id": 7, "tenant": "a", "time_of_day": 42.5, "type_id": 3}'
    )
    assert INSTANCES["SignalDecision"].to_json() == (
        '{"audit_probability": 0.5, "budget_remaining": 12.25, "cycle": 0, '
        '"event_id": 4, "game_value": -40.0, "ossp_utility": -40.0, '
        '"sequence": 9, "signaling_applied": true, "sse_utility": -100.0, '
        '"tenant": "a", "theta": 0.25, "time_of_day": 120.5, "type_id": 1, '
        '"warned": true}'
    )


# ----------------------------------------------------------------------
# Write-ahead logs across the serializer change
# ----------------------------------------------------------------------


def _drive(service):
    """A script touching every WAL record kind, in two tenants and modes."""
    service.open_session(make_config(), make_history())
    service.open_session(
        make_config(tenant="tbl", budget=50.0, policy_table=True),
        make_history(),
    )
    events = make_events(n=12)
    table_events = make_events(tenant="tbl", n=12)
    decisions = [service.decide_idempotent(events[0], seq=1)[0]]
    service.observe(events[1])
    decisions.extend(service.submit(events[2:6] + table_events[:6]))
    decisions.append(service.decide_idempotent(events[6], seq=2)[0])
    decisions.append(
        service.decide_idempotent(events[7], idempotency_key="k")[0]
    )
    service.close_cycle("a")
    decisions.extend(service.submit(events[8:10] + table_events[6:9]))
    return decisions


def _tail(service):
    """Decisions after the restore point, plus the final reports."""
    events = make_events(n=12)
    table_events = make_events(tenant="tbl", n=12)
    decisions = list(service.submit(events[10:] + table_events[9:]))
    reports = [
        dataclasses.replace(
            service.close_cycle(tenant), wall_seconds=0.0, compile_seconds=0.0
        )
        for tenant in ("a", "tbl")
    ]
    return decisions, reports


def _wal_bytes(state_dir):
    return {
        path.name: path.read_bytes() for path in sorted(state_dir.iterdir())
    }


def test_wal_written_with_asdict_restores_bit_identically(
    tmp_path, monkeypatch
):
    with monkeypatch.context() as patch:
        patch.setattr(_Payload, "to_dict", _asdict_to_dict)
        patch.setattr(SessionConfig, "to_dict", _asdict_config_to_dict)
        old = AuditService(state_dir=tmp_path / "old")
        old_decisions = _drive(old)
        del old  # killed: no close(), the log is all that survives

    fresh = AuditService(state_dir=tmp_path / "new")
    assert _drive(fresh) == old_decisions
    # The new serializer writes the very same log bytes.
    assert _wal_bytes(tmp_path / "new") == _wal_bytes(tmp_path / "old")

    # Replay re-decides every record and compares it, dict for dict, with
    # the recorded decision (a divergence raises DataError).
    restored = AuditService.restore(tmp_path / "old")
    assert restored.recovered_truncated == ()
    for tenant in ("a", "tbl"):
        assert dataclasses.replace(
            restored.session(tenant).report(), wall_seconds=0.0,
            compile_seconds=0.0,
        ) == dataclasses.replace(
            fresh.session(tenant).report(), wall_seconds=0.0,
            compile_seconds=0.0,
        )
    assert _tail(restored) == _tail(fresh)
