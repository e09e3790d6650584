"""Command-line entry points: ``repro <subcommand>`` (or ``python -m repro.cli``).

Each experiment subcommand regenerates one of the paper's tables/figures
(or an ablation) and prints a fixed-width text report; the serving
subcommands (``serve``, ``decide``) drive the :mod:`repro.api.v1` façade
over scenario worlds, and ``suite`` orchestrates sharded Monte Carlo runs
through the same façade.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.solvers.registry import available_backends


def main(argv: Sequence[str] | None = None) -> int:
    """Run one experiment; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Signaling Audit Games — reproduce the paper's "
        "evaluation and serve its online policy.",
    )
    # seed/days/backend default to None so `suite` can tell an explicit
    # flag (which overrides scenario specs) from the default (which does
    # not); the classic subcommands see the resolved values below.
    parser.add_argument(
        "--seed", type=int, default=None, help="dataset seed (default: 7)"
    )
    parser.add_argument(
        "--days", type=int, default=None,
        help="number of simulated days (default: 56)",
    )
    parser.add_argument(
        "--test-days", type=int, default=4, help="test days for the figures"
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="solver backend (analytic = vectorized LP (2) fast path; "
        "fictitious_play = learning dynamics + exact refinement; "
        "default: scipy)",
    )
    parser.add_argument(
        "--cache-error-budget", type=float, default=None, metavar="EPS",
        dest="cache_error_budget",
        help="certified game-value error budget for the SSE solution "
        "cache (enables the error-bounded adaptive policy; scenarios "
        "using the shared exact cache are upgraded to per-trial caching, "
        "which the certified mode requires)",
    )
    parser.add_argument(
        "--policy-table", action="store_true", default=None,
        dest="policy_table",
        help="compile each cycle's reachable (budget, rates) region into "
        "a certified policy table and serve in-region decisions from it "
        "with zero solves (implies --backend analytic unless one is "
        "given; out-of-region states fall back to the solve/cache path)",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="render figures as ASCII charts instead of bucket tables",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("table1", "daily alert statistics per type"),
        ("table2", "payoff structures"),
        ("figure2", "single-type utility series (budget 20)"),
        ("figure3", "seven-type utility series (budget 50)"),
        ("runtime", "per-alert optimization latency"),
        ("engine", "batch engine (analytic+cache) vs per-alert LP speedup"),
        ("ablation-rollback", "knowledge-rollback ablation"),
        ("ablation-budget", "signaling value vs budget sweep"),
        ("ablation-backend", "LP backend agreement and speed"),
        ("ablation-charging", "conditional vs expected budget charging"),
        ("ablation-scope", "signaling scope: best-response-only vs all alerts"),
        ("montecarlo", "attacker-in-the-loop empirical validation"),
        ("robustness", "robust SAG vs boundedly rational attackers"),
        ("full-eval", "all-group (15x) evaluation summary"),
        ("backends", "list registered solver backends"),
        ("sources", "list registered alert sources"),
    ):
        subparsers.add_parser(name, help=help_text)
    suite = subparsers.add_parser(
        "suite",
        help="run scenario suites: sharded parallel Monte Carlo over specs",
        description=(
            "Evaluate named scenario presets (optionally expanded through "
            "matrix axes, or loaded from a JSON spec file) with Monte Carlo "
            "trials sharded across worker processes. The merged results are "
            "bit-identical for any --workers value."
        ),
    )
    suite.add_argument(
        "--scenarios", metavar="NAMES",
        help="comma-separated preset names (see --list)",
    )
    suite.add_argument(
        "--spec-file", metavar="PATH",
        help="JSON file: a spec object, a list of spec objects, or a "
        "matrix object {'base': {...}, 'axes': {field: [values]}}",
    )
    suite.add_argument(
        "--axis", action="append", default=[], metavar="FIELD=V1,V2",
        help="expand every selected scenario over this axis (repeatable); "
        "values are parsed as JSON where possible",
    )
    suite.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for trial sharding (default 1 = serial)",
    )
    suite.add_argument(
        "--trials", type=int, default=None,
        help="override every scenario's n_trials",
    )
    suite.add_argument(
        "--out", metavar="PATH",
        help="write the suite result JSON here",
    )
    suite.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list registered scenario presets and exit",
    )
    serve = subparsers.add_parser(
        "serve",
        help="replay scenario event streams through the multi-tenant "
        "repro.api.v1 service",
        description=(
            "Open one AuditSession per selected scenario under a single "
            "AuditService, replay the scenarios' test-day alert streams "
            "(merged chronologically across tenants) through the batched "
            "hot path — or the asyncio streaming interface with "
            "--streaming — and print per-tenant cycle reports plus "
            "service-wide stats."
        ),
    )
    serve.add_argument(
        "--scenarios", metavar="NAMES",
        help="comma-separated preset names (see `suite --list`)",
    )
    serve.add_argument(
        "--spec-file", metavar="PATH",
        help="JSON file: a spec object or a list of spec objects, one "
        "tenant each",
    )
    serve.add_argument(
        "--events", type=int, default=None, metavar="N",
        help="cap the number of events replayed per tenant",
    )
    serve.add_argument(
        "--batch", type=int, default=256, metavar="N",
        help="events per submit() batch on the hot path (default 256)",
    )
    serve.add_argument(
        "--streaming", action="store_true",
        help="use the asyncio streaming interface (bounded backpressure) "
        "instead of batched submit",
    )
    serve.add_argument(
        "--out", metavar="PATH",
        help="write decisions, cycle reports, and service stats as JSON",
    )
    serve.add_argument(
        "--http", action="store_true",
        help="expose the service over HTTP instead of replaying locally "
        "(endpoints: /v1/<op>, /healthz, /stats; see docs/api.md)",
    )
    serve.add_argument(
        "--cluster", action="store_true",
        help="serve the tenant-sharded multi-process tier instead of one "
        "process: an asyncio router dispatches each tenant to one of "
        "--workers supervised worker processes via a consistent-hash "
        "ring (implies the HTTP wire; see docs/api.md)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="with --cluster: number of shard worker processes "
        "(default 2); each journals to <state-dir>/shard-k/",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address for --http (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8351, metavar="PORT",
        help="bind port for --http (default 8351; 0 = ephemeral)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR",
        help="durable mode: journal every decision to per-tenant "
        "write-ahead logs under DIR and restore open sessions from any "
        "logs already there (crash recovery by deterministic replay)",
    )
    serve.add_argument(
        "--ready-file", metavar="PATH",
        help="with --http: write the bound base URL here once listening "
        "(for shell and CI orchestration)",
    )
    decide = subparsers.add_parser(
        "decide",
        help="decide alert events through repro.api.v1 (local or --url)",
        description=(
            "Open an AuditSession for one scenario, optionally replay the "
            "first N test-day events for context, then decide one event "
            "and print the SignalDecision as JSON. With --events, decide "
            "a whole ndjson stream (file or '-' for stdin) and print one "
            "decision per line; with --url, route every decision through "
            "a running `repro serve --http` server instead of a local "
            "session."
        ),
    )
    decide.add_argument(
        "--scenario", default="fig2-uniform", metavar="NAME",
        help="scenario preset naming the tenant's world (default "
        "fig2-uniform)",
    )
    decide.add_argument(
        "--spec-file", metavar="PATH",
        help="JSON file with a single scenario spec (overrides --scenario)",
    )
    decide.add_argument(
        "--type", type=int, default=None, dest="type_id", metavar="ID",
        help="alert type of the decided event (default: the scenario's "
        "first type)",
    )
    decide.add_argument(
        "--time", type=float, default=None, dest="time_of_day", metavar="S",
        help="event time in seconds since cycle start (default: after the "
        "replayed context events)",
    )
    decide.add_argument(
        "--observe", type=int, default=0, metavar="N",
        help="replay the first N test-day events as background context "
        "before deciding",
    )
    decide.add_argument(
        "--events", metavar="PATH", dest="events_path",
        help="decide a whole ndjson stream of AlertEvent lines ('-' = "
        "stdin) instead of a single constructed event; prints one "
        "SignalDecision JSON per line",
    )
    decide.add_argument(
        "--url", metavar="URL",
        help="send decisions to a running `repro serve --http` server "
        "instead of opening a local session",
    )
    decide.add_argument(
        "--seq-start", type=int, default=None, metavar="N",
        help="attach per-tenant monotonic sequence numbers starting at N "
        "to --events decisions (idempotent retry protection)",
    )
    ingest = subparsers.add_parser(
        "ingest",
        help="map a foreign-schema dump into a decision stream "
        "(repro.ingest)",
        description=(
            "Ingest a foreign-schema hospital dump (CSV/ndjson tables + "
            "mapping.json) through its declarative SchemaMapping: type "
            "every access with the real rule engine, optionally journal "
            "the resulting alert log for bit-identical replay, then "
            "stream the decision day through repro.api.v1 — against a "
            "running `repro serve --http` server with --url, or an "
            "in-process session configured by --scenario otherwise. "
            "Prints one SignalDecision JSON per line."
        ),
    )
    ingest.add_argument(
        "--dump", required=True, metavar="DIR",
        help="dump directory (tables as <name>.csv/.ndjson; its "
        "mapping.json is used unless --mapping is given)",
    )
    ingest.add_argument(
        "--mapping", metavar="PATH",
        help="SchemaMapping JSON file (default: DIR/mapping.json)",
    )
    ingest.add_argument(
        "--journal", metavar="PATH",
        help="journal the ingested alert log here (.csv/.jsonl/.ndjson); "
        "replayable via ScenarioSpec(source='log', source_path=PATH)",
    )
    ingest.add_argument(
        "--stats-only", action="store_true",
        help="print ingestion stats as JSON and exit without deciding",
    )
    ingest.add_argument(
        "--url", metavar="URL",
        help="stream decisions to a running `repro serve --http` server "
        "(the --tenant session must be open there)",
    )
    ingest.add_argument(
        "--tenant", metavar="NAME",
        help="tenant for --url events (required with --url)",
    )
    ingest.add_argument(
        "--types", metavar="IDS",
        help="comma-separated alert type ids to stream (--url mode; "
        "default: every ingested type)",
    )
    ingest.add_argument(
        "--day", type=int, default=None, metavar="N",
        help="ingested day to stream in --url mode (default: the last)",
    )
    ingest.add_argument(
        "--seq-start", type=int, default=None, metavar="N",
        help="attach monotonic sequence numbers starting at N to --url "
        "decisions",
    )
    ingest.add_argument(
        "--scenario", default="fig2-uniform", metavar="NAME",
        help="scenario preset supplying the game configuration in local "
        "mode (payoffs, budget, backend; default fig2-uniform)",
    )
    ingest.add_argument(
        "--spec-file", metavar="PATH",
        help="JSON file with a single scenario spec (overrides --scenario)",
    )
    parser.add_argument(
        "--svg", metavar="PATH",
        help="also write figure output as SVG files with this path prefix",
    )
    args = parser.parse_args(argv)
    explicit = {
        name for name in (
            "seed", "days", "backend", "cache_error_budget", "policy_table"
        )
        if getattr(args, name) is not None
    }
    args.seed = 7 if args.seed is None else args.seed
    args.days = 56 if args.days is None else args.days
    args.backend = "scipy" if args.backend is None else args.backend

    # Imports are deferred so `--help` stays instant.
    if args.experiment == "table1":
        from repro.experiments.table1 import format_table1, run_table1

        print(format_table1(run_table1(seed=args.seed, n_days=args.days)))
    elif args.experiment == "table2":
        from repro.experiments.table2 import format_table2

        print(format_table2())
    elif args.experiment == "figure2":
        from repro.experiments.figure2 import format_figure2, run_figure2

        result = run_figure2(
            seed=args.seed, n_days=args.days,
            n_test_days=args.test_days, backend=args.backend,
        )
        print(_render_figure(result, format_figure2, "Figure 2", args.chart))
        _maybe_write_svgs(result, args.svg, "figure2")
    elif args.experiment == "figure3":
        from repro.experiments.figure3 import format_figure3, run_figure3

        result = run_figure3(
            seed=args.seed, n_days=args.days,
            n_test_days=args.test_days, backend=args.backend,
        )
        print(_render_figure(result, format_figure3, "Figure 3", args.chart))
        _maybe_write_svgs(result, args.svg, "figure3")
    elif args.experiment == "runtime":
        from repro.experiments.runtime import format_runtime, run_runtime

        print(format_runtime(run_runtime(seed=args.seed, backend=args.backend)))
    elif args.experiment == "engine":
        from repro.engine.cache import DEFAULT_ERROR_BUDGET
        from repro.experiments.runtime import (
            format_engine_comparison,
            run_engine_comparison,
        )

        error_budget = (
            args.cache_error_budget
            if args.cache_error_budget is not None
            else DEFAULT_ERROR_BUDGET
        )
        print(format_engine_comparison(run_engine_comparison(
            seed=args.seed, error_budget=error_budget,
            policy_table=bool(args.policy_table),
        )))
    elif args.experiment == "ablation-rollback":
        from repro.experiments.ablations import run_rollback_ablation

        result = run_rollback_ablation(seed=args.seed, n_days=args.days)
        print("A1 — knowledge rollback (OSSP, single type, late-day window)")
        print(f"  min coverage theta,      rollback on : {result.late_min_theta_with:10.4f}")
        print(f"  min coverage theta,      rollback off: {result.late_min_theta_without:10.4f}")
        print(f"  max attacker E[utility], rollback on : {result.late_max_attacker_utility_with:10.2f}")
        print(f"  max attacker E[utility], rollback off: {result.late_max_attacker_utility_without:10.2f}")
        print(f"  mean auditor E[utility], rollback on : {result.late_mean_utility_with:10.2f}")
        print(f"  mean auditor E[utility], rollback off: {result.late_mean_utility_without:10.2f}")
    elif args.experiment == "ablation-budget":
        from repro.experiments.ablations import format_budget_sweep, run_budget_sweep

        print(format_budget_sweep(run_budget_sweep()))
    elif args.experiment == "ablation-backend":
        from repro.experiments.ablations import run_backend_comparison

        result = run_backend_comparison(seed=args.seed, n_days=args.days)
        print("A3 — LP backend comparison on LP (2) states")
        print(f"  states solved        : {result.n_states}")
        print(f"  max objective gap    : {result.max_objective_gap:.2e}")
        print(f"  scipy total seconds  : {result.scipy_seconds:.3f}")
        print(f"  simplex total seconds: {result.simplex_seconds:.3f}")
    elif args.experiment == "ablation-charging":
        from repro.experiments.ablations import run_charging_ablation

        result = run_charging_ablation(seed=args.seed, n_days=args.days)
        print("A4 — budget charging (OSSP, single type)")
        print(f"  final budget,       conditional: {result.final_budget_conditional:10.3f}")
        print(f"  final budget,       expected   : {result.final_budget_expected:10.3f}")
        print(f"  late-day mean util, conditional: {result.late_mean_utility_conditional:10.2f}")
        print(f"  late-day mean util, expected   : {result.late_mean_utility_expected:10.2f}")
        print(f"  full-day mean util, conditional: {result.full_mean_utility_conditional:10.2f}")
        print(f"  full-day mean util, expected   : {result.full_mean_utility_expected:10.2f}")
    elif args.experiment == "ablation-scope":
        from repro.experiments.ablations import run_scope_ablation

        result = run_scope_ablation(seed=args.seed, n_days=args.days)
        print("A5 — signaling scope (OSSP, 7 types)")
        print(f"  mean game value, best-response-only: {result.mean_game_value_best_only:10.2f}")
        print(f"  mean game value, all alerts        : {result.mean_game_value_all:10.2f}")
        print(f"  warnings shown,  best-response-only: {result.warnings_best_only:10.1f}")
        print(f"  warnings shown,  all alerts        : {result.warnings_all:10.1f}")
        print(f"  final budget,    best-response-only: {result.final_budget_best_only:10.2f}")
        print(f"  final budget,    all alerts        : {result.final_budget_all:10.2f}")
    elif args.experiment == "robustness":
        from repro.experiments.robustness import format_robustness, run_robustness

        print(format_robustness(run_robustness(seed=args.seed, n_days=args.days)))
    elif args.experiment == "full-eval":
        from repro.experiments.full_eval import (
            format_full_evaluation,
            run_full_evaluation,
        )

        for setting in ("single", "multi"):
            result = run_full_evaluation(
                setting=setting, seed=args.seed, n_days=args.days,
                max_groups=args.test_days if setting == "multi" else None,
            )
            print(format_full_evaluation(result))
            print()
    elif args.experiment == "montecarlo":
        from repro.api.v1 import run_scenario
        from repro.experiments.config import SINGLE_TYPE_BUDGET
        from repro.scenarios import get_scenario

        print("Attacker-in-the-loop Monte Carlo (single type, budget "
              f"{SINGLE_TYPE_BUDGET:.0f})")
        for preset in ("fig2-uniform", "fig2-late"):
            spec = get_scenario(preset).with_updates(
                seed=args.seed, n_days=args.days, backend=args.backend,
            )
            result = run_scenario(spec).montecarlo
            print(f"  timing={result.timing:8s} empirical auditor utility "
                  f"{result.mean_auditor_utility:9.2f}  "
                  f"predicted {result.mean_expected_utility:9.2f}  "
                  f"gap {result.expectation_gap:7.2f}  "
                  f"attack rate {result.attack_rate:.2f}  "
                  f"quit rate {result.quit_rate:.2f}")
    elif args.experiment == "backends":
        from repro.solvers.registry import BACKEND_DESCRIPTIONS, DEFAULT_BACKEND

        print("Registered solver backends (--backend NAME):")
        for name in available_backends():
            marker = "*" if name == DEFAULT_BACKEND else " "
            print(f"  {marker} {name:16s} {BACKEND_DESCRIPTIONS[name]}")
        print("  (* = default)")
    elif args.experiment == "sources":
        from repro.ingest import SOURCE_DESCRIPTIONS, available_sources
        from repro.ingest.registry import SOURCE_SIMULATOR

        print("Registered alert sources (ScenarioSpec.source / repro ingest):")
        for name in available_sources():
            marker = "*" if name == SOURCE_SIMULATOR else " "
            print(f"  {marker} {name:12s} {SOURCE_DESCRIPTIONS[name]}")
        print("  (* = default)")
    elif args.experiment == "suite":
        return _run_suite(args, explicit)
    elif args.experiment == "serve":
        return _run_serve(args, explicit)
    elif args.experiment == "decide":
        return _run_decide(args, explicit)
    elif args.experiment == "ingest":
        return _run_ingest(args, explicit)
    return 0


def _write_text(path: str, text: str) -> bool:
    """Write ``text`` to ``path``, creating missing parent directories.

    Returns ``False`` (after a clean message on stderr) when the path is
    unwritable, instead of letting an ``OSError`` traceback escape — the
    caller turns that into a non-zero exit code.
    """
    try:
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _selected_specs(args, explicit, scenarios_attr="scenarios"):
    """Scenario specs from --scenarios/--spec-file with global overrides."""
    import json

    from repro.errors import ExperimentError
    from repro.scenarios import ScenarioMatrix, ScenarioSpec, get_scenario

    specs: list[ScenarioSpec] = []
    selection = getattr(args, scenarios_attr, None)
    if selection:
        specs.extend(
            get_scenario(name.strip())
            for name in selection.split(",") if name.strip()
        )
    if getattr(args, "spec_file", None):
        with open(args.spec_file, encoding="utf-8") as handle:
            payload = json.load(handle)
        if isinstance(payload, list):
            specs.extend(ScenarioSpec.from_dict(entry) for entry in payload)
        elif isinstance(payload, dict) and "axes" in payload:
            specs.extend(ScenarioMatrix.from_dict(payload).expand())
        elif isinstance(payload, dict):
            specs.append(ScenarioSpec.from_dict(payload))
        else:
            raise ExperimentError(
                f"{args.spec_file}: expected a spec object, a list of spec "
                "objects, or a matrix object"
            )

    # Honor the global --seed/--days/--backend options; only flags the
    # user actually passed override the specs.
    return [_apply_global_overrides(spec, args, explicit) for spec in specs]


def _apply_global_overrides(spec, args, explicit):
    """One spec with the explicitly passed global flags applied."""
    overrides = {}
    if "seed" in explicit:
        overrides["seed"] = args.seed
    if "days" in explicit:
        overrides["n_days"] = args.days
    if "backend" in explicit:
        overrides["backend"] = args.backend
    if "cache_error_budget" in explicit:
        from repro.scenarios.spec import CACHE_PER_TRIAL, CACHE_SHARED

        overrides["cache_error_budget"] = args.cache_error_budget
        # The certified adaptive mode is forbidden on shared caches (its
        # hit pattern would make results depend on trial sharding), so the
        # flag implies per-trial caching for scenarios on the shared
        # default.
        if spec.cache_mode == CACHE_SHARED:
            overrides["cache_mode"] = CACHE_PER_TRIAL
    if "policy_table" in explicit:
        overrides["policy_table"] = True
        # The compiled geometry is the analytic solver's, so the flag
        # implies the analytic backend; an explicit conflicting --backend
        # is surfaced by spec validation instead of silently overridden.
        if "backend" not in explicit and spec.backend != "analytic":
            overrides["backend"] = "analytic"
    return spec.with_updates(**overrides) if overrides else spec


def _run_serve(args, explicit) -> int:
    """The ``serve`` subcommand: scenario streams through the service."""
    import json
    import time as _time

    from repro.api.v1 import AuditService
    from repro.experiments.report import render_table

    if args.cluster:
        return _run_serve_cluster(args, explicit)
    if args.http:
        return _run_serve_http(args, explicit)

    specs = _selected_specs(args, explicit)
    if not specs:
        print("no scenarios selected; use --scenarios or --spec-file",
              file=sys.stderr)
        return 2

    service = _build_service(args.state_dir)
    all_events = []
    for spec in specs:
        if spec.name in service.tenants:
            # A restored session (e.g. an interrupted earlier run): retire
            # it — journaled, so the log stays replayable — and replay the
            # scenario on a fresh session below.
            service.close_session(spec.name)
        _session, events = service.open_scenario(spec)
        if args.events is not None:
            events = events[: args.events]
        all_events.extend(events)
    # Merge tenants chronologically — the multi-tenant arrival order a
    # real deployment would see. Per-tenant order is preserved, so
    # decisions are independent of the interleaving.
    all_events.sort(key=lambda event: event.time_of_day)

    started = _time.perf_counter()
    if args.streaming:
        import asyncio

        async def _drain():
            collected = []
            async for decision in service.stream(all_events):
                collected.append(decision)
            return collected

        decisions = asyncio.run(_drain())
    else:
        batch = max(1, args.batch)
        decisions = []
        for start in range(0, len(all_events), batch):
            decisions.extend(service.submit(all_events[start:start + batch]))
    wall = _time.perf_counter() - started

    reports = [
        service.close_cycle(tenant) for tenant in service.tenants
    ]
    stats = service.close()
    rows = [
        [
            report.tenant,
            report.alerts,
            report.warnings_sent,
            round(report.mean_game_value, 2),
            round(report.budget_final, 2),
            f"{report.hit_rate:.0%}",
            round(report.wall_seconds, 3),
        ]
        for report in reports
    ]
    interface = "streaming" if args.streaming else "batched submit"
    print(render_table(
        headers=["tenant", "events", "warned", "mean value", "budget left",
                 "cache hit", "decide s"],
        rows=rows,
        title=(f"Audit service — {len(reports)} tenants, "
               f"{len(decisions)} decisions via {interface}, "
               f"{len(decisions) / wall if wall > 0 else 0.0:.0f} events/s"),
    ))
    if args.out:
        payload = {
            "decisions": [decision.to_dict() for decision in decisions],
            "cycle_reports": [report.to_dict() for report in reports],
            "service_stats": stats.to_dict(),
        }
        if not _write_text(args.out, json.dumps(payload, indent=2,
                                                sort_keys=True)):
            return 1
        print(f"wrote {args.out}")
    return 0


def _build_service(state_dir):
    """A (possibly durable) service, restored from existing WALs if any."""
    from pathlib import Path as _Path

    from repro.api.v1 import AuditService
    from repro.logstore.wal import WAL_SUFFIX

    if state_dir and any(_Path(state_dir).glob(f"*{WAL_SUFFIX}")):
        service = AuditService.restore(state_dir)
        print(f"restored {len(service.tenants)} session(s) from {state_dir}")
        if service.recovered_truncated:
            print("dropped torn WAL tail for: "
                  + ", ".join(service.recovered_truncated))
        return service
    return AuditService(state_dir=state_dir)


def _run_serve_http(args, explicit) -> int:
    """``serve --http``: bind the service to a loopback/network socket.

    With ``--state-dir`` the service is durable — existing write-ahead
    logs are restored by deterministic replay before any scenario opens,
    so a restarted server resumes every tenant mid-cycle.
    """
    from repro.api import serve_http

    specs = _selected_specs(args, explicit)
    service = _build_service(args.state_dir)
    for spec in specs:
        if spec.name in service.tenants:
            continue
        service.open_scenario(spec)

    server = serve_http(service, host=args.host, port=args.port)
    if args.ready_file:
        server.write_ready_file(args.ready_file)
    tenants = ", ".join(service.tenants) or "none (open sessions via /v1/open)"
    print(f"serving repro.api on {server.url}  (tenants: {tenants})")
    print("endpoints: POST /v1/<op>  GET /healthz  GET /stats — Ctrl-C stops")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _run_serve_cluster(args, explicit) -> int:
    """``serve --cluster``: the tenant-sharded multi-process tier.

    Boots ``--workers`` supervised worker processes (each a durable
    ``AuditService`` journaling to ``<state-dir>/shard-k/``, restored
    from any logs already there), then the protocol-speaking router.
    Scenarios open *through* the router, so each lands on its
    hash-assigned shard exactly as any external client's would.
    """
    import json as _json
    import urllib.request as _urllib_request

    from repro.api import ReproClient, serve_cluster

    specs = _selected_specs(args, explicit)
    cluster = serve_cluster(
        workers=max(1, args.workers),
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
    )
    try:
        cluster.start_background()
        health = _json.load(
            _urllib_request.urlopen(cluster.url + "/healthz")
        )
        existing = set(health["tenants"])
        with ReproClient.connect(cluster.url) as client:
            for spec in specs:
                if spec.name in existing:
                    continue  # restored from the shard's WAL
                client.open_scenario(spec)
        if args.ready_file:
            cluster.write_ready_file(args.ready_file)
        tenants = ", ".join(
            spec.name for spec in specs
        ) or ", ".join(sorted(existing)) or (
            "none (open sessions via /v1/open)"
        )
        placement = ", ".join(
            f"{worker}={cluster.supervisor.pid(worker)}"
            for worker in cluster.worker_ids
        )
        print(f"serving repro.api cluster on {cluster.url}  "
              f"(tenants: {tenants})")
        print(f"workers: {placement}")
        print("endpoints: POST /v1/<op>  GET /healthz  GET /stats  "
              "GET /cluster — Ctrl-C stops")
        while True:
            if cluster.join(timeout=3600.0):
                return 1  # the router died under us
    except KeyboardInterrupt:
        return 0
    finally:
        cluster.shutdown()


def _run_decide(args, explicit) -> int:
    """The ``decide`` subcommand: one event through the façade."""
    from repro.api.v1 import AlertEvent, open_scenario

    if args.events_path:
        return _decide_event_stream(args, explicit)
    if args.url:
        return _decide_remote_single(args, explicit)
    # The decide parser has no --scenarios flag, so only the spec file
    # contributes here — and it must name exactly one scenario.
    spec = _decide_spec(args, explicit)
    if spec is None:
        return 2

    session, events = open_scenario(spec)
    context = events[: args.observe] if args.observe > 0 else ()
    for event in context:
        session.observe(event)
    last_time = context[-1].time_of_day if context else 0.0
    event = AlertEvent(
        tenant=session.tenant,
        type_id=(
            args.type_id if args.type_id is not None
            else min(session.config.payoffs)
        ),
        time_of_day=(
            args.time_of_day if args.time_of_day is not None else last_time
        ),
    )
    decision = session.decide(event)
    session.close()
    print(decision.to_json(indent=2))
    return 0


def _decide_event_stream(args, explicit) -> int:
    """``decide --events PATH|-``: an ndjson stream, one decision per line.

    Composes with the HTTP server in shell pipelines::

        repro serve --http --scenarios fig2-uniform --ready-file url.txt &
        printf '%s\\n' '{"tenant": "fig2-uniform", ...}' |
            repro decide --url "$(cat url.txt)" --events -
    """
    from repro.errors import ReproError
    from repro.api import ReproClient
    from repro.api.protocol import decode_ndjson
    from repro.api.v1 import AlertEvent

    if args.type_id is not None or args.time_of_day is not None:
        print("--type/--time construct a single event; they do not apply "
              "to an --events stream (events carry their own fields)",
              file=sys.stderr)
        return 2
    if args.url:
        if args.observe > 0:
            print("--observe replays local scenario context; it cannot be "
                  "combined with --url", file=sys.stderr)
            return 2
        client = ReproClient.connect(args.url)
    else:
        # Local mode: one in-process session for the scenario world,
        # optionally warmed with the scenario's own context events.
        spec = _decide_spec(args, explicit)
        if spec is None:
            return 2
        client = ReproClient.in_process()
        scenario_events = client.open_scenario(spec)
        for context in scenario_events[: args.observe]:
            client.observe(context)

    if args.events_path == "-":
        lines = sys.stdin
    else:
        try:
            lines = open(args.events_path, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read {args.events_path}: {exc}",
                  file=sys.stderr)
            return 1
    # Decide as the stream arrives: one lazy pass, one decision line out
    # per event line in, flushed so live pipelines see output promptly.
    # Sequence numbers count per tenant (the tracker's monotonicity is
    # per tenant), each tenant starting at --seq-start.
    decided = 0
    next_seq: dict[str, int] = {}
    try:
        for event in decode_ndjson(lines, AlertEvent):
            if args.seq_start is None:
                seq = None
            else:
                seq = next_seq.get(event.tenant, args.seq_start)
                next_seq[event.tenant] = seq + 1
            decision = client.decide(event, seq=seq)
            print(decision.to_json(), flush=True)
            decided += 1
    except ReproError as exc:
        # A pipeline subcommand fails with a clean message, not a
        # traceback: unreachable server, malformed event line, wire
        # errors — all expected operational conditions here.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if lines is not sys.stdin:
            lines.close()
    if decided == 0:
        print("no events on the input stream", file=sys.stderr)
        return 2
    return 0


def _decide_spec(args, explicit):
    """The single scenario spec decide operates on (None = usage error)."""
    from repro.scenarios import get_scenario

    if args.spec_file:
        specs = _selected_specs(args, explicit)
        if len(specs) != 1:
            print(
                f"decide needs exactly one scenario; {args.spec_file} "
                f"yields {len(specs)}",
                file=sys.stderr,
            )
            return None
        return specs[0]
    return _apply_global_overrides(get_scenario(args.scenario), args, explicit)


def _decide_remote_single(args, explicit) -> int:
    """``decide --url`` without ``--events``: one constructed event.

    The tenant is the selected scenario's name (``--spec-file`` wins over
    ``--scenario``), matching how ``serve --http`` names its sessions.
    """
    from repro.api import ReproClient
    from repro.api.v1 import AlertEvent

    if args.observe > 0:
        print("--observe replays local scenario context; it cannot be "
              "combined with --url", file=sys.stderr)
        return 2
    if args.spec_file:
        spec = _decide_spec(args, explicit)
        if spec is None:
            return 2
        tenant = spec.name
    else:
        tenant = args.scenario
    from repro.errors import ReproError

    client = ReproClient.connect(args.url)
    event = AlertEvent(
        tenant=tenant,
        type_id=args.type_id if args.type_id is not None else 1,
        time_of_day=args.time_of_day if args.time_of_day is not None else 0.0,
    )
    try:
        decision = client.decide(event, seq=args.seq_start)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(decision.to_json(indent=2))
    return 0


def _run_ingest(args, explicit) -> int:
    """The ``ingest`` subcommand: foreign dump → typed alerts → decisions.

    Composes with the HTTP server in shell pipelines::

        python -m repro.ingest.generate --out dump --small
        repro serve --http --scenarios fig2-uniform --ready-file url.txt &
        repro ingest --dump dump --url "$(cat url.txt)" \\
            --tenant fig2-uniform --types 1
    """
    import json

    from repro.errors import ReproError
    from repro.ingest import MappedSource, SchemaMapping

    try:
        mapping = None
        if args.mapping:
            with open(args.mapping, encoding="utf-8") as handle:
                mapping = SchemaMapping.from_json(handle.read())
        source = MappedSource.open(args.dump, mapping=mapping)
        store = source.build_store()
        if args.journal:
            source.journal(args.journal)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    counts = source.type_counts()
    stats = {
        "dump": args.dump,
        "mapping": source.mapping.name,
        "access_rows": source.n_access_rows,
        "alerts": sum(counts.values()),
        "days": list(store.days),
        "type_counts": {str(t): counts[t] for t in sorted(counts)},
        "journal": args.journal,
    }
    if args.stats_only:
        print(json.dumps(stats, indent=2))
        return 0
    # Decisions own stdout (one JSON line each); the ingestion summary
    # goes to stderr so pipelines stay parseable.
    print(json.dumps(stats), file=sys.stderr)
    if args.url:
        return _ingest_remote(args, store)
    return _ingest_local(args, explicit, source)


def _ingest_remote(args, store) -> int:
    """``ingest --url``: stream one ingested day at a served session."""
    from repro.errors import ReproError
    from repro.api import ReproClient
    from repro.api.v1 import AlertEvent

    if not args.tenant:
        print("--url streaming needs --tenant (the open session on the "
              "server to decide against)", file=sys.stderr)
        return 2
    day = args.day if args.day is not None else store.days[-1]
    if day not in store.days:
        print(f"error: day {day} not among ingested days "
              f"{list(store.days)}", file=sys.stderr)
        return 1
    wanted = None
    if args.types:
        try:
            wanted = {
                int(part) for part in args.types.split(",") if part.strip()
            }
        except ValueError:
            print(f"--types must be comma-separated integers, got "
                  f"{args.types!r}", file=sys.stderr)
            return 2
    alerts = [
        alert for alert in store.day_alerts(day)
        if wanted is None or alert.type_id in wanted
    ]
    client = ReproClient.connect(args.url)
    seq = args.seq_start
    decided = 0
    try:
        for alert in alerts:
            event = AlertEvent(
                tenant=args.tenant,
                type_id=alert.type_id,
                time_of_day=alert.time_of_day,
                event_id=alert.alert_id,
            )
            decision = client.decide(event, seq=seq)
            if seq is not None:
                seq += 1
            print(decision.to_json(), flush=True)
            decided += 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if decided == 0:
        print(f"no alerts to stream on day {day}", file=sys.stderr)
        return 2
    return 0


def _ingest_local(args, explicit, source) -> int:
    """``ingest`` without ``--url``: one in-process session over the dump.

    The scenario spec contributes the game configuration (payoffs,
    budget, backend) and the tenant name; the alert stream is the
    mapped source's, split exactly as :func:`repro.api.v1.open_source`
    documents. The cycle report lands on stderr after the decisions.
    """
    from repro.errors import ReproError
    from repro.api.v1 import open_source

    spec = _decide_spec(args, explicit)
    if spec is None:
        return 2
    try:
        session, events = open_source(spec, source)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for event in events:
        print(session.decide(event).to_json(), flush=True)
    report = session.close_cycle()
    session.close()
    print(report.to_json(), file=sys.stderr)
    return 0


def _run_suite(args, explicit) -> int:
    """The ``suite`` subcommand: select specs, run sharded, report/write."""
    import json

    from repro.api.v1 import run_suite
    from repro.experiments.report import render_table
    from repro.scenarios import (
        ScenarioMatrix,
        ScenarioSpec,
        get_scenario,
        scenario_names,
    )

    if args.list_scenarios:
        from dataclasses import fields

        defaults = {f.name: f.default for f in fields(ScenarioSpec)}
        rows = []
        for name in scenario_names():
            spec = get_scenario(name)
            overrides = ", ".join(
                f"{key}={value}"
                for key, value in sorted(spec.to_dict().items())
                if key != "name" and value != defaults[key]
            )
            rows.append([name, spec.setting, spec.attacker, overrides or "—"])
        print(render_table(
            headers=["preset", "setting", "attacker", "non-default fields"],
            rows=rows,
            title="Registered scenario presets",
        ))
        return 0

    # Presets/spec-file plus global-flag overrides; axes win over globals
    # for fields swept by both.
    specs = _selected_specs(args, explicit)
    if not specs:
        print("no scenarios selected; use --scenarios, --spec-file, or --list",
              file=sys.stderr)
        return 2

    if args.axis:
        # Keep duplicates as pairs so ScenarioMatrix's duplicate-axis
        # guard fires instead of dict() silently dropping one.
        axes = [_parse_axis(raw) for raw in args.axis]
        specs = [cell for spec in specs
                 for cell in ScenarioMatrix(spec, axes).expand()]
    if args.trials is not None:
        specs = [spec.with_updates(n_trials=args.trials) for spec in specs]

    suite = run_suite(specs, workers=args.workers)
    rows = []
    for result in suite.results:
        mc, engine = result.montecarlo, result.engine
        rows.append([
            result.spec.name,
            mc.n_trials,
            round(mc.mean_auditor_utility, 2),
            round(mc.mean_expected_utility, 2),
            round(mc.expectation_gap, 2),
            round(mc.attack_rate, 2),
            round(mc.quit_rate, 2),
            f"{engine.hit_rate:.0%}",
            round(engine.wall_seconds, 2),
        ])
    print(render_table(
        headers=["scenario", "trials", "realized U", "predicted U", "gap",
                 "attack", "quit", "cache hit", "trial s"],
        rows=rows,
        title=(f"Scenario suite — {len(suite.results)} scenarios, "
               f"{suite.workers} workers, {suite.wall_seconds:.1f}s wall"),
    ))
    if args.out:
        if not _write_text(
            args.out, json.dumps(suite.to_dict(), indent=2, sort_keys=True)
        ):
            return 1
        print(f"wrote {args.out}")
    return 0


def _parse_axis(raw: str) -> tuple[str, tuple]:
    """Parse ``field=v1,v2`` with JSON-typed values (fallback: string)."""
    import json

    from repro.errors import ExperimentError

    field_name, separator, tail = raw.partition("=")
    if not separator or not field_name or not tail:
        raise ExperimentError(f"--axis expects FIELD=V1,V2 ..., got {raw!r}")
    values = []
    for chunk in tail.split(","):
        try:
            values.append(json.loads(chunk))
        except json.JSONDecodeError:
            values.append(chunk)
    return field_name, tuple(values)


def _maybe_write_svgs(result, prefix: str | None, stem: str) -> None:
    """Write one SVG per test day when ``--svg PREFIX`` was given."""
    if not prefix:
        return
    from repro.experiments.svgplot import write_svg

    for test_day in result.test_days:
        path = f"{prefix}{stem}_day{test_day}.svg"
        write_svg(
            result.day(test_day),
            path,
            title=f"{stem} — day {test_day}: auditor expected utility",
        )
        print(f"wrote {path}")


def _render_figure(result, formatter, label: str, as_chart: bool) -> str:
    """Bucket-table rendering by default, ASCII charts with ``--chart``."""
    if not as_chart:
        return formatter(result)
    from repro.experiments.textplot import ascii_chart

    chunks = []
    for index, test_day in enumerate(result.test_days, start=1):
        chunks.append(
            ascii_chart(
                result.day(test_day),
                title=f"{label}({chr(96 + index)}) — day {test_day}: "
                "auditor expected utility",
            )
        )
    return "\n\n".join(chunks)


if __name__ == "__main__":
    sys.exit(main())
