"""Smoke tests for the command-line interface."""

import json

import pytest

from repro.cli import main

TINY_SPEC = {
    "name": "cli-tiny", "n_days": 8, "training_window": 6, "n_trials": 2,
    "normal_daily_mean": 400.0,
}


@pytest.fixture()
def tiny_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC), encoding="utf-8")
    return str(path)


class TestCli:
    def test_help_lists_experiments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "figure2", "figure3", "runtime"):
            assert name in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "700.0" in out

    def test_ablation_budget(self, capsys):
        assert main(["ablation-budget"]) == 0
        out = capsys.readouterr().out
        assert "signaling gain" in out

    def test_table1_small(self, capsys):
        assert main(["--seed", "3", "--days", "4", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Same Last Name" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    def test_backends_lists_registry(self, capsys):
        from repro.solvers.registry import available_backends

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out
        assert "fictitious_play" in out
        assert "* " in out  # the default backend is marked

    def test_backend_choices_come_from_the_registry(self, capsys):
        from repro.scenarios.spec import _BACKENDS
        from repro.solvers.registry import available_backends

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "--backend {" + ",".join(available_backends()) + "}" in out
        assert _BACKENDS == available_backends()


class TestSuiteCli:
    def test_list_presets(self, capsys):
        assert main(["suite", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2-uniform", "quantal", "night-shift"):
            assert name in out

    def test_no_selection_is_an_error(self, capsys):
        assert main(["suite"]) == 2
        assert "no scenarios selected" in capsys.readouterr().err

    def test_duplicate_axis_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main([
                "suite", "--scenarios", "fig2-uniform",
                "--axis", "budget=1.0", "--axis", "budget=2.0",
            ])

    def test_unknown_preset_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["suite", "--scenarios", "fig9"])

    def test_wrong_typed_axis_value_fails_cleanly(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main([
                "suite", "--scenarios", "fig2-uniform",
                "--axis", "budget=10.0,high",
            ])

    def test_global_flags_reach_suite_specs(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        assert main([
            "--seed", "3", "--days", "8", "--backend", "scipy",
            "suite", "--scenarios", "fig2-uniform", "--trials", "2",
            "--out", str(out),
        ]) == 0
        spec = json.loads(out.read_text())["scenarios"][0]["spec"]
        assert (spec["seed"], spec["n_days"], spec["backend"]) == (3, 8, "scipy")

    def test_cache_error_budget_reaches_suite_specs(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        assert main([
            "--days", "8", "--cache-error-budget", "1e-6",
            "suite", "--scenarios", "fig2-uniform", "--trials", "2",
            "--out", str(out),
        ]) == 0
        spec = json.loads(out.read_text())["scenarios"][0]["spec"]
        assert spec["cache_error_budget"] == 1e-6
        # The certified mode needs a per-trial cache, so the flag upgrades
        # scenarios that were on the shared exact default.
        assert spec["cache_mode"] == "per-trial"

    def test_out_creates_missing_parent_dirs(self, capsys, tmp_path, tiny_spec_file):
        out = tmp_path / "deeply" / "nested" / "suite.json"
        assert main([
            "suite", "--spec-file", tiny_spec_file, "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["scenarios"]

    def test_unwritable_out_fails_cleanly(self, capsys, tmp_path, tiny_spec_file):
        # A directory path is unwritable as a file: clean message, code 1.
        assert main([
            "suite", "--spec-file", tiny_spec_file, "--out", str(tmp_path),
        ]) == 1
        err = capsys.readouterr().err
        assert "cannot write" in err
        assert "Traceback" not in err


class TestServeCli:
    def test_serve_requires_selection(self, capsys):
        assert main(["serve"]) == 2
        assert "no scenarios selected" in capsys.readouterr().err

    def test_serve_replays_scenario_through_service(
        self, capsys, tmp_path, tiny_spec_file
    ):
        out = tmp_path / "srv" / "serve.json"
        assert main([
            "serve", "--spec-file", tiny_spec_file, "--events", "12",
            "--out", str(out),
        ]) == 0
        assert "Audit service" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert len(payload["decisions"]) == 12
        assert payload["cycle_reports"][0]["tenant"] == "cli-tiny"
        assert payload["service_stats"]["events"] == 12

    def test_serve_streaming_matches_batched(self, tmp_path, tiny_spec_file):
        batched = tmp_path / "batched.json"
        streaming = tmp_path / "streaming.json"
        assert main([
            "serve", "--spec-file", tiny_spec_file, "--events", "10",
            "--out", str(batched),
        ]) == 0
        assert main([
            "serve", "--spec-file", tiny_spec_file, "--events", "10",
            "--streaming", "--out", str(streaming),
        ]) == 0
        left = json.loads(batched.read_text())["decisions"]
        right = json.loads(streaming.read_text())["decisions"]
        assert left == right

    def test_serve_unwritable_out_fails_cleanly(
        self, capsys, tmp_path, tiny_spec_file
    ):
        assert main([
            "serve", "--spec-file", tiny_spec_file, "--events", "3",
            "--out", str(tmp_path),
        ]) == 1
        assert "cannot write" in capsys.readouterr().err


class TestDecideCli:
    def test_decide_prints_decision_json(self, capsys, tiny_spec_file):
        assert main([
            "decide", "--spec-file", tiny_spec_file, "--observe", "2",
        ]) == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["tenant"] == "cli-tiny"
        assert decision["sequence"] == 2
        assert 0.0 <= decision["theta"] <= 1.0

    def test_decide_rejects_non_single_spec_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        assert main(["decide", "--spec-file", str(empty)]) == 2
        assert "exactly one scenario" in capsys.readouterr().err
        double = tmp_path / "double.json"
        double.write_text(json.dumps(
            [TINY_SPEC, dict(TINY_SPEC, name="cli-tiny-2")]
        ), encoding="utf-8")
        assert main(["decide", "--spec-file", str(double)]) == 2
        assert "yields 2" in capsys.readouterr().err

    def test_decide_explicit_event_fields(self, capsys, tiny_spec_file):
        assert main([
            "decide", "--spec-file", tiny_spec_file,
            "--type", "1", "--time", "43200",
        ]) == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["type_id"] == 1
        assert decision["time_of_day"] == 43200.0


class TestIngestCli:
    @pytest.fixture(scope="class")
    def dump_dir(self, tmp_path_factory):
        from repro.ingest import (
            GeneratorConfig,
            foreign_mapping,
            generate_tables,
            small_population,
            write_dump,
        )

        root = tmp_path_factory.mktemp("dump") / "his"
        tables = generate_tables(GeneratorConfig(
            seed=11, n_days=6, daily_accesses=600, daily_suspicious=30,
            population=small_population(),
        ))
        write_dump(tables, root, fmt="csv", mapping=foreign_mapping())
        return str(root)

    def test_sources_lists_registry(self, capsys):
        from repro.ingest import SOURCE_DESCRIPTIONS, available_sources

        assert main(["sources"]) == 0
        out = capsys.readouterr().out
        for name in available_sources():
            assert name in out
            assert SOURCE_DESCRIPTIONS[name] in out
        assert "* simulator" in out  # the marked default

    def test_ingest_stats_only(self, capsys, dump_dir):
        assert main([
            "ingest", "--dump", dump_dir, "--stats-only",
        ]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["mapping"] == "demo-his"
        assert stats["access_rows"] == 3600
        assert stats["days"] == [0, 1, 2, 3, 4, 5]
        assert stats["alerts"] == sum(stats["type_counts"].values())

    def test_ingest_local_decision_stream(self, capsys, dump_dir, tmp_path):
        journal = tmp_path / "alerts.jsonl"
        assert main([
            "ingest", "--dump", dump_dir, "--journal", str(journal),
            "--scenario", "fig2-uniform",
        ]) == 0
        captured = capsys.readouterr()
        decisions = [
            json.loads(line) for line in captured.out.splitlines() if line
        ]
        assert decisions, "expected one decision line per test-day alert"
        assert all(d["tenant"] == "fig2-uniform" for d in decisions)
        assert all(0.0 <= d["theta"] <= 1.0 for d in decisions)
        assert journal.is_file()
        # The stderr side carries the ingest summary and cycle report.
        assert '"mapping": "demo-his"' in captured.err

    def test_ingest_missing_dump_fails_cleanly(self, capsys, tmp_path):
        assert main([
            "ingest", "--dump", str(tmp_path / "nope"), "--stats-only",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ingest_url_requires_tenant(self, capsys, dump_dir):
        assert main([
            "ingest", "--dump", dump_dir, "--url", "http://127.0.0.1:9",
        ]) == 2
        assert "--tenant" in capsys.readouterr().err


class TestServeDurableCli:
    def test_serve_state_dir_journal_restores(self, capsys, tmp_path, tiny_spec_file):
        state = tmp_path / "state"
        assert main([
            "serve", "--spec-file", tiny_spec_file, "--events", "5",
            "--state-dir", str(state),
        ]) == 0
        from repro.api.v1 import AuditService

        restored = AuditService.restore(state)
        assert restored.tenants == ()  # serve closed the session
        assert restored.stats().events == 5

    def test_serve_state_dir_recovers_interrupted_run(
        self, capsys, tmp_path, tiny_spec_file
    ):
        from repro.scenarios import ScenarioSpec
        from repro.api.v1 import AuditService

        state = tmp_path / "state"
        # An interrupted earlier run: session opened, events decided, no
        # close record — the service object just disappears.
        spec = ScenarioSpec.from_dict(TINY_SPEC)
        victim = AuditService(state_dir=state)
        _session, events = victim.open_scenario(spec)
        victim.submit(events[:4])
        del victim

        # Re-running serve must restore, retire the stale session, and
        # replay the scenario fresh — not crash on a duplicate open.
        assert main([
            "serve", "--spec-file", tiny_spec_file, "--events", "5",
            "--state-dir", str(state),
        ]) == 0
        assert "restored 1 session(s)" in capsys.readouterr().out
        # And the resulting log is still fully replayable.
        restored = AuditService.restore(state)
        assert restored.tenants == ()
        assert restored.stats().events == 9


class TestDecideEventStream:
    """``decide --events``: ndjson in, one decision JSON per line out."""

    def _event_lines(self, n=3, tenant="cli-tiny"):
        return "".join(
            json.dumps({"tenant": tenant, "type_id": 1,
                        "time_of_day": 1000.0 * (i + 1)}) + "\n"
            for i in range(n)
        )

    def test_events_from_file(self, capsys, tmp_path, tiny_spec_file):
        events = tmp_path / "events.ndjson"
        events.write_text(self._event_lines(3), encoding="utf-8")
        assert main([
            "decide", "--spec-file", tiny_spec_file,
            "--events", str(events),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        decisions = [json.loads(line) for line in lines]
        assert [d["sequence"] for d in decisions] == [0, 1, 2]
        assert all(d["tenant"] == "cli-tiny" for d in decisions)

    def test_events_from_stdin(
        self, capsys, monkeypatch, tiny_spec_file
    ):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(self._event_lines(2))
        )
        assert main([
            "decide", "--spec-file", tiny_spec_file, "--events", "-",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_events_with_observe_replays_context_first(
        self, capsys, tmp_path, tiny_spec_file
    ):
        events = tmp_path / "events.ndjson"
        # Times past the end of the day stay chronological after any
        # scenario context event.
        events.write_text("".join(
            json.dumps({"tenant": "cli-tiny", "type_id": 1,
                        "time_of_day": 90000.0 + i}) + "\n"
            for i in range(2)
        ), encoding="utf-8")
        assert main([
            "decide", "--spec-file", tiny_spec_file, "--observe", "2",
            "--events", str(events),
        ]) == 0
        decisions = [json.loads(line)
                     for line in capsys.readouterr().out.strip().splitlines()]
        # The two context events consumed sequences 0 and 1.
        assert decisions[0]["sequence"] == 2

    def test_events_rejects_single_event_flags(
        self, capsys, monkeypatch, tiny_spec_file
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self._event_lines(1)))
        assert main([
            "decide", "--spec-file", tiny_spec_file, "--events", "-",
            "--type", "1",
        ]) == 2
        assert "--type/--time" in capsys.readouterr().err

    def test_events_url_rejects_observe(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self._event_lines(1)))
        assert main([
            "decide", "--url", "http://127.0.0.1:1", "--events", "-",
            "--observe", "3",
        ]) == 2
        assert "--observe" in capsys.readouterr().err

    def test_empty_stream_is_an_error(
        self, capsys, monkeypatch, tiny_spec_file
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main([
            "decide", "--spec-file", tiny_spec_file, "--events", "-",
        ]) == 2
        assert "no events" in capsys.readouterr().err

    def test_bad_event_line_fails_cleanly(
        self, capsys, monkeypatch, tiny_spec_file
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("not json\n"))
        assert main([
            "decide", "--spec-file", tiny_spec_file, "--events", "-",
        ]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "ndjson line 1" in err

    def test_unreachable_server_fails_cleanly(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self._event_lines(1)))
        assert main([
            "decide", "--url", "http://127.0.0.1:1", "--events", "-",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_events_file_fails_cleanly(
        self, capsys, tmp_path, tiny_spec_file
    ):
        assert main([
            "decide", "--spec-file", tiny_spec_file,
            "--events", str(tmp_path / "missing.ndjson"),
        ]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_events_against_http_url(self, capsys, monkeypatch, tmp_path):
        """--events - composes with --url against a live loopback server."""
        import io

        from repro.api import serve_http
        from repro.api.v1 import AuditService
        from repro.core.payoffs import PayoffMatrix
        from repro.api.v1 import SessionConfig

        import numpy as np

        service = AuditService()
        history = {1: [np.linspace(1000, 80000, 40)] * 3}
        service.open_session(
            SessionConfig(
                tenant="pipe", budget=5.0,
                payoffs={1: PayoffMatrix(u_dc=100.0, u_du=-400.0,
                                         u_ac=-2000.0, u_au=400.0)},
                costs={1: 1.0}, seed=3,
            ),
            history,
        )
        service.open_session(
            SessionConfig(
                tenant="pipe2", budget=5.0,
                payoffs={1: PayoffMatrix(u_dc=100.0, u_du=-400.0,
                                         u_ac=-2000.0, u_au=400.0)},
                costs={1: 1.0}, seed=4,
            ),
            history,
        )
        interleaved = "".join(
            json.dumps({"tenant": tenant, "type_id": 1,
                        "time_of_day": 1000.0 * (i + 1)}) + "\n"
            for i, tenant in enumerate(("pipe", "pipe2", "pipe", "pipe2"))
        )
        with serve_http(service).start_background() as server:
            monkeypatch.setattr("sys.stdin", io.StringIO(interleaved))
            assert main([
                "decide", "--url", server.url, "--events", "-",
                "--seq-start", "1",
            ]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 4
            assert service.session("pipe").report().events == 2
            # Sequence numbers count per tenant: both tenants saw 1,2 —
            # not a shared 1..4 counter.
            assert service._tracker.watermark("pipe") == 2
            assert service._tracker.watermark("pipe2") == 2
            # The sequence numbers made the calls idempotent: repeating
            # the stream replays recorded decisions, no re-processing.
            monkeypatch.setattr("sys.stdin", io.StringIO(interleaved))
            assert main([
                "decide", "--url", server.url, "--events", "-",
                "--seq-start", "1",
            ]) == 0
            repeat = capsys.readouterr().out.strip().splitlines()
            assert repeat == lines
            assert service.session("pipe").report().events == 2
            assert service.session("pipe2").report().events == 2


class TestServeHttpCli:
    """Wiring of ``serve --http`` (the accept loop itself is not entered)."""

    def test_http_serves_and_writes_ready_file(
        self, capsys, tmp_path, tiny_spec_file, monkeypatch
    ):
        import threading
        import urllib.request

        import repro.api as api_pkg

        ready = tmp_path / "url.txt"
        captured = {}
        real_serve_http = api_pkg.serve_http

        def capture(*args, **kwargs):
            captured["server"] = real_serve_http(*args, **kwargs)
            return captured["server"]

        monkeypatch.setattr("repro.api.serve_http", capture)

        thread = threading.Thread(target=main, args=([
            "serve", "--http", "--port", "0",
            "--spec-file", tiny_spec_file,
            "--ready-file", str(ready),
            "--state-dir", str(tmp_path / "state"),
        ],), daemon=True)
        thread.start()
        try:
            for _ in range(400):
                if ready.exists() and ready.read_text().strip():
                    break
                thread.join(timeout=0.05)
            url = ready.read_text().strip()
            with urllib.request.urlopen(url + "/healthz", timeout=10) as reply:
                body = json.loads(reply.read().decode("utf-8"))
            assert body["ok"] is True
            assert body["tenants"] == ["cli-tiny"]
            # Durable mode journaled the scenario open.
            assert list((tmp_path / "state").glob("*.wal"))
        finally:
            if "server" in captured:
                captured["server"].shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()
