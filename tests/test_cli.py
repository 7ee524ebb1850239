"""CLI behaviour (fast paths only)."""

import pytest

from repro.cli import main
from repro.obs.trace import set_tracer


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    set_tracer(None)
    yield
    set_tracer(None)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out
        assert "Table II" in out

    def test_unknown_experiment(self, capsys):
        assert main(["E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_e1(self, capsys):
        # E1 needs no data generation; it must be instant.
        assert main(["E1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "DTLB_MISSES.ANY" in out

    def test_scaled_run(self, capsys):
        assert main(["E2", "--scale", "0.1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "model tree" in out
        assert "root split variable" in out


class TestSubcommands:
    def test_catalog(self, capsys):
        assert main(["catalog", "omp2001"]) == 0
        out = capsys.readouterr().out
        assert "SPEC OMP2001" in out
        assert "330.art_m" in out

    def test_catalog_unknown_suite(self, capsys):
        assert main(["catalog", "spec2017"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_catalog_usage(self, capsys):
        assert main(["catalog"]) == 2

    def test_dot(self, capsys):
        assert main(["dot", "cpu2006", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "shape=box" in out

    def test_dot_usage(self, capsys):
        assert main(["dot", "cpu2000"]) == 2

    def test_export_csv(self, capsys, tmp_path):
        target = tmp_path / "data.csv"
        assert main(["export", "omp2001", str(target), "--scale", "0.1"]) == 0
        assert target.exists()
        header = target.read_text().splitlines()[0]
        assert header.startswith("benchmark,CPI,")

    def test_export_arff(self, capsys, tmp_path):
        target = tmp_path / "data.arff"
        assert main(["export", "cpu2000", str(target), "--scale", "0.1"]) == 0
        assert target.read_text().startswith("@RELATION")

    def test_export_usage(self, capsys):
        assert main(["export", "omp2001"]) == 2

    def test_rules(self, capsys):
        assert main(["rules", "omp2001", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "IF " in out and "THEN CPI = " in out

    def test_rules_usage(self, capsys):
        assert main(["rules"]) == 2
        assert main(["rules", "cpu2000"]) == 2

    def test_describe(self, capsys):
        assert main(["describe", "429.mcf", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "vehicle scheduling" in out
        assert "dominant linear models:" in out
        assert "most similar benchmarks" in out

    def test_describe_omp_member(self, capsys):
        assert main(["describe", "330.art_m", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "thermal image" in out

    def test_cache_dir(self, capsys, tmp_path):
        # E2 forces data generation through the cache...
        assert main(["E2", "--scale", "0.1",
                     "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.npz"))
        # ...and a second run served from the cache is bit-identical.
        assert main(["E2", "--scale", "0.1",
                     "--cache-dir", str(tmp_path)]) == 0
        second = capsys.readouterr().out
        assert second == first

    def test_quality(self, capsys):
        assert main(["quality", "cpu2006", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "rel.err" in out
        assert "NOISY" in out

    def test_quality_usage(self, capsys):
        assert main(["quality"]) == 2
        assert main(["quality", "spec95"]) == 2

    def test_describe_unknown(self, capsys):
        assert main(["describe", "999.zz", "--scale", "0.1"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestMonitorUsage:
    """`repro monitor` argument validation (the happy paths live in
    tests/drift/test_integration.py, which streams real suite data)."""

    def test_no_suites_is_usage_error(self, capsys):
        assert main(["monitor"]) == 2
        assert "monitor" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["monitor", "spec2017"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_model_ref_requires_registry(self, capsys):
        assert main(["monitor", "cpu2006", "--model", "latest"]) == 2
        assert "--registry" in capsys.readouterr().err

    def test_bad_window_is_usage_error(self, capsys, tmp_path):
        assert main(["monitor", "cpu2006", "--window", "1"]) == 2
        assert capsys.readouterr().err  # the config's complaint

    def test_serve_missing_shadow_ref_is_usage_error(
        self, capsys, tmp_path
    ):
        code = main(
            [
                "serve",
                "--registry",
                str(tmp_path / "empty-registry"),
                "--shadow",
                "ghost",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err

    def test_serve_shadow_of_another_schema_is_usage_error(
        self, capsys, tmp_path, monkeypatch
    ):
        import numpy as np

        from repro.mtree.tree import ModelTree, ModelTreeConfig
        from repro.serve.api import ModelServer
        from repro.serve.registry import ModelRegistry

        def refuse_to_serve(server):
            raise AssertionError("serve started with a mismatched shadow")

        # Without the refusal the command would serve until signalled.
        monkeypatch.setattr(ModelServer, "start", refuse_to_serve)

        rng = np.random.default_rng(29)
        X = rng.random((200, 3))
        y = np.where(X[:, 0] <= 0.5, X[:, 1], 2.0 + X[:, 2])
        config = ModelTreeConfig(min_leaf=20, smooth=False)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(ModelTree(config).fit(X, y, ("p", "q", "r")))
        registry.publish(
            ModelTree(config).fit(X, y, ("p", "q", "s")),
            aliases=("renamed",),
        )
        code = main(
            ["serve", "--registry", str(registry.root), "--shadow", "renamed"]
        )
        assert code == 2
        assert "feature schema" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_trace_writes_valid_file(self, capsys, tmp_path):
        from repro.obs.summary import read_trace

        trace = tmp_path / "run.jsonl"
        assert main(["E1", "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "trace written to" in captured.err
        manifest, spans, metrics = read_trace(trace)
        assert manifest["experiments"] == ["E1"]
        assert manifest["trace_path"] == str(trace)
        assert any(s["name"] == "experiment.E1" for s in spans)

    def test_trace_leaves_stdout_untouched(self, capsys, tmp_path):
        assert main(["E2", "--scale", "0.1"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["E2", "--scale", "0.1", "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        traced = capsys.readouterr().out
        assert traced == plain

    def test_metrics_printed_to_stderr(self, capsys):
        assert main(["E2", "--scale", "0.1", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "mtree.sdr_evaluations" in captured.err
        assert "mtree.sdr_evaluations" not in captured.out

    def test_trace_summary_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["E1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "experiment.E1" in out
        assert "experiments E1" in out

    def test_trace_summary_usage(self, capsys):
        assert main(["trace-summary"]) == 2

    def test_trace_summary_missing_file(self, capsys, tmp_path):
        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "trace-summary:" in capsys.readouterr().err

    def test_trace_summary_bad_content(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace-summary", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_trace_summary_empty_file_is_not_an_error(self, capsys, tmp_path):
        # A run killed before its first span leaves an empty file; that
        # deserves a message, not a traceback or a failing exit code.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-summary", str(empty)]) == 0
        assert "empty trace" in capsys.readouterr().out

    def test_trace_summary_truncated_final_line_tolerated(
        self, capsys, tmp_path
    ):
        cut = tmp_path / "cut.jsonl"
        cut.write_text(
            '{"type": "span", "id": 1, "parent": null, "name": "root",'
            ' "wall_s": 0.5, "cpu_s": 0.4, "start_wall": 0.0}\n'
            '{"type": "span", "id": 2, "par'
        )
        assert main(["trace-summary", str(cut)]) == 0
        out = capsys.readouterr().out
        assert "ignored truncated final line" in out
        assert "root" in out


class TestStatusCommand:
    def test_status_snapshot_from_live_server(self, capsys, tmp_path):
        from repro.serve.api import ModelServer
        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(make_tree(seed=3))
        with ModelServer(registry, port=0, monitor=False) as server:
            assert main(["status", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "repro serving status" in out
        assert "engine" in out
        assert "models (1)" in out

    def test_status_connection_refused_is_exit_2(self, capsys):
        # Port 1 is never listening on the loopback of a test machine.
        assert main(["status", "--url", "http://127.0.0.1:1"]) == 2
        assert "status:" in capsys.readouterr().err

    def test_status_usage_error(self, capsys):
        assert main(["status", "extra-word"]) == 2
        assert "usage: repro status" in capsys.readouterr().err

    def test_status_bad_interval(self, capsys):
        assert main(["status", "--interval", "0"]) == 2
        assert "--interval must be positive" in capsys.readouterr().err


class TestPipelineCli:
    """`repro pipeline run / promotions / rollback / registry gc`."""

    @staticmethod
    def _seeded_registry(tmp_path):
        """A registry with one recorded promotion: A -> B on 'latest'."""
        from repro.pipeline.promotions import PromotionLog
        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = ModelRegistry(tmp_path / "registry")
        a = registry.publish(make_tree(seed=3), aliases=())
        b = registry.publish(make_tree(seed=4), aliases=())
        registry.move_alias("latest", a.model_id, reason="initial")
        registry.move_alias("latest", b.model_id, reason="promote")
        log = PromotionLog(registry.root / "promotions.jsonl")
        log.append(
            "promote",
            "latest",
            a.model_id,
            b.model_id,
            "shadow recommended the challenger",
            actor="test",
        )
        return registry, a, b

    def test_pipeline_usage_errors(self, capsys):
        assert main(["pipeline"]) == 2
        assert main(["pipeline", "run"]) == 2
        assert main(["pipeline", "run", "cpu2006", "spec2017"]) == 2
        assert "usage: repro pipeline run" in capsys.readouterr().err

    def test_trail_commands_require_registry(self, capsys):
        assert main(["promotions"]) == 2
        assert main(["rollback"]) == 2
        assert main(["registry", "gc"]) == 2
        assert main(["registry", "prune"]) == 2  # unknown subcommand
        assert capsys.readouterr().err

    def test_serve_pipeline_conflicts_with_no_monitor(self, capsys, tmp_path):
        code = main(
            [
                "serve",
                "--registry",
                str(tmp_path / "registry"),
                "--pipeline",
                "--no-monitor",
            ]
        )
        assert code == 2
        assert "--pipeline requires drift monitoring" in (
            capsys.readouterr().err
        )

    def test_promotions_prints_and_verifies_trail(self, capsys, tmp_path):
        registry, a, b = self._seeded_registry(tmp_path)
        assert main(["promotions", "--registry", str(registry.root)]) == 0
        out = capsys.readouterr().out
        assert "hash chain verified (1 entries)" in out
        assert f"{a.model_id} -> {b.model_id}" in out

    def test_promotions_empty_trail_is_fine(self, capsys, tmp_path):
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        assert main(["promotions", "--registry", str(registry.root)]) == 0
        assert "no promotions recorded" in capsys.readouterr().out

    def test_promotions_tampered_trail_is_exit_1(self, capsys, tmp_path):
        registry, _, _ = self._seeded_registry(tmp_path)
        trail = registry.root / "promotions.jsonl"
        trail.write_text(trail.read_text().replace("promote", "demote"))
        assert main(["promotions", "--registry", str(registry.root)]) == 1
        assert "hash chain BROKEN" in capsys.readouterr().err

    def test_rollback_restores_prior_latest(self, capsys, tmp_path):
        registry, a, b = self._seeded_registry(tmp_path)
        assert registry.resolve("latest") == b.model_id
        assert main(["rollback", "--registry", str(registry.root)]) == 0
        out = capsys.readouterr().out
        assert f"{b.model_id} -> {a.model_id}" in out
        assert registry.resolve("latest") == a.model_id

    def test_rollback_without_trail_is_exit_1(self, capsys, tmp_path):
        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(make_tree(seed=3))
        assert main(["rollback", "--registry", str(registry.root)]) == 1
        assert "--to" in capsys.readouterr().err

    def test_registry_gc_dry_run_then_real(self, capsys, tmp_path):
        from tests.serve.conftest import make_tree

        registry, a, b = self._seeded_registry(tmp_path)
        orphan = registry.publish(make_tree(seed=5), aliases=())
        root = str(registry.root)
        assert main(["registry", "gc", "--registry", root, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert f"would remove {orphan.model_id}" in out
        assert registry.load(orphan.model_id)  # nothing deleted yet
        assert main(["registry", "gc", "--registry", root]) == 0
        out = capsys.readouterr().out
        assert f"removed {orphan.model_id}" in out
        assert f"rollback target {a.model_id} kept" in out
        remaining = {r.model_id for r in registry.list_records()}
        assert remaining == {a.model_id, b.model_id}

    def test_pipeline_run_cross_suite_promotes(self, capsys):
        """The acceptance command: PR-4's cross-suite scenario closes
        hands-free, exit 0, with a verified single-entry trail."""
        code = main(
            ["pipeline", "run", "cpu2006", "omp2001", "--scale", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "transfer_failed" in out
        assert "hash chain verified" in out
        assert "final verdict on promoted model: ok" in out


class TestProfileVerbs:
    def test_experiment_profile_is_span_attributed(self, capsys, tmp_path):
        """The acceptance bar: a profiled experiment run groups >= 90%
        of busy samples under known span names."""
        import json

        from repro.obs.prof import Profile

        path = tmp_path / "prof.json"
        assert main(
            ["E7", "--scale", "0.1", "--profile", str(path),
             "--profile-hz", "250"]
        ) == 0
        assert path.exists()
        profile = Profile.from_dict(json.loads(path.read_text()))
        assert profile.samples > 0
        assert profile.busy_count > 0
        assert profile.attributed_fraction() >= 0.9
        spans = profile.by_span()
        assert all(name for name in spans)

    def test_profile_summary_renders_table(self, capsys, tmp_path):
        path = tmp_path / "prof.json"
        assert main(
            ["E2", "--scale", "0.1", "--profile", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["profile-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "passes at" in out
        assert "span attribution" in out

    def test_profile_summary_usage_and_errors(self, capsys, tmp_path):
        assert main(["profile-summary"]) == 2
        assert "usage" in capsys.readouterr().err
        assert main(["profile-summary", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        assert main(["profile-summary", str(bad)]) == 2

    def test_profile_bad_hz_is_usage_error(self, capsys, tmp_path):
        code = main(
            ["E2", "--scale", "0.1",
             "--profile", str(tmp_path / "p.json"), "--profile-hz", "0"]
        )
        assert code == 2

    def test_bad_hz_leaves_no_tracer_installed(self, capsys, tmp_path):
        from repro.obs.trace import current_tracer, set_tracer

        try:
            code = main(
                ["E1", "--trace", str(tmp_path / "t.jsonl"),
                 "--profile", str(tmp_path / "p.json"), "--profile-hz", "0"]
            )
            assert code == 2
            assert current_tracer() is None
            assert not (tmp_path / "t.jsonl").exists()
        finally:
            set_tracer(None)  # a leaked tracer would trace later tests

    def test_serve_bad_hz_leaves_no_handler_or_socket(
        self, capsys, tmp_path
    ):
        import signal
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        before = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            code = main(
                ["serve", "--registry", str(tmp_path / "registry"),
                 "--port", str(port), "--profile", str(tmp_path / "p.json"),
                 "--profile-hz", "0"]
            )
            assert code == 2
            assert "--profile" in capsys.readouterr().err
            assert {sig: signal.getsignal(sig) for sig in before} == before
        finally:
            # A leaked handler would swallow Ctrl-C for the whole run.
            for sig, handler in before.items():
                signal.signal(sig, handler)
        # Nothing is left listening on the requested port.
        with socket.socket() as again:
            again.bind(("127.0.0.1", port))


class TestPerfVerbs:
    def test_perf_usage(self, capsys):
        assert main(["perf"]) == 2
        assert main(["perf", "bogus"]) == 2

    def test_perf_log_empty_ledger(self, capsys, tmp_path):
        ledger = tmp_path / "LEDGER.jsonl"
        assert main(["perf", "log", "--ledger", str(ledger)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_perf_log_last_validated(self, capsys, tmp_path):
        code = main(
            ["perf", "log", "--ledger", str(tmp_path / "l.jsonl"),
             "--last", "0"]
        )
        assert code == 2

    def test_perf_check_clean_and_regressed(self, capsys, tmp_path):
        from repro.obs.ledger import PerfLedger

        ledger_path = tmp_path / "LEDGER.jsonl"
        ledger = PerfLedger(ledger_path)
        for value in (0.50, 0.49, 0.51):
            ledger.append("microperf", {"tree_fit_s": value})
        assert main(["perf", "check", "--ledger", str(ledger_path)]) == 0
        assert "perf check: ok" in capsys.readouterr().out

        ledger.append("microperf", {"tree_fit_s": 1.1})
        assert main(["perf", "check", "--ledger", str(ledger_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_perf_check_self_test_detects_injection(self, capsys, tmp_path):
        # Point --ledger at an empty scratch file so the self-test's
        # committed-ledger half is exercised on a known-clean input.
        code = main(
            ["perf", "check", "--self-test",
             "--ledger", str(tmp_path / "LEDGER.jsonl")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "injected 2x tree_fit regression: detected" in out
        assert "injected 1.5x tree_fit regression: detected" in out
        assert "perf check --self-test: ok" in out

    def test_perf_record_derives_from_committed_snapshots(
        self, capsys, tmp_path
    ):
        from repro.obs.ledger import BENCH_SNAPSHOTS, DEFAULT_LEDGER_PATH, PerfLedger

        have_snapshots = any(
            (DEFAULT_LEDGER_PATH.parent / name).exists()
            for name in BENCH_SNAPSHOTS.values()
        )
        ledger_path = tmp_path / "LEDGER.jsonl"
        code = main(["perf", "record", "--ledger", str(ledger_path)])
        out = capsys.readouterr()
        if not have_snapshots:  # pragma: no cover - fresh checkout
            assert code == 2
            return
        assert code == 0
        entries = PerfLedger(ledger_path).entries()
        assert entries
        for record in entries:
            assert record["meta"]["source"] in BENCH_SNAPSHOTS.values()
            assert record["metrics"]


class TestLoadbenchCommand:
    def test_usage_error_on_extra_words(self, capsys):
        assert main(["loadbench", "extra"]) == 2
        assert "usage: repro loadbench" in capsys.readouterr().err

    def test_bad_mode_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["loadbench", "--mode", "bursty"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_zero_batch_rows_is_usage_error_before_any_request(
        self, capsys, monkeypatch
    ):
        import urllib.request

        import repro.loadbench

        def no_request(*args, **kwargs):
            raise AssertionError("loadbench sent a request")

        monkeypatch.setattr(urllib.request, "urlopen", no_request)
        monkeypatch.setattr(repro.loadbench, "run_load", no_request)
        code = main(
            ["loadbench", "--url", "http://127.0.0.1:9", "--batch-rows", "0"]
        )
        assert code == 2
        assert "batch_rows must be >= 1" in capsys.readouterr().err

    def test_unreachable_server_fails_fast(self, capsys):
        # Pre-flight /healthz check: no 10s run against a dead port.
        assert main(["loadbench", "--url", "http://127.0.0.1:1"]) == 2
        assert "loadbench:" in capsys.readouterr().err

    def test_short_run_against_live_server(self, capsys, tmp_path):
        from repro.serve.api import ModelServer
        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(make_tree(seed=3))
        with ModelServer(registry, port=0, monitor=False) as server:
            code = main(
                [
                    "loadbench",
                    "--url",
                    server.url,
                    "--duration",
                    "0.5",
                    "--connections",
                    "1",
                    "--batch-rows",
                    "4",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "closed loop" in out
        assert "p99" in out


class TestServeWorkersFlag:
    def test_zero_workers_is_usage_error(self, capsys, tmp_path):
        code = main(
            ["serve", "--registry", str(tmp_path), "--workers", "0"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_profile_excluded_with_cluster(self, capsys, tmp_path):
        code = main(
            [
                "serve",
                "--registry",
                str(tmp_path),
                "--workers",
                "2",
                "--profile",
                str(tmp_path / "prof.json"),
            ]
        )
        assert code == 2
        assert "--profile" in capsys.readouterr().err


class TestPublicApi:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestServeSignalDrain:
    def test_sigterm_just_after_a_labelled_predict_drains(self, tmp_path):
        """SIGTERM as soon as a monitored, event-logging server has
        answered, while its batcher feeds the hub and arms the event
        log's flush timer: the server must still drain and exit 0."""
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request
        from pathlib import Path

        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = tmp_path / "registry"
        ModelRegistry(registry).publish(make_tree())
        src = Path(__file__).resolve().parents[1] / "src"
        log = tmp_path / "serve.log"
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--registry", str(registry), "--port", "0",
                    "--events", str(tmp_path / "events.jsonl"),
                ],
                env={**os.environ, "PYTHONPATH": str(src)},
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
        try:
            deadline = time.monotonic() + 30
            address = None
            while address is None and time.monotonic() < deadline:
                assert proc.poll() is None, log.read_text()
                address = re.search(r"http://[\d.]+:\d+", log.read_text())
                time.sleep(0.01)
            assert address, log.read_text()
            body = {"instances": [[0.5, 0.5, 0.5]] * 4, "actuals": [1.0] * 4}
            request = urllib.request.Request(
                address.group(0) + "/v1/models/latest/predict",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "draining" in log.read_text()

    def test_sigterm_taken_by_another_thread_drains_a_cluster(self, tmp_path):
        """``repro serve --workers 2`` parked in the supervisor's wait
        must still drain when a thread other than the main one takes
        SIGTERM: the handler runs only once the main thread next runs
        bytecode, so an untimed wait would never return."""
        import os
        import signal
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = tmp_path / "registry"
        ModelRegistry(registry).publish(make_tree())
        src = Path(__file__).resolve().parents[1] / "src"
        script = textwrap.dedent(
            """
            import signal, sys, threading, time
            from repro.cli import main

            main_id = threading.main_thread().ident

            def parked():
                frame = sys._current_frames().get(main_id)
                while frame is not None:
                    if frame.f_code.co_name == "serve_forever":
                        return True
                    frame = frame.f_back
                return False

            def kick():
                while not parked():
                    time.sleep(0.01)
                signal.pthread_kill(threading.get_ident(), signal.SIGTERM)

            threading.Thread(target=kick, daemon=True).start()
            sys.exit(main(["serve", "--registry", sys.argv[1],
                           "--port", "0", "--workers", "2"]))
            """
        )
        # Its own session, so a hung supervisor goes down with its
        # forked workers.
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(registry)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == 0, err
        assert "draining workers" in err
