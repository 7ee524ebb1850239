"""Performance ledger: appends, provenance, noise-aware checking."""

import json

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    CheckConfig,
    PerfLedger,
    check_ledger,
    headline_metrics,
    metric_direction,
    render_findings,
    render_ledger_log,
)


@pytest.fixture
def ledger(tmp_path):
    return PerfLedger(tmp_path / "LEDGER.jsonl")


class TestAppend:
    def test_record_shape_and_provenance(self, ledger):
        record = ledger.append(
            "microperf", {"tree_fit_s": 0.5}, meta={"source": "test"}
        )
        assert record["schema"] == LEDGER_SCHEMA_VERSION
        assert record["bench"] == "microperf"
        assert record["metrics"] == {"tree_fit_s": 0.5}
        assert record["meta"] == {"source": "test"}
        manifest = record["manifest"]
        assert {"git", "version", "python", "machine"} <= set(manifest)
        assert record["unix"] > 0

    def test_appends_are_jsonl_lines(self, ledger):
        ledger.append("serve", {"p50_ms_b64": 2.0})
        ledger.append("serve", {"p50_ms_b64": 2.1})
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_empty_metrics_rejected(self, ledger):
        with pytest.raises(ValueError, match="empty metrics"):
            ledger.append("serve", {})
        assert not ledger.path.exists()

    def test_metric_keys_sorted_and_floated(self, ledger):
        record = ledger.append("serve", {"b_pct": 1, "a_ms": 2})
        assert list(record["metrics"]) == ["a_ms", "b_pct"]
        assert isinstance(record["metrics"]["a_ms"], float)


class TestEntries:
    def test_filter_by_bench_oldest_first(self, ledger):
        ledger.append("serve", {"p50_ms_b64": 1.0})
        ledger.append("drift", {"monitor_per_record_us": 9.0})
        ledger.append("serve", {"p50_ms_b64": 2.0})
        serve = ledger.entries("serve")
        assert [e["metrics"]["p50_ms_b64"] for e in serve] == [1.0, 2.0]
        assert ledger.benches() == ["serve", "drift"]
        assert ledger.latest("drift")["metrics"]["monitor_per_record_us"] == 9.0

    def test_missing_file_reads_empty(self, ledger):
        assert ledger.entries() == []
        assert ledger.latest("serve") is None

    def test_truncated_tail_tolerated(self, ledger):
        ledger.append("serve", {"p50_ms_b64": 1.0})
        with ledger.path.open("a") as handle:
            handle.write('{"bench": "serve", "metr')  # torn write
        entries = ledger.entries("serve")
        assert len(entries) == 1

    def test_non_dict_lines_skipped(self, ledger):
        ledger.path.write_text('[1, 2]\n{"no_bench": true}\n')
        assert ledger.entries() == []


class TestHeadlineMetrics:
    def test_microperf(self):
        snapshot = {
            "results": {
                "tree_fit": {"best_s": 0.4},
                "suite_generation": {"best_s": 1.2},
                "predict_compiled": {"best_s": 0.01},
                "predict_recursive": {"best_s": 0.05},
            },
            "compiled_sweep": {
                "64": {"speedup": 5.5},
                "256": {"speedup": 6.0},
                "10000": {"speedup": 7.0},
            },
        }
        metrics = headline_metrics("microperf", snapshot)
        assert metrics == {
            "tree_fit_s": 0.4,
            "suite_generation_s": 1.2,
            "predict_compiled_s": 0.01,
            "predict_recursive_s": 0.05,
            "compiled_speedup_b64": 5.5,
            "compiled_speedup_b256": 6.0,
        }

    def test_microperf_sweep_nested_under_results(self):
        # Older committed snapshots kept the sweep inside "results".
        snapshot = {"results": {"compiled_sweep": {"64": {"speedup": 4.0}}}}
        metrics = headline_metrics("microperf", snapshot)
        assert metrics == {"compiled_speedup_b64": 4.0}

    def test_serve(self):
        snapshot = {
            "results": {"64": {"p50_ms": 2.5, "rows_per_s": 90000.0}},
            "telemetry_overhead": {"overhead_pct": 1.2},
            "profiler_overhead": {"overhead_pct": 2.1},
        }
        metrics = headline_metrics("serve", snapshot)
        assert metrics == {
            "p50_b64_ms": 2.5,
            "rows_per_s_b64": 90000.0,
            "telemetry_overhead_pct": 1.2,
            "profiler_overhead_pct": 2.1,
        }

    def test_serve_v3_rows_are_load_results(self):
        snapshot = {
            "schema": "repro-servebench-v3",
            "results": {
                "64": {"latency_p50_ms": 1.1, "achieved_rows_per_s": 1.2e5}
            },
            "telemetry_overhead": {"overhead_pct": 8.0},
            "profiler_overhead": {"overhead_pct": 0.5},
        }
        assert headline_metrics("serve", snapshot) == {
            "p50_b64_ms": 1.1,
            "rows_per_s_b64": 1.2e5,
            "telemetry_overhead_pct": 8.0,
            "profiler_overhead_pct": 0.5,
        }

    def test_drift_and_pipeline(self):
        assert headline_metrics(
            "drift",
            {
                "monitor_overhead": {"per_record_us": 8.0},
                "serving_throughput": {"overhead_pct": 0.5},
            },
        ) == {"monitor_per_record_us": 8.0, "serving_overhead_pct": 0.5}
        assert headline_metrics(
            "pipeline",
            {
                "loop_closure": {"wall_s": 30.0},
                "serving_throughput": {"overhead_pct": -0.2},
            },
        ) == {"loop_closure_wall_s": 30.0, "serving_overhead_pct": -0.2}

    def test_missing_sections_omitted(self):
        assert headline_metrics("serve", {}) == {}

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="unknown bench"):
            headline_metrics("mystery", {})


class TestMetricDirection:
    @pytest.mark.parametrize(
        "name,direction",
        [
            ("tree_fit_s", "lower"),
            ("p50_ms_b64", "none"),  # suffix is _b64, not a unit
            ("p50_ms", "lower"),
            ("monitor_per_record_us", "lower"),
            ("telemetry_overhead_pct", "lower"),
            ("rows_per_s_b64", "higher"),
            ("compiled_speedup_b256", "higher"),
            ("mystery", "none"),
        ],
    )
    def test_direction(self, name, direction):
        assert metric_direction(name) == direction


class TestCheckLedger:
    def _seed(self, ledger, values, metric="tree_fit_s", bench="microperf"):
        for value in values:
            ledger.append(bench, {metric: value})

    def test_stable_history_is_ok(self, ledger):
        self._seed(ledger, [0.50, 0.48, 0.52, 0.51])
        findings = check_ledger(ledger.path)
        assert [f.status for f in findings] == ["ok"]
        assert "perf check: ok" in render_findings(findings)

    def test_doubled_time_flags_regression(self, ledger):
        self._seed(ledger, [0.50, 0.48, 0.52, 1.00])
        findings = check_ledger(ledger.path)
        assert findings[0].status == "regression"
        assert findings[0].baseline == 0.50
        text = render_findings(findings)
        assert "REGRESSED" in text and "1 regression(s)" in text

    def test_halved_time_is_improvement_not_failure(self, ledger):
        self._seed(ledger, [0.50, 0.48, 0.52, 0.20])
        assert check_ledger(ledger.path)[0].status == "improvement"

    def test_higher_better_direction(self, ledger):
        self._seed(ledger, [5.0, 5.2, 4.9, 2.0], metric="compiled_speedup_b64")
        assert check_ledger(ledger.path)[0].status == "regression"

    def test_short_history_is_insufficient(self, ledger):
        self._seed(ledger, [0.50, 1.00])
        findings = check_ledger(ledger.path)
        assert findings[0].status == "insufficient"

    def test_pct_floor_absorbs_small_absolute_drift(self, ledger):
        # Paired overhead ratios hover around 0; +2 points within a
        # +/-3 point floor must not trip even though it is a huge
        # relative move.
        self._seed(
            ledger, [0.1, -0.3, 0.2, 2.0], metric="telemetry_overhead_pct"
        )
        assert check_ledger(ledger.path)[0].status == "ok"

    def test_mad_band_adapts_to_noisy_history(self, ledger):
        # History swinging 2x run-to-run: a candidate inside that
        # spread is not a regression.
        self._seed(ledger, [0.30, 0.60, 0.45, 0.33, 0.58])
        assert check_ledger(ledger.path)[0].status == "ok"

    def test_judges_newest_entry_per_bench(self, ledger):
        self._seed(ledger, [0.5, 0.5, 0.5])
        self._seed(ledger, [10.0, 10.2, 9.9], metric="p50_ms", bench="serve")
        findings = check_ledger(ledger.path, bench="serve")
        assert {f.bench for f in findings} == {"serve"}

    def test_config_tightening(self, ledger):
        self._seed(ledger, [0.50, 0.50, 0.50, 0.60])
        loose = check_ledger(ledger.path)
        tight = check_ledger(
            ledger.path, CheckConfig(min_rel=0.05, mad_k=1.0)
        )
        assert loose[0].status == "ok"
        assert tight[0].status == "regression"

    def test_empty_ledger_renders_message(self, ledger):
        findings = check_ledger(ledger.path)
        assert findings == []
        assert "nothing to judge" in render_findings(findings)


class TestRenderLog:
    def test_log_shows_tail_with_git_stamp(self, ledger):
        for i in range(12):
            ledger.append("serve", {"p50_ms_b64": 2.0 + i * 0.01})
        text = render_ledger_log(ledger, last=3)
        assert "12 entries" in text
        # header + 3 tail rows only
        assert len(text.splitlines()) == 4
        assert "p50_ms_b64=2.11" in text

    def test_empty_ledger(self, ledger):
        assert "empty" in render_ledger_log(ledger)
