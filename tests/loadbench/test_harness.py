"""Load harness: percentiles, config validation, both loop modes."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.loadbench import LoadConfig, run_load
from repro.loadbench.harness import _default_instances, percentile
from repro.loadbench.report import render_load_text, verify_bit_equality
from repro.obs import read_events
from repro.serve.api import ModelServer
from repro.serve.registry import ModelRegistry

from .conftest import make_tree


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank_on_a_known_population(self):
        samples = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 51.0  # round(0.5 * 99) = 50
        assert percentile(samples, 1.0) == 100.0

    def test_order_does_not_matter(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestLoadConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            LoadConfig(url="http://x", mode="bursty")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            LoadConfig(url="http://x", duration_s=0)

    def test_zero_connections_rejected(self):
        with pytest.raises(ValueError, match="connections"):
            LoadConfig(url="http://x", connections=0)

    def test_open_loop_needs_a_rate(self):
        with pytest.raises(ValueError, match="rate"):
            LoadConfig(url="http://x", mode="open", rate=0)

    def test_closed_loop_ignores_rate(self):
        # rate only constrains open mode.
        LoadConfig(url="http://x", mode="closed", rate=0)

    def test_zero_batch_rows_rejected(self):
        with pytest.raises(ValueError, match="batch_rows"):
            LoadConfig(url="http://x", batch_rows=0)

    def test_actuals_need_one_label_per_instance(self):
        with pytest.raises(ValueError, match="actuals"):
            LoadConfig(url="http://x", actuals=[1.0])
        with pytest.raises(ValueError, match="actuals"):
            LoadConfig(url="http://x", instances=[[0.1, 0.2, 0.3]],
                       actuals=[1.0, 2.0])


class TestDefaultInstances:
    def test_deterministic_for_a_seed(self):
        assert _default_instances(4, 1) == _default_instances(4, 1)
        assert _default_instances(4, 1) != _default_instances(4, 2)

    def test_shape(self):
        rows = _default_instances(5, 3)
        assert len(rows) == 5
        assert all(len(row) == 3 for row in rows)


class TestClosedLoop:
    def test_measures_a_live_server(self, served):
        server, _, tree = served
        config = LoadConfig(
            url=server.url,
            mode="closed",
            duration_s=1.0,
            connections=2,
            batch_rows=8,
        )
        result = run_load(config)
        assert result.mode == "closed"
        assert result.requests > 0
        assert result.errors == 0
        assert result.rows == result.requests * 8
        assert result.achieved_rps > 0
        assert result.offered_rps is None
        assert result.latency_p50_ms <= result.latency_p99_ms
        assert result.latency_p99_ms <= result.latency_max_ms

    def test_actuals_reach_the_drift_monitor(self, served):
        server, _, tree = served
        instances = _default_instances(4, 9)
        config = LoadConfig(
            url=server.url,
            duration_s=0.3,
            connections=1,
            batch_rows=4,
            instances=instances,
            actuals=tree.predict(np.asarray(instances)).tolist(),
        )
        result = run_load(config)
        assert result.requests > 0 and result.errors == 0
        window = server.drift.report("latest")["window"]
        assert window["n"] > 0
        assert window["n_labelled"] == window["n"]

    def test_think_time_caps_throughput(self, served):
        server, _, _ = served
        config = LoadConfig(
            url=server.url,
            mode="closed",
            duration_s=1.0,
            connections=1,
            think_ms=100.0,
            batch_rows=4,
        )
        result = run_load(config)
        # One connection thinking 100ms per iteration cannot exceed
        # ~10 req/s no matter how fast the server is.
        assert 0 < result.requests <= 15

    def test_unreachable_server_counts_errors_not_latencies(self):
        config = LoadConfig(
            url="http://127.0.0.1:1",  # reserved port, nothing listens
            mode="closed",
            duration_s=0.3,
            connections=1,
            timeout_s=0.2,
        )
        result = run_load(config)
        assert result.requests == 0
        assert result.errors > 0
        assert math.isnan(result.latency_mean_ms)


class TestTraceIds:
    def test_every_request_is_in_the_server_event_log(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(make_tree())
        events = tmp_path / "events.jsonl"
        with ModelServer(
            registry, port=0, monitor=False, events_path=str(events)
        ) as server:
            result = run_load(
                LoadConfig(
                    url=server.url,
                    mode="closed",
                    duration_s=0.5,
                    connections=2,
                    batch_rows=4,
                )
            )
        assert result.requests > 0 and result.errors == 0
        traces = [
            record["trace"]
            for record in read_events(events)
            if record.get("kind") == "http"
        ]
        assert len(traces) == result.requests
        sent = {}
        for trace in traces:
            match = re.fullmatch(r"lb-(\d+)-(\d+)", trace)
            assert match, trace
            sent.setdefault(int(match[1]), []).append(int(match[2]))
        assert set(sent) == {0, 1}
        for numbers in sent.values():
            assert sorted(numbers) == list(range(len(numbers)))


class TestOpenLoop:
    def test_poisson_arrivals_hit_the_offered_rate(self, served):
        server, _, _ = served
        config = LoadConfig(
            url=server.url,
            mode="open",
            duration_s=1.0,
            rate=50.0,
            connections=2,
            batch_rows=4,
        )
        result = run_load(config)
        assert result.offered_rps is not None
        # Offered rate is the realized Poisson draw, near the target.
        assert 20.0 < result.offered_rps < 100.0
        assert result.errors == 0
        # A lightly-loaded server keeps up with 50 req/s.
        assert result.requests > 20

    def test_schedule_is_seeded(self, served):
        server, _, _ = served
        base = dict(
            url=server.url, mode="open", duration_s=0.5, rate=40.0,
            connections=1, batch_rows=2,
        )
        first = run_load(LoadConfig(seed=5, **base))
        second = run_load(LoadConfig(seed=5, **base))
        assert first.offered_rps == second.offered_rps


class TestBitEquality:
    def test_served_floats_match_direct_predict(self, served):
        server, _, tree = served
        instances = _default_instances(6, 42)
        expected = tree.predict(np.asarray(instances)).tolist()
        check = verify_bit_equality(server.url, "latest", instances, expected)
        assert check["identical"] is True
        assert check["n"] == 6

    def test_mismatch_is_reported_not_raised(self, served):
        server, _, tree = served
        instances = _default_instances(6, 42)
        wrong = [0.0] * 6
        check = verify_bit_equality(server.url, "latest", instances, wrong)
        assert check["identical"] is False


class TestRenderLoadText:
    def test_report_lines(self, served):
        server, _, _ = served
        config = LoadConfig(
            url=server.url, duration_s=0.5, connections=1, batch_rows=4
        )
        result = run_load(config)
        text = render_load_text(result, server.url)
        assert "closed loop" in text
        assert "throughput" in text
        assert "p99" in text

    def test_open_loop_report_includes_offered(self, served):
        server, _, _ = served
        config = LoadConfig(
            url=server.url, mode="open", duration_s=0.5, rate=30.0,
            connections=1, batch_rows=4,
        )
        result = run_load(config)
        text = render_load_text(result, server.url)
        assert "offered" in text
