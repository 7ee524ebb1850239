"""Status surface, request telemetry and failure-path accounting."""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.obs.telemetry import TRACE_HEADER, load_trace
from repro.serve.api import ModelServer
from repro.serve.engine import BatchConfig, PredictionEngine
from repro.serve.status import render_status_text

from tests.serve.conftest import make_tree


@pytest.fixture
def server(registry, tiny_tree, tmp_path):
    """A monitored server with telemetry (event log) enabled."""
    registry.publish(tiny_tree, metadata={"suite": "synth"})
    with ModelServer(
        registry,
        port=0,
        batch=BatchConfig(max_batch=32, max_wait_s=0.001),
        max_body_bytes=64 * 1024,
        events_path=str(tmp_path / "events.jsonl"),
    ) as running:
        yield running


def get(server, path, headers=None):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read(), dict(response.headers)


def post_json(server, path, payload, headers=None):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestTracePropagation:
    def test_client_trace_id_echoed_in_header_and_body(self, server, probe):
        status, body, headers = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": probe.tolist()},
            headers={TRACE_HEADER: "client-abc.1"},
        )
        assert status == 200
        assert headers[TRACE_HEADER] == "client-abc.1"
        assert body["trace"] == "client-abc.1"

    def test_server_generates_id_when_absent(self, server, probe):
        status, body, headers = post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        assert status == 200
        assert len(headers[TRACE_HEADER]) == 32
        assert body["trace"] == headers[TRACE_HEADER]

    def test_malformed_id_replaced(self, server, probe):
        status, body, headers = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": probe.tolist()},
            headers={TRACE_HEADER: "has spaces!"},
        )
        assert status == 200
        assert headers[TRACE_HEADER] != "has spaces!"

    def test_error_envelope_carries_trace(self, server):
        status, body, headers = post_json(
            server,
            "/v1/models/ghost/predict",
            {"instances": [[0.0, 0.0, 0.0]]},
            headers={TRACE_HEADER: "err-trace-1"},
        )
        assert status == 404
        assert headers[TRACE_HEADER] == "err-trace-1"
        assert body["trace"] == "err-trace-1"

    def test_traced_request_reconstructs_from_event_log(
        self, registry, tiny_tree, tmp_path, probe
    ):
        registry.publish(tiny_tree)
        events = tmp_path / "events.jsonl"
        with ModelServer(
            registry,
            port=0,
            monitor=False,
            events_path=str(events),
        ) as server:
            status, _, _ = post_json(
                server,
                "/v1/models/latest/predict",
                {"instances": probe.tolist()},
                headers={TRACE_HEADER: "recon-1"},
            )
            assert status == 200
        # Server shut down -> engine drained, event log closed/flushed.
        view = load_trace(events, "recon-1")
        assert view is not None
        names = [stage["stage"] for stage in view.all_stages()]
        assert names == [
            "decode",
            "validate",
            "queue_wait",
            "batch_assembly",
            "kernel",
            "respond",
        ]
        # The span tree explains the server-observed wall time: stage
        # durations sum to (nearly) the HTTP record's latency.  The
        # lower bound is loose for CI scheduling jitter; the acceptance
        # smoke run sits at ~0.97.
        assert view.duration_s > 0
        assert 0.8 <= view.coverage() <= 1.05
        kernel = next(s for s in view.all_stages() if s["stage"] == "kernel")
        assert kernel["batch_rows"] >= len(probe)
        assert kernel["batch_requests"] >= 1

    def test_drift_observe_span_emitted_when_monitoring(
        self, server, probe
    ):
        post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": probe.tolist()},
            headers={TRACE_HEADER: "drift-span-1"},
        )
        # The supplementary engine record is emitted by the batching
        # worker after the response is already on the wire — poll.
        view = None
        for _ in range(100):
            server.telemetry.flush()
            view = load_trace(server.telemetry.path, "drift-span-1")
            if view is not None and view.engine is not None:
                break
            time.sleep(0.05)
        assert view is not None and view.engine is not None
        assert "drift_observe" in view.stage_seconds()

    def test_untraced_server_still_echoes_ids(
        self, registry, tiny_tree, probe
    ):
        registry.publish(tiny_tree)
        with ModelServer(registry, port=0, monitor=False) as quiet:
            assert quiet.telemetry is None
            status, body, headers = post_json(
                quiet,
                "/v1/models/latest/predict",
                {"instances": probe.tolist()},
                headers={TRACE_HEADER: "no-log-1"},
            )
        assert status == 200
        assert headers[TRACE_HEADER] == "no-log-1"
        assert body["trace"] == "no-log-1"


class TestStatusDocument:
    def test_status_shape(self, server, probe):
        post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        status, raw, headers = get(server, "/v1/status")
        assert status == 200
        body = json.loads(raw)
        assert body["schema"] == "repro-status-v1"
        assert body["uptime_s"] >= 0
        assert body["build"]["package"] == "repro"
        assert body["http"]["requests"] >= 1
        assert body["engine"]["running"] is True
        assert body["engine"]["requests"] >= 1
        assert body["models"]["count"] == 1
        assert "latest" in body["models"]["aliases"]
        assert body["slo"]["latency"]["budget_remaining"] is not None
        assert body["drift"]["monitoring"] is True
        assert body["telemetry"]["enabled"] is True
        assert body["telemetry"]["written"] >= 0

    def test_latency_quantiles_present_after_traffic(self, server, probe):
        post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        body = json.loads(get(server, "/v1/status")[1])
        quantiles = body["latency_quantiles"]
        assert quantiles, "expected at least one latency summary"
        assert set(quantiles[0]["quantiles"]) == {"0.5", "0.95", "0.99"}
        names = {entry["name"] for entry in quantiles}
        assert "serve.predict.latency_s" in names

    def test_telemetry_disabled_reported(self, registry, tiny_tree):
        registry.publish(tiny_tree)
        with ModelServer(registry, port=0, monitor=False) as quiet:
            body = json.loads(get(quiet, "/v1/status")[1])
        assert body["telemetry"] == {"enabled": False}
        assert body["drift"] == {"monitoring": False}

    def test_render_status_text(self, server, probe):
        post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        body = json.loads(get(server, "/v1/status")[1])
        text = render_status_text(body)
        assert "engine" in text
        assert "slo" in text
        assert "p50" in text

    def test_healthz_carries_build_info(self, server):
        body = json.loads(get(server, "/healthz")[1])
        assert body["build"]["package"] == "repro"
        assert "schemas" in body["build"]


class TestPipelineSection:
    def test_unarmed_status_and_text(self, server):
        body = json.loads(get(server, "/v1/status")[1])
        assert body["pipeline"] == {"armed": False}
        assert "pipeline: off" in render_status_text(body)

    def test_armed_status_text_and_dashboard(self, registry, tiny_tree):
        registry.publish(tiny_tree, metadata={"suite": "synth"})
        with ModelServer(registry, port=0, pipeline=True) as armed:
            body = json.loads(get(armed, "/v1/status")[1])
            assert body["pipeline"]["armed"] is True
            assert body["pipeline"]["state"] == "idle"
            text = render_status_text(body)
            assert "pipeline  state=idle" in text
            assert "promotions:" in text
            html = get(armed, "/dashboard")[1].decode()
            assert "<h2>pipeline</h2>" in html
            assert "verified" in html


class TestDashboard:
    def test_dashboard_is_html(self, server, probe):
        post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        status, raw, headers = get(server, "/dashboard")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        html = raw.decode()
        assert html.lstrip().lower().startswith("<!doctype html")
        assert "repro" in html
        assert "SLO" in html or "slo" in html

    def test_dashboard_refreshes_itself(self, server):
        html = get(server, "/dashboard")[1].decode()
        assert 'http-equiv="refresh"' in html

    def test_dashboard_rejects_post(self, server):
        status, body, _ = post_json(server, "/dashboard", {})
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestFailurePathCounters:
    def test_oversized_body_counted(self, server):
        registry = get_registry()
        before = registry.counter("serve.http.rejected_oversized").value
        huge = {"instances": [[0.0, 0.0, 0.0]] * 6000}  # > 64 KiB limit
        status, _, _ = post_json(server, "/v1/models/latest/predict", huge)
        assert status == 413
        assert (
            registry.counter("serve.http.rejected_oversized").value
            == before + 1
        )
        text = get(server, "/metrics")[1].decode()
        assert "repro_serve_http_rejected_oversized" in text

    def test_validation_failure_counted_before_enqueue(
        self, registry, tiny_tree
    ):
        registry.publish(tiny_tree)
        metrics = get_registry()
        before_fail = metrics.counter("serve.engine.validation_failures").value
        before_requests = metrics.counter("serve.engine.requests").value
        with PredictionEngine(registry) as engine:
            with pytest.raises(Exception):
                engine.predict("ghost", np.zeros((1, 3)))
        assert (
            metrics.counter("serve.engine.validation_failures").value
            == before_fail + 1
        )
        # The failed request never occupied queue capacity.
        assert (
            metrics.counter("serve.engine.requests").value == before_requests
        )

    def test_drained_requests_counted(self, registry, tiny_tree):
        from repro.serve import engine as engine_mod

        record = registry.publish(tiny_tree)
        _, tree = registry.load(record.model_id)
        metrics = get_registry()
        before = metrics.counter("serve.engine.drained_requests").value
        engine = PredictionEngine(registry)
        # Enqueue work behind the shutdown sentinel before the worker
        # starts: the worker's first dequeue is the sentinel, so both
        # requests can only be answered by the drain path.  Each future
        # carries its validated rows and tree, as submit() builds it.
        rng = np.random.default_rng(7)
        inputs = [tree._check_X(rng.random((rows, 3))) for rows in (1, 4)]
        stranded = [
            engine_mod.PredictionFuture(record.model_id, None, X, tree=tree)
            for X in inputs
        ]
        engine._queue.put(engine_mod._SHUTDOWN)
        for request in stranded:
            engine._queue.put(request)
        engine.start()
        engine._worker.join(timeout=10)
        assert metrics.counter("serve.engine.drained_requests").value == (
            before + 2
        )
        for request, X in zip(stranded, inputs):
            assert request.event.is_set()
            np.testing.assert_array_equal(
                request.result(0), tiny_tree.predict(X)
            )

    def test_5xx_free_traffic_keeps_slo_budget(self, server, probe):
        post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        body = json.loads(get(server, "/v1/status")[1])
        assert body["slo"]["availability"]["bad_events"] == 0
        assert body["slo"]["availability"]["budget_remaining"] == 1.0


class TestStatusEndpointLabels:
    def test_model_refs_fold_into_one_label(self, server, registry, probe):
        registry.publish(make_tree(seed=8), aliases=("other",))
        for ref in ("latest", "other"):
            post_json(
                server,
                f"/v1/models/{ref}/predict",
                {"instances": probe.tolist()},
            )
        text = get(server, "/metrics")[1].decode()
        assert 'endpoint="/v1/models/{ref}/predict"' in text
        assert 'endpoint="/v1/models/latest/predict"' not in text
