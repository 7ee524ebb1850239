"""HTTP API: end-to-end round trips, validation, limits, metrics."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.serve.api import ModelServer, _Handler
from repro.serve.engine import BatchConfig
from repro.serve.registry import ModelRegistry

from tests.serve.conftest import make_tree


@pytest.fixture
def server(registry, tiny_tree):
    registry.publish(tiny_tree, metadata={"suite": "synth"})
    with ModelServer(
        registry,
        port=0,
        batch=BatchConfig(max_batch=32, max_wait_s=0.001),
        max_body_bytes=64 * 1024,
    ) as running:
        yield running


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, response.read()


def get_json(server, path):
    status, body = get(server, path)
    return status, json.loads(body)


def post_json(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestCoreRoutes:
    def test_healthz(self, server):
        status, body = get_json(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"] == 1
        assert body["engine_running"] is True

    def test_list_models(self, server, registry):
        status, body = get_json(server, "/v1/models")
        assert status == 200
        assert len(body["models"]) == 1
        assert body["aliases"]["latest"] == body["models"][0]["model_id"]

    def test_model_record(self, server):
        status, body = get_json(server, "/v1/models/latest")
        assert status == 200
        assert body["feature_names"] == ["p", "q", "r"]
        assert body["metadata"]["suite"] == "synth"

    def test_profile(self, server, tiny_tree):
        status, body = get_json(server, "/v1/models/latest/profile")
        assert status == 200
        assert body["n_leaves"] == tiny_tree.n_leaves

    def test_compare(self, server, registry):
        other = registry.publish(make_tree(seed=8), aliases=("other",))
        status, body = get_json(server, "/v1/models/latest/compare/other")
        assert status == 200
        assert body["name_b"] == other.model_id
        assert 0.0 <= body["split_jaccard"] <= 1.0


class TestPipelineRoute:
    def test_unarmed_server_reports_disarmed(self, server):
        status, body = get_json(server, "/v1/pipeline")
        assert status == 200
        assert body == {"armed": False}
        status, doc = get_json(server, "/v1/status")
        assert doc["pipeline"] == {"armed": False}

    def test_armed_server_reports_pipeline_state(
        self, registry, tiny_tree, probe
    ):
        registry.publish(
            tiny_tree,
            metadata={
                "suite": "synth",
                "train_y": {"n": 600, "mean": 2.5, "var": 1.5},
            },
        )
        with ModelServer(registry, port=0, pipeline=True) as armed:
            status, body = get_json(armed, "/v1/pipeline")
            assert status == 200
            assert body["armed"] is True
            assert body["state"] == "idle"
            assert body["alias"] == "latest"
            assert body["promotions"]["chain_valid"] is True
            # Labelled predict traffic reaches the pipeline's buffer
            # through the engine -> hub -> tap path.
            status, _ = post_json(
                armed,
                "/v1/models/latest/predict",
                {
                    "instances": probe.tolist(),
                    "actuals": [2.0] * len(probe),
                },
            )
            assert status == 200
            for _ in range(100):
                _, body = get_json(armed, "/v1/pipeline")
                if body["buffer"]["n"] >= len(probe):
                    break
                time.sleep(0.02)
            assert body["buffer"]["n"] >= len(probe)
            # The pipeline section rides along in the status document
            # and on the dashboard.
            _, doc = get_json(armed, "/v1/status")
            assert doc["pipeline"]["armed"] is True
            _, html = get(armed, "/dashboard")
            assert "<h2>pipeline</h2>" in html.decode()
            assert "chain" in html.decode()

    def test_pipeline_without_monitoring_is_rejected(
        self, registry, tiny_tree
    ):
        registry.publish(tiny_tree)
        with pytest.raises(ValueError, match="drift monitoring"):
            ModelServer(registry, port=0, monitor=False, pipeline=True)


class TestPredict:
    def test_bit_identical_to_direct_call(self, server, tiny_tree, probe):
        status, body = post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        assert status == 200
        assert body["n"] == len(probe)
        np.testing.assert_array_equal(
            np.asarray(body["predictions"]), tiny_tree.predict(probe)
        )

    def test_object_rows(self, server, tiny_tree):
        row = {"p": 0.5, "q": 0.2, "r": 0.9}
        status, body = post_json(
            server, "/v1/models/latest/predict", {"instances": [row]}
        )
        assert status == 200
        expected = tiny_tree.predict(np.array([[0.5, 0.2, 0.9]]))
        assert body["predictions"] == expected.tolist()

    def test_smooth_override(self, server, tiny_tree, probe):
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": probe.tolist(), "smooth": False},
        )
        assert status == 200
        np.testing.assert_array_equal(
            np.asarray(body["predictions"]),
            tiny_tree.predict(probe, smooth=False),
        )

    def test_profile_inputs_post(self, server, probe):
        status, body = post_json(
            server, "/v1/models/latest/profile", {"instances": probe.tolist()}
        )
        assert status == 200
        assert body["n"] == len(probe)
        assert 0.0 <= body["l1_vs_training_pct"] <= 100.0


class _PromotedAfterLoad(ModelRegistry):
    """Moves ``latest`` to :attr:`promote_to` right after the next
    ``load()`` returns: a promotion landing mid-request."""

    promote_to = None

    def load(self, ref):
        result = super().load(ref)
        if self.promote_to is not None:
            target, self.promote_to = self.promote_to, None
            self.move_alias("latest", target, reason="mid-request promotion")
        return result


class TestPredictUnderPromotion:
    def test_response_names_the_model_that_predicted(self, tmp_path, probe):
        registry = _PromotedAfterLoad(tmp_path / "registry")
        tree_a, tree_b = make_tree(seed=51), make_tree(seed=52)
        a = registry.publish(tree_a)  # takes 'latest'
        b = registry.publish(tree_b, aliases=())
        registry.promote_to = b.model_id
        with ModelServer(registry, port=0, monitor=False) as running:
            status, body = post_json(
                running,
                "/v1/models/latest/predict",
                {"instances": probe.tolist()},
            )
        assert status == 200
        assert registry.resolve("latest") == b.model_id  # it did land
        named = {a.model_id: tree_a, b.model_id: tree_b}[body["model_id"]]
        np.testing.assert_array_equal(
            np.asarray(body["predictions"]), named.predict(probe)
        )


class TestProfileUnderPromotion:
    def test_rows_profiled_by_the_model_that_decoded_them(
        self, tmp_path, probe
    ):
        registry = _PromotedAfterLoad(tmp_path / "registry")
        a = registry.publish(make_tree(seed=53))  # takes 'latest'
        b = registry.publish(make_tree(seed=54), aliases=())
        registry.promote_to = b.model_id
        with ModelServer(registry, port=0, monitor=False) as running:
            status, body = post_json(
                running,
                "/v1/models/latest/profile",
                {"instances": probe.tolist()},
            )
        assert status == 200
        assert registry.resolve("latest") == b.model_id  # it did land
        assert body["model_id"] == a.model_id


class _CountingRecords(ModelRegistry):
    """Counts ``record()`` calls."""

    records = 0

    def record(self, ref):
        self.records += 1
        return super().record(ref)


class TestCachedPredict:
    def test_cached_predict_reads_no_metadata(
        self, tmp_path, tiny_tree, probe, monkeypatch
    ):
        registry = _CountingRecords(tmp_path / "registry")
        registry.publish(tiny_tree)
        meta_reads = []
        read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            if path.name == "meta.json":
                meta_reads.append(path)
            return read_text(path, *args, **kwargs)

        payload = {"instances": probe.tolist()}
        with ModelServer(registry, port=0, monitor=False) as running:
            warm_up, _ = post_json(
                running, "/v1/models/latest/predict", payload
            )
            assert warm_up == 200
            registry.records = 0
            monkeypatch.setattr(Path, "read_text", counting_read_text)
            bodies = [
                post_json(running, "/v1/models/latest/predict", payload)
                for _ in range(5)
            ]
            monkeypatch.undo()
        assert registry.records == 0
        assert meta_reads == []
        expected = tiny_tree.predict(probe)
        for status, body in bodies:
            assert status == 200
            np.testing.assert_array_equal(
                np.asarray(body["predictions"]), expected
            )


class _CountingLoads(_CountingRecords):
    """Counts ``load()`` and ``record()`` calls."""

    loads = 0

    def load(self, ref):
        self.loads += 1
        return super().load(ref)


class TestOneLookupPerPredict:
    def test_warm_predict_loads_once(self, tmp_path, tiny_tree, probe):
        """The handler's ``load()`` is the request's only registry
        lookup: the engine validates against the pair it returned."""
        registry = _CountingLoads(tmp_path / "registry")
        registry.publish(tiny_tree)
        payload = {"instances": probe.tolist()}
        with ModelServer(registry, port=0, monitor=False) as running:
            warm_up, _ = post_json(
                running, "/v1/models/latest/predict", payload
            )
            assert warm_up == 200
            registry.loads = registry.records = 0
            status, body = post_json(
                running, "/v1/models/latest/predict", payload
            )
            assert (registry.loads, registry.records) == (1, 0)
        assert status == 200
        np.testing.assert_array_equal(
            np.asarray(body["predictions"]), tiny_tree.predict(probe)
        )


class TestValidation:
    def test_unknown_model_404(self, server):
        status, body = post_json(
            server, "/v1/models/ghost/predict", {"instances": [[0, 0, 0]]}
        )
        assert status == 404
        assert body["error"]["code"] == "model_not_found"

    def test_unknown_route_404(self, server):
        status, body = post_json(server, "/v2/oops", {})
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_wrong_method_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                server.url + "/v1/models/latest/predict", timeout=10
            )
        assert excinfo.value.code == 405
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "method_not_allowed"

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/models/latest/predict",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "invalid_json"

    def test_wrong_width_400(self, server):
        status, body = post_json(
            server, "/v1/models/latest/predict", {"instances": [[1.0, 2.0]]}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_instances"

    def test_unknown_event_name_400(self, server):
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": [{"p": 1, "q": 2, "typo": 3}]},
        )
        assert status == 400
        assert "typo" in body["error"]["message"]

    def test_non_finite_400(self, server):
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": [[float("nan"), 0.0, 0.0]]},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_input"

    def test_non_finite_prediction_400(self, server, tiny_tree):
        # Finite input the model extrapolates past float64: the answer
        # would carry -inf, which is not JSON.
        rows = [[0.5, 0.5, 0.5], [-1e308, -1e308, -1e308]]
        assert not np.isfinite(tiny_tree.predict(np.asarray(rows))).all()
        status, body = post_json(
            server, "/v1/models/latest/predict", {"instances": rows}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_input"
        assert "first bad row: 1" in body["error"]["message"]

    @pytest.mark.parametrize(
        "row", [[10**400, 0.5, 0.5], {"p": 0.5, "q": -(10**400), "r": 0.5}]
    )
    def test_integer_past_float64_in_instances_400(self, server, row):
        status, body = post_json(
            server, "/v1/models/latest/predict", {"instances": [row]}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_instances"

    def test_integer_past_float64_in_actuals_400(self, server):
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": [[0.1, 0.1, 0.1]], "actuals": [10**400]},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_actuals"
        assert "actuals[0]" in body["error"]["message"]

    def test_empty_instances_400(self, server):
        status, body = post_json(
            server, "/v1/models/latest/predict", {"instances": []}
        )
        assert status == 400

    def test_oversized_body_413(self, server):
        huge = {"instances": [[0.0, 0.0, 0.0]] * 6000}  # > 64 KiB limit
        status, body = post_json(server, "/v1/models/latest/predict", huge)
        assert status == 413
        assert body["error"]["code"] == "body_too_large"

    def test_bad_smooth_400(self, server):
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": [[0.1, 0.1, 0.1]], "smooth": "yes"},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_smooth"

    def test_actuals_wrong_length_400(self, server, probe):
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": probe.tolist(), "actuals": [1.0, 2.0]},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_actuals"

    @pytest.mark.parametrize("bad", ["2.0", True, {}])
    def test_actuals_wrong_type_400(self, server, bad):
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": [[0.1, 0.1, 0.1]], "actuals": [bad]},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_actuals"

    def test_actuals_accepts_nulls_for_unlabelled_rows(self, server, probe):
        actuals = [2.0] * (len(probe) - 1) + [None]
        status, body = post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": probe.tolist(), "actuals": actuals},
        )
        assert status == 200
        assert body["n"] == len(probe)


class TestMetrics:
    def test_metrics_reflect_traffic(self, server, probe):
        from repro.obs.metrics import get_registry

        before = get_registry().counter("serve.http.predictions").value
        post_json(
            server, "/v1/models/latest/predict", {"instances": probe.tolist()}
        )
        status, body = get(server, "/metrics")
        text = body.decode()
        assert status == 200
        assert "repro_serve_http_requests" in text
        assert "repro_serve_engine_batch_rows_count" in text
        # The batching instruments: per-flush request-count histogram
        # plus the queue-depth gauge (set on every enqueue and flush).
        assert "repro_serve_engine_batch_requests" in text
        assert get_registry().gauge("serve.engine.queue_depth").value >= 0.0
        after = get_registry().counter("serve.http.predictions").value
        assert after - before == len(probe)

    def test_drift_gauges_reach_metrics(self, server, probe, tiny_tree):
        import time

        expected = tiny_tree.predict(np.asarray(probe))
        post_json(
            server,
            "/v1/models/latest/predict",
            {"instances": probe.tolist(), "actuals": expected.tolist()},
        )
        model_id = server.registry.resolve("latest")
        prefix = f"repro_drift_{model_id}"
        for _ in range(50):  # observation lands off the client path
            text = get(server, "/metrics")[1].decode()
            if prefix in text:
                break
            time.sleep(0.05)
        assert prefix in text


class TestDriftRoute:
    def test_drift_report_when_monitoring(self, server):
        status, body = get_json(server, "/v1/models/latest/drift")
        assert status == 200
        assert body["monitoring"] is True
        assert body["model_id"] == server.registry.resolve("latest")
        assert "verdict" in body

    def test_drift_unknown_model_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                server.url + "/v1/models/ghost/drift", timeout=10
            )
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "model_not_found"

    def test_drift_route_is_get_only(self, server):
        status, body = post_json(server, "/v1/models/latest/drift", {})
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_drift_disabled_server_says_so(self, registry, tiny_tree):
        registry.publish(tiny_tree)
        with ModelServer(registry, port=0, monitor=False) as quiet:
            status, body = get_json(quiet, "/v1/models/latest/drift")
        assert status == 200
        assert body["monitoring"] is False
        assert body["model_id"] == registry.resolve("latest")


class _SendOrderHub:
    """Drift-hub stand-in: records, per observed batch, whether the
    handler's response write had finished (or failed) by then."""

    def __init__(self, sent: threading.Event) -> None:
        self.sent = sent
        self.sent_first = []
        self.observed = threading.Event()

    def observe(
        self, model_id, X, predictions, actuals, slots=None
    ) -> None:
        self.sent_first.append(self.sent.is_set())
        self.observed.set()


def _slow_predict_send(monkeypatch, fail: bool = False) -> threading.Event:
    """Make every predict response take 50 ms to write, then succeed or
    (``fail``) raise the BrokenPipeError of a client that hung up.
    Returns the event set once the write is over."""
    sent = threading.Event()
    original = _Handler._send

    def send(self, status, body, content_type="application/json"):
        if not self.path.endswith("/predict"):
            return original(self, status, body, content_type)
        time.sleep(0.05)
        try:
            if fail:
                raise BrokenPipeError("client hung up")
            original(self, status, body, content_type)
        finally:
            sent.set()

    monkeypatch.setattr(_Handler, "_send", send)
    return sent


class TestHubAfterResponse:
    """An idle request's batch reaches the drift hub only after its
    handler is done writing the response."""

    def test_observe_begins_after_the_response_is_written(
        self, registry, tiny_tree, probe, monkeypatch
    ):
        registry.publish(tiny_tree)
        hub = _SendOrderHub(_slow_predict_send(monkeypatch))
        with ModelServer(registry, port=0, drift=hub) as server:
            status, body = post_json(
                server,
                "/v1/models/latest/predict",
                {"instances": probe.tolist()},
            )
            assert status == 200
            assert hub.observed.wait(5)
        assert hub.sent_first == [True]
        np.testing.assert_array_equal(
            body["predictions"], tiny_tree.predict(probe)
        )

    def test_client_hang_up_still_feeds_the_hub(
        self, registry, tiny_tree, probe, monkeypatch
    ):
        registry.publish(tiny_tree)
        hub = _SendOrderHub(_slow_predict_send(monkeypatch, fail=True))
        body = json.dumps({"instances": probe.tolist()}).encode()
        with ModelServer(registry, port=0, drift=hub) as server:
            with socket.create_connection(server.address, timeout=10) as c:
                c.sendall(
                    b"POST /v1/models/latest/predict HTTP/1.1\r\n"
                    b"Host: test\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
            # The client is gone; no stop() helps the hub along.
            assert hub.observed.wait(5)
        assert hub.sent_first == [True]


class TestShutdown:
    def test_shutdown_is_clean_and_idempotent(self, registry, tiny_tree):
        registry.publish(tiny_tree)
        server = ModelServer(registry, port=0).start()
        assert get_json(server, "/healthz")[0] == 200
        server.shutdown()
        assert not server.engine.running
        server.shutdown()  # second call is a no-op

    def test_port_zero_binds_ephemeral(self, registry, tiny_tree):
        registry.publish(tiny_tree)
        with ModelServer(registry, port=0) as server:
            host, port = server.address
            assert port != 0
