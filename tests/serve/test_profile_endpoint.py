"""Live CPU-profile endpoint: formats, limits, concurrency, status."""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.prof import PROFILE_SCHEMA_VERSION, Profile
from repro.serve.api import ModelServer
from repro.serve.engine import BatchConfig
from repro.serve.status import render_dashboard_html, render_status_text

_COLLAPSED_LINE = re.compile(r"^[^ ;]+(?:;[^ ;]+)* \d+$")


@pytest.fixture
def server(registry, tiny_tree):
    registry.publish(tiny_tree, metadata={"suite": "synth"})
    with ModelServer(
        registry,
        port=0,
        batch=BatchConfig(max_batch=32, max_wait_s=0.001),
    ) as running:
        yield running


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as resp:
            return resp.status, resp.read(), resp.headers.get("Content-Type")
    except urllib.error.HTTPError as error:
        return error.code, error.read(), error.headers.get("Content-Type")


class TestProfileCapture:
    def test_json_capture_roundtrips_via_from_dict(self, server):
        status, body, content_type = get(
            server, "/v1/profile/cpu?seconds=0.3&hz=200"
        )
        assert status == 200
        assert "application/json" in content_type
        payload = json.loads(body)
        assert payload["schema"] == PROFILE_SCHEMA_VERSION
        assert payload["hz"] == 200
        assert payload["samples"] > 10
        profile = Profile.from_dict(payload)  # client-side reconstruction
        assert profile.samples == payload["samples"]

    def test_collapsed_format_matches_grammar(self, server):
        status, body, content_type = get(
            server, "/v1/profile/cpu?seconds=0.2&format=collapsed"
        )
        assert status == 200
        assert "text/plain" in content_type
        for line in body.decode().splitlines():
            assert _COLLAPSED_LINE.match(line), f"bad line: {line!r}"

    def test_html_format_is_flamegraph_page(self, server):
        status, body, content_type = get(
            server, "/v1/profile/cpu?seconds=0.2&format=html"
        )
        assert status == 200
        assert "text/html" in content_type
        text = body.decode()
        assert text.startswith("<!DOCTYPE html>")
        assert "serving CPU profile" in text

    def test_default_hz_is_99(self, server):
        status, body, _ = get(server, "/v1/profile/cpu?seconds=0.2")
        assert status == 200
        assert json.loads(body)["hz"] == 99


class TestProfileValidation:
    @pytest.mark.parametrize(
        "query",
        [
            "seconds=0",
            "seconds=-1",
            "seconds=61",
            "seconds=abc",
            "hz=0",
            "hz=501",
            "hz=nope",
            "format=xml",
        ],
    )
    def test_bad_parameters_400(self, server, query):
        status, body, _ = get(server, f"/v1/profile/cpu?{query}")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid_parameter"

    def test_post_405(self, server):
        request = urllib.request.Request(
            server.url + "/v1/profile/cpu", data=b"{}"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405

    def test_bad_parameters_do_not_count_as_captures(self, server):
        get(server, "/v1/profile/cpu?seconds=0")
        status, body = get(server, "/v1/status")[:2]
        assert status == 200
        assert json.loads(body)["profiler"]["captures"] == 0


class TestConcurrentCaptures:
    def test_second_capture_gets_409(self, server):
        results = {}

        def long_capture():
            results["first"] = get(server, "/v1/profile/cpu?seconds=1.2")[0]

        thread = threading.Thread(target=long_capture)
        thread.start()
        try:
            # Probe once, after the long capture holds the gate (it
            # keeps it for 1.2 s); an earlier probe could take the gate
            # first and then nothing would overlap.
            deadline = time.monotonic() + 10.0
            while not server.profiler.report()["busy"]:
                assert time.monotonic() < deadline, "capture never started"
                time.sleep(0.002)
            code = get(server, "/v1/profile/cpu?seconds=0.1")[0]
        finally:
            thread.join(30.0)
        assert not thread.is_alive()
        assert code == 409, f"never saw profile_in_progress: {code}"
        assert results["first"] == 200


class TestProfilerStatusSection:
    def test_before_any_capture(self, server):
        _, body, _ = get(server, "/v1/status")
        document = json.loads(body)
        profiler = document["profiler"]
        assert profiler["available"] is True
        assert profiler["captures"] == 0
        assert profiler["last"] is None
        assert "profiler:" in render_status_text(document)
        assert "no captures yet" in render_dashboard_html(document)

    def test_after_capture_status_and_dashboard(self, server):
        assert get(server, "/v1/profile/cpu?seconds=0.3&hz=200")[0] == 200
        _, body, _ = get(server, "/v1/status")
        document = json.loads(body)
        profiler = document["profiler"]
        assert profiler["captures"] == 1
        last = profiler["last"]
        assert last["schema"] == PROFILE_SCHEMA_VERSION
        assert last["idle"] == []  # idle stacks dropped from the document
        text = render_status_text(document)
        assert "captures=1" in text
        html = render_dashboard_html(document)
        assert "profiler" in html

    def test_status_document_stays_bounded(self, server):
        assert get(server, "/v1/profile/cpu?seconds=0.3&hz=300")[0] == 200
        _, body, _ = get(server, "/v1/status")
        last = json.loads(body)["profiler"]["last"]
        assert len(last["stacks"]) <= 60
