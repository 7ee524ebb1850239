"""Cold start: what ``repro serve`` imports, and the lazy package exports.

The serving path must not load the experiment battery, the suite
generators or the baselines, and a started server must not import a
module of its own while it answers: each would be paid by the first
request.  The packages the server imports re-export through
:func:`repro._lazy.lazy_exports`; each exported name is checked here
against the module that defines it.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages (and one module) the serving path has no use for.
NOT_SERVING = (
    "repro.experiments",
    "repro.workloads",
    "repro.baselines",
    "repro.uarch",
    "repro.pmu",
    "repro.sim",
    "repro.subsetting",
    "repro.phases",
    "repro.transfer",
    "repro.datasets.cache",
)

LAZY_PACKAGES = (
    "repro",
    "repro.serve",
    "repro.pipeline",
    "repro.datasets",
    "repro.characterization",
    "repro.mtree",
    "repro.obs",
)


def _run(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestServingImports:
    def test_serving_path_loads_no_battery_module(self):
        loaded = _run(
            """
            import json, sys
            import repro.cli, repro.serve.api, repro.drift.hub
            import repro.pipeline.orchestrator
            print(json.dumps(sorted(sys.modules)))
            """
        )
        unwanted = [
            name
            for name in loaded
            if any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in NOT_SERVING
            )
        ]
        assert unwanted == []

    def test_first_predict_imports_no_repro_module(self, tmp_path):
        """Everything a monitored, pipelined, event-logging server runs
        for a labelled predict, the hub's observation included, is
        imported by the time it starts."""
        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = tmp_path / "registry"
        ModelRegistry(registry).publish(make_tree())
        result = _run(
            """
            import http.client, json, sys
            from repro.serve.api import ModelServer
            from repro.serve.registry import ModelRegistry

            def repro_modules():
                return {m for m in sys.modules
                        if m.partition(".")[0] == "repro"}

            server = ModelServer(ModelRegistry(sys.argv[1]), port=0,
                                 pipeline=True, events_path=sys.argv[2])
            server.start()
            before = repro_modules()
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            body = json.dumps({"instances": [[0.5, 0.5, 0.5]] * 4,
                               "actuals": [1.0] * 4})
            conn.request("POST", "/v1/models/latest/predict", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            conn.close()
            server.shutdown()  # drains: the hub has observed the batch
            print(json.dumps({"status": response.status,
                              "new": sorted(repro_modules() - before)}))
            """,
            str(registry),
            str(tmp_path / "events.jsonl"),
        )
        assert result == {"status": 200, "new": []}


class TestOrjsonBoundary:
    """``orjson`` is the predict path's codec and nothing else's: the
    battery's commands never load it, so their start-up time and peak
    RSS cannot move, and ``repro serve`` loads it before it answers."""

    @pytest.mark.parametrize(
        "argv", [["list"], ["all", "--scale", "0.05"]], ids=["list", "all"]
    )
    def test_battery_commands_do_not_load_it(self, argv):
        result = _run(
            """
            import contextlib, io, json, sys
            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                code = main(sys.argv[1:])
            print(json.dumps({"code": code,
                              "orjson": "orjson" in sys.modules}))
            """,
            *argv,
        )
        assert result == {"code": 0, "orjson": False}

    def test_serve_loads_it_before_the_first_request(self, tmp_path):
        from repro.serve.registry import ModelRegistry

        from tests.serve.conftest import make_tree

        registry = tmp_path / "registry"
        ModelRegistry(registry).publish(make_tree())
        result = _run(
            """
            import json, os, signal, sys, threading, time
            from repro.cli import main

            seen = {"before": "orjson" in sys.modules}

            def kick():
                # The drain handler is bound once the server is built;
                # no request has been sent, and none will be.
                while signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
                    time.sleep(0.01)
                seen["serving"] = "orjson" in sys.modules
                os.kill(os.getpid(), signal.SIGTERM)

            threading.Thread(target=kick, daemon=True).start()
            code = main(["serve", "--registry", sys.argv[1], "--port", "0",
                         "--no-monitor"])
            print(json.dumps({"code": code, **seen}))
            """,
            str(registry),
        )
        assert result == {"code": 0, "before": False, "serving": True}


def _defined_in(value, name: str) -> bool:
    """Whether ``value`` is the object the module defining it holds."""
    if isinstance(value, types.ModuleType):
        return sys.modules[value.__name__] is value
    home = getattr(value, "__module__", None)
    if isinstance(home, str) and hasattr(value, "__qualname__"):
        return getattr(importlib.import_module(home), value.__name__) is value
    # A plain value (a schema tag, a header name): some repro module
    # binds it under its exported name.
    return any(
        getattr(module, name, None) is value
        for module_name, module in list(sys.modules.items())
        if module_name.partition(".")[0] == "repro"
    )


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestPackageExports:
    """Guards the export tables against typos; holds for eager inits too."""

    def test_each_name_resolves_to_its_defining_object(self, package_name):
        package = importlib.import_module(package_name)
        wrong = [
            name
            for name in package.__all__
            if not _defined_in(getattr(package, name), name)
        ]
        assert wrong == []

    def test_dir_lists_each_name(self, package_name):
        package = importlib.import_module(package_name)
        listed = dir(package)
        assert [n for n in package.__all__ if n not in listed] == []

    def test_star_import_binds_each_name(self, package_name):
        package = importlib.import_module(package_name)
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(package, "no_such_export")
        with pytest.raises(ImportError):
            exec(f"from {package_name} import no_such_export", {})
