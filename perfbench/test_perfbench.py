"""The benchmark's own tests: gates that fail, the span arithmetic, a smoke run.

    PYTHONPATH=src python -m pytest perfbench -q

The smoke tests run every workload for two seconds in both modes, so
this file takes a couple of minutes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import load  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def tree():
    from repro.mtree.tree import ModelTree, ModelTreeConfig

    rng = np.random.default_rng(0)
    X = rng.uniform(size=(400, 3))
    y = np.where(X[:, 0] > 0.5, 3.0 * X[:, 1], 1.0 + X[:, 2])
    return ModelTree(ModelTreeConfig(min_leaf=20)).fit(X, y, ["a", "b", "c"])


def _answers(tree, X, model_id="m1"):
    results = []
    for i in range(4):
        result = load.Result(i, f"t-{i}", 0.0, status=200, model_id=model_id)
        result.predictions = tree.predict(X[i * 8:(i + 1) * 8]).tolist()
        results.append(result)
    return results


def test_prediction_gate_passes_on_exact_answers(tree):
    X = np.random.default_rng(1).uniform(size=(32, 3))
    results = _answers(tree, X)
    rows_of = lambda i: X[i * 8:(i + 1) * 8]  # noqa: E731
    assert gates.predictions(results, rows_of, lambda _, x: tree.predict(x),
                             champion="m1") == []


def test_prediction_gate_fails_on_one_flipped_bit(tree):
    X = np.random.default_rng(1).uniform(size=(32, 3))
    results = _answers(tree, X)
    value = np.float64(results[2].predictions[5])
    results[2].predictions[5] = float(
        np.frombuffer((value.view(np.uint64) ^ np.uint64(1)).tobytes(),
                      dtype=np.float64)[0])
    rows_of = lambda i: X[i * 8:(i + 1) * 8]  # noqa: E731
    failures = gates.predictions(results, rows_of,
                                 lambda _, x: tree.predict(x))
    assert len(failures) == 1 and "request 2" in failures[0]


def test_prediction_gate_fails_on_another_model(tree):
    X = np.random.default_rng(1).uniform(size=(32, 3))
    results = _answers(tree, X, model_id="m2")
    rows_of = lambda i: X[i * 8:(i + 1) * 8]  # noqa: E731
    failures = gates.predictions(results, rows_of,
                                 lambda _, x: tree.predict(x), champion="m1")
    assert len(failures) == 4


def test_promotions_gate_fails_on_an_edited_trail(tmp_path):
    from repro.pipeline.promotions import PromotionLog

    trail = PromotionLog(tmp_path / "promotions.jsonl")
    trail.append(action="promote", alias="latest", from_id="a", to_id="b",
                 why="test")
    trail.append(action="promote", alias="latest", from_id="b", to_id="c",
                 why="test")
    assert gates.promotions(tmp_path) == []
    lines = trail.path.read_text().splitlines()
    entry = json.loads(lines[0])
    entry["to"] = "z"
    lines[0] = json.dumps(entry, sort_keys=True)
    trail.path.write_text("\n".join(lines) + "\n")
    assert gates.promotions(tmp_path)


def test_battery_gate_fails_on_one_changed_byte():
    stdout = b"E1: Table I\n\n"
    digest = hashlib.sha256(stdout).hexdigest()
    assert gates.battery_stdout(stdout, digest) == []
    assert gates.battery_stdout(b"E1: Table 1\n\n", digest)


def test_kept_battery_digest_is_a_sha256():
    digest = gates.BATTERY_DIGEST.read_text().split()[0]
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_request_parts_add_up_to_the_handler_span():
    records = [
        # (id, layer, start, end, thread, parent, trace, rows)
        (1, spans.REGISTRY_READ, 1.0, 1.5, 7, 0, None, None),
        (3, spans.REGISTRY_READ, 2.0, 2.25, 7, 2, None, None),
        (2, spans.SUBMIT, 2.0, 2.5, 7, 0, None, None),
        (4, spans.WAIT, 3.0, 6.0, 7, 0, None, None),
        (0, spans.API, 0.0, 7.0, 7, None, "t-1", None),
    ]
    s = spans.Spans(records)
    handler = s.layer(spans.API)[0]
    parts = s.request_parts(handler)
    assert parts == {spans.API: 3.0, spans.REGISTRY_READ: 0.75,
                     spans.SUBMIT: 0.25, spans.WAIT: 3.0}
    assert sum(parts.values()) == s.duration(handler)
    assert [r[0] for r in s.outermost(spans.REGISTRY_READ)] == [1, 3]


def test_recorder_nests_spans_per_thread():
    recorder = spans.Recorder()

    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "inner", "inner")
    assert Layer().outer() == 1
    s = spans.Spans(recorder.spans)
    (outer,), (inner,) = s.layer("outer"), s.layer("inner")
    assert inner[5] == outer[0] and outer[5] is None
    assert 0.0 <= s.self_s(outer) <= s.duration(outer)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["serve-b64", "drift-incident", "battery"])
def test_smoke_every_metric_is_printed_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])
