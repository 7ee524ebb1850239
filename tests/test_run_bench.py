"""benchmarks/run_bench.py: one short run of every bench, end to end."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.loadbench import LoadConfig
from repro.obs.ledger import (
    BENCH_SNAPSHOTS,
    DEFAULT_LEDGER_PATH,
    PerfLedger,
    headline_metrics,
)
from repro.serve.api import ModelServer
from repro.serve.registry import ModelRegistry

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", BENCHMARKS / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


run_bench = _load_run_bench()


def _committed_hashes():
    paths = sorted(BENCHMARKS.glob("BENCH_*.json")) + [DEFAULT_LEDGER_PATH]
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
        if path.exists()
    }


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """(exit code, out dir, ledger path, committed hashes before)."""
    out = tmp_path_factory.mktemp("run-bench")
    ledger = out / "LEDGER.jsonl"
    before = _committed_hashes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run_bench, "BURST_S", 0.05)
        code = run_bench.main(
            [
                "--reps", "1", "--rounds", "1", "--duration", "0.2",
                "--workers", "1", "4",
                "--out-dir", str(out), "--ledger", str(ledger),
            ]
        )
    return code, out, ledger, before


class TestShortRun:
    def test_writes_one_snapshot_per_bench(self, short_run):
        _, out, _, _ = short_run
        assert sorted(p.name for p in out.glob("BENCH_*.json")) == sorted(
            BENCH_SNAPSHOTS.values()
        )

    def test_metric_names_match_the_committed_ledger(self, short_run):
        _, out, _, _ = short_run
        committed = PerfLedger(DEFAULT_LEDGER_PATH)
        for bench, filename in BENCH_SNAPSHOTS.items():
            snapshot = json.loads((out / filename).read_text())
            assert set(headline_metrics(bench, snapshot)) == set(
                committed.latest(bench)["metrics"]
            ), bench

    def test_ledger_entries_name_their_snapshot(self, short_run):
        _, _, ledger, _ = short_run
        entries = PerfLedger(ledger).entries()
        assert [e["bench"] for e in entries] == list(BENCH_SNAPSHOTS)
        for entry in entries:
            assert entry["meta"] == {
                "source": BENCH_SNAPSHOTS[entry["bench"]],
                "reps": 1,
                "rounds": 1,
                "duration_s": 0.2,
            }

    def test_every_timed_request_succeeded(self, short_run):
        _, out, _, _ = short_run
        serve = json.loads((out / "BENCH_serve.json").read_text())
        assert [row["errors"] for row in serve["results"].values()] == [0] * 3
        curve = json.loads((out / "BENCH_loadbench.json").read_text())
        for point in curve["saturation"].values():
            assert point["bit_identical"] is True
            assert point["result"]["errors"] == 0

    def test_exit_status_is_the_budget_verdict(self, short_run):
        code, out, _, _ = short_run
        flagged = any(
            json.loads((out / row["snapshot"]).read_text())[row["section"]][
                "overhead_pct"
            ]
            > row["limit_pct"]
            for row in run_bench.OVERHEAD_BUDGETS
        )
        assert code == (1 if flagged else 0)

    def test_committed_files_untouched(self, short_run):
        _, _, _, before = short_run
        assert _committed_hashes() == before


class TestAbort:
    def test_failed_request_aborts_the_timed_run(self, tmp_path):
        spec = LoadConfig(url="", duration_s=0.1, connections=1, batch_rows=1)
        with ModelServer(ModelRegistry(tmp_path), port=0) as server:
            with pytest.raises(run_bench.BenchAborted, match="failed"):
                run_bench.timed(spec, server.url)

    def test_unpublished_model_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        real = run_bench.served_model

        def unpublished(work):
            return replace(real(work), registry=ModelRegistry(work / "empty"))

        monkeypatch.setattr(run_bench, "served_model", unpublished)
        code = run_bench.main(
            [
                "--only", "serve", "--reps", "1", "--duration", "0.1",
                "--out-dir", str(tmp_path / "out"),
                "--ledger", str(tmp_path / "LEDGER.jsonl"),
            ]
        )
        assert code == 2
        assert "aborted" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "LEDGER.jsonl").exists()


def test_only_rejects_unknown_bench(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_bench.main(["--only", "serve,bogus"])
    assert excinfo.value.code == 2
    assert "--only" in capsys.readouterr().err
