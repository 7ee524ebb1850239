"""repro.durable: the commit rule under fault injection, and every caller.

A crash is simulated by cutting a file where a dying writer could have
stopped; the next append must neither lose its own record nor revive
the fragment.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.durable
from repro.drift.hub import DriftHub
from repro.drift.monitor import JsonlAudit
from repro.durable import append_jsonl, atomic_write, locked_append, read_jsonl
from repro.mtree.tree import ModelTreeConfig
from repro.obs.events import EventLog, read_events
from repro.obs.ledger import PerfLedger
from repro.pipeline import (
    PipelineConfig,
    PipelineJournal,
    PipelineOrchestrator,
    PipelineState,
    PromotionChainError,
    PromotionLog,
)
from repro.serve.registry import ModelRegistry

from tests.pipeline.conftest import drifted_target, fit_tree, publish_champion

RECORDS = [
    {"seq": 0, "text": "first"},
    {"seq": 1, "text": "second, with ü and a \\n"},
    {"seq": 2, "nested": {"values": [1.5, None, True]}},
]


def tear(path: Path) -> None:
    """Leave what a writer killed mid-line leaves: an unterminated fragment."""
    with open(path, "ab") as handle:
        handle.write(b'{"seq": 99, "text": "never fini')


class TestCommitRule:
    def test_cut_at_every_offset_then_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for record in RECORDS:
            append_jsonl(path, record)
        data = path.read_bytes()
        line_ends = [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
        new = {"seq": "new"}
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            whole = sum(1 for end in line_ends if end <= cut)
            torn = [] if cut == 0 or cut in line_ends else [whole + 1]
            assert read_jsonl(path) == (RECORDS[:whole], torn), cut
            assert path.read_bytes() == data[:cut]  # reading never cuts
            append_jsonl(path, new)
            assert read_jsonl(path) == (RECORDS[:whole] + [new], []), cut

    def test_bad_lines_are_numbered_among_non_blank_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\nnot json\n\n[1, 2]\n{"b": 2}\n{"c"')
        assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], [2, 3, 5])

    def test_a_second_process_waits_for_the_lock(self, tmp_path):
        """The holder's half-written line is not cut by another appender."""
        path = tmp_path / "shared.jsonl"
        with locked_append(path):
            with open(path, "ab") as raw:
                raw.write(b'{"who": "hol')
            child = _appender(path, "print('ready', flush=True)", "child", 1)
            try:
                assert child.stdout.readline() == b"ready\n"
                time.sleep(0.3)  # long enough to cut, were it not locked
                assert child.poll() is None
                with open(path, "ab") as raw:
                    raw.write(b'der"}\n')
            except BaseException:
                child.kill()
                raise
        assert child.wait(timeout=60) == 0
        child.stdout.close()
        expected = [{"who": "holder"}, {"i": 0, "who": "child"}]
        assert read_jsonl(path) == (expected, [])

    def test_concurrent_appenders_lose_no_line(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        writers = [_appender(path, "", str(w), 200) for w in range(4)]
        for writer in writers:
            assert writer.wait(timeout=120) == 0
            writer.stdout.close()
        records, bad = read_jsonl(path)
        assert bad == []
        for w in range(4):  # every line, once, in each writer's order
            mine = [r["i"] for r in records if r["who"] == str(w)]
            assert mine == list(range(200))


def _appender(path: Path, first: str, who: str, n: int) -> subprocess.Popen:
    """A process that runs ``first``, then appends ``n`` records."""
    code = (
        "import sys\n"
        "from repro.durable import append_jsonl\n"
        f"{first}\n"
        f"for i in range({n}):\n"
        f"    append_jsonl(sys.argv[1], {{'who': {who!r}, 'i': i}})\n"
    )
    src = Path(repro.durable.__file__).resolve().parents[1]
    return subprocess.Popen(
        [sys.executable, "-c", code, str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
    )


class TestAtomicWrite:
    def test_interrupted_before_rename_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.json"
        atomic_write(path, b"old")

        def crash(*args, **kwargs):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="before the rename"):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


class _Event:
    """What JsonlAudit needs of a DriftEvent."""

    def __init__(self, seq: int) -> None:
        self.seq = seq

    def as_dict(self):
        return {"seq": self.seq}


def _tree(seed: int):
    rng = np.random.default_rng(seed)
    X = rng.random((300, 3))
    return fit_tree(X, seed * X[:, 0] + X[:, 1])


class TestTornTailThenAppend:
    """Each appender's next record survives a predecessor's torn line."""

    def test_ledger(self, tmp_path):
        ledger = PerfLedger(tmp_path / "LEDGER.jsonl")
        ledger.append("serve", {"p50_ms": 1.0})
        tear(ledger.path)
        ledger.append("serve", {"p50_ms": 3.0})
        entries = ledger.entries("serve")
        assert [e["metrics"]["p50_ms"] for e in entries] == [1.0, 3.0]

    def test_alias_history(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        a = registry.publish(_tree(1), aliases=())
        b = registry.publish(_tree(2), aliases=())
        registry.move_alias("latest", a.model_id)
        tear(registry.root / "alias_history" / "latest.jsonl")
        registry.move_alias("latest", b.model_id)
        history = registry.alias_history("latest")
        assert [(h["from"], h["to"]) for h in history] == [
            (None, a.model_id),
            (a.model_id, b.model_id),
        ]

    def test_drift_audit(self, tmp_path):
        audit = JsonlAudit(tmp_path / "audit.jsonl")
        audit(_Event(0))
        tear(audit.path)
        audit(_Event(1))
        assert read_jsonl(audit.path) == ([{"seq": 0}, {"seq": 1}], [])

    def test_event_log_reopen(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.append({"n": 1})
        tear(path)
        with EventLog(path) as log:
            log.append({"n": 2})
        assert [r["n"] for r in read_events(path)] == [1, 2]
        assert read_jsonl(path)[1] == []

    def test_trail(self, tmp_path):
        log = PromotionLog(tmp_path / "promotions.jsonl")
        first = log.append(
            action="promote", alias="latest", from_id="a", to_id="b", why="1"
        )
        tear(log.path)
        torn = log.path.read_bytes()
        # The read-only paths raise on the fragment and leave it in place.
        with pytest.raises(PromotionChainError, match="unparseable"):
            log.verify()
        with pytest.raises(PromotionChainError, match="unparseable"):
            log.entries()
        assert log.path.read_bytes() == torn
        second = log.append(
            action="promote", alias="latest", from_id="b", to_id="c", why="2"
        )
        assert second["seq"] == 1
        assert second["prev_hash"] == first["hash"]
        assert log.verify() == 2

    def test_trail_with_promoting_resume(self, tmp_path):
        """The crash landed the alias flip but tore the trail entry."""
        registry = ModelRegistry(tmp_path / "registry")
        champion = publish_champion(registry)
        rng = np.random.default_rng(71)
        X = rng.random((400, 3))
        candidate = registry.publish(
            fit_tree(X, drifted_target(X)), aliases=("candidate",)
        )
        trail = PromotionLog(registry.root / "promotions.jsonl")
        earlier = trail.append(
            action="promote",
            alias="latest",
            from_id="0" * 16,
            to_id=champion.model_id,
            why="an earlier cycle",
        )
        registry.move_alias("latest", candidate.model_id)
        tear(trail.path)
        PipelineJournal(registry.root / "pipeline_state.json").write(
            "promoting",
            cycle={
                "id": 2,
                "champion": champion.model_id,
                "candidate": candidate.model_id,
            },
        )
        orchestrator = PipelineOrchestrator(
            registry,
            DriftHub(registry),
            config=PipelineConfig(tree=ModelTreeConfig(min_leaf=15)),
        )
        assert orchestrator.state is PipelineState.PROMOTED
        recovered = orchestrator.promotions.entries()[-1]
        assert recovered["seq"] == 1
        assert recovered["prev_hash"] == earlier["hash"]
        assert recovered["to"] == candidate.model_id
        assert recovered["actor"] == "pipeline-resume"
        assert orchestrator.promotions.verify() == 2
