"""PipelineOrchestrator: the full detect → promote loop, end to end.

These tests drive the orchestrator exactly the way serving does: every
batch re-resolves the serving alias, predicts through the resolved
tree, and feeds ``DriftHub.observe`` — the monitor actions advance the
state machine from inside that call.
"""

import json

import numpy as np
import pytest

from repro.drift.hub import DriftHub
from repro.drift.monitor import DriftMonitorConfig, DriftVerdict
from repro.mtree.tree import ModelTreeConfig
from repro.pipeline import (
    PipelineConfig,
    PipelineJournal,
    PipelineOrchestrator,
    PipelineState,
    PromotionLog,
)
from repro.serve.registry import ModelNotFound

from tests.pipeline.conftest import (
    drifted_batch,
    drifted_target,
    fit_tree,
    publish_champion,
    stream_drifted,
)

TREE = ModelTreeConfig(min_leaf=15)


def make_loop(registry, window=256, **config_kwargs):
    """A champion, a hub, and an armed orchestrator."""
    champion = publish_champion(registry)
    hub = DriftHub(registry, DriftMonitorConfig(window=window))
    orchestrator = PipelineOrchestrator(
        registry,
        hub,
        config=PipelineConfig(
            tree=TREE, **{"min_retrain_rows": 128, **config_kwargs}
        ),
    )
    return champion, hub, orchestrator


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_retrain_rows": 1},
            {"buffer_capacity": 64, "min_retrain_rows": 128},
            {"shadow_budget_records": 0},
            {"reject_after_keeps": 0},
            {"alias": "latest", "candidate_alias": "latest"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_registry_without_root_needs_explicit_paths(self, registry):
        class Rootless:
            pass

        hub = DriftHub(registry)
        with pytest.raises(ValueError, match="promotions"):
            PipelineOrchestrator(Rootless(), hub)


class TestPromoteCycle:
    def test_drift_retrains_shadows_and_promotes(self, registry):
        champion, hub, orchestrator = make_loop(registry)
        rng = np.random.default_rng(21)
        stream_drifted(
            registry, hub, orchestrator, rng, PipelineState.PROMOTED
        )
        new_id = registry.resolve("latest")
        assert new_id != champion.model_id
        # The candidate alias is dropped once its model is promoted.
        assert "candidate" not in registry.aliases()
        # One verified promotion on the trail, champion -> candidate.
        entries = orchestrator.promotions.entries()
        assert len(entries) == 1
        assert entries[0]["action"] == "promote"
        assert entries[0]["from"] == champion.model_id
        assert entries[0]["to"] == new_id
        assert entries[0]["actor"] == "pipeline"
        assert orchestrator.promotions.verify() == 1
        # The loop re-armed: latch released, buffer restarted.
        assert orchestrator.trigger.fired == 1
        assert not orchestrator.trigger.in_flight
        assert orchestrator.buffer.n == 0

    def test_promoted_model_transfers_on_continued_traffic(self, registry):
        champion, hub, orchestrator = make_loop(registry)
        rng = np.random.default_rng(22)
        stream_drifted(
            registry, hub, orchestrator, rng, PipelineState.PROMOTED
        )
        new_id = registry.resolve("latest")
        for _ in range(8):
            X, y = drifted_batch(rng)
            _, tree = registry.load(new_id)
            hub.observe(new_id, X, tree.predict(X), y)
            if hub.monitor_for(new_id).verdict is DriftVerdict.OK:
                break
        assert hub.monitor_for(new_id).verdict is DriftVerdict.OK
        # The displaced champion's monitor still remembers the failure.
        assert (
            hub.monitor_for(champion.model_id).verdict
            is DriftVerdict.TRANSFER_FAILED
        )

    def test_candidate_metadata_records_provenance(self, registry):
        champion, hub, orchestrator = make_loop(registry)
        stream_drifted(
            registry,
            hub,
            orchestrator,
            np.random.default_rng(23),
            PipelineState.PROMOTED,
        )
        record = registry.record(registry.resolve("latest"))
        assert record.metadata["origin"] == "pipeline"
        assert record.metadata["retrained_from"] == champion.model_id
        assert record.metadata["trigger"]["verdict"] == "transfer_failed"
        assert record.metadata["train_y"]["n"] == record.metadata["n_train"]

    def test_journal_lands_on_promoted(self, registry):
        _, hub, orchestrator = make_loop(registry)
        stream_drifted(
            registry,
            hub,
            orchestrator,
            np.random.default_rng(24),
            PipelineState.PROMOTED,
        )
        journalled = json.loads(orchestrator.journal.path.read_text())
        assert journalled["state"] == "promoted"

    def test_events_record_every_stage(self, registry):
        champion = publish_champion(registry)
        hub = DriftHub(registry)
        events = []
        orchestrator = PipelineOrchestrator(
            registry,
            hub,
            config=PipelineConfig(tree=TREE, min_retrain_rows=128),
            events=events,
        )
        stream_drifted(
            registry,
            hub,
            orchestrator,
            np.random.default_rng(25),
            PipelineState.PROMOTED,
        )
        stages = [e["stage"] for e in events]
        assert stages == ["retraining", "shadowing", "promoting", "promoted"]
        assert all(e["kind"] == "pipeline" for e in events)


class TestInsufficientDataRetry:
    def test_aborted_retrain_refires_once_buffer_fills(self, registry):
        # The trigger trips after ~192 records (3 breaching 64-row
        # evaluations) but the retrain gate wants 384: the first cycle
        # aborts, the pending-retry latch re-kicks it — with no fresh
        # verdict transition — once enough traffic accumulated.
        champion, hub, orchestrator = make_loop(
            registry, min_retrain_rows=384
        )
        stream_drifted(
            registry,
            hub,
            orchestrator,
            np.random.default_rng(31),
            PipelineState.PROMOTED,
        )
        assert orchestrator.trigger.fired == 2
        outcomes = [
            (c["outcome"], c.get("retrain_rows"))
            for c in orchestrator.report()["recent_cycles"]
        ]
        assert outcomes[0][0] == "idle"  # aborted: not enough rows
        assert outcomes[1][0] == "promoted"
        assert outcomes[1][1] >= 384
        assert registry.resolve("latest") != champion.model_id


class TestRejectCycle:
    def test_unqualifying_candidate_is_rejected(self, registry):
        # Noise swamps the signal: the candidate fit on it cannot meet
        # the acceptance thresholds, so the shadow keeps the champion
        # until the streak rejects the candidate.
        champion, hub, orchestrator = make_loop(registry)
        rng = np.random.default_rng(41)
        stream_drifted(
            registry,
            hub,
            orchestrator,
            rng,
            PipelineState.REJECTED,
            noise=1.0,
        )
        assert registry.resolve("latest") == champion.model_id
        assert "candidate" not in registry.aliases()
        assert orchestrator.promotions.entries() == []
        assert hub.shadow is None
        assert not orchestrator.trigger.in_flight
        cycle = orchestrator.report()["recent_cycles"][-1]
        assert cycle["outcome"] == "rejected"
        assert "kept champion" in cycle["note"]


class TestRollback:
    def test_rollback_restores_prior_latest_bit_identically(self, registry):
        champion, hub, orchestrator = make_loop(registry)
        probe = np.random.default_rng(99).random((32, 3))
        _, champion_tree = registry.load(champion.model_id)
        expected = champion_tree.predict(probe)
        stream_drifted(
            registry,
            hub,
            orchestrator,
            np.random.default_rng(51),
            PipelineState.PROMOTED,
        )
        assert registry.resolve("latest") != champion.model_id
        entry = orchestrator.rollback(why="bad promotion")
        assert orchestrator.state is PipelineState.ROLLED_BACK
        assert entry["to"] == champion.model_id
        assert registry.resolve("latest") == champion.model_id
        _, restored = registry.load("latest")
        np.testing.assert_array_equal(restored.predict(probe), expected)
        # promote + rollback, chain intact.
        entries = orchestrator.promotions.entries()
        assert [e["action"] for e in entries] == ["promote", "rollback"]
        assert orchestrator.promotions.verify() == 2

    def test_rollback_mid_cycle_aborts_the_candidate(self, registry):
        champion, hub, orchestrator = make_loop(registry)
        stream_drifted(
            registry,
            hub,
            orchestrator,
            np.random.default_rng(52),
            PipelineState.SHADOWING,
        )
        assert hub.shadow is not None
        orchestrator.rollback(to=champion.model_id, why="operator abort")
        assert orchestrator.state is PipelineState.ROLLED_BACK
        assert hub.shadow is None
        assert "candidate" not in registry.aliases()
        assert registry.resolve("latest") == champion.model_id
        assert not orchestrator.trigger.in_flight


class TestTrafficRouting:
    def test_non_champion_traffic_is_not_buffered(self, registry):
        champion, hub, orchestrator = make_loop(registry)
        rng = np.random.default_rng(61)
        X = rng.random((64, 3))
        y = drifted_target(X)
        other = registry.publish(
            fit_tree(rng.random((300, 3)), rng.random(300)), aliases=()
        )
        _, other_tree = registry.load(other.model_id)
        hub.observe(other.model_id, X, other_tree.predict(X), y)
        assert orchestrator.buffer.n == 0
        _, champ_tree = registry.load(champion.model_id)
        hub.observe(champion.model_id, X, champ_tree.predict(X), y)
        assert orchestrator.buffer.n == 64


class TestResume:
    def publish_pair(self, registry):
        champion = publish_champion(registry)
        rng = np.random.default_rng(71)
        X = rng.random((400, 3))
        y = drifted_target(X) + 0.05 * rng.standard_normal(400)
        candidate = registry.publish(fit_tree(X, y), aliases=("candidate",))
        return champion, candidate

    def journal_for(self, registry):
        return PipelineJournal(registry.root / "pipeline_state.json")

    def rebuild(self, registry):
        hub = DriftHub(registry)
        return hub, PipelineOrchestrator(
            registry, hub, config=PipelineConfig(tree=TREE)
        )

    def test_shadowing_resumes_with_latch_held(self, registry):
        champion, candidate = self.publish_pair(registry)
        self.journal_for(registry).write(
            "shadowing",
            cycle={
                "id": 1,
                "champion": champion.model_id,
                "candidate": candidate.model_id,
            },
        )
        hub, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.SHADOWING
        assert hub.shadow is not None
        assert hub.shadow.challenger_id == candidate.model_id
        assert orchestrator.trigger.in_flight
        assert orchestrator.report()["cycle"]["candidate"] == (
            candidate.model_id
        )

    def test_shadowing_with_missing_candidate_aborts_to_idle(self, registry):
        publish_champion(registry)
        self.journal_for(registry).write(
            "shadowing",
            cycle={"id": 1, "champion": "x", "candidate": "0" * 16},
        )
        hub, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.IDLE
        assert hub.shadow is None

    def test_retraining_aborts_to_idle(self, registry):
        publish_champion(registry)
        self.journal_for(registry).write("retraining", cycle={"id": 1})
        _, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.IDLE
        assert not orchestrator.trigger.in_flight

    def test_promoting_that_landed_is_reconciled(self, registry):
        champion, candidate = self.publish_pair(registry)
        registry.move_alias("latest", candidate.model_id)
        self.journal_for(registry).write(
            "promoting",
            cycle={
                "id": 1,
                "champion": champion.model_id,
                "candidate": candidate.model_id,
            },
        )
        _, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.PROMOTED
        assert "candidate" not in registry.aliases()
        # The lost trail write was recovered.
        entries = orchestrator.promotions.entries()
        assert len(entries) == 1
        assert entries[0]["to"] == candidate.model_id
        assert entries[0]["actor"] == "pipeline-resume"
        assert orchestrator.promotions.verify() == 1

    def test_promoting_already_on_trail_adds_no_duplicate(self, registry):
        champion, candidate = self.publish_pair(registry)
        registry.move_alias("latest", candidate.model_id)
        PromotionLog(registry.root / "promotions.jsonl").append(
            action="promote",
            alias="latest",
            from_id=champion.model_id,
            to_id=candidate.model_id,
            why="landed before the crash",
        )
        self.journal_for(registry).write(
            "promoting",
            cycle={
                "id": 1,
                "champion": champion.model_id,
                "candidate": candidate.model_id,
            },
        )
        _, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.PROMOTED
        assert len(orchestrator.promotions.entries()) == 1

    def test_promoting_that_never_landed_aborts(self, registry):
        champion, candidate = self.publish_pair(registry)
        # 'latest' still points at the champion: the flip never landed.
        self.journal_for(registry).write(
            "promoting",
            cycle={
                "id": 1,
                "champion": champion.model_id,
                "candidate": candidate.model_id,
            },
        )
        _, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.IDLE
        assert "candidate" not in registry.aliases()
        assert orchestrator.promotions.entries() == []
        assert registry.resolve("latest") == champion.model_id

    def test_terminal_state_restored_verbatim(self, registry):
        publish_champion(registry)
        self.journal_for(registry).write("rejected")
        _, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.REJECTED

    def test_unknown_state_falls_back_to_idle(self, registry):
        publish_champion(registry)
        self.journal_for(registry).write("time_travelling")
        _, orchestrator = self.rebuild(registry)
        assert orchestrator.state is PipelineState.IDLE


class TestReport:
    def test_idle_report_shape(self, registry):
        champion, hub, orchestrator = make_loop(registry)
        report = orchestrator.report()
        assert report["armed"] is True
        assert report["state"] == "idle"
        assert report["champion"] == champion.model_id
        assert report["promotions"]["chain_valid"] is True
        assert report["buffer"]["min_retrain_rows"] == 128
        json.dumps(report)  # must be JSON-serializable as-is

    def test_champion_is_none_when_alias_missing(self, registry):
        hub = DriftHub(registry)
        orchestrator = PipelineOrchestrator(
            registry, hub, config=PipelineConfig(tree=TREE)
        )
        with pytest.raises(ModelNotFound):
            registry.resolve("latest")
        assert orchestrator.report()["champion"] is None

    def test_unparseable_trail_line_reports_a_broken_chain(self, registry):
        """The status document degrades instead of raising."""
        champion, hub, orchestrator = make_loop(registry)
        orchestrator.promotions.append(
            action="promote",
            alias="latest",
            from_id="0" * 16,
            to_id=champion.model_id,
            why="an earlier cycle",
        )
        with open(orchestrator.promotions.path, "a") as handle:
            handle.write("not an entry\n")
        promotions = orchestrator.report()["promotions"]
        assert promotions["chain_valid"] is False
        assert promotions["entries"] == 1
        assert [e["to"] for e in promotions["tail"]] == [champion.model_id]
