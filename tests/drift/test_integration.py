"""The paper's Section VI contrast, live: CPU2006 held-out traffic
through a CPU2006 model stays OK; OMP2001 traffic trips
TRANSFER_FAILED within one window — the streaming counterpart of
experiments E7/E8 — plus the serve wiring (hub, engine, CLI).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.drift import (
    DriftHub,
    DriftMonitor,
    DriftMonitorConfig,
    DriftVerdict,
    ModelProfile,
)
from repro.stats.transfer import SampleMoments


WINDOW = 256
BATCH = 64


def stream(monitor, tree, sample_set, batch=BATCH, limit=None):
    """Replay a sample set as labelled traffic; returns the last event."""
    n = len(sample_set) if limit is None else min(limit, len(sample_set))
    event = None
    for start in range(0, n, batch):
        X = sample_set.X[start : start + batch]
        y = sample_set.y[start : start + batch]
        event = monitor.observe(
            tree.predict(X), y, tree.assign_leaves(X)
        )
    return event


@pytest.fixture
def cpu_profile(cpu_tree, cpu_split):
    train, _ = cpu_split
    return ModelProfile.from_tree(
        "cpu2006", cpu_tree, training_y=SampleMoments.from_values(train.y)
    )


class TestPaperContrast:
    def test_within_suite_traffic_stays_ok(self, cpu_tree, cpu_split,
                                           cpu_profile):
        _, test = cpu_split
        monitor = DriftMonitor(cpu_profile, DriftMonitorConfig(window=WINDOW))
        event = stream(monitor, cpu_tree, test)
        assert event.verdict is DriftVerdict.OK
        readings = {r.detector: r for r in event.readings}
        # The paper's within-suite regime: C ~ 0.92, MAE ~ 0.10.
        assert readings["rolling_c"].value > 0.85
        assert readings["rolling_mae"].value < 0.15
        assert readings["leaf_l1"].value < 25.0

    def test_cross_suite_traffic_fails_within_one_window(
        self, cpu_tree, cpu_profile, omp_data
    ):
        monitor = DriftMonitor(cpu_profile, DriftMonitorConfig(window=WINDOW))
        verdicts = []
        for start in range(0, 5 * WINDOW, BATCH):
            X = omp_data.X[start : start + BATCH]
            y = omp_data.y[start : start + BATCH]
            event = monitor.observe(
                cpu_tree.predict(X), y, cpu_tree.assign_leaves(X)
            )
            verdicts.append(event)
            if event.verdict is DriftVerdict.TRANSFER_FAILED:
                break
        final = verdicts[-1]
        assert final.verdict is DriftVerdict.TRANSFER_FAILED
        # "Within one window": before WINDOW records have streamed.
        assert final.records_seen <= WINDOW
        readings = {r.detector: r for r in final.readings}
        # The paper's cross-suite regime: C well below the 0.85 bar
        # (C ~ 0.43 at full scale), with persistent battery breaches.
        assert readings["rolling_c"].value < 0.85
        assert readings["rolling_c"].breached
        assert len(final.breaches) >= 1


class TestHubThroughEngine:
    """The serve path: engine -> hub -> monitor, off the client path."""

    @pytest.fixture
    def published(self, cpu_tree, cpu_split, tmp_path):
        from repro.serve.registry import ModelRegistry

        train, _ = cpu_split
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(
            cpu_tree,
            metadata={
                "suite": "cpu2006",
                "train_y": {
                    "n": len(train),
                    "mean": float(train.y.mean()),
                    "var": float(train.y.var(ddof=1)),
                },
            },
        )
        return registry, record

    def test_engine_feeds_hub_and_report_reflects_traffic(
        self, published, cpu_split
    ):
        from repro.serve.engine import BatchConfig, PredictionEngine

        registry, record = published
        _, test = cpu_split
        hub = DriftHub(registry, DriftMonitorConfig(window=WINDOW))
        engine = PredictionEngine(
            registry,
            batch=BatchConfig(max_batch=BATCH, max_wait_s=0.0),
            drift=hub,
        )
        with engine:
            for start in range(0, 2 * WINDOW, BATCH):
                X = test.X[start : start + BATCH]
                y = test.y[start : start + BATCH]
                engine.predict("latest", X, actuals=y)
        # stop() joins the worker, so every observation has landed.
        report = hub.report(record.model_id)
        assert report["verdict"] == "ok"
        assert report["records_seen"] == 2 * WINDOW
        assert hub.model_ids() == (record.model_id,)

    def test_unserved_model_reports_without_a_monitor(self, published):
        registry, record = published
        hub = DriftHub(registry)
        report = hub.report("latest")
        assert report["model_id"] == record.model_id
        assert report["verdict"] == "insufficient_data"
        assert report["records_seen"] == 0

    def test_monitor_failure_never_breaks_predictions(
        self, published, cpu_split
    ):
        from repro.obs.metrics import get_registry
        from repro.serve.engine import BatchConfig, PredictionEngine

        registry, _ = published
        _, test = cpu_split

        class ExplodingHub:
            def observe(self, *args, **kwargs):
                raise RuntimeError("monitor boom")

        errors_before = get_registry().counter(
            "serve.engine.monitor_errors"
        ).value
        engine = PredictionEngine(
            registry, batch=BatchConfig(max_wait_s=0.0), drift=ExplodingHub()
        )
        with engine:
            result = engine.predict("latest", test.X[:10], actuals=test.y[:10])
        assert result.shape == (10,)
        assert (
            get_registry().counter("serve.engine.monitor_errors").value
            > errors_before
        )

    def test_shadow_pair_observes_champion_traffic(
        self, published, cpu_split, omp_tree
    ):
        from repro.serve.registry import ModelRegistry

        registry, record = published
        challenger = registry.publish(omp_tree, aliases=("challenger",))
        hub = DriftHub(
            registry,
            DriftMonitorConfig(window=WINDOW),
            shadow=("latest", "challenger"),
        )
        _, test = cpu_split
        X, y = test.X[:2 * BATCH], test.y[:2 * BATCH]
        hub.observe(record.model_id, X, np.asarray(
            registry.load(record.model_id)[1].predict(X)
        ), y)
        recommendation = hub.shadow.recommendation()
        assert recommendation["champion"]["model_id"] == record.model_id
        assert recommendation["challenger"]["model_id"] == (
            challenger.model_id
        )
        assert recommendation["champion"]["n"] == 2 * BATCH
        # The champion's own report embeds the shadow judgement.
        assert "shadow" in hub.report(record.model_id)


class TestMonitorCli:
    """`repro monitor` end-to-end at reduced scale (exit 0 vs exit 3)."""

    def test_within_suite_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["monitor", "cpu2006", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "final verdict: ok" in out

    def test_cross_suite_exits_three(self, capsys):
        from repro.cli import main

        code = main(["monitor", "cpu2006", "omp2001", "--scale", "0.1"])
        assert code == 3
        out = capsys.readouterr().out
        assert "transfer_failed" in out


class TestHubCompiledRouting:
    """The hub's leaf routing is the shared compiled evaluator.

    Regression pins for the ISSUE-6 deduplication: the hub used to
    carry its own path-matrix compiler; it now routes through
    ``repro.mtree.compiled`` and must classify every row exactly as
    the recursive ``assign_leaves`` walk does.
    """

    @pytest.fixture
    def published(self, cpu_tree, cpu_split, tmp_path):
        from repro.serve.registry import ModelRegistry

        train, _ = cpu_split
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(
            cpu_tree,
            metadata={
                "suite": "cpu2006",
                "train_y": {
                    "n": len(train),
                    "mean": float(train.y.mean()),
                    "var": float(train.y.var(ddof=1)),
                },
            },
        )
        return registry, record

    def test_observe_state_routes_like_recursive_walk(self, drift_tree):
        from repro.drift.hub import _ObserveState

        monitor = DriftMonitor(ModelProfile.from_tree("m", drift_tree))
        state = _ObserveState(monitor, drift_tree.compiled())
        rng = np.random.default_rng(23)
        X = rng.random((512, 3))
        slots = state.kernel.route(X)
        expected = monitor.leaf_indices(
            drift_tree.assign_leaves(X, compiled=False)
        )
        assert np.array_equal(state.vocab[slots], expected)

    def test_vocab_marks_unknown_leaves(self, drift_tree):
        from repro.drift.hub import _ObserveState

        # A profile missing one leaf name: that leaf must map to -1.
        names = drift_tree.leaf_names()
        profile = ModelProfile(model_id="m", leaf_names=tuple(names[:-1]))
        state = _ObserveState(DriftMonitor(profile), drift_tree.compiled())
        assert state.vocab[-1] == -1
        assert list(state.vocab[:-1]) == list(range(len(names) - 1))

    def test_hub_routing_matches_monitor_fed_names(
        self, published, cpu_split
    ):
        """End-to-end: hub.observe fills the same leaf windows as a
        monitor fed recursive assign_leaves names."""
        registry, record = published
        _, test = cpu_split
        X = test.X[:2 * BATCH]
        tree = registry.load(record.model_id)[1]
        predictions = tree.predict(X)

        hub = DriftHub(registry, DriftMonitorConfig(window=WINDOW))
        hub.observe(record.model_id, X, predictions, test.y[:2 * BATCH])

        reference = DriftMonitor(
            ModelProfile.from_record(record, tree),
            config=DriftMonitorConfig(window=WINDOW),
        )
        reference.observe(
            predictions,
            test.y[:2 * BATCH],
            tree.assign_leaves(X, compiled=False),
        )
        hub_report = hub.report(record.model_id)
        ref_report = reference.report()
        assert hub_report["verdict"] == ref_report["verdict"]
        assert hub_report["records_seen"] == ref_report["records_seen"]
        # Readings carry every windowed statistic, including the Eq. 4
        # leaf-share L1 — identical routing means identical values.
        assert hub_report["readings"] == ref_report["readings"]

    def test_shadow_of_another_feature_schema_is_refused(
        self, published, cpu_split, omp_tree
    ):
        """The challenger predicts on the champion's served columns, so a
        challenger of the same width that names them otherwise is refused
        when the pair is configured, at construction and at runtime."""
        from repro.mtree.tree import ModelTree, ModelTreeConfig

        registry, record = published
        train, _ = cpu_split
        names = record.feature_names
        rotated = names[1:] + names[:1]
        reordered = ModelTree(
            ModelTreeConfig(min_leaf=60, smooth=False)
        ).fit(np.roll(train.X, -1, axis=1), train.y, rotated)
        registry.publish(reordered, aliases=("reordered",))
        registry.publish(omp_tree, aliases=("challenger",))

        with pytest.raises(ValueError, match="feature schema"):
            DriftHub(registry, shadow=("latest", "reordered"))
        hub = DriftHub(registry, shadow=("latest", "challenger"))
        shadow = hub.shadow
        with pytest.raises(ValueError, match="feature schema"):
            hub.set_shadow("latest", "reordered")
        assert hub.shadow is shadow

    def test_shadow_predictions_match_challenger_tree(
        self, published, cpu_split, omp_tree
    ):
        from repro.drift.shadow import ShadowEvaluator

        registry, record = published
        challenger = registry.publish(omp_tree, aliases=("challenger",))
        hub = DriftHub(
            registry,
            DriftMonitorConfig(window=WINDOW),
            shadow=("latest", "challenger"),
        )
        _, test = cpu_split
        X, y = test.X[:2 * BATCH], test.y[:2 * BATCH]
        predictions = registry.load(record.model_id)[1].predict(X)
        hub.observe(record.model_id, X, predictions, y)

        # A reference evaluator fed the challenger tree's own direct
        # predictions must agree on every windowed statistic — i.e. the
        # hub's challenger predictions are bit-identical.
        reference = ShadowEvaluator(
            record.model_id,
            challenger.model_id,
            window=WINDOW,
            criteria=hub.config.criteria.transfer,
            min_labelled=hub.config.criteria.min_labelled,
        )
        reference.observe(predictions, omp_tree.predict(X), y)
        assert hub.shadow.recommendation() == reference.recommendation()
