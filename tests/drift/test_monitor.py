"""DriftMonitor: hysteresis state machine, actions, obs instruments."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.drift.monitor import (
    DriftMonitor,
    DriftMonitorConfig,
    DriftVerdict,
    JsonlAudit,
    LogSink,
    ModelProfile,
    RetrainTrigger,
)
from repro.drift.stats import DriftCriteria
from repro.obs.metrics import get_registry
from repro.stats.transfer import SampleMoments

from tests.drift.conftest import make_traffic


def make_monitor(model_id="test-model", actions=(), **config_kwargs):
    profile = ModelProfile(
        model_id=model_id, training_y=SampleMoments(1000, 2.0, 0.49)
    )
    config = DriftMonitorConfig(**{"window": 256, **config_kwargs})
    return DriftMonitor(profile, config, actions)


def feed(monitor, rng, batches, noise=0.05, shift=0.0, batch=64):
    event = None
    for _ in range(batches):
        predictions, actuals = make_traffic(rng, batch, noise, shift)
        event = monitor.observe(predictions, actuals)
    return event


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"fail_after": 0},
            {"recover_after": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DriftMonitorConfig(**kwargs)


class TestVerdictMachine:
    def test_starts_insufficient(self):
        monitor = make_monitor()
        assert monitor.verdict is DriftVerdict.INSUFFICIENT_DATA
        event = monitor.observe(np.array([2.0, 2.1]), np.array([2.0, 2.1]))
        assert event.verdict is DriftVerdict.INSUFFICIENT_DATA
        assert not event.changed

    def test_healthy_traffic_reaches_ok(self):
        monitor = make_monitor()
        event = feed(monitor, np.random.default_rng(0), batches=4)
        assert event.verdict is DriftVerdict.OK

    def test_drifted_traffic_escalates_warn_then_failed(self):
        monitor = make_monitor(fail_after=3)
        rng = np.random.default_rng(1)
        feed(monitor, rng, batches=4)  # healthy warm-up -> OK
        verdicts = []
        for _ in range(3):
            event = feed(monitor, rng, batches=1, noise=0.05, shift=1.5)
            verdicts.append(event.verdict)
        assert verdicts == [
            DriftVerdict.WARN,
            DriftVerdict.WARN,
            DriftVerdict.TRANSFER_FAILED,
        ]

    def test_single_noisy_window_never_fails(self):
        """One bad batch -> WARN, then clean traffic -> OK again.

        The window is 2x the batch, so the bad batch contaminates at
        most two consecutive evaluations — below ``fail_after`` — and
        slides out before the verdict can escalate.
        """
        monitor = make_monitor(window=128, fail_after=3, recover_after=3)
        rng = np.random.default_rng(2)
        feed(monitor, rng, batches=4)
        event = feed(monitor, rng, batches=1, shift=1.5)
        assert event.verdict is DriftVerdict.WARN
        seen = [feed(monitor, rng, batches=1).verdict for _ in range(4)]
        assert seen[-1] is DriftVerdict.OK
        assert DriftVerdict.TRANSFER_FAILED not in seen

    def test_failed_model_needs_full_recovery_streak(self):
        monitor = make_monitor(window=128, fail_after=2, recover_after=3)
        rng = np.random.default_rng(3)
        feed(monitor, rng, batches=4)
        feed(monitor, rng, batches=2, shift=1.5)
        assert monitor.verdict is DriftVerdict.TRANSFER_FAILED
        # Three clean batches: the first still sees shifted records in
        # the window, the next two start the clean streak — not enough.
        feed(monitor, rng, batches=3)
        assert monitor.verdict is DriftVerdict.TRANSFER_FAILED
        # The third fully-clean evaluation completes the streak.
        feed(monitor, rng, batches=1)
        assert monitor.verdict is DriftVerdict.OK

    def test_fails_within_one_window_on_cross_suite_style_traffic(self):
        """The acceptance-criterion timing: 3 breaching 64-record batches
        against a 256 window flip the verdict before the window fills."""
        monitor = make_monitor(window=256, fail_after=3)
        rng = np.random.default_rng(4)
        event = feed(monitor, rng, batches=3, noise=0.8, shift=2.0)
        assert event.verdict is DriftVerdict.TRANSFER_FAILED
        assert event.records_seen <= 256


class TestActions:
    def test_log_sink_reports_transitions(self):
        stream = io.StringIO()
        monitor = make_monitor(actions=[LogSink(stream=stream)])
        feed(monitor, np.random.default_rng(0), batches=4)
        text = stream.getvalue()
        assert "insufficient_data -> ok" in text
        assert "test-model" in text

    def test_jsonl_audit_appends_every_evaluation(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        monitor = make_monitor(actions=[JsonlAudit(path)])
        feed(monitor, np.random.default_rng(0), batches=4)
        lines = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert len(lines) == 4
        assert lines[-1]["verdict"] == "ok"
        assert lines[-1]["model_id"] == "test-model"
        assert {r["detector"] for r in lines[-1]["readings"]} >= {
            "rolling_c",
            "rolling_mae",
        }

    def test_retrain_trigger_fires_once_per_episode(self):
        fired = []
        trigger = RetrainTrigger(fired.append)
        monitor = make_monitor(actions=[trigger], window=128, fail_after=2)
        rng = np.random.default_rng(5)
        feed(monitor, rng, batches=4)
        feed(monitor, rng, batches=4, shift=1.5)  # fails, stays failed
        assert trigger.fired == 1
        assert len(fired) == 1
        assert fired[0].verdict is DriftVerdict.TRANSFER_FAILED
        # Recover (flush the window clean + complete the streak), then
        # fail again: a second episode, a second firing.
        feed(monitor, rng, batches=6)
        assert monitor.verdict is DriftVerdict.OK
        feed(monitor, rng, batches=2, shift=1.5)
        assert trigger.fired == 2


def make_event(verdict=DriftVerdict.TRANSFER_FAILED, changed=True, seq=1):
    from repro.drift.monitor import DriftEvent

    return DriftEvent(
        model_id="m",
        seq=seq,
        records_seen=64 * seq,
        window_n=64,
        n_labelled=64,
        verdict=verdict,
        previous_verdict=DriftVerdict.WARN,
        changed=changed,
        readings=(),
        unix_time=0.0,
    )


class TestRetrainTriggerDebounce:
    def test_latch_suppresses_repeat_fires_until_release(self):
        fired = []
        trigger = RetrainTrigger(fired.append, debounce=True)
        assert trigger.fire(make_event(seq=1)) is True
        assert trigger.in_flight
        # A second failure episode while the cycle runs: suppressed.
        assert trigger.fire(make_event(seq=2)) is False
        assert trigger.fire(make_event(seq=3)) is False
        assert trigger.fired == 1
        assert trigger.suppressed == 2
        assert len(fired) == 1
        # The cycle finished; the next episode may fire again.
        trigger.release()
        assert not trigger.in_flight
        assert trigger.fire(make_event(seq=4)) is True
        assert trigger.fired == 2
        assert trigger.suppressed == 2

    def test_transition_calls_honour_the_latch(self):
        fired = []
        trigger = RetrainTrigger(fired.append, debounce=True)
        trigger(make_event(seq=1))  # transition into TRANSFER_FAILED
        trigger(make_event(seq=2))  # e.g. after a fail/recover flap
        assert trigger.fired == 1
        assert trigger.suppressed == 1

    def test_hold_engages_latch_without_firing(self):
        fired = []
        trigger = RetrainTrigger(fired.append, debounce=True)
        trigger.hold()  # crash-resume: a cycle is already in flight
        assert trigger.in_flight
        assert trigger.fire(make_event()) is False
        assert trigger.fired == 0
        assert not fired

    def test_non_transfer_failed_events_never_fire(self):
        fired = []
        trigger = RetrainTrigger(fired.append, debounce=True)
        trigger(make_event(verdict=DriftVerdict.WARN))
        trigger(make_event(changed=False))  # still failed, no transition
        assert trigger.fired == 0
        assert trigger.suppressed == 0

    def test_without_debounce_every_episode_fires(self):
        """Back-compat: the default trigger keeps its old semantics."""
        fired = []
        trigger = RetrainTrigger(fired.append)
        assert trigger.fire(make_event(seq=1)) is True
        assert trigger.fire(make_event(seq=2)) is True
        assert trigger.fired == 2
        assert trigger.suppressed == 0
        assert not trigger.in_flight
        trigger.hold()  # a no-op without debounce
        assert not trigger.in_flight


class TestObsInstruments:
    def test_gauges_reach_the_registry(self):
        monitor = make_monitor(model_id="gaugetest")
        feed(monitor, np.random.default_rng(0), batches=4)
        registry = get_registry()
        assert registry.gauge("drift.gaugetest.verdict_code").value == 0.0
        assert registry.gauge("drift.gaugetest.rolling_c").value > 0.9
        assert registry.counter("drift.gaugetest.records").value == 256
        assert registry.counter("drift.gaugetest.evaluations").value == 4


class TestProfileAndReport:
    def test_profile_from_tree(self, drift_tree):
        profile = ModelProfile.from_tree("m", drift_tree)
        assert len(profile.leaf_names) == drift_tree.n_leaves
        assert sum(profile.training_leaf_shares_pct.values()) == (
            pytest.approx(100.0)
        )

    def test_profile_from_record_parses_train_y(self, drift_tree):
        class FakeRecord:
            model_id = "abc"
            metadata = {"train_y": {"n": 450, "mean": 2.5, "var": 1.2}}

        profile = ModelProfile.from_record(FakeRecord(), drift_tree)
        assert profile.training_y == SampleMoments(450, 2.5, 1.2)

    def test_profile_from_record_tolerates_missing_train_y(self, drift_tree):
        class FakeRecord:
            model_id = "abc"
            metadata = {"train_y": {"n": "not a number"}}

        profile = ModelProfile.from_record(FakeRecord(), drift_tree)
        assert profile.training_y is None

    def test_leaf_based_monitoring_via_tree(self, drift_tree):
        profile = ModelProfile.from_tree("m", drift_tree)
        monitor = DriftMonitor(profile, DriftMonitorConfig(window=256))
        rng = np.random.default_rng(6)
        X = rng.random((200, 3))
        predictions = drift_tree.predict(X)
        event = monitor.observe(
            predictions, leaves=drift_tree.assign_leaves(X)
        )
        leaf_reading = [
            r for r in event.readings if r.detector == "leaf_l1"
        ][0]
        # Unlabelled traffic: only the leaf detector has data.
        assert leaf_reading.value < 25.0
        assert event.n_labelled == 0

    def test_report_shape(self):
        monitor = make_monitor()
        feed(monitor, np.random.default_rng(0), batches=4)
        report = monitor.report()
        assert report["verdict"] == "ok"
        assert report["records_seen"] == 256
        assert report["window"]["capacity"] == 256
        assert report["thresholds"]["min_correlation"] == 0.85
        assert report["hysteresis"]["fail_after"] == 3
        assert {r["detector"] for r in report["readings"]} >= {
            "dependent_t",
            "prediction_t",
        }
        json.dumps(report)  # must be JSON-serializable as-is
