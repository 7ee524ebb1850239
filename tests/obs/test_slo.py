"""SLO tracker: error-budget arithmetic, burn rates, 5xx handling."""

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.obs.slo import SloConfig, SloTracker


class TestSloConfig:
    def test_defaults_valid(self):
        config = SloConfig()
        assert config.latency_target == 0.99
        assert config.availability_target == 0.999

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_threshold_s": 0.0},
            {"latency_threshold_s": -1.0},
            {"latency_target": 0.0},
            {"latency_target": 1.0},
            {"availability_target": 1.5},
            {"burn_window": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            SloConfig(**kwargs)


class TestBudgetArithmetic:
    def test_all_good_leaves_full_budget(self):
        tracker = SloTracker(SloConfig(latency_threshold_s=0.1))
        for _ in range(100):
            tracker.record(0.01, 200)
        report = tracker.report()
        assert report["latency"]["budget_remaining"] == pytest.approx(1.0)
        assert report["availability"]["budget_remaining"] == pytest.approx(
            1.0
        )
        assert report["latency"]["burn_rate"] == 0.0

    def test_budget_consumed_at_exactly_the_allowance(self):
        # latency target 0.99 -> 1% of requests may be slow.  With
        # exactly 1% slow, the budget is exactly spent (remaining 0)
        # and the burn rate is exactly 1.
        tracker = SloTracker(
            SloConfig(latency_target=0.99, burn_window=100)
        )
        for index in range(100):
            tracker.record(0.5 if index == 0 else 0.01, 200)
        latency = tracker.report()["latency"]
        assert latency["budget_remaining"] == pytest.approx(0.0)
        assert latency["burn_rate"] == pytest.approx(1.0)

    def test_budget_goes_negative_when_overspent(self):
        tracker = SloTracker(SloConfig(latency_target=0.99))
        for _ in range(10):
            tracker.record(0.5, 200)  # every request slow
        assert tracker.report()["latency"]["budget_remaining"] < 0

    def test_5xx_counts_against_availability_not_latency(self):
        tracker = SloTracker(SloConfig())
        tracker.record(0.01, 500)
        report = tracker.report()
        assert report["availability"]["bad_events"] == 1
        # The failed request must not appear in the latency ledger at
        # all: a fast error cannot buy back latency budget.
        assert report["latency"]["events"] == 0

    def test_4xx_is_available(self):
        tracker = SloTracker(SloConfig())
        tracker.record(0.01, 404)
        report = tracker.report()
        assert report["availability"]["bad_events"] == 0
        assert report["latency"]["events"] == 1

    def test_burn_rate_recovers_as_window_slides(self):
        tracker = SloTracker(
            SloConfig(latency_target=0.5, burn_window=10)
        )
        for _ in range(10):
            tracker.record(1.0, 200)  # slow: burn rate 1/0.5 = 2
        assert tracker.report()["latency"]["burn_rate"] == pytest.approx(2.0)
        for _ in range(10):
            tracker.record(0.01, 200)  # window now all-good
        report = tracker.report()
        assert report["latency"]["burn_rate"] == 0.0
        # ... but lifetime budget accounting remembers everything.
        assert report["latency"]["bad_fraction"] == pytest.approx(0.5)

        # Mixed outcomes in irregular runs, so the window drops bad
        # outcomes as well as good ones: both burn rates always equal
        # a recount of the last ``burn_window`` outcomes.
        config = SloConfig(
            latency_threshold_s=0.1,
            latency_target=0.9,
            availability_target=0.95,
            burn_window=16,
        )
        tracker = SloTracker(config)
        outcomes = {"latency": [], "availability": []}
        pattern = [
            (0.01, 200), (0.5, 200), (0.5, 200), (0.01, 503),
            (0.01, 404), (0.01, 200), (0.2, 500), (0.01, 200),
            (0.3, 200), (0.01, 200), (0.01, 200),
        ]
        for step in range(200):
            latency_s, status = pattern[(7 * step + step // 5) % len(pattern)]
            tracker.record(latency_s, status)
            outcomes["availability"].append(status < 500)
            if status < 500:
                outcomes["latency"].append(latency_s <= 0.1)
            report = tracker.report()
            for name, target in (("latency", 0.9), ("availability", 0.95)):
                recent = outcomes[name][-config.burn_window:]
                assert report[name]["burn_rate"] == (
                    recent.count(False) / len(recent) / (1.0 - target)
                )

    def test_report_shape(self):
        tracker = SloTracker(SloConfig(latency_threshold_s=0.25))
        tracker.record(0.1, 200)
        report = tracker.report()
        assert report["latency"]["threshold_s"] == 0.25
        for objective in ("latency", "availability"):
            for key in (
                "target",
                "events",
                "bad_events",
                "bad_fraction",
                "budget_remaining",
                "burn_rate",
                "burn_window",
            ):
                assert key in report[objective]


class TestGaugeExport:
    def test_record_updates_process_gauges(self):
        tracker = SloTracker(SloConfig())
        tracker.record(0.01, 200)
        registry = get_registry()
        assert (
            registry.gauge("serve.slo.latency.budget_remaining").value
            == pytest.approx(1.0)
        )
        assert (
            registry.gauge("serve.slo.availability.budget_remaining").value
            == pytest.approx(1.0)
        )


class TestRunningCount:
    """The burn window keeps its bad count as outcomes enter and leave;
    every report must equal one recounted from the outcome stream."""

    @staticmethod
    def _recount(config, outcomes):
        def objective(target, good):
            allowance = 1.0 - target
            bad = good.count(False)
            recent = good[-config.burn_window:]
            bad_fraction = bad / len(good) if good else 0.0
            return {
                "target": target,
                "events": len(good),
                "bad_events": bad,
                "bad_fraction": bad_fraction,
                "budget_remaining": 1.0 - bad_fraction / allowance,
                "burn_rate": (
                    recent.count(False) / len(recent) / allowance
                    if recent
                    else 0.0
                ),
                "burn_window": config.burn_window,
            }

        served = [latency for latency, status in outcomes if status < 500]
        return {
            "latency": {
                "threshold_s": config.latency_threshold_s,
                **objective(
                    config.latency_target,
                    [s <= config.latency_threshold_s for s in served],
                ),
            },
            "availability": objective(
                config.availability_target,
                [status < 500 for _, status in outcomes],
            ),
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_equals_a_recount_as_the_window_wraps(self, seed):
        rng = np.random.default_rng(seed)
        config = SloConfig(latency_threshold_s=0.1, burn_window=37)
        tracker = SloTracker(config)
        assert tracker.report() == self._recount(config, [])
        outcomes = []
        # Bursts of mostly-bad and mostly-good traffic, over eight
        # windows' worth of requests.
        for _ in range(16):
            p_bad = rng.choice([0.0, 0.1, 0.6, 1.0])
            for _ in range(int(rng.integers(5, 40))):
                latency = 0.5 if rng.random() < p_bad else 0.01
                failed = rng.random() < p_bad
                status = int(rng.choice([404, 503])) if failed else 200
                tracker.record(latency, status)
                outcomes.append((latency, status))
                assert tracker.report() == self._recount(config, outcomes)
        assert len(outcomes) > 4 * config.burn_window
        burn = get_registry().gauge("serve.slo.availability.burn_rate")
        assert burn.value == tracker.report()["availability"]["burn_rate"]
