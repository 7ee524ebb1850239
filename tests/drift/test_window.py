"""StreamWindow: ring-buffer bookkeeping and streaming-vs-batch parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drift.window import StreamWindow
from repro.stats.transfer import (
    correlation_coefficient,
    mean_absolute_error,
)

TOL = 1e-10


def batch_expectations(predictions, actuals):
    """Exact batch statistics over the labelled subset."""
    labelled = np.isfinite(actuals)
    p, a = predictions[labelled], actuals[labelled]
    return {
        "n_labelled": int(labelled.sum()),
        "pred_mean": float(predictions.mean()),
        "pred_var": float(predictions.var(ddof=1)),
        "pair_p_mean": float(p.mean()),
        "pair_a_mean": float(a.mean()),
        "pair_p_var": float(p.var(ddof=1)),
        "pair_a_var": float(a.var(ddof=1)),
        "correlation": correlation_coefficient(p, a),
        "mae": mean_absolute_error(p, a),
    }


def assert_snapshot_matches(snapshot, expected):
    assert snapshot.n_labelled == expected["n_labelled"]
    assert snapshot.pred.mean == pytest.approx(
        expected["pred_mean"], abs=TOL
    )
    assert snapshot.pred.var == pytest.approx(expected["pred_var"], abs=TOL)
    assert snapshot.pred_labelled.mean == pytest.approx(
        expected["pair_p_mean"], abs=TOL
    )
    assert snapshot.actual.mean == pytest.approx(
        expected["pair_a_mean"], abs=TOL
    )
    assert snapshot.pred_labelled.var == pytest.approx(
        expected["pair_p_var"], abs=TOL
    )
    assert snapshot.actual.var == pytest.approx(
        expected["pair_a_var"], abs=TOL
    )
    assert snapshot.correlation == pytest.approx(
        expected["correlation"], abs=TOL
    )
    assert snapshot.mae == pytest.approx(expected["mae"], abs=TOL)


class TestValidation:
    def test_capacity_too_small(self):
        with pytest.raises(ValueError, match="capacity"):
            StreamWindow(1)

    def test_negative_leaves(self):
        with pytest.raises(ValueError, match="n_leaves"):
            StreamWindow(8, n_leaves=-1)

    def test_non_finite_prediction(self):
        window = StreamWindow(8)
        with pytest.raises(ValueError, match="finite"):
            window.extend([float("inf")])

    def test_leaf_out_of_range(self):
        window = StreamWindow(8, n_leaves=2)
        with pytest.raises(ValueError, match="leaf index"):
            window.extend([1.0], leaves=[2])

    def test_extend_shape_mismatch(self):
        window = StreamWindow(8)
        with pytest.raises(ValueError, match="align"):
            window.extend([1.0, 2.0], actuals=[1.0])


class TestSlidingWindow:
    def test_counts_and_eviction(self):
        window = StreamWindow(4)
        window.extend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert window.n == 4
        assert window.total_seen == 6
        # Window now holds [3, 4, 5, 6].
        assert window.snapshot().pred.mean == pytest.approx(4.5)

    def test_labelled_subset_tracked_through_eviction(self):
        window = StreamWindow(3)
        window.extend([1.0], [10.0])
        window.extend([2.0])  # unlabelled
        window.extend([3.0], [30.0])
        assert window.snapshot().n_labelled == 2
        window.extend([4.0], [40.0])  # evicts (1.0, 10.0)
        snapshot = window.snapshot()
        assert snapshot.n_labelled == 2
        assert snapshot.actual.mean == pytest.approx(35.0)

    def test_leaf_counts_follow_the_window(self):
        window = StreamWindow(3, n_leaves=2)
        window.extend([1.0, 1.0, 1.0], leaves=[0, 0, 1])
        assert window.snapshot().leaf_counts.tolist() == [2, 1]
        window.extend([1.0], leaves=[1])  # evicts a leaf-0 record
        assert window.snapshot().leaf_counts.tolist() == [1, 2]

    @pytest.mark.parametrize("label_fraction", [1.0, 0.6])
    def test_streaming_matches_batch_exactly(self, label_fraction):
        """Window moments match the batch formulas to 1e-10, whether
        the stream arrives in one batch or in mixed chunk sizes."""
        rng = np.random.default_rng(42)
        capacity = 128
        total = 1000  # ~7 windows of churn
        predictions = rng.normal(2.0, 0.8, total)
        actuals = predictions + rng.normal(0.0, 0.3, total)
        unlabelled = rng.random(total) > label_fraction
        actuals[unlabelled] = np.nan
        window = StreamWindow(capacity)
        window.extend(predictions, actuals)
        expected = batch_expectations(
            predictions[-capacity:], actuals[-capacity:]
        )
        assert_snapshot_matches(window.snapshot(), expected)
        # The same stream in chunks that start and end anywhere in the
        # ring, so writes straddle its end and overrun it.
        chunked = StreamWindow(capacity)
        sizes = [1, 7, 16, 64, capacity + 5, 3, capacity - 1, 2, 33]
        start, step = 0, 0
        while start < total:
            stop = min(total, start + sizes[step % len(sizes)])
            chunked.extend(predictions[start:stop], actuals[start:stop])
            start, step = stop, step + 1
            lo = max(0, stop - capacity)
            assert chunked.n == stop - lo
            if np.isfinite(actuals[lo:stop]).sum() >= 2:
                expected = batch_expectations(
                    predictions[lo:stop], actuals[lo:stop]
                )
                assert_snapshot_matches(chunked.snapshot(), expected)
        assert chunked.total_seen == total

    def test_streaming_matches_batch_at_every_step(self):
        """Per-record parity, covering partial windows and evictions."""
        rng = np.random.default_rng(9)
        capacity = 16
        predictions = rng.normal(1.0, 0.5, 200)
        actuals = predictions + rng.normal(0.0, 0.2, 200)
        actuals[rng.random(200) > 0.7] = np.nan
        window = StreamWindow(capacity)
        for i in range(200):
            window.extend(predictions[i:i + 1], actuals[i:i + 1])
            lo = max(0, i + 1 - capacity)
            in_window = slice(lo, i + 1)
            p_win = predictions[in_window]
            a_win = actuals[in_window]
            if np.isfinite(a_win).sum() >= 2:
                expected = batch_expectations(p_win, a_win)
                assert_snapshot_matches(window.snapshot(), expected)

    def test_refresh_bounds_drift(self):
        """Many windows of churn stay exact: every snapshot is
        recomputed from the live records, so no round-off carries."""
        rng = np.random.default_rng(3)
        capacity = 32
        window = StreamWindow(capacity)
        predictions = rng.normal(5.0, 2.0, 20 * capacity)
        actuals = predictions + rng.normal(0.0, 1.0, predictions.size)
        window.extend(predictions, actuals)
        expected = batch_expectations(
            predictions[-capacity:], actuals[-capacity:]
        )
        assert_snapshot_matches(window.snapshot(), expected)


class TestSnapshot:
    def test_empty_window(self):
        snapshot = StreamWindow(8).snapshot()
        assert snapshot.n == 0
        assert snapshot.n_labelled == 0
        assert np.isnan(snapshot.mae)
        assert snapshot.correlation == 0.0
        assert snapshot.leaf_total == 0

    def test_leaf_counts_are_a_copy(self):
        window = StreamWindow(8, n_leaves=2)
        window.extend([1.0], leaves=[0])
        snapshot = window.snapshot()
        snapshot.leaf_counts[0] = 99
        assert window.snapshot().leaf_counts.tolist() == [1, 0]
