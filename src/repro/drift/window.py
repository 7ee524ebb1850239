"""A fixed-memory window over the most recent served records.

The drift monitor never holds the traffic it has seen — at serving
scale that would be unbounded — only a ring buffer of the latest
``capacity`` (prediction, observed CPI, leaf) records.  There is one
update mechanism: :meth:`StreamWindow.extend` validates a batch and
copies it into the ring, overwriting the oldest records, and
:meth:`StreamWindow.snapshot` recomputes, exactly and from the live
records alone, what the Section VI battery needs: means and centered
second moments of predictions and actuals (Eqs. 8-9), their co-moment
(Eq. 12's numerator), the absolute-residual sum (Eq. 13) and per-leaf
occupancy counts (Eq. 4's live profile).  Nothing is carried from one
snapshot to the next, so nothing can accumulate round-off.

Observed CPI is optional per record (serving traffic is mostly
unlabelled); pair statistics cover only the labelled subset.  Leaf
indices are optional too (``-1`` = unassigned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.stats.transfer import SampleMoments, pearson_from_comoments

__all__ = ["WindowSnapshot", "StreamWindow"]

_EMPTY = SampleMoments(0, 0.0, 0.0)


def _centered(x: np.ndarray) -> Tuple[float, np.ndarray, float]:
    """Mean, deviations and centered second moment of a sample."""
    mean = float(np.add.reduce(x)) / x.size
    dx = x - mean
    return mean, dx, float(np.add.reduce(dx * dx))


def _moments(n: int, mean: float, m2: float) -> SampleMoments:
    """Eqs. 8-9: the unbiased variance, 0 for fewer than two records."""
    return SampleMoments(n, mean, m2 / (n - 1) if n >= 2 else 0.0)


@dataclass(frozen=True)
class WindowSnapshot:
    """Sufficient statistics of one window, ready for the detectors.

    ``pred`` covers every record; ``pred_labelled``/``actual``/
    ``correlation``/``mae`` cover only records that arrived with an
    observed CPI.  ``leaf_counts`` is indexed by the leaf vocabulary
    the window was created with.
    """

    n: int
    n_labelled: int
    total_seen: int
    pred: SampleMoments
    pred_labelled: SampleMoments
    actual: SampleMoments
    correlation: float
    mae: float
    leaf_counts: np.ndarray

    @property
    def leaf_total(self) -> int:
        """Records in the window that carried a leaf assignment."""
        return int(self.leaf_counts.sum()) if self.leaf_counts.size else 0


class StreamWindow:
    """The latest ``capacity`` (prediction, actual?, leaf?) records, in
    three ``capacity``-sized arrays, however many records stream by."""

    def __init__(self, capacity: int, n_leaves: int = 0) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        if n_leaves < 0:
            raise ValueError(f"n_leaves must be >= 0, got {n_leaves}")
        self.capacity = capacity
        self.n_leaves = n_leaves
        self._pred = np.zeros(capacity)
        self._actual = np.full(capacity, np.nan)
        self._leaf = np.full(capacity, -1, dtype=np.int64)
        self._head = 0  # the ring slot the next record goes to
        self._count = 0
        self._seen = 0

    @property
    def n(self) -> int:
        return self._count

    @property
    def total_seen(self) -> int:
        return self._seen

    def extend(
        self,
        predictions: Sequence[float],
        actuals: Optional[Sequence[float]] = None,
        leaves: Optional[Sequence[int]] = None,
    ) -> None:
        """Validate a batch, then copy it into the ring, oldest out."""
        predictions = np.asarray(predictions, dtype=float)
        if actuals is None:
            actuals = np.full(predictions.shape, np.nan)
        else:
            actuals = np.asarray(actuals, dtype=float)
        if leaves is None:
            leaves = np.full(predictions.shape, -1, dtype=np.int64)
        else:
            leaves = np.asarray(leaves, dtype=np.int64)
        if not (predictions.shape == actuals.shape == leaves.shape):
            raise ValueError(
                f"predictions/actuals/leaves must align, got shapes "
                f"{predictions.shape}, {actuals.shape}, {leaves.shape}"
            )
        bad = ~np.isfinite(predictions)
        if bad.any():
            raise ValueError(
                f"prediction must be finite, got {predictions[bad][0]}"
            )
        out_of_range = leaves >= self.n_leaves
        if out_of_range.any():
            first = int(leaves[out_of_range][0])
            raise ValueError(
                f"leaf index {first} out of range for {self.n_leaves} leaves"
            )
        m = int(predictions.size)
        cap = self.capacity
        self._seen += m
        if m >= cap:  # only the trailing ``cap`` records survive
            predictions = predictions[m - cap:]
            actuals, leaves = actuals[m - cap:], leaves[m - cap:]
            m, self._head = cap, 0
        head = self._head
        first = min(m, cap - head)
        for ring, chunk in (
            (self._pred, predictions),
            (self._actual, actuals),
            (self._leaf, leaves),
        ):
            ring[head:head + first] = chunk[:first]
            if first < m:
                ring[: m - first] = chunk[first:]
        self._head = (head + m) % cap
        self._count = min(cap, self._count + m)

    def snapshot(self) -> WindowSnapshot:
        """Every statistic, recomputed exactly from the live records.

        O(capacity).  Until the ring first fills, the live records are
        its first ``n`` slots; after that, all of it.  No statistic
        depends on record order, so the ring is read as stored.
        """
        count = self._count
        pred = self._pred[:count]
        actual = self._actual[:count]
        labelled = np.isfinite(actual)
        n_labelled = int(np.count_nonzero(labelled))
        pred_all = pred_labelled = actual_moments = _EMPTY
        correlation, mae = 0.0, float("nan")
        if count and n_labelled < count:
            mean, _, m2 = _centered(pred)
            pred_all = _moments(count, mean, m2)
        if n_labelled:
            if n_labelled < count:
                pred, actual = pred[labelled], actual[labelled]
            mean_p, dp, m2_p = _centered(pred)
            mean_a, da, m2_a = _centered(actual)
            pred_labelled = _moments(n_labelled, mean_p, m2_p)
            actual_moments = _moments(n_labelled, mean_a, m2_a)
            if n_labelled == count:
                pred_all = pred_labelled
            correlation = pearson_from_comoments(
                m2_p, m2_a, float(np.add.reduce(dp * da))
            )
            mae = float(np.add.reduce(np.abs(pred - actual))) / n_labelled
        leaf = self._leaf[:count]
        leaf_counts = np.bincount(
            leaf[leaf >= 0], minlength=self.n_leaves
        ).astype(np.int64, copy=False)
        return WindowSnapshot(
            n=count,
            n_labelled=n_labelled,
            total_seen=self._seen,
            pred=pred_all,
            pred_labelled=pred_labelled,
            actual=actual_moments,
            correlation=correlation,
            mae=mae,
            leaf_counts=leaf_counts,
        )

    def __repr__(self) -> str:
        return f"StreamWindow(n={self.n}/{self.capacity}, seen={self._seen})"
