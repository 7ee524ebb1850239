"""Bounded ring buffer of labelled traffic rows for retraining.

The drift monitor's :class:`~repro.drift.window.StreamWindow` keeps
only each recent record's prediction, observed CPI and leaf —
deliberately, for fixed memory — but a retrain needs the raw
``(X, y)`` rows.  :class:`TrafficBuffer` hangs off the
:class:`~repro.drift.hub.DriftHub` as a tap, so it sees every
observed batch *before* the monitor evaluates it: the batch that trips
``transfer_failed`` is part of the retrain data, not lost to ordering.

Only labelled rows (finite actual CPI) are kept: a model can only be
refitted against traffic whose ground truth arrived.  Capacity bounds
memory the same way the monitor window does — oldest rows are
overwritten first.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

__all__ = ["TrafficBuffer"]


class TrafficBuffer:
    """Fixed-capacity ring of labelled ``(features, actual)`` rows."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._X: Optional[np.ndarray] = None  # (capacity, n_features)
        self._y: Optional[np.ndarray] = None  # (capacity,)
        self._head = 0  # next slot to write
        self._n = 0  # rows currently held
        self._total_seen = 0  # labelled rows ever offered

    def extend(self, X, actuals=None) -> int:
        """Append the labelled rows of one batch; returns rows kept."""
        if actuals is None:
            return 0
        X = np.asarray(X, dtype=float)
        y = np.asarray(actuals, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ValueError(
                f"X must be 2-D with one row per actual, got X {X.shape} "
                f"vs {y.size} actuals"
            )
        keep = np.isfinite(y)
        if not keep.all():
            X, y = X[keep], y[keep]
        if y.size == 0:
            return 0
        with self._lock:
            if self._X is None:
                self._X = np.empty((self.capacity, X.shape[1]), dtype=float)
                self._y = np.empty(self.capacity, dtype=float)
            elif X.shape[1] != self._X.shape[1]:
                raise ValueError(
                    f"row width changed: buffer holds "
                    f"{self._X.shape[1]}-feature rows, got {X.shape[1]}"
                )
            rows_x, rows_y = X, y
            if rows_y.size > self.capacity:
                # Only the newest `capacity` rows can survive anyway.
                rows_x = rows_x[-self.capacity:]
                rows_y = rows_y[-self.capacity:]
            first = min(rows_y.size, self.capacity - self._head)
            self._X[self._head:self._head + first] = rows_x[:first]
            self._y[self._head:self._head + first] = rows_y[:first]
            rest = rows_y.size - first
            if rest:
                self._X[:rest] = rows_x[first:]
                self._y[:rest] = rows_y[first:]
            self._head = (self._head + rows_y.size) % self.capacity
            self._n = min(self._n + rows_y.size, self.capacity)
            self._total_seen += int(y.size)
        return int(y.size)

    def labelled(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the held rows, oldest first."""
        with self._lock:
            if self._X is None or self._n == 0:
                return np.empty((0, 0)), np.empty(0)
            if self._n < self.capacity:
                # Buffer not yet wrapped: rows 0..n are already ordered.
                return self._X[: self._n].copy(), self._y[: self._n].copy()
            order = np.r_[self._head:self.capacity, 0:self._head]
            return self._X[order].copy(), self._y[order].copy()

    def clear(self) -> None:
        """Drop every held row (a promoted model starts fresh)."""
        with self._lock:
            self._head = 0
            self._n = 0

    @property
    def n(self) -> int:
        with self._lock:
            return self._n

    @property
    def total_seen(self) -> int:
        with self._lock:
            return self._total_seen

    def __repr__(self) -> str:
        return (
            f"TrafficBuffer(capacity={self.capacity}, n={self.n}, "
            f"total_seen={self.total_seen})"
        )
