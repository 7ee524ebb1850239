"""Transferability detectors over window snapshots.

Each detector is one criterion of the paper's Section V-VI battery,
re-expressed so it can be evaluated from a
:class:`~repro.drift.window.WindowSnapshot` (sufficient statistics
only, no samples):

* :class:`DependentTTest` — Eqs. 8-11 on the dependent variable:
  the window's observed CPI against the model's *training* CPI
  moments.  This is the paper's "do L1 and L2 even come from the same
  population" test, run continuously.
* :class:`PredictionTTest` — the same statistic on predicted-vs-actual
  over the window (Section VI.A's second test).
* :class:`RollingCorrelation` / :class:`RollingMae` — Eqs. 12-13
  against the C > 0.85 / MAE < 0.15 acceptance thresholds, computed
  from the window's co-moments.
* :class:`LeafProfileDrift` — Eq. 4's L1 distance between the live
  window's leaf-occupancy profile and the model's training profile:
  the serving-time version of Table III's similarity analysis.

Detectors return typed :class:`DetectorReading`\\ s with a three-way
status: OK, BREACH, or INSUFFICIENT.  Insufficient windows (n < 2,
zero variance, too little labelled traffic) are a first-class outcome
— never a NaN comparison or a numpy warning (the shared
:func:`repro.stats.transfer.t_statistic_from_moments` guarantees it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.drift.window import WindowSnapshot
from repro.stats.transfer import (
    SampleMoments,
    TransferCriteria,
    t_statistic_from_moments,
)

__all__ = [
    "DetectorStatus",
    "DetectorReading",
    "DriftCriteria",
    "DependentTTest",
    "PredictionTTest",
    "RollingCorrelation",
    "RollingMae",
    "LeafProfileDrift",
    "build_detectors",
]


class DetectorStatus(enum.Enum):
    OK = "ok"
    BREACH = "breach"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class DetectorReading:
    """One detector's verdict on one window snapshot."""

    detector: str
    status: DetectorStatus
    value: float
    threshold: float
    detail: str = ""

    @property
    def breached(self) -> bool:
        return self.status is DetectorStatus.BREACH

    def as_dict(self) -> Dict[str, object]:
        return {
            "detector": self.detector,
            "status": self.status.value,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        if self.status is DetectorStatus.INSUFFICIENT:
            return f"{self.detector}: insufficient ({self.detail})"
        return (
            f"{self.detector}: {self.value:.4g} "
            f"(threshold {self.threshold:.4g}) -> {self.status.value}"
        )


@dataclass(frozen=True)
class DriftCriteria:
    """Everything the detector battery compares against.

    ``transfer`` carries the paper's Section VI thresholds; the leaf
    L1 limit extends Eq. 4 into an alarm (0 = identical regime mix,
    100 = disjoint).  ``min_labelled`` gates the labelled-traffic
    statistics so a handful of observed CPIs cannot flip a verdict.
    """

    transfer: TransferCriteria = field(default_factory=TransferCriteria)
    max_leaf_l1_pct: float = 25.0
    min_labelled: int = 48
    min_leaf_records: int = 48

    def __post_init__(self) -> None:
        if not 0.0 < self.max_leaf_l1_pct <= 100.0:
            raise ValueError(
                f"max_leaf_l1_pct must be in (0, 100], got "
                f"{self.max_leaf_l1_pct}"
            )
        if self.min_labelled < 2:
            raise ValueError(
                f"min_labelled must be >= 2, got {self.min_labelled}"
            )
        if self.min_leaf_records < 1:
            raise ValueError(
                f"min_leaf_records must be >= 1, got {self.min_leaf_records}"
            )


def _insufficient(name: str, threshold: float, detail: str) -> DetectorReading:
    return DetectorReading(
        detector=name,
        status=DetectorStatus.INSUFFICIENT,
        value=float("nan"),
        threshold=threshold,
        detail=detail,
    )


class DependentTTest:
    """Window observed CPI vs. training CPI (Eqs. 8-11, H0: same mean)."""

    name = "dependent_t"

    def __init__(
        self,
        training_y: SampleMoments,
        confidence: float = 0.95,
        min_labelled: int = 48,
    ) -> None:
        if training_y.n < 2:
            raise ValueError(
                "training reference needs >= 2 observations, got "
                f"{training_y.n}"
            )
        self.training_y = training_y
        self.confidence = confidence
        self.min_labelled = min_labelled

    def read(self, snapshot: WindowSnapshot) -> DetectorReading:
        if snapshot.n_labelled < self.min_labelled:
            return _insufficient(
                self.name,
                float("nan"),
                f"{snapshot.n_labelled} labelled < {self.min_labelled}",
            )
        result = t_statistic_from_moments(
            snapshot.actual, self.training_y, self.confidence
        )
        if not result.sufficient:
            return _insufficient(self.name, float("nan"), result.reason)
        return DetectorReading(
            detector=self.name,
            status=(
                DetectorStatus.BREACH if result.reject else DetectorStatus.OK
            ),
            value=result.statistic,
            threshold=result.critical_value,
            detail=f"|t| vs critical at {self.confidence * 100:.0f}%",
        )


class PredictionTTest:
    """Window predicted vs. window observed CPI (Section VI.A, test 2)."""

    name = "prediction_t"

    def __init__(
        self, confidence: float = 0.95, min_labelled: int = 48
    ) -> None:
        self.confidence = confidence
        self.min_labelled = min_labelled

    def read(self, snapshot: WindowSnapshot) -> DetectorReading:
        if snapshot.n_labelled < self.min_labelled:
            return _insufficient(
                self.name,
                float("nan"),
                f"{snapshot.n_labelled} labelled < {self.min_labelled}",
            )
        result = t_statistic_from_moments(
            snapshot.pred_labelled, snapshot.actual, self.confidence
        )
        if not result.sufficient:
            return _insufficient(self.name, float("nan"), result.reason)
        return DetectorReading(
            detector=self.name,
            status=(
                DetectorStatus.BREACH if result.reject else DetectorStatus.OK
            ),
            value=result.statistic,
            threshold=result.critical_value,
            detail=f"|t| vs critical at {self.confidence * 100:.0f}%",
        )


class RollingCorrelation:
    """Eq. 12's C over the window, against the C > 0.85 acceptance."""

    name = "rolling_c"

    def __init__(
        self, min_correlation: float = 0.85, min_labelled: int = 48
    ) -> None:
        self.min_correlation = min_correlation
        self.min_labelled = min_labelled

    def read(self, snapshot: WindowSnapshot) -> DetectorReading:
        if snapshot.n_labelled < self.min_labelled:
            return _insufficient(
                self.name,
                self.min_correlation,
                f"{snapshot.n_labelled} labelled < {self.min_labelled}",
            )
        ok = snapshot.correlation > self.min_correlation
        return DetectorReading(
            detector=self.name,
            status=DetectorStatus.OK if ok else DetectorStatus.BREACH,
            value=snapshot.correlation,
            threshold=self.min_correlation,
            detail="C must exceed threshold",
        )


class RollingMae:
    """Eq. 13's MAE over the window, against the MAE < 0.15 acceptance."""

    name = "rolling_mae"

    def __init__(self, max_mae: float = 0.15, min_labelled: int = 48) -> None:
        self.max_mae = max_mae
        self.min_labelled = min_labelled

    def read(self, snapshot: WindowSnapshot) -> DetectorReading:
        if snapshot.n_labelled < self.min_labelled:
            return _insufficient(
                self.name,
                self.max_mae,
                f"{snapshot.n_labelled} labelled < {self.min_labelled}",
            )
        ok = snapshot.mae < self.max_mae
        return DetectorReading(
            detector=self.name,
            status=DetectorStatus.OK if ok else DetectorStatus.BREACH,
            value=snapshot.mae,
            threshold=self.max_mae,
            detail="MAE must stay below threshold",
        )


class LeafProfileDrift:
    """Eq. 4 L1 distance: live leaf profile vs. the training profile.

    Unlike the labelled-traffic detectors this needs no observed CPI at
    all — every prediction lands in some leaf — so it is the earliest
    warning the monitor has on purely unlabelled traffic.
    """

    name = "leaf_l1"

    def __init__(
        self,
        leaf_names: Sequence[str],
        training_shares_pct: Mapping[str, float],
        max_l1_pct: float = 25.0,
        min_records: int = 48,
    ) -> None:
        if not leaf_names:
            raise ValueError("need at least one leaf name")
        self.leaf_names = tuple(leaf_names)
        self.training_shares_pct = dict(training_shares_pct)
        self.max_l1_pct = max_l1_pct
        self.min_records = min_records
        # Eq. 4 runs on every evaluation, so the training side is
        # pre-aligned to the vocabulary; training mass under names the
        # window can never count contributes a constant.
        self._training_vec = np.array(
            [self.training_shares_pct.get(n, 0.0) for n in self.leaf_names]
        )
        self._foreign_mass = sum(
            abs(share)
            for name, share in self.training_shares_pct.items()
            if name not in set(self.leaf_names)
        )

    def read(self, snapshot: WindowSnapshot) -> DetectorReading:
        total = snapshot.leaf_total
        if total < self.min_records:
            return _insufficient(
                self.name,
                self.max_l1_pct,
                f"{total} classified records < {self.min_records}",
            )
        live = snapshot.leaf_counts * (100.0 / total)
        distance = 0.5 * (
            float(np.abs(live - self._training_vec).sum())
            + self._foreign_mass
        )
        ok = distance < self.max_l1_pct
        return DetectorReading(
            detector=self.name,
            status=DetectorStatus.OK if ok else DetectorStatus.BREACH,
            value=distance,
            threshold=self.max_l1_pct,
            detail="Eq. 4 distance vs training leaf profile",
        )


def build_detectors(
    criteria: DriftCriteria,
    training_y: Optional[SampleMoments] = None,
    leaf_names: Sequence[str] = (),
    training_shares_pct: Optional[Mapping[str, float]] = None,
) -> Tuple[object, ...]:
    """The standard battery for one model, skipping what it can't know.

    ``training_y`` (the training set's CPI moments) enables the
    dependent-variable t-test; leaf vocabulary + training shares enable
    the Eq. 4 profile detector.  Models published without that
    provenance still get the prediction-side battery.
    """
    transfer = criteria.transfer
    detectors: list = []
    if training_y is not None and training_y.n >= 2:
        detectors.append(
            DependentTTest(
                training_y,
                confidence=transfer.confidence,
                min_labelled=criteria.min_labelled,
            )
        )
    detectors.append(
        PredictionTTest(
            confidence=transfer.confidence,
            min_labelled=criteria.min_labelled,
        )
    )
    detectors.append(
        RollingCorrelation(
            min_correlation=transfer.min_correlation,
            min_labelled=criteria.min_labelled,
        )
    )
    detectors.append(
        RollingMae(
            max_mae=transfer.max_mae, min_labelled=criteria.min_labelled
        )
    )
    if leaf_names and training_shares_pct is not None:
        detectors.append(
            LeafProfileDrift(
                leaf_names,
                training_shares_pct,
                max_l1_pct=criteria.max_leaf_l1_pct,
                min_records=criteria.min_leaf_records,
            )
        )
    return tuple(detectors)
