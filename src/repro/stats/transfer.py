"""Shared transferability arithmetic — Equations 8-13 in one place.

Section VI of the paper judges a model transfer twice: by two-sample
t statistics built from the unbiased mean/variance estimators of
Equations 8-11, and by the prediction accuracy metrics C (Eq. 12) and
MAE (Eq. 13) against the C > 0.85 / MAE < 0.15 acceptance thresholds.
Two very different callers need exactly that arithmetic:

* the batch experiment path (:mod:`repro.transfer`, experiments E7/E8),
  which holds full sample arrays, and
* the streaming drift detectors (:mod:`repro.drift`), which read the
  moments a window snapshot recomputes from its last few hundred
  records, never the traffic seen before them.

This module is the single implementation both consume.  Every entry
point therefore works from *moments* (:class:`SampleMoments`) or from
co-moments, with thin array wrappers on top; the batch wrappers
reproduce the historical :mod:`repro.transfer` results bit-for-bit
(the regression test in ``tests/experiments`` pins this).

Small samples are first-class here, not an error: a window with n < 2
or zero variance yields a :class:`TTestSummary` whose ``sufficient``
flag is False and whose ``reject`` is a well-defined False — the
streaming caller turns that into an "insufficient data" verdict
instead of a NaN or a divide-by-zero warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.stats.descriptive import corrcoef, standard_error_of_difference
from repro.stats.distributions import StudentT, t_critical_value

__all__ = [
    "SampleMoments",
    "TTestSummary",
    "TransferCriteria",
    "t_statistic_from_moments",
    "pearson_from_comoments",
    "paired_arrays",
    "correlation_coefficient",
    "mean_absolute_error",
    "meets_accuracy_thresholds",
]


@dataclass(frozen=True)
class SampleMoments:
    """Sufficient statistics of one sample: Eq. 8 (mean) and Eq. 9 (var).

    ``var`` is the unbiased (n-1 denominator) sample variance, 0.0 by
    convention when ``n < 2`` — what a drift window reports while it
    holds fewer than two records.
    """

    n: int
    mean: float
    var: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.var < 0.0:
            raise ValueError(f"variance must be non-negative, got {self.var}")

    @staticmethod
    def from_values(values: Sequence[float]) -> "SampleMoments":
        """Moments of a raw sample (the batch caller's constructor)."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D sample, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains NaN or infinite values")
        n = int(arr.size)
        if n == 0:
            return SampleMoments(0, 0.0, 0.0)
        var = float(arr.var(ddof=1)) if n >= 2 else 0.0
        return SampleMoments(n, float(arr.mean()), var)


@dataclass(frozen=True)
class TTestSummary:
    """Outcome of the Eqs. 8-11 two-sample t statistic.

    ``sufficient`` distinguishes "the test ran" from "the inputs cannot
    support the test" (a sample with n < 2, or both samples constant).
    An insufficient summary carries NaN fields but a *defined*
    ``reject`` of False, so threshold logic never touches a NaN.
    """

    statistic: float
    df: float
    critical_value: float
    confidence: float
    sufficient: bool
    reason: str = ""

    @cached_property
    def p_value(self) -> float:
        """Two-sided p, computed on first access.

        The verdict only needs ``|t|`` vs the critical value, so the
        streaming hot path (drift detectors evaluating every batch)
        never pays the incomplete-beta evaluation behind this.
        """
        if not self.sufficient or not math.isfinite(self.statistic):
            return float("nan")
        return StudentT(self.df).two_sided_p(self.statistic)

    @property
    def reject(self) -> bool:
        """True when H0 is rejected at ``confidence`` (never on NaN)."""
        return self.sufficient and abs(self.statistic) > self.critical_value

    def __str__(self) -> str:
        if not self.sufficient:
            return f"t-test: insufficient data ({self.reason})"
        verdict = "reject H0" if self.reject else "fail to reject H0"
        return (
            f"t={self.statistic:.4g} (critical {self.critical_value:.4g} "
            f"at {self.confidence * 100:.0f}%) -> {verdict}"
        )


@dataclass(frozen=True)
class TransferCriteria:
    """Section VI acceptance thresholds; the paper's illustrative values."""

    min_correlation: float = 0.85
    max_mae: float = 0.15
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not -1.0 <= self.min_correlation <= 1.0:
            raise ValueError(
                f"min_correlation must be in [-1, 1], got {self.min_correlation}"
            )
        if self.max_mae <= 0:
            raise ValueError(f"max_mae must be positive, got {self.max_mae}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )


def _insufficient(reason: str, confidence: float) -> TTestSummary:
    nan = float("nan")
    return TTestSummary(
        statistic=nan,
        df=nan,
        critical_value=nan,
        confidence=confidence,
        sufficient=False,
        reason=reason,
    )


def t_statistic_from_moments(
    a: SampleMoments,
    b: SampleMoments,
    confidence: float = 0.95,
) -> TTestSummary:
    """The paper's two-sample t statistic (Eqs. 8-11) from moments.

    Uses the unpooled standard error ``sqrt(S_a^2/n + S_b^2/m)`` and
    ``n + m - 2`` degrees of freedom, exactly as Section VI.A.  The
    arithmetic matches :func:`repro.transfer.hypothesis.two_sample_t_test`
    bit-for-bit when fed :meth:`SampleMoments.from_values` moments.
    """
    if a.n < 2 or b.n < 2:
        return _insufficient(
            f"need >= 2 observations per sample (n_a={a.n}, n_b={b.n})",
            confidence,
        )
    se = standard_error_of_difference(a.var, a.n, b.var, b.n)
    if se == 0.0:
        return _insufficient("both samples have zero variance", confidence)
    statistic = (a.mean - b.mean) / se
    df = a.n + b.n - 2
    return TTestSummary(
        statistic=statistic,
        df=float(df),
        critical_value=t_critical_value(df, confidence),
        confidence=confidence,
        sufficient=True,
    )


def pearson_from_comoments(m2_x: float, m2_y: float, comoment: float) -> float:
    """Eq. 12's C from centered second moments.

    ``m2_*`` are sums of squared deviations and ``comoment`` the sum of
    cross deviations (the quantities a drift window snapshot
    recomputes); the shared ``1/(n-1)`` factors cancel.  Degenerate
    windows (either side constant) return 0.0, matching
    :func:`repro.stats.descriptive.corrcoef`'s convention.
    """
    if m2_x <= 0.0 or m2_y <= 0.0:
        return 0.0
    return comoment / math.sqrt(m2_x * m2_y)


def paired_arrays(
    predicted: Sequence[float], actual: Sequence[float]
) -> tuple:
    """Validate a (predicted, actual) pair into equal-length 1-D arrays."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.ndim != 1 or a.ndim != 1 or p.size != a.size:
        raise ValueError(
            f"predicted/actual must be equal-length 1-D arrays, "
            f"got shapes {p.shape} and {a.shape}"
        )
    if p.size == 0:
        raise ValueError("need at least one prediction")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(a))):
        raise ValueError("predictions or actuals contain NaN/inf")
    return p, a


def correlation_coefficient(
    predicted: Sequence[float], actual: Sequence[float]
) -> float:
    """Equation 12: Pearson correlation of predicted vs. actual."""
    p, a = paired_arrays(predicted, actual)
    return corrcoef(p, a)


def mean_absolute_error(
    predicted: Sequence[float], actual: Sequence[float]
) -> float:
    """Equation 13: mean absolute error, in CPI units."""
    p, a = paired_arrays(predicted, actual)
    return float(np.mean(np.abs(p - a)))


def meets_accuracy_thresholds(
    correlation: float,
    mae: float,
    criteria: TransferCriteria = TransferCriteria(),
) -> bool:
    """Section VI.B acceptance: C above and MAE below their thresholds.

    NaN inputs fail closed (a window with no labelled traffic is not
    evidence of transferability).
    """
    return correlation > criteria.min_correlation and mae < criteria.max_mae
