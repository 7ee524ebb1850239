"""Serving SLOs: latency and availability error budgets with burn rates.

An SLO here is the standard two-part statement: a *latency objective*
("99% of requests answer within 100 ms") and an *availability
objective* ("99.9% of requests do not 5xx").  The tracker turns each
request outcome into budget arithmetic:

* **error budget** — over the tracker's lifetime, the objective allows
  a ``1 - target`` fraction of bad events; the budget *consumed* is
  the observed bad fraction over that allowance (1.0 = budget gone).
* **burn rate** — the same ratio over only the most recent
  ``burn_window`` requests.  1.0 means errors arrive exactly at the
  sustainable rate; 10 means the recent traffic burns budget ten times
  too fast — the standard paging signal.

Every :meth:`SloTracker.record` updates gauges in the process-wide
metrics registry (``serve.slo.latency.burn_rate`` etc.), so ``/metrics``
scrapes and the ``/dashboard`` page read the same numbers.  The
tracker itself is a few counters and two bounded deques, each with a
running count of its bad outcomes — cheap enough to sit on the request
path unconditionally.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict

from repro.obs.metrics import gauge

__all__ = ["SloConfig", "SloTracker"]


@dataclass(frozen=True)
class SloConfig:
    """Targets for one serving process.

    ``latency_threshold_s`` is the "fast enough" line; ``latency_target``
    the fraction of requests that must beat it.  ``availability_target``
    is the fraction that must not fail server-side (5xx).
    """

    latency_threshold_s: float = 0.1
    latency_target: float = 0.99
    availability_target: float = 0.999
    burn_window: int = 512

    def __post_init__(self) -> None:
        if self.latency_threshold_s <= 0:
            raise ValueError(
                f"latency_threshold_s must be positive, "
                f"got {self.latency_threshold_s}"
            )
        for name in ("latency_target", "availability_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.burn_window < 1:
            raise ValueError(
                f"burn_window must be >= 1, got {self.burn_window}"
            )


class _Objective:
    """Lifetime + windowed good/bad accounting for one objective."""

    __slots__ = (
        "name",
        "target",
        "total",
        "bad",
        "recent",
        "recent_bad",
        "_g_remaining",
        "_g_burn",
    )

    def __init__(self, name: str, target: float, window: int) -> None:
        self.name = name
        self.target = target
        self.total = 0
        self.bad = 0
        self.recent: Deque[bool] = deque(maxlen=window)
        #: ``recent.count(False)``, kept as outcomes enter and leave.
        self.recent_bad = 0
        self._g_remaining = gauge(f"serve.slo.{name}.budget_remaining")
        self._g_burn = gauge(f"serve.slo.{name}.burn_rate")

    def record(self, good: bool) -> None:
        self.total += 1
        recent = self.recent
        if len(recent) == recent.maxlen and not recent[0]:
            self.recent_bad -= 1  # the bad outcome this append evicts
        recent.append(good)
        if not good:
            self.bad += 1
            self.recent_bad += 1
        self._g_remaining.set(self._budget_remaining())
        self._g_burn.set(self._burn_rate())

    @property
    def allowance(self) -> float:
        return 1.0 - self.target

    def _bad_fraction(self) -> float:
        return self.bad / self.total if self.total else 0.0

    def _budget_remaining(self) -> float:
        """Fraction of the error budget still unspent (can go negative)."""
        return 1.0 - self._bad_fraction() / self.allowance

    def _burn_rate(self) -> float:
        if not self.recent:
            return 0.0
        return self.recent_bad / len(self.recent) / self.allowance

    def report(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "events": self.total,
            "bad_events": self.bad,
            "bad_fraction": self._bad_fraction(),
            "budget_remaining": self._budget_remaining(),
            "burn_rate": self._burn_rate(),
            "burn_window": self.recent.maxlen,
        }


class SloTracker:
    """Feeds request outcomes into both objectives; thread-safe."""

    def __init__(self, config: SloConfig = SloConfig()) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._latency = _Objective(
            "latency", config.latency_target, config.burn_window
        )
        self._availability = _Objective(
            "availability", config.availability_target, config.burn_window
        )

    def record(self, latency_s: float, status: int) -> None:
        """One finished request: its wall time and HTTP status.

        A request the server failed (5xx) counts against availability;
        only *successful* requests count toward the latency objective,
        so a fast error cannot buy back latency budget.
        """
        available = status < 500
        with self._lock:
            self._availability.record(available)
            if available:
                self._latency.record(
                    latency_s <= self.config.latency_threshold_s
                )

    def report(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "latency": {
                    "threshold_s": self.config.latency_threshold_s,
                    **self._latency.report(),
                },
                "availability": self._availability.report(),
            }
