"""The drift monitor: verdict state machine, actions, obs gauges.

A :class:`DriftMonitor` watches one deployed model's traffic and
continuously answers the paper's Section VI question — "does this
model still transfer to what it is seeing?" — as a typed
:class:`DriftVerdict`:

* ``INSUFFICIENT_DATA`` — not enough (labelled) traffic yet.
* ``OK`` — the rolling battery passes: C above / MAE below the
  acceptance thresholds, |t| under the critical value, leaf profile
  near the training profile.
* ``WARN`` — at least one detector breached on the latest evaluation.
* ``TRANSFER_FAILED`` — breaches persisted for ``fail_after``
  consecutive evaluations: the live confirmation of the paper's
  cross-suite result (C ≈ 0.43, MAE ≈ 0.37, t ≫ 1.96).

Hysteresis prevents flapping in both directions: escalation to
TRANSFER_FAILED needs ``fail_after`` consecutive breaching
evaluations, and recovery to OK needs ``recover_after`` consecutive
clean ones.  A single noisy window moves the monitor to WARN, then
back to OK once the clean streak completes — never to
TRANSFER_FAILED.

Every evaluation publishes gauges into the process-wide
:mod:`repro.obs.metrics` registry (so a serving ``/metrics`` scrape
sees ``repro_drift_<model>_rolling_c`` etc.) and is offered to the
configured actions: :class:`LogSink`, :class:`JsonlAudit`, and
:class:`RetrainTrigger` cover the log/audit/retrain trio, and any
callable of one :class:`DriftEvent` plugs in the same way.
"""

from __future__ import annotations

import enum
import math
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.drift.stats import (
    DetectorReading,
    DetectorStatus,
    DriftCriteria,
    build_detectors,
)
from repro.drift.window import StreamWindow
from repro.durable import append_jsonl
from repro.obs.metrics import counter, gauge
from repro.stats.transfer import SampleMoments

__all__ = [
    "DriftVerdict",
    "ModelProfile",
    "DriftMonitorConfig",
    "DriftEvent",
    "DriftMonitor",
    "LogSink",
    "JsonlAudit",
    "RetrainTrigger",
]


class DriftVerdict(enum.Enum):
    INSUFFICIENT_DATA = "insufficient_data"
    OK = "ok"
    WARN = "warn"
    TRANSFER_FAILED = "transfer_failed"


#: Gauge encoding of the verdict (0 is healthy, higher is worse).
_VERDICT_CODES = {
    DriftVerdict.INSUFFICIENT_DATA: -1.0,
    DriftVerdict.OK: 0.0,
    DriftVerdict.WARN: 1.0,
    DriftVerdict.TRANSFER_FAILED: 2.0,
}


@dataclass(frozen=True)
class ModelProfile:
    """What the monitor knows about the model's training distribution.

    ``training_y`` (the training split's CPI moments) powers the
    dependent-variable t-test; the leaf vocabulary and training shares
    power the Eq. 4 profile detector.  Either may be absent — the
    battery degrades gracefully.
    """

    model_id: str
    leaf_names: Tuple[str, ...] = ()
    training_leaf_shares_pct: Dict[str, float] = field(default_factory=dict)
    training_y: Optional[SampleMoments] = None

    @staticmethod
    def from_tree(
        model_id: str,
        tree,
        training_y: Optional[SampleMoments] = None,
    ) -> "ModelProfile":
        """Profile a fitted :class:`~repro.mtree.tree.ModelTree`."""
        leaves = tree.leaves()
        return ModelProfile(
            model_id=model_id,
            leaf_names=tuple(leaf.name for leaf in leaves),
            training_leaf_shares_pct={
                leaf.name: 100.0 * leaf.share for leaf in leaves
            },
            training_y=training_y,
        )

    @staticmethod
    def from_record(record, tree) -> "ModelProfile":
        """Profile a registry (record, tree) pair.

        ``repro publish`` stores the training CPI moments under the
        ``train_y`` metadata key; models published before that key
        existed simply run without the dependent-variable test.
        """
        training_y = None
        payload = record.metadata.get("train_y")
        if isinstance(payload, dict):
            try:
                training_y = SampleMoments(
                    n=int(payload["n"]),
                    mean=float(payload["mean"]),
                    var=float(payload["var"]),
                )
            except (KeyError, TypeError, ValueError):
                training_y = None
        return ModelProfile.from_tree(
            record.model_id, tree, training_y=training_y
        )


@dataclass(frozen=True)
class DriftMonitorConfig:
    """Window geometry, thresholds and hysteresis for one monitor."""

    window: int = 256
    criteria: DriftCriteria = field(default_factory=DriftCriteria)
    fail_after: int = 3
    recover_after: int = 3

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.fail_after < 1:
            raise ValueError(f"fail_after must be >= 1, got {self.fail_after}")
        if self.recover_after < 1:
            raise ValueError(
                f"recover_after must be >= 1, got {self.recover_after}"
            )


@dataclass(frozen=True)
class DriftEvent:
    """One evaluation of the battery, as delivered to actions."""

    model_id: str
    seq: int
    records_seen: int
    window_n: int
    n_labelled: int
    verdict: DriftVerdict
    previous_verdict: DriftVerdict
    changed: bool
    readings: Tuple[DetectorReading, ...]
    unix_time: float

    @property
    def breaches(self) -> Tuple[DetectorReading, ...]:
        return tuple(r for r in self.readings if r.breached)

    def as_dict(self) -> Dict[str, object]:
        return {
            "model_id": self.model_id,
            "seq": self.seq,
            "records_seen": self.records_seen,
            "window_n": self.window_n,
            "n_labelled": self.n_labelled,
            "verdict": self.verdict.value,
            "previous_verdict": self.previous_verdict.value,
            "changed": self.changed,
            "readings": [r.as_dict() for r in self.readings],
            "unix_time": self.unix_time,
        }


class LogSink:
    """Print verdict transitions (or every evaluation) to a stream."""

    def __init__(self, stream=None, only_changes: bool = True) -> None:
        self._stream = stream
        self.only_changes = only_changes

    def __call__(self, event: DriftEvent) -> None:
        if self.only_changes and not event.changed:
            return
        stream = self._stream if self._stream is not None else sys.stderr
        breaches = "; ".join(str(r) for r in event.breaches) or "none"
        print(
            f"[drift] model {event.model_id} verdict "
            f"{event.previous_verdict.value} -> {event.verdict.value} "
            f"after {event.records_seen} records (breaches: {breaches})",
            file=stream,
        )


class JsonlAudit:
    """Append every evaluation to a JSONL audit trail."""

    def __init__(self, path) -> None:
        self.path = path

    def __call__(self, event: DriftEvent) -> None:
        append_jsonl(self.path, event.as_dict())


class RetrainTrigger:
    """Invoke a callback when the verdict enters TRANSFER_FAILED.

    Fires on the *transition* (once per failure episode, not once per
    evaluation) — the callback is the hook a deployment wires to its
    retraining pipeline.

    With ``debounce=True`` the trigger also carries an in-flight
    latch: once fired it stays silent — counting the suppressed
    attempts — until :meth:`release` is called, so a sustained
    ``transfer_failed`` streak (or repeated fail/recover flapping)
    cannot start a second retrain/shadow cycle while one is already
    running.  The pipeline orchestrator releases the latch when its
    cycle finishes (promoted, rejected, or aborted).
    """

    def __init__(
        self,
        callback: Callable[[DriftEvent], None],
        debounce: bool = False,
    ) -> None:
        self.callback = callback
        self.debounce = debounce
        self.fired = 0
        self.suppressed = 0
        self._lock = threading.Lock()
        self._in_flight = False

    def __call__(self, event: DriftEvent) -> None:
        if event.changed and event.verdict is DriftVerdict.TRANSFER_FAILED:
            self.fire(event)

    def fire(self, event: DriftEvent) -> bool:
        """Attempt to fire for ``event``, honouring the latch.

        Returns True if the callback ran.  Used directly (bypassing
        the transition check) when a caller needs to re-kick a cycle
        for a verdict that is *still* TRANSFER_FAILED — e.g. after an
        aborted retrain — without waiting for a fresh transition.
        """
        with self._lock:
            if self.debounce and self._in_flight:
                self.suppressed += 1
                return False
            if self.debounce:
                self._in_flight = True
            self.fired += 1
        self.callback(event)
        return True

    def hold(self) -> None:
        """Engage the latch without firing (crash-resume bookkeeping)."""
        with self._lock:
            if self.debounce:
                self._in_flight = True

    def release(self) -> None:
        """Release the in-flight latch; the next failure may fire again."""
        with self._lock:
            self._in_flight = False

    @property
    def in_flight(self) -> bool:
        with self._lock:
            return self._in_flight


class DriftMonitor:
    """Streams one model's traffic through the Section VI battery.

    Thread-safe: the serving engine's worker feeds :meth:`observe`
    while HTTP handler threads read :meth:`report`.
    """

    def __init__(
        self,
        profile: ModelProfile,
        config: Optional[DriftMonitorConfig] = None,
        actions: Sequence[Callable[[DriftEvent], None]] = (),
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.profile = profile
        self.config = config or DriftMonitorConfig()
        self.actions = tuple(actions)
        self._clock = clock
        self._lock = threading.Lock()
        self._window = StreamWindow(
            self.config.window, n_leaves=len(profile.leaf_names)
        )
        self._leaf_index = {
            name: i for i, name in enumerate(profile.leaf_names)
        }
        self._detectors = build_detectors(
            self.config.criteria,
            training_y=profile.training_y,
            leaf_names=profile.leaf_names,
            training_shares_pct=(
                profile.training_leaf_shares_pct or None
            ),
        )
        self._verdict = DriftVerdict.INSUFFICIENT_DATA
        self._breach_streak = 0
        self._clean_streak = 0
        self._seq = 0
        self._last_event: Optional[DriftEvent] = None
        self._verdict_since_seen = 0
        # Bounded memory of verdict transitions, oldest dropped first —
        # the dashboard's "what happened to this model" timeline.
        self._transitions: Deque[Dict[str, object]] = deque(maxlen=32)
        # obs instruments (name-stable per model id).
        prefix = f"drift.{profile.model_id}"
        self._g_verdict = gauge(f"{prefix}.verdict_code")
        self._gauges = {
            "rolling_c": gauge(f"{prefix}.rolling_c"),
            "rolling_mae": gauge(f"{prefix}.rolling_mae"),
            "dependent_t": gauge(f"{prefix}.dependent_t"),
            "prediction_t": gauge(f"{prefix}.prediction_t"),
            "leaf_l1": gauge(f"{prefix}.leaf_l1_pct"),
        }
        self._c_evaluations = counter(f"{prefix}.evaluations")
        self._c_transitions = counter(f"{prefix}.verdict_changes")
        self._c_records = counter(f"{prefix}.records")

    # -- feeding ---------------------------------------------------------

    def leaf_indices(self, leaf_names) -> np.ndarray:
        """Map an array of leaf names to window indices (-1 = unknown)."""
        index = self._leaf_index
        return np.fromiter(
            (index.get(name, -1) for name in leaf_names),
            dtype=np.int64,
            count=len(leaf_names),
        )

    def observe(
        self,
        predictions,
        actuals=None,
        leaves=None,
    ) -> DriftEvent:
        """Feed one batch and evaluate the battery once.

        ``leaves`` may be leaf *names* (as
        :meth:`~repro.mtree.tree.ModelTree.assign_leaves` returns) or
        integer indices into the profile's leaf vocabulary.
        """
        predictions = np.asarray(predictions, dtype=float).ravel()
        if leaves is not None:
            leaves = np.asarray(leaves)
            if leaves.dtype.kind not in "iu":
                leaves = self.leaf_indices(leaves)
        with self._lock:
            self._window.extend(predictions, actuals, leaves)
            self._c_records.inc(int(predictions.size))
            event = self._evaluate()
        for action in self.actions:
            action(event)
        return event

    # -- the verdict state machine --------------------------------------

    def _evaluate(self) -> DriftEvent:
        # Caller holds the lock.
        snapshot = self._window.snapshot()
        readings = tuple([d.read(snapshot) for d in self._detectors])
        previous = self._verdict
        if all(
            r.status is DetectorStatus.INSUFFICIENT for r in readings
        ):
            # Nothing measurable yet: streaks and verdict are untouched.
            verdict = previous
        else:
            if any(r.status is DetectorStatus.BREACH for r in readings):
                self._breach_streak += 1
                self._clean_streak = 0
            else:
                self._clean_streak += 1
                self._breach_streak = 0
            verdict = self._next_verdict(previous)
        changed = verdict is not previous
        self._verdict = verdict
        self._seq += 1
        if changed:
            self._verdict_since_seen = self._window.total_seen
            self._transitions.append(
                {
                    "seq": self._seq,
                    "from": previous.value,
                    "to": verdict.value,
                    "records_seen": self._window.total_seen,
                    "unix_time": self._clock(),
                }
            )
        event = DriftEvent(
            model_id=self.profile.model_id,
            seq=self._seq,
            records_seen=self._window.total_seen,
            window_n=snapshot.n,
            n_labelled=snapshot.n_labelled,
            verdict=verdict,
            previous_verdict=previous,
            changed=changed,
            readings=readings,
            unix_time=self._clock(),
        )
        self._last_event = event
        self._publish_metrics(event)
        return event

    def _next_verdict(self, previous: DriftVerdict) -> DriftVerdict:
        cfg = self.config
        if self._breach_streak >= cfg.fail_after:
            return DriftVerdict.TRANSFER_FAILED
        if self._breach_streak >= 1:
            # Escalate out of healthy states immediately; an already
            # failed model stays failed until it proves recovery.
            if previous is DriftVerdict.TRANSFER_FAILED:
                return DriftVerdict.TRANSFER_FAILED
            return DriftVerdict.WARN
        if self._clean_streak >= cfg.recover_after:
            return DriftVerdict.OK
        if previous in (DriftVerdict.INSUFFICIENT_DATA, DriftVerdict.OK):
            # A healthy monitor doesn't need the full recovery streak.
            return DriftVerdict.OK
        return previous

    def _publish_metrics(self, event: DriftEvent) -> None:
        self._c_evaluations.inc()
        if event.changed:
            self._c_transitions.inc()
        self._g_verdict.set(_VERDICT_CODES[event.verdict])
        for reading in event.readings:
            instrument = self._gauges.get(reading.detector)
            if instrument is not None and math.isfinite(reading.value):
                instrument.set(float(reading.value))

    # -- reading ---------------------------------------------------------

    @property
    def verdict(self) -> DriftVerdict:
        with self._lock:
            return self._verdict

    @property
    def last_event(self) -> Optional[DriftEvent]:
        with self._lock:
            return self._last_event

    def report(self) -> Dict[str, object]:
        """JSON-ready summary for the ``/drift`` endpoint and the CLI."""
        with self._lock:
            snapshot = self._window.snapshot()
            event = self._last_event
            criteria = self.config.criteria
            return {
                "model_id": self.profile.model_id,
                "verdict": self._verdict.value,
                "verdict_since_record": self._verdict_since_seen,
                "evaluations": self._seq,
                "records_seen": snapshot.total_seen,
                "window": {
                    "capacity": self.config.window,
                    "n": snapshot.n,
                    "n_labelled": snapshot.n_labelled,
                },
                "thresholds": {
                    "min_correlation": criteria.transfer.min_correlation,
                    "max_mae": criteria.transfer.max_mae,
                    "confidence": criteria.transfer.confidence,
                    "max_leaf_l1_pct": criteria.max_leaf_l1_pct,
                    "min_labelled": criteria.min_labelled,
                },
                "hysteresis": {
                    "fail_after": self.config.fail_after,
                    "recover_after": self.config.recover_after,
                    "breach_streak": self._breach_streak,
                    "clean_streak": self._clean_streak,
                },
                "readings": (
                    [r.as_dict() for r in event.readings]
                    if event is not None
                    else []
                ),
                "transitions": [dict(t) for t in self._transitions],
            }
