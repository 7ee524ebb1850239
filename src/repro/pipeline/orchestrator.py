"""The retrain → shadow → promote → rollback state machine.

:class:`PipelineOrchestrator` closes the loop the drift subsystem
opened: where :class:`~repro.drift.monitor.RetrainTrigger` previously
just fired a callback, the orchestrator *is* that callback, and it
carries the remediation through end to end:

1. **idle** — armed; a traffic tap keeps a bounded
   :class:`~repro.pipeline.buffer.TrafficBuffer` of labelled rows.
2. **retraining** — the champion's verdict entered
   ``transfer_failed``: fit a fresh M5′ tree on the buffered traffic
   window and publish it to the registry under the ``candidate``
   alias.
3. **shadowing** — the candidate runs as challenger in the hub's
   :class:`~repro.drift.shadow.ShadowEvaluator` against live traffic.
4. **promoting → promoted** — on ``promote_challenger``, atomically
   flip the serving alias (:meth:`ModelRegistry.move_alias`) and
   append a hash-chained :class:`~repro.pipeline.promotions
   .PromotionLog` entry.  In-flight requests finish against the old
   model (the engine resolves aliases at submit time); the next batch
   serves the new one.
5. **rejected** — the shadow never qualified (sustained
   ``keep_champion`` or traffic budget exhausted): drop the candidate
   alias and re-arm.
6. **rolled_back** — ``repro rollback`` restored a prior model.

The orchestrator is *event-driven*, not a thread: it advances inside
the monitor's action callbacks, which the hub invokes from whatever
thread feeds :meth:`DriftHub.observe` (the serving engine's batch
worker, or an offline replay loop).  That makes the same code path
exact under replay and live serving, and leaves nothing to join on
shutdown.  A retrain is a synchronous tree fit on the feeding thread —
hundreds of milliseconds at the default buffer size.  The serving
engine feeds the hub on its batcher thread, so no caller waits for the
fit itself, but the fit holds the interpreter for most of that time:
requests that arrive meanwhile are slowed.

Every state change is journalled atomically
(:class:`~repro.pipeline.journal.PipelineJournal`), so a killed
process resumes cleanly: a death mid-``shadowing`` re-registers the
challenger and keeps the retrain latch held; mid-``retraining``
aborts to idle (the fit never published); mid-``promoting``
reconciles against the registry — if the alias already points at the
candidate the promotion landed and is recorded, otherwise the cycle
aborts.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.drift.monitor import DriftEvent, DriftVerdict, RetrainTrigger
from repro.durable import read_jsonl
from repro.mtree.tree import ModelTree, ModelTreeConfig
from repro.obs.metrics import counter, gauge
from repro.obs.trace import span as obs_span
from repro.pipeline.buffer import TrafficBuffer
from repro.pipeline.journal import PipelineJournal
from repro.pipeline.promotions import (
    PromotionChainError,
    PromotionLog,
    perform_rollback,
)
from repro.serve.registry import ModelNotFound

__all__ = ["PipelineState", "PipelineConfig", "PipelineOrchestrator"]


class PipelineState(enum.Enum):
    IDLE = "idle"
    RETRAINING = "retraining"
    SHADOWING = "shadowing"
    PROMOTING = "promoting"
    PROMOTED = "promoted"
    REJECTED = "rejected"
    ROLLED_BACK = "rolled_back"


#: Gauge encoding (mid-cycle states are 1-3, terminal outcomes 4-6).
_STATE_CODES = {
    PipelineState.IDLE: 0.0,
    PipelineState.RETRAINING: 1.0,
    PipelineState.SHADOWING: 2.0,
    PipelineState.PROMOTING: 3.0,
    PipelineState.PROMOTED: 4.0,
    PipelineState.REJECTED: 5.0,
    PipelineState.ROLLED_BACK: 6.0,
}

#: States from which a new cycle may start.
_RESTARTABLE = frozenset(
    {
        PipelineState.IDLE,
        PipelineState.PROMOTED,
        PipelineState.REJECTED,
        PipelineState.ROLLED_BACK,
    }
)

#: Process-wide pipeline traffic (summed over every orchestrator).
_CYCLES = counter("pipeline.cycles")
_RETRAINS = counter("pipeline.retrains")
_PROMOTIONS = counter("pipeline.promotions")
_REJECTIONS = counter("pipeline.rejections")
_ROLLBACKS = counter("pipeline.rollbacks")
_G_STATE = gauge("pipeline.state_code")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the retrain/shadow/promote loop."""

    #: The serving alias the pipeline defends (and flips on promote).
    alias: str = "latest"
    #: Where a freshly retrained model is published while shadowing.
    candidate_alias: str = "candidate"
    #: Labelled rows required before a retrain may run; with fewer,
    #: the cycle aborts and re-fires once enough traffic accumulated.
    #: The default is 1.5x the default monitor window: the hysteresis
    #: trigger fires after ~0.75 windows of failing traffic, and a
    #: candidate fitted on that little data rarely clears the paper's
    #: acceptance thresholds — waiting for half a window more trades a
    #: few batches of latency for a model that can actually promote.
    min_retrain_rows: int = 384
    #: Ring capacity of the traffic buffer (labelled rows kept).
    buffer_capacity: int = 4096
    #: Champion records observed while shadowing before the candidate
    #: is rejected as "never qualified".
    shadow_budget_records: int = 8192
    #: Consecutive keep_champion recommendations that reject the
    #: candidate early.
    reject_after_keeps: int = 3
    #: Hyperparameters of the retrained tree.
    tree: ModelTreeConfig = field(default_factory=ModelTreeConfig)

    def __post_init__(self) -> None:
        if self.min_retrain_rows < 2:
            raise ValueError(
                f"min_retrain_rows must be >= 2, got {self.min_retrain_rows}"
            )
        if self.buffer_capacity < self.min_retrain_rows:
            raise ValueError(
                f"buffer_capacity ({self.buffer_capacity}) must hold at "
                f"least min_retrain_rows ({self.min_retrain_rows})"
            )
        if self.shadow_budget_records < 1:
            raise ValueError(
                f"shadow_budget_records must be >= 1, "
                f"got {self.shadow_budget_records}"
            )
        if self.reject_after_keeps < 1:
            raise ValueError(
                f"reject_after_keeps must be >= 1, "
                f"got {self.reject_after_keeps}"
            )
        if self.alias == self.candidate_alias:
            raise ValueError(
                f"alias and candidate_alias must differ, got {self.alias!r}"
            )


class PipelineOrchestrator:
    """Drives the MLOps loop off drift verdicts; see module docstring."""

    def __init__(
        self,
        registry,
        hub,
        config: Optional[PipelineConfig] = None,
        promotions: Optional[PromotionLog] = None,
        journal: Optional[PipelineJournal] = None,
        events=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.registry = registry
        self.hub = hub
        self.config = config or PipelineConfig()
        root = getattr(registry, "root", None)
        if promotions is None:
            if root is None:
                raise ValueError(
                    "promotions log required for a registry without a root"
                )
            promotions = PromotionLog(root / "promotions.jsonl")
        if journal is None:
            if root is None:
                raise ValueError(
                    "journal required for a registry without a root"
                )
            journal = PipelineJournal(root / "pipeline_state.json")
        self.promotions = promotions
        self.journal = journal
        self._events = events
        self._clock = clock
        # Reentrant: the trigger callback runs inside _on_event, which
        # already holds the lock.
        self._lock = threading.RLock()
        self._state = PipelineState.IDLE
        self._cycle: Optional[Dict[str, Any]] = None
        self._cycles: Deque[Dict[str, Any]] = deque(maxlen=16)
        self._cycle_count = 0
        self._pending_retry = False
        self._keep_streak = 0
        self._shadow_records = 0
        self.buffer = TrafficBuffer(self.config.buffer_capacity)
        self.trigger = RetrainTrigger(self._start_cycle, debounce=True)
        self._resume()
        hub.add_tap(self._tap)
        hub.add_action(self._on_event)
        _G_STATE.set(_STATE_CODES[self._state])

    # -- hub hooks -------------------------------------------------------

    def _champion_id(self) -> Optional[str]:
        try:
            return self.registry.resolve(self.config.alias)
        except ModelNotFound:
            return None

    def _tap(self, model_id, X, predictions, actuals) -> None:
        """Hub tap: buffer the champion's labelled traffic."""
        if model_id != self._champion_id():
            return
        self.buffer.extend(X, actuals)
        with self._lock:
            if self._state is PipelineState.SHADOWING:
                self._shadow_records += int(len(predictions))

    def _on_event(self, event: DriftEvent) -> None:
        """Monitor action: advance the state machine for one verdict."""
        with self._lock:
            if event.model_id != self._champion_id():
                return
            if self._state is PipelineState.SHADOWING:
                self._poll_shadow()
                return
            self.trigger(event)
            if (
                self._pending_retry
                and self._state in _RESTARTABLE
                and event.verdict is DriftVerdict.TRANSFER_FAILED
                and self.buffer.n >= self.config.min_retrain_rows
            ):
                # An earlier cycle aborted for lack of data and the
                # verdict never left TRANSFER_FAILED, so no fresh
                # transition will fire the trigger — re-kick manually
                # now that enough labelled traffic accumulated.
                self._pending_retry = False
                self.trigger.fire(event)

    # -- the cycle -------------------------------------------------------

    def _start_cycle(self, event: DriftEvent) -> None:
        """RetrainTrigger callback: begin a retrain/shadow cycle."""
        with self._lock:
            if self._state not in _RESTARTABLE:
                # A concurrent cycle slipped past the latch (e.g. a
                # resume held it); never interleave two cycles.
                return
            _CYCLES.inc()
            self._cycle_count += 1
            self._cycle = {
                "id": self._cycle_count,
                "champion": event.model_id,
                "trigger_seq": event.seq,
                "trigger_records_seen": event.records_seen,
                "started_unix": self._clock(),
                "candidate": None,
            }
            self._keep_streak = 0
            self._shadow_records = 0
            self._set_state(
                PipelineState.RETRAINING,
                note=f"transfer_failed after {event.records_seen} records",
            )
            self._retrain(event)

    def _retrain(self, event: DriftEvent) -> None:
        # Caller holds the lock and has journalled RETRAINING.
        X, y = self.buffer.labelled()
        if len(y) < self.config.min_retrain_rows:
            self._pending_retry = True
            self._finish(
                PipelineState.IDLE,
                note=(
                    f"retrain aborted: {len(y)} labelled rows buffered, "
                    f"need {self.config.min_retrain_rows}; will re-fire"
                ),
            )
            return
        champion_record = self.registry.record(event.model_id)
        with obs_span("pipeline.retrain", rows=len(y)):
            tree = ModelTree(self.config.tree).fit(
                X, y, champion_record.feature_names
            )
        _RETRAINS.inc()
        candidate = self.registry.publish(
            tree,
            metadata={
                "origin": "pipeline",
                "retrained_from": event.model_id,
                "trigger": {
                    "verdict": event.verdict.value,
                    "seq": event.seq,
                    "records_seen": event.records_seen,
                },
                "n_train": int(len(y)),
                "train_y": {
                    "n": int(len(y)),
                    "mean": float(y.mean()),
                    "var": float(y.var(ddof=1)),
                },
            },
            aliases=(self.config.candidate_alias,),
        )
        assert self._cycle is not None
        self._cycle["candidate"] = candidate.model_id
        self._cycle["retrain_rows"] = int(len(y))
        if candidate.model_id == event.model_id:
            # Retraining reproduced the failing model bit-identically —
            # the traffic window carries no new signal; shadowing it
            # against itself could never promote.
            self.registry.drop_alias(
                self.config.candidate_alias,
                reason="candidate identical to champion",
                actor="pipeline",
            )
            self._finish(
                PipelineState.REJECTED,
                note="candidate identical to champion",
            )
            return
        self.hub.set_shadow(event.model_id, candidate.model_id)
        self._set_state(
            PipelineState.SHADOWING,
            note=(
                f"candidate {candidate.model_id} retrained on {len(y)} "
                f"rows, shadowing against {event.model_id}"
            ),
        )

    def _poll_shadow(self) -> None:
        # Caller holds the lock; state is SHADOWING.
        shadow = self.hub.shadow
        if shadow is None:
            # The pair vanished under us (external clear): abort.
            self._abort_candidate("shadow evaluator disappeared")
            return
        rec = shadow.recommendation()
        recommendation = rec.get("recommendation")
        if recommendation == "promote_challenger":
            self._promote(rec)
            return
        if recommendation == "keep_champion":
            self._keep_streak += 1
            if self._keep_streak >= self.config.reject_after_keeps:
                self._abort_candidate(
                    f"shadow kept champion {self._keep_streak} "
                    f"evaluations in a row"
                )
                return
        if self._shadow_records > self.config.shadow_budget_records:
            self._abort_candidate(
                f"shadow budget exhausted "
                f"({self._shadow_records} records observed)"
            )

    def _shadow_metrics(self, rec: Dict[str, Any]) -> Dict[str, Any]:
        metrics: Dict[str, Any] = {}
        for side in ("champion", "challenger"):
            payload = rec.get(side)
            if isinstance(payload, dict):
                metrics[side] = {
                    "rolling_c": payload.get("rolling_c"),
                    "rolling_mae": payload.get("rolling_mae"),
                    "n_labelled": payload.get("n_labelled"),
                    "meets_thresholds": payload.get("meets_thresholds"),
                }
        return metrics

    def _promote(self, rec: Dict[str, Any]) -> None:
        # Caller holds the lock.
        assert self._cycle is not None
        candidate = self._cycle["candidate"]
        self._set_state(
            PipelineState.PROMOTING,
            note=f"flipping {self.config.alias!r} to {candidate}",
        )
        with obs_span("pipeline.promote", candidate=candidate):
            move = self.registry.move_alias(
                self.config.alias,
                candidate,
                reason=rec.get("reason"),
                actor="pipeline",
            )
            entry = self.promotions.append(
                action="promote",
                alias=self.config.alias,
                from_id=move.get("from"),
                to_id=candidate,
                why=str(rec.get("reason")),
                verdict=str(rec.get("recommendation")),
                metrics=self._shadow_metrics(rec),
                actor="pipeline",
            )
        self._cycle["promotion_seq"] = entry["seq"]
        self.hub.clear_shadow()
        self.registry.drop_alias(
            self.config.candidate_alias,
            reason="promoted",
            actor="pipeline",
        )
        # The displaced champion's traffic no longer reflects the new
        # model; the next cycle retrains on traffic it actually served.
        self.buffer.clear()
        _PROMOTIONS.inc()
        self._finish(
            PipelineState.PROMOTED,
            note=f"{self.config.alias!r} -> {candidate}",
        )

    def _abort_candidate(self, why: str) -> None:
        # Caller holds the lock; reject the in-flight candidate.
        self.hub.clear_shadow()
        self.registry.drop_alias(
            self.config.candidate_alias, reason=why, actor="pipeline"
        )
        _REJECTIONS.inc()
        self._finish(PipelineState.REJECTED, note=why)

    def _finish(self, state: PipelineState, note: str) -> None:
        # Caller holds the lock.
        if self._cycle is not None:
            self._cycle["finished_unix"] = self._clock()
            self._cycle["outcome"] = state.value
            self._cycle["note"] = note
            self._cycles.append(self._cycle)
            self._cycle = None
        self.trigger.release()
        self._set_state(state, note=note)

    def _set_state(self, state: PipelineState, note: Optional[str] = None):
        # Caller holds the lock.
        self._state = state
        _G_STATE.set(_STATE_CODES[state])
        self.journal.write(state.value, cycle=self._cycle, note=note)
        if self._events is not None:
            self._events.append(
                {
                    "kind": "pipeline",
                    "stage": state.value,
                    "cycle": (
                        self._cycle["id"] if self._cycle is not None else None
                    ),
                    "note": note,
                }
            )

    # -- rollback --------------------------------------------------------

    def rollback(
        self, to: Optional[str] = None, why: Optional[str] = None
    ) -> Dict[str, Any]:
        """Restore the serving alias to a prior model; re-arm the loop.

        Aborts any in-flight cycle first (its candidate is dropped),
        then delegates the verified alias flip to
        :func:`~repro.pipeline.promotions.perform_rollback`.
        """
        with self._lock:
            if self._state in (
                PipelineState.RETRAINING,
                PipelineState.SHADOWING,
                PipelineState.PROMOTING,
            ):
                self._abort_candidate("rollback requested mid-cycle")
            entry = perform_rollback(
                self.registry,
                self.promotions,
                alias=self.config.alias,
                to=to,
                why=why,
                actor="pipeline",
            )
            _ROLLBACKS.inc()
            self._pending_retry = False
            self.trigger.release()
            self._set_state(
                PipelineState.ROLLED_BACK,
                note=f"{self.config.alias!r} -> {entry['to']}",
            )
            return entry

    # -- crash-safe resume ----------------------------------------------

    def _resume(self) -> None:
        journalled = self.journal.read()
        if journalled is None:
            return
        state = journalled.get("state")
        cycle = journalled.get("cycle")
        candidate = cycle.get("candidate") if isinstance(cycle, dict) else None
        champion = cycle.get("champion") if isinstance(cycle, dict) else None
        if state == PipelineState.SHADOWING.value and candidate:
            try:
                self.hub.set_shadow(self.config.alias, candidate)
            except ModelNotFound:
                self._set_state(
                    PipelineState.IDLE,
                    note=f"resume: candidate {candidate} gone, cycle aborted",
                )
                return
            self._cycle = dict(cycle)
            self._state = PipelineState.SHADOWING
            self.trigger.hold()  # the interrupted cycle is still in flight
            self._set_state(
                PipelineState.SHADOWING,
                note=f"resume: shadowing candidate {candidate}",
            )
        elif state == PipelineState.RETRAINING.value:
            # The fit never published (publish precedes the SHADOWING
            # journal write), so there is nothing to salvage.
            self._set_state(
                PipelineState.IDLE,
                note="resume: retrain interrupted, cycle aborted",
            )
        elif state == PipelineState.PROMOTING.value and candidate:
            # The flip may or may not have landed; the registry knows.
            current = self._champion_id()
            if current == candidate:
                try:
                    last = self.promotions.last_entry(alias=self.config.alias)
                except PromotionChainError:
                    # A torn final entry never committed; append() cuts
                    # it, and raises if any other line is bad.
                    last = None
                if not (last and last.get("to") == candidate):
                    # Alias flipped but the trail write was lost:
                    # record a recovery entry so the trail stays the
                    # system of record.
                    self.promotions.append(
                        action="promote",
                        alias=self.config.alias,
                        from_id=champion,
                        to_id=candidate,
                        why="recovered from interrupted promotion",
                        verdict="promote_challenger",
                        actor="pipeline-resume",
                    )
                self.registry.drop_alias(
                    self.config.candidate_alias,
                    reason="promoted (recovered)",
                    actor="pipeline-resume",
                )
                self._set_state(
                    PipelineState.PROMOTED,
                    note=f"resume: promotion of {candidate} had landed",
                )
            else:
                self.registry.drop_alias(
                    self.config.candidate_alias,
                    reason="promotion interrupted",
                    actor="pipeline-resume",
                )
                self._set_state(
                    PipelineState.IDLE,
                    note=(
                        f"resume: promotion of {candidate} never landed, "
                        f"cycle aborted"
                    ),
                )
        else:
            # Terminal or idle states carry nothing to resume; start
            # armed from where the journal left off.
            try:
                self._state = PipelineState(state)
            except ValueError:
                self._state = PipelineState.IDLE

    # -- reading ---------------------------------------------------------

    @property
    def state(self) -> PipelineState:
        with self._lock:
            return self._state

    def report(self) -> Dict[str, Any]:
        """JSON-ready rollup for ``/v1/pipeline`` and the status doc."""
        with self._lock:
            state = self._state
            cycle = dict(self._cycle) if self._cycle is not None else None
            recent = [dict(c) for c in self._cycles]
            pending_retry = self._pending_retry
            keep_streak = self._keep_streak
            shadow_records = self._shadow_records
        entries, _ = read_jsonl(self.promotions.path)  # even if broken
        try:
            self.promotions.verify()
            chain_valid = True
        except PromotionChainError:
            chain_valid = False
        return {
            "armed": True,
            "state": state.value,
            "alias": self.config.alias,
            "candidate_alias": self.config.candidate_alias,
            "champion": self._champion_id(),
            "cycle": cycle,
            "recent_cycles": recent,
            "pending_retry": pending_retry,
            "shadow": {
                "keep_streak": keep_streak,
                "records_observed": shadow_records,
                "budget_records": self.config.shadow_budget_records,
            },
            "buffer": {
                "capacity": self.buffer.capacity,
                "n": self.buffer.n,
                "total_seen": self.buffer.total_seen,
                "min_retrain_rows": self.config.min_retrain_rows,
            },
            "trigger": {
                "fired": self.trigger.fired,
                "suppressed": self.trigger.suppressed,
                "in_flight": self.trigger.in_flight,
            },
            "promotions": {
                "path": str(self.promotions.path),
                "entries": len(entries),
                "chain_valid": chain_valid,
                "tail": entries[-5:],
            },
            "journal": str(self.journal.path),
        }
