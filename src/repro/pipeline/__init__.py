"""The MLOps loop: retrain → shadow → promote → rollback.

:mod:`repro.drift` *detects* that a served model stopped transferring
(the paper's Section VI result, live); this package *remediates* it:

* :mod:`~repro.pipeline.buffer` — bounded raw-traffic ring the
  retrain fits against.
* :mod:`~repro.pipeline.orchestrator` — the event-driven state
  machine (idle → retraining → shadowing → promoting →
  promoted | rejected | rolled_back) wired into the drift hub.
* :mod:`~repro.pipeline.promotions` — hash-chained, append-only
  promotion audit trail plus one-command rollback.
* :mod:`~repro.pipeline.journal` — crash-safe orchestrator state.
* :mod:`~repro.pipeline.gc` — registry garbage collection that never
  collects anything the trail (hence a rollback) can still reach.
* :mod:`~repro.pipeline.replay` — offline end-to-end replay
  (``repro pipeline run``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "TrafficBuffer": "repro.pipeline.buffer",
    "collect_garbage": "repro.pipeline.gc",
    "JOURNAL_SCHEMA": "repro.pipeline.journal",
    "PipelineJournal": "repro.pipeline.journal",
    "PipelineConfig": "repro.pipeline.orchestrator",
    "PipelineOrchestrator": "repro.pipeline.orchestrator",
    "PipelineState": "repro.pipeline.orchestrator",
    "GENESIS_HASH": "repro.pipeline.promotions",
    "PROMOTIONS_SCHEMA": "repro.pipeline.promotions",
    "PromotionChainError": "repro.pipeline.promotions",
    "PromotionLog": "repro.pipeline.promotions",
    "perform_rollback": "repro.pipeline.promotions",
    "run_pipeline_replay": "repro.pipeline.replay",
}

__all__ = [
    "TrafficBuffer",
    "collect_garbage",
    "JOURNAL_SCHEMA",
    "PipelineJournal",
    "PipelineConfig",
    "PipelineOrchestrator",
    "PipelineState",
    "GENESIS_HASH",
    "PROMOTIONS_SCHEMA",
    "PromotionChainError",
    "PromotionLog",
    "perform_rollback",
    "run_pipeline_replay",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
