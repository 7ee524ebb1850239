"""Online transferability monitoring for served CPI models.

The batch experiments (E7/E8) answer the paper's Section VI question
once, offline: does a model trained on suite L1 transfer to suite L2?
This package answers it *continuously*, over the traffic a deployed
model actually sees:

* :mod:`~repro.drift.window` — a fixed-memory ring of the latest
  records; each snapshot recomputes their statistics exactly.
* :mod:`~repro.drift.stats` — the Section VI battery (Eqs. 8-13 plus
  Eq. 4 leaf-profile distance) as detectors over window snapshots.
* :mod:`~repro.drift.monitor` — the verdict state machine with
  hysteresis, obs gauges and pluggable actions (log, JSONL audit,
  retrain trigger).
* :mod:`~repro.drift.shadow` — champion/challenger evaluation.
* :mod:`~repro.drift.hub` — per-model fan-out for a serving process.
"""

from repro.drift.hub import DriftHub
from repro.drift.monitor import (
    DriftEvent,
    DriftMonitor,
    DriftMonitorConfig,
    DriftVerdict,
    JsonlAudit,
    LogSink,
    ModelProfile,
    RetrainTrigger,
)
from repro.drift.shadow import ShadowEvaluator
from repro.drift.stats import (
    DependentTTest,
    DetectorReading,
    DetectorStatus,
    DriftCriteria,
    LeafProfileDrift,
    PredictionTTest,
    RollingCorrelation,
    RollingMae,
    build_detectors,
)
from repro.drift.window import StreamWindow, WindowSnapshot

__all__ = [
    "DriftHub",
    "DriftEvent",
    "DriftMonitor",
    "DriftMonitorConfig",
    "DriftVerdict",
    "JsonlAudit",
    "LogSink",
    "ModelProfile",
    "RetrainTrigger",
    "ShadowEvaluator",
    "DependentTTest",
    "DetectorReading",
    "DetectorStatus",
    "DriftCriteria",
    "LeafProfileDrift",
    "PredictionTTest",
    "RollingCorrelation",
    "RollingMae",
    "build_detectors",
    "StreamWindow",
    "WindowSnapshot",
]
