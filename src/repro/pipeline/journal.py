"""Crash-safe journal of the orchestrator's current state.

One small JSON document, rewritten atomically (:mod:`repro.durable`)
on every state change.  A restarted orchestrator reads it to decide
whether the previous process died mid-cycle and what to do about it —
resume shadowing, abort a half-done retrain, or reconcile a promotion
that may or may not have landed (see ``PipelineOrchestrator._resume``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.durable import atomic_write

__all__ = ["JOURNAL_SCHEMA", "PipelineJournal"]

JOURNAL_SCHEMA = "repro-pipeline-journal-v1"


class PipelineJournal:
    """Atomic single-document journal for one orchestrator."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def write(
        self,
        state: str,
        cycle: Optional[Dict[str, Any]] = None,
        note: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "state": state,
            "cycle": dict(cycle) if cycle is not None else None,
            "note": note,
            "unix_time": time.time(),
        }
        atomic_write(
            self.path, json.dumps(payload, sort_keys=True, indent=2).encode()
        )
        return payload

    def read(self) -> Optional[Dict[str, Any]]:
        """The journalled document, or None if absent/unparseable.

        An unparseable journal (torn write from a crash before the
        atomic-replace discipline existed, disk corruption) is treated
        as no journal: the orchestrator starts idle rather than
        refusing to start.
        """
        if not self.path.is_file():
            return None
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != JOURNAL_SCHEMA:
            return None
        return payload
