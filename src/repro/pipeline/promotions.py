"""Hash-chained, append-only promotion audit trail.

Every alias flip the pipeline performs — promotion or rollback — is
recorded as one JSON line in ``promotions.jsonl``.  Entries form a
hash chain: each embeds the SHA-256 of its predecessor
(``prev_hash``, genesis ``"0" * 64``) and its own hash over the
canonical JSON of everything *except* the ``hash`` field, so any
edit, deletion, or reordering anywhere in the file breaks
verification from that point on.  :meth:`PromotionLog.verify` walks
the chain and raises :class:`PromotionChainError` with the offending
sequence number.

The trail is the system of record for "what served as ``latest`` and
why": ``repro promotions`` prints it, ``repro rollback`` derives its
default target from it, and ``repro registry gc`` treats every model
id it mentions as reachable (so a rollback target can never be
collected).

The file follows :mod:`repro.durable`'s commit rule.  Only
:meth:`PromotionLog.append` cuts a torn final entry, under the file
lock and before it reads the chain; the read paths raise on it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.durable import locked_append, read_jsonl

__all__ = [
    "PROMOTIONS_SCHEMA",
    "GENESIS_HASH",
    "PromotionChainError",
    "PromotionLog",
    "perform_rollback",
]

PROMOTIONS_SCHEMA = "repro-promotion-v1"

#: The prev_hash of the first entry in a chain.
GENESIS_HASH = "0" * 64


class PromotionChainError(Exception):
    """The promotion trail failed hash-chain verification."""


def _entry_hash(entry: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of the entry minus its hash."""
    body = {k: v for k, v in entry.items() if k != "hash"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class PromotionLog:
    """Append-only JSONL log whose entries form a hash chain."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    # -- writing ---------------------------------------------------------

    def append(
        self,
        action: str,
        alias: str,
        from_id: Optional[str],
        to_id: str,
        why: str,
        verdict: Optional[str] = None,
        metrics: Optional[Mapping[str, Any]] = None,
        actor: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Record one alias flip; returns the appended entry."""
        with self._lock, locked_append(self.path) as write:
            tail = self._entries_unlocked()
            prev_hash = tail[-1]["hash"] if tail else GENESIS_HASH
            entry: Dict[str, Any] = {
                "schema": PROMOTIONS_SCHEMA,
                "seq": len(tail),
                "action": action,
                "alias": alias,
                "from": from_id,
                "to": to_id,
                "why": why,
                "verdict": verdict,
                "metrics": dict(metrics) if metrics is not None else None,
                "actor": actor,
                "unix_time": time.time(),
                "prev_hash": prev_hash,
            }
            entry["hash"] = _entry_hash(entry)
            write(entry)
        return entry

    # -- reading ---------------------------------------------------------

    def _entries_unlocked(self) -> List[Dict[str, Any]]:
        entries, bad = read_jsonl(self.path)
        if bad:
            raise PromotionChainError(
                f"unparseable promotion entry on line {bad[0]} of {self.path}"
            )
        return entries

    def entries(self) -> List[Dict[str, Any]]:
        """Every recorded entry, oldest first."""
        with self._lock:
            return self._entries_unlocked()

    def verify(self) -> int:
        """Walk the hash chain; returns the entry count or raises."""
        entries = self.entries()
        prev_hash = GENESIS_HASH
        for i, entry in enumerate(entries):
            if entry.get("seq") != i:
                raise PromotionChainError(
                    f"entry {i}: sequence number is {entry.get('seq')!r}, "
                    f"expected {i} (entry removed or reordered)"
                )
            if entry.get("prev_hash") != prev_hash:
                raise PromotionChainError(
                    f"entry {i}: prev_hash does not match the hash of "
                    f"entry {i - 1} (chain broken)"
                )
            expected = _entry_hash(entry)
            if entry.get("hash") != expected:
                raise PromotionChainError(
                    f"entry {i}: recorded hash does not match its "
                    f"content (entry tampered)"
                )
            prev_hash = entry["hash"]
        return len(entries)

    def last_entry(
        self, alias: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The newest entry (optionally restricted to one alias)."""
        for entry in reversed(self.entries()):
            if alias is None or entry.get("alias") == alias:
                return entry
        return None

    def rollback_target(self, alias: str = "latest") -> Optional[str]:
        """The model id a default rollback of ``alias`` would restore."""
        last = self.last_entry(alias=alias)
        if last is None:
            return None
        target = last.get("from")
        return str(target) if target else None

    def model_ids(self) -> List[str]:
        """Every model id the trail mentions (gc reachability set)."""
        ids = []
        for entry in self.entries():
            for key in ("from", "to"):
                value = entry.get(key)
                if value and value not in ids:
                    ids.append(value)
        return ids


def perform_rollback(
    registry,
    log: PromotionLog,
    alias: str = "latest",
    to: Optional[str] = None,
    why: Optional[str] = None,
    actor: Optional[str] = None,
) -> Dict[str, Any]:
    """Restore ``alias`` to a prior model and record it on the trail.

    Without ``to``, the target is the ``from`` side of the trail's
    newest entry for the alias — i.e. undo the most recent flip.  The
    chain is verified first: a tampered trail must not silently steer
    a rollback.  Returns the appended trail entry.
    """
    log.verify()
    target = to
    if target is None:
        target = log.rollback_target(alias)
        if target is None:
            raise PromotionChainError(
                f"no promotion entry for alias {alias!r} records a prior "
                f"model to roll back to; use an explicit --to <model_id>"
            )
    target = registry.resolve(target)  # raises ModelNotFound if gone
    move = registry.move_alias(
        alias,
        target,
        reason=why or "rollback",
        actor=actor,
    )
    return log.append(
        action="rollback",
        alias=alias,
        from_id=move.get("from"),
        to_id=target,
        why=why or "operator rollback",
        actor=actor,
    )
