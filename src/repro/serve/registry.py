"""Versioned, content-addressed on-disk store of trained model trees.

A *published* model is the pair (artifact, metadata): the artifact is
the canonical JSON encoding of :func:`repro.mtree.serialize.tree_to_dict`
and the model id is a prefix of its SHA-256 — publishing the same tree
twice (from any process) lands on the same id with byte-identical
files, so concurrent publishes race benignly the same way
:class:`repro.datasets.cache.SampleSetCache` entries do.  Metadata
records provenance (suite, seed, training configuration, the run
manifest) plus the artifact hash, which :meth:`ModelRegistry.load`
re-verifies on every read from disk: a flipped bit fails loudly as
:class:`CorruptArtifact` instead of silently mispredicting.

Layout under the registry root::

    models/<model_id>/artifact.json   # canonical tree payload (hashed)
    models/<model_id>/meta.json       # ModelRecord incl. artifact_sha256
    aliases/<name>                    # text file holding a model id
    alias_history/<name>.jsonl        # one record per move_alias/drop_alias

All writes go through :mod:`repro.durable` (atomic on POSIX), and
``meta.json`` is written *after* the artifact, so a record is
visible only once its artifact is complete.  Mutable names ("latest")
live in ``aliases/`` and are re-pointed atomically the same way.

Alias *moves* — the operation the promotion pipeline builds on — go
through :meth:`ModelRegistry.move_alias`, which serializes racing
movers on one per-registry lock so the (read prior, re-point, record
history) triple is atomic: two concurrent flips land in some order,
exactly one wins the final pointer, each history entry's ``from``
equals the previous entry's ``to``, and a reader can never observe a
dangling or empty alias because the pointer itself is still one
``os.replace``.

Loaded models are kept in a bounded in-process LRU of (record, tree)
pairs, so a serving process pays JSON parsing once per model, not once
per request: a cached :meth:`ModelRegistry.load` is one
:meth:`~ModelRegistry.resolve` plus an LRU lookup and reads no
``meta.json``.  :meth:`~ModelRegistry.resolve` runs on every predict,
so it stays lean: string paths, an ``os.path.exists`` probe for the
id, and one ``os.open``/``os.read``/``os.close`` for the alias.  The
alias is read from disk on every call, with no cache of any kind, so
a flip made by another process is served on the next one.  (A cache
keyed on the alias file's stat could not tell two flips apart: every
alias is 16 bytes, and the rename behind a flip can hand a freed inode
number back within one timestamp tick.)

The cached record is the one read or published when the model entered
the LRU.  A re-publish of the same tree with new metadata through this
registry replaces it at once.  A re-publish through another registry
on the same root shows in :meth:`~ModelRegistry.record` and
:meth:`~ModelRegistry.list_records` at once, since they always read
``meta.json``, and in ``load()`` after :meth:`~ModelRegistry.evict`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.durable import append_jsonl, atomic_write, read_jsonl
from repro.mtree.serialize import tree_from_dict, tree_to_dict
from repro.mtree.tree import ModelTree
from repro.obs.metrics import counter

__all__ = [
    "RegistryError",
    "ModelNotFound",
    "CorruptArtifact",
    "ModelRecord",
    "ModelRegistry",
    "ALIAS_HISTORY_SCHEMA",
]

#: Process-wide registry traffic (summed over every ModelRegistry).
_PUBLISHES = counter("serve.registry.publishes")
_LOADS = counter("serve.registry.loads")
_CACHE_HITS = counter("serve.registry.cache_hits")
_CACHE_MISSES = counter("serve.registry.cache_misses")

#: Hex digits of the artifact SHA-256 used as the model id.
_ID_LENGTH = 16

RECORD_SCHEMA = "repro-model-record-v1"

ALIAS_HISTORY_SCHEMA = "repro-alias-move-v1"

#: Bytes read from an alias file: a 16-digit id plus a hand-written
#: newline fits many times over.
_ALIAS_READ_BYTES = 4096


class RegistryError(Exception):
    """Base class for registry failures."""


class ModelNotFound(RegistryError, KeyError):
    """No model or alias with the requested reference."""

    def __str__(self) -> str:  # KeyError quotes its args; keep prose.
        return Exception.__str__(self)


class CorruptArtifact(RegistryError):
    """On-disk artifact bytes do not match their recorded hash."""


@dataclass(frozen=True)
class ModelRecord:
    """Provenance and integrity data for one published model."""

    model_id: str
    artifact_sha256: str
    created_unix: float
    n_leaves: int
    n_features: int
    feature_names: Tuple[str, ...]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA,
            "model_id": self.model_id,
            "artifact_sha256": self.artifact_sha256,
            "created_unix": self.created_unix,
            "n_leaves": self.n_leaves,
            "n_features": self.n_features,
            "feature_names": list(self.feature_names),
            "metadata": dict(self.metadata),
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "ModelRecord":
        if payload.get("schema") != RECORD_SCHEMA:
            raise RegistryError(
                f"unsupported model record schema {payload.get('schema')!r}"
            )
        return ModelRecord(
            model_id=str(payload["model_id"]),
            artifact_sha256=str(payload["artifact_sha256"]),
            created_unix=float(payload["created_unix"]),
            n_leaves=int(payload["n_leaves"]),
            n_features=int(payload["n_features"]),
            feature_names=tuple(payload["feature_names"]),
            metadata=dict(payload.get("metadata", {})),
        )


def _check_alias_name(name: str) -> None:
    if not name or any(ch in name for ch in "/\\\0") or name.startswith("."):
        raise RegistryError(f"invalid alias name {name!r}")


def _canonical_artifact(tree: ModelTree) -> bytes:
    """The canonical bytes a model id and integrity hash are taken over."""
    return json.dumps(
        tree_to_dict(tree), sort_keys=True, separators=(",", ":")
    ).encode()


class ModelRegistry:
    """Content-addressed model store with aliases and an LRU of trees.

    Thread-safe: the serving engine and HTTP handler threads share one
    registry.  Disk-level concurrency across *processes* is handled by
    content addressing plus atomic renames — two publishers of the same
    tree write identical bytes, and alias re-points are single renames.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_cached_trees: int = 8,
    ) -> None:
        if max_cached_trees < 1:
            raise ValueError(
                f"max_cached_trees must be >= 1, got {max_cached_trees}"
            )
        self.root = Path(root)
        self.max_cached_trees = max_cached_trees
        # String directories for resolve(), which runs on every predict.
        self._models_dir = os.path.join(self.root, "models")
        self._aliases_dir = os.path.join(self.root, "aliases")
        self._lock = threading.Lock()
        # Serializes move_alias/drop_alias so (read prior, re-point,
        # record history) is atomic within this process; the pointer
        # write itself stays a single os.replace for cross-process
        # readers.
        self._alias_lock = threading.Lock()
        # model id -> (record, tree), least recently used first.
        self._trees: "OrderedDict[str, Tuple[ModelRecord, ModelTree]]" = (
            OrderedDict()
        )

    # -- paths -----------------------------------------------------------

    def _model_dir(self, model_id: str) -> Path:
        return self.root / "models" / model_id

    def _alias_path(self, name: str) -> Path:
        _check_alias_name(name)
        return self.root / "aliases" / name

    def _alias_history_path(self, name: str) -> Path:
        self._alias_path(name)  # reuse the name validation
        return self.root / "alias_history" / f"{name}.jsonl"

    # -- publishing ------------------------------------------------------

    def publish(
        self,
        tree: ModelTree,
        metadata: Optional[Mapping[str, Any]] = None,
        aliases: Sequence[str] = ("latest",),
    ) -> ModelRecord:
        """Store a fitted tree; returns its (content-addressed) record.

        Re-publishing an identical tree is idempotent apart from the
        record's ``created_unix`` and metadata, which are overwritten —
        the artifact bytes cannot change because the id pins them.
        """
        artifact = _canonical_artifact(tree)
        digest = hashlib.sha256(artifact).hexdigest()
        model_id = digest[:_ID_LENGTH]
        record = ModelRecord(
            model_id=model_id,
            artifact_sha256=digest,
            created_unix=time.time(),
            n_leaves=tree.n_leaves,
            n_features=len(tree.feature_names),
            feature_names=tuple(tree.feature_names),
            metadata=dict(metadata or {}),
        )
        model_dir = self._model_dir(model_id)
        # Artifact first, meta second: meta.json marks a complete publish.
        atomic_write(model_dir / "artifact.json", artifact)
        atomic_write(
            model_dir / "meta.json",
            json.dumps(record.as_dict(), indent=2).encode(),
        )
        for alias in aliases:
            self.set_alias(alias, model_id)
        with self._lock:
            self._remember(record, tree)
        _PUBLISHES.inc()
        return record

    # -- aliases ---------------------------------------------------------

    def set_alias(self, name: str, model_id: str) -> None:
        """Atomically (re-)point ``name`` at an existing model id."""
        if not (self._model_dir(model_id) / "meta.json").exists():
            raise ModelNotFound(
                f"cannot alias {name!r}: no model {model_id!r} in {self.root}"
            )
        atomic_write(self._alias_path(name), model_id.encode())

    def aliases(self) -> Dict[str, str]:
        """All alias -> model id mappings."""
        alias_dir = self.root / "aliases"
        if not alias_dir.is_dir():
            return {}
        return {
            path.name: target
            for path in sorted(alias_dir.iterdir())
            if (target := self._read_alias(path.name)) is not None
        }

    def _read_alias(self, name: str) -> Optional[str]:
        """The id an alias file holds, or None when there is no alias.

        One open, one read and one close.  Anything at the path that
        is not a readable regular file (nothing, a directory) is no
        alias, as ``Path.is_file()`` made it; ``O_NONBLOCK`` keeps a
        FIFO there from hanging the caller.
        """
        try:
            fd = os.open(
                f"{self._aliases_dir}/{name}", os.O_RDONLY | os.O_NONBLOCK
            )
        except OSError:
            return None
        try:
            raw = os.read(fd, _ALIAS_READ_BYTES)
        except OSError:  # EISDIR: a directory opens, but does not read
            return None
        finally:
            os.close(fd)
        return os.fsdecode(raw).strip()

    def move_alias(
        self,
        name: str,
        model_id: str,
        reason: Optional[str] = None,
        actor: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Atomically re-point ``name``, recording the prior target.

        Returns the appended history entry.  Racing movers serialize on
        the registry's alias lock: exactly one ends up as the final
        pointer, every entry's ``from`` is the target it actually
        displaced, and the alias file is never absent or empty
        mid-flip.
        """
        with self._alias_lock:
            _check_alias_name(name)
            prior = self._read_alias(name) or None
            self.set_alias(name, model_id)  # validates target, atomic
            entry = {
                "schema": ALIAS_HISTORY_SCHEMA,
                "alias": name,
                "from": prior,
                "to": model_id,
                "reason": reason,
                "actor": actor,
                "unix_time": time.time(),
            }
            append_jsonl(self._alias_history_path(name), entry)
        return entry

    def drop_alias(
        self,
        name: str,
        reason: Optional[str] = None,
        actor: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """Remove an alias, recording what it pointed at.

        Returns the history entry, or None if the alias did not exist.
        """
        with self._alias_lock:
            alias_path = self._alias_path(name)
            prior = self._read_alias(name)
            if prior is None:
                return None
            alias_path.unlink()
            entry = {
                "schema": ALIAS_HISTORY_SCHEMA,
                "alias": name,
                "from": prior or None,
                "to": None,
                "reason": reason,
                "actor": actor,
                "unix_time": time.time(),
            }
            append_jsonl(self._alias_history_path(name), entry)
        return entry

    def alias_history(self, name: str) -> List[Dict[str, Any]]:
        """Recorded moves for one alias, oldest first.

        Only :meth:`move_alias` / :meth:`drop_alias` record history;
        plain :meth:`set_alias` (e.g. from publish) does not.  Lines
        that are not records (a crashed writer's torn tail) are skipped.
        """
        return read_jsonl(self._alias_history_path(name))[0]

    def evict(self, model_id: str) -> None:
        """Drop a model's record and tree from the in-process LRU.

        Used by gc; the next :meth:`load` re-reads both from disk.
        """
        with self._lock:
            self._trees.pop(model_id, None)

    def resolve(self, ref: str) -> str:
        """Map a model id or alias to a model id (id wins on collision).

        The alias is read from disk on every call.  A dangling alias
        and an invalid alias name raise :class:`ModelNotFound`.
        """
        if os.path.exists(f"{self._models_dir}/{ref}/meta.json"):
            return ref
        try:
            _check_alias_name(ref)
        except RegistryError:
            raise ModelNotFound(f"no model or alias {ref!r} in {self.root}")
        target = self._read_alias(ref)
        if target is not None:
            if os.path.exists(f"{self._models_dir}/{target}/meta.json"):
                return target
            raise ModelNotFound(
                f"alias {ref!r} points at missing model {target!r}"
            )
        known = ", ".join(sorted(self.aliases())) or "none"
        raise ModelNotFound(
            f"no model or alias {ref!r} in {self.root} (aliases: {known})"
        )

    # -- reading ---------------------------------------------------------

    def record(self, ref: str) -> ModelRecord:
        """The metadata record for a model id or alias, read from disk."""
        model_id = self.resolve(ref)
        meta_path = self._model_dir(model_id) / "meta.json"
        try:
            payload = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise CorruptArtifact(
                f"unreadable metadata for model {model_id!r}: {error}"
            ) from None
        return ModelRecord.from_dict(payload)

    def load(self, ref: str) -> Tuple[ModelRecord, ModelTree]:
        """Record plus deserialized tree, integrity-checked and LRU-cached.

        A hit costs one :meth:`resolve` and reads no metadata; a miss
        reads and checks ``meta.json``, re-hashes the artifact and
        deserializes it.
        """
        model_id = self.resolve(ref)
        _LOADS.inc()
        with self._lock:
            cached = self._trees.get(model_id)
            if cached is not None:
                self._trees.move_to_end(model_id)
                _CACHE_HITS.inc()
                return cached
        _CACHE_MISSES.inc()
        record = self.record(model_id)
        artifact_path = self._model_dir(record.model_id) / "artifact.json"
        try:
            raw = artifact_path.read_bytes()
        except OSError as error:
            raise CorruptArtifact(
                f"missing artifact for model {record.model_id!r}: {error}"
            ) from None
        digest = hashlib.sha256(raw).hexdigest()
        if digest != record.artifact_sha256:
            raise CorruptArtifact(
                f"artifact hash mismatch for model {record.model_id!r}: "
                f"expected {record.artifact_sha256[:12]}..., "
                f"got {digest[:12]}..."
            )
        tree = tree_from_dict(json.loads(raw))
        with self._lock:
            self._remember(record, tree)
        return record, tree

    def _remember(self, record: ModelRecord, tree: ModelTree) -> None:
        # Caller holds self._lock.
        self._trees[record.model_id] = (record, tree)
        self._trees.move_to_end(record.model_id)
        while len(self._trees) > self.max_cached_trees:
            self._trees.popitem(last=False)

    def list_records(self) -> List[ModelRecord]:
        """Every published model, oldest first."""
        models_dir = self.root / "models"
        if not models_dir.is_dir():
            return []
        records = []
        for model_dir in sorted(models_dir.iterdir()):
            meta_path = model_dir / "meta.json"
            if meta_path.is_file():
                records.append(self.record(model_dir.name))
        return sorted(records, key=lambda r: (r.created_unix, r.model_id))

    def __len__(self) -> int:
        models_dir = self.root / "models"
        if not models_dir.is_dir():
            return 0
        return sum(
            1 for d in models_dir.iterdir() if (d / "meta.json").is_file()
        )

    def __repr__(self) -> str:
        return (
            f"ModelRegistry(root={str(self.root)!r}, models={len(self)}, "
            f"cached={len(self._trees)})"
        )
