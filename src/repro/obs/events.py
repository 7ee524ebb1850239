"""Bounded structured JSONL event log with size-based rotation.

The serving telemetry layer (:mod:`repro.obs.telemetry`) emits one
small JSON record per HTTP request plus one per engine flush; left
unchecked, a busy server would grow that file forever.  An
:class:`EventLog` appends newline-delimited JSON and rotates when the
active file would exceed ``max_bytes``: ``events.jsonl`` becomes
``events.jsonl.1``, ``.1`` becomes ``.2`` and so on up to ``backups``
generations, so total disk use is bounded at roughly
``max_bytes * (backups + 1)``.

Writes are serialized under one lock, so handler threads and the
batching worker can share a log, and flushed in small batches — every
16 records or 250 ms of wall time, whichever comes first — because a
per-record ``flush`` costs 5-10 us on the request hot path while a
batched one amortizes to well under 1 us.  ``tail -f`` sees records
within a quarter second regardless of traffic: a write that leaves
records pending arms a one-shot daemon timer, so the 250 ms bound
holds even when the server goes quiescent right after (previously a
sub-batch tail sat unflushed until the *next* write arrived).
Callers that need exact durability *now* (tests, shutdown) use
:meth:`EventLog.flush` or :meth:`EventLog.close`.  Serialization reuses one
:class:`json.JSONEncoder` (building a fresh encoder per record is
measurably slower) and happens outside the lock.  Every record gains
a ``unix`` timestamp if the caller did not supply one.  Serialization
failures are counted (``obs.events.serialize_errors``), never raised:
losing one telemetry record must not take a request down with it.

The lock serializes *threads*; it cannot serialize *processes*.  Two
processes appending to one path would interleave buffered writes and
race the rotation renames, corrupting records — so multi-process use
(the :mod:`repro.cluster` workers) passes ``per_pid=True``, which
suffixes the filename with the writing PID (``events.jsonl`` becomes
``events.pid-4242.jsonl``) so every process owns its file exclusively.
As a safety net, every append re-checks ``os.getpid()``: a process
that forked with an open log silently re-homes onto its own per-PID
file instead of scribbling over the parent's.  :func:`read_events`
merges the per-PID siblings of a base path (plus all their rotation
backups) into one timeline ordered by the ``unix`` stamp, so readers
never need to know how many processes wrote.

Files follow :mod:`repro.durable`'s commit rule (a crash loses the
unflushed batch); opening one cuts any torn final line first.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.durable import locked_append, read_jsonl
from repro.obs.metrics import counter

__all__ = ["EventLog", "read_events", "EVENTS_SCHEMA_VERSION"]

EVENTS_SCHEMA_VERSION = "repro-events-v1"

_WRITTEN = counter("obs.events.written")
_ROTATIONS = counter("obs.events.rotations")
_SERIALIZE_ERRORS = counter("obs.events.serialize_errors")

DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_BACKUPS = 2

#: Flush after this many unflushed records ...
_FLUSH_EVERY = 16
#: ... or once this much wall time has passed since the last flush.
_FLUSH_INTERVAL_S = 0.25

#: One shared encoder: ``json.dumps(..., separators=...)`` constructs a
#: new encoder per call, which costs ~20% of the serialization budget
#: on the request hot path.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _pid_path(base: Path, pid: int) -> Path:
    """The per-PID sibling of ``base``: events.jsonl -> events.pid-N.jsonl."""
    return base.with_name(f"{base.stem}.pid-{pid}{base.suffix}")


class EventLog:
    """Append-only JSONL sink with size-based rotation."""

    def __init__(
        self,
        path: Union[str, Path],
        max_bytes: int = DEFAULT_MAX_BYTES,
        backups: int = DEFAULT_BACKUPS,
        clock=None,
        per_pid: bool = False,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.base_path = Path(path)
        self.per_pid = per_pid
        self._pid = os.getpid()
        self.path = (
            _pid_path(self.base_path, self._pid)
            if per_pid
            else self.base_path
        )
        self.max_bytes = max_bytes
        self.backups = backups
        self._clock = clock
        self._lock = threading.Lock()
        self.written = 0
        self.rotations = 0
        self._timer: Any = None
        self._open()

    # -- writing ---------------------------------------------------------

    def _open(self) -> None:
        """(Re)open ``self.path`` for appending, cutting any torn tail."""
        with locked_append(self.path):
            self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = self.path.stat().st_size
        self._pending = 0
        self._last_flush = time.monotonic()

    def _rehome_after_fork(self) -> None:
        """Move a forked child onto its own per-PID file.

        Without this, a child inheriting an open log would append into
        the parent's file — two processes sharing one file description,
        interleaving buffered writes and racing rotations.  Closing the
        inherited handle flushes at most one sub-batch of whole lines
        the parent also holds (benign duplicates in the old file, never
        torn records); everything after lands in this PID's own file.
        """
        with self._lock:
            if os.getpid() == self._pid:
                return  # another thread already re-homed us
            self._pid = os.getpid()
            self.per_pid = True
            self.path = _pid_path(self.base_path, self._pid)
            if self._timer is not None:
                # The timer thread did not survive the fork; drop it.
                self._timer.cancel()
                self._timer = None
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
            self._open()

    def append(self, record: Dict[str, Any]) -> None:
        """Serialize one record and append it (rotating first if needed)."""
        if os.getpid() != self._pid:
            self._rehome_after_fork()
        if "unix" not in record:
            clock = self._clock
            record = {**record, "unix": (clock or time.time)()}
        try:
            line = _ENCODER.encode(record) + "\n"
        except (TypeError, ValueError):
            _SERIALIZE_ERRORS.inc()
            return
        encoded_length = len(line.encode("utf-8"))
        with self._lock:
            if self._handle is None:
                return  # closed; drop silently (shutdown race)
            if self._bytes and self._bytes + encoded_length > self.max_bytes:
                self._rotate_locked()
            self._handle.write(line)
            self._bytes += encoded_length
            self.written += 1
            self._pending += 1
            now = time.monotonic()
            if (
                self._pending >= _FLUSH_EVERY
                or now - self._last_flush >= _FLUSH_INTERVAL_S
            ):
                self._handle.flush()
                self._pending = 0
                self._last_flush = now
            elif self._timer is None:
                # Idle-flush backstop: without it, a tail below the
                # batch threshold stays buffered until the next write.
                self._timer = threading.Timer(
                    _FLUSH_INTERVAL_S, self._timer_flush
                )
                self._timer.daemon = True
                self._timer.start()
            _WRITTEN.inc()

    def _timer_flush(self) -> None:
        with self._lock:
            self._timer = None
            if self._handle is not None and self._pending:
                self._handle.flush()
                self._pending = 0
                self._last_flush = time.monotonic()

    def _rotate_locked(self) -> None:
        self._handle.close()
        if self.backups == 0:
            self.path.unlink(missing_ok=True)
        else:
            oldest = self.path.with_name(f"{self.path.name}.{self.backups}")
            oldest.unlink(missing_ok=True)
            for index in range(self.backups - 1, 0, -1):
                source = self.path.with_name(f"{self.path.name}.{index}")
                if source.exists():
                    os.replace(
                        source,
                        self.path.with_name(f"{self.path.name}.{index + 1}"),
                    )
            os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        self._open()
        self.rotations += 1
        _ROTATIONS.inc()

    # -- lifecycle / reading ---------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._cancel_timer_locked()
            if self._handle is not None:
                self._handle.flush()
                self._pending = 0
                self._last_flush = time.monotonic()

    def close(self) -> None:
        with self._lock:
            self._cancel_timer_locked()
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def _cancel_timer_locked(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """JSON-ready state for the ``/v1/status`` document."""
        with self._lock:
            return {
                "schema": EVENTS_SCHEMA_VERSION,
                "path": str(self.path),
                "per_pid": self.per_pid,
                "pid": self._pid,
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "backups": self.backups,
                "written": self.written,
                "rotations": self.rotations,
            }


def _chain_candidates(path: Path, include_backups: bool) -> List[Path]:
    """One file's read order: oldest rotation backup first, live file last."""
    candidates: List[Path] = []
    if include_backups:
        index = 1
        backups: List[Path] = []
        while True:
            backup = path.with_name(f"{path.name}.{index}")
            if not backup.exists():
                break
            backups.append(backup)
            index += 1
        candidates.extend(reversed(backups))
    candidates.append(path)
    return candidates


def read_events(
    path: Union[str, Path],
    include_backups: bool = True,
) -> List[Dict[str, Any]]:
    """Load every parseable record, oldest first, tolerating truncation.

    Rotation and process crashes can leave a final partial line; it is
    skipped rather than raised, because an event log is diagnostic data
    — best effort by design.

    ``path`` is the *base* path handed to the writers.  When per-PID
    siblings exist (``per_pid=True`` writers, e.g. cluster workers),
    their records — and each sibling's rotation backups — are merged
    with the base file's into one stream ordered by the ``unix``
    timestamp every record carries, so a multi-process serving run
    reads back as a single timeline.  With no siblings the single-file
    read order (and any caller expectations built on it) is unchanged.
    """
    path = Path(path)
    records: List[Dict[str, Any]] = []
    for candidate in _chain_candidates(path, include_backups):
        records.extend(read_jsonl(candidate)[0])
    siblings = sorted(
        p
        for p in path.parent.glob(f"{path.stem}.pid-*{path.suffix}")
        if p != path
    )
    if not siblings:
        return records
    for sibling in siblings:
        for candidate in _chain_candidates(sibling, include_backups):
            records.extend(read_jsonl(candidate)[0])
    # One timeline across processes: the per-file streams are already
    # oldest-first, so a stable sort on the stamp keeps same-instant
    # records in their per-file order.
    records.sort(key=lambda record: float(record.get("unix", 0.0) or 0.0))
    return records
