"""Request-scoped telemetry: trace IDs, stage timing, reconstruction.

The span tracer in :mod:`repro.obs.trace` answers "where did this
*batch run* spend its time?" — one tree per process.  Serving needs
the per-*request* version of the same question: an HTTP request enters
:mod:`repro.serve.api`, is coalesced with strangers inside the
batching engine, and is answered milliseconds later having crossed
three threads.  This module gives each request an identity and a
reconstructable timeline:

* **Trace IDs** — every request gets one, either supplied by the
  client in the ``X-Repro-Trace`` header (validated, echoed back) or
  generated server-side.  Error envelopes carry it too, so a failing
  request is as traceable as a succeeding one.
* **Stage timing** — a :class:`RequestTrace` records named stages
  (``decode``, ``validate``, ``queue_wait``, ``batch_assembly``,
  ``kernel``, ``respond``, ``drift_observe``) as offsets against one
  ``perf_counter`` origin, so stages measured on the handler thread
  and on whichever thread flushed the batch line up on a single
  timeline.
* **Emission** — the handler thread emits one ``kind="http"`` record
  carrying the full request timeline: a flush only stamps raw
  perf_counter marks on each request (flushes are serialized, so they
  must not build records or touch the log), and the handler converts
  them to spans once the result is in.  Only ``drift_observe`` — which
  the batcher runs after the flush, often once the response is on the
  wire — arrives as a supplementary ``kind="engine"`` record, and only
  when a drift hub is attached.
* **Reconstruction** — :func:`reconstruct_traces` folds those records
  back into one :class:`TraceView` per trace ID, from which the span
  tree, per-stage durations and latency coverage fall out.

Telemetry is strictly opt-in: when the server has no event log the
handler never constructs a :class:`RequestTrace` and the engine's only
cost is a ``None`` check per request, mirroring the zero-overhead
discipline of the span tracer.
"""

from __future__ import annotations

import os
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs.events import EventLog, read_events

__all__ = [
    "TRACE_HEADER",
    "TELEMETRY_SCHEMA_VERSION",
    "new_trace_id",
    "normalize_trace_id",
    "RequestTrace",
    "TraceView",
    "reconstruct_traces",
    "load_trace",
]

#: The HTTP header carrying the request trace ID, both directions.
TRACE_HEADER = "X-Repro-Trace"

TELEMETRY_SCHEMA_VERSION = "repro-telemetry-v1"

#: Client-supplied trace IDs are accepted only in this shape — anything
#: else is replaced with a fresh server-side ID rather than rejected,
#: so a malformed header degrades to "untraced by your name" instead of
#: a 400.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


#: Trace IDs need uniqueness, not unpredictability: a Mersenne Twister
#: seeded once from the OS beats ``uuid.uuid4()`` by ~2.5 us per call,
#: which matters on a path budgeted in tens of microseconds.  CPython's
#: C-level ``getrandbits`` is atomic under the GIL, so handler threads
#: can share the generator.
_ID_RNG = random.Random(os.urandom(16))


def new_trace_id() -> str:
    """A fresh 32-hex-char trace ID."""
    return f"{_ID_RNG.getrandbits(128):032x}"


def normalize_trace_id(header_value: Optional[str]) -> str:
    """The trace ID a request should run under.

    A well-formed client-supplied ID is kept verbatim (that is the
    propagation contract); a missing or malformed one yields a fresh
    server-generated ID.
    """
    if header_value is not None:
        candidate = header_value.strip()
        if _TRACE_ID_RE.match(candidate):
            return candidate
    return new_trace_id()


class RequestTrace:
    """One thread's view of one request's timeline.

    All traces for a request share the ``trace_id``, the
    ``perf_counter`` origin ``t0`` and the event sink; each thread
    appends stages to its *own* trace and emits its own record, so no
    cross-thread synchronization guards the stage list.
    """

    __slots__ = ("trace_id", "sink", "t0", "start_unix", "_marks")

    def __init__(
        self,
        trace_id: str,
        sink: Optional[EventLog] = None,
        t0: Optional[float] = None,
        start_unix: Optional[float] = None,
    ) -> None:
        self.trace_id = trace_id
        self.sink = sink
        self.t0 = time.perf_counter() if t0 is None else t0
        self.start_unix = time.time() if start_unix is None else start_unix
        self._marks: List[Tuple[str, float, float, Dict[str, Any]]] = []

    def child(self) -> "RequestTrace":
        """A trace for another thread, on the same timeline and sink."""
        return RequestTrace(
            self.trace_id, self.sink, t0=self.t0, start_unix=self.start_unix
        )

    # -- recording -------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def add_stage(
        self, name: str, start_pc: float, end_pc: float, **payload: Any
    ) -> None:
        """Record a stage from raw ``perf_counter`` readings.

        Only the readings are kept: :attr:`stages` builds the documents
        when :meth:`emit` runs, after the response is written, so the
        steps between stages stay as short as the stages allow.
        """
        self._marks.append((name, start_pc, end_pc, payload))

    @property
    def stages(self) -> List[Dict[str, Any]]:
        """The recorded stages as offsets against ``t0``, in order."""
        stages = []
        for name, start_pc, end_pc, payload in self._marks:
            # Offsets round to 100 ns: far below timer noise, and short
            # decimals serialize measurably faster than full-width
            # floats.
            stage: Dict[str, Any] = {
                "stage": name,
                "start_s": round(start_pc - self.t0, 7),
                "duration_s": round(max(0.0, end_pc - start_pc), 7),
            }
            if payload:
                stage.update(payload)
            stages.append(stage)
        return stages

    @contextmanager
    def stage(self, name: str, **payload: Any) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, start, time.perf_counter(), **payload)

    # -- emission --------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Append this thread's record to the event log (if any)."""
        if self.sink is None:
            return
        self.sink.append(
            {
                "type": "telemetry",
                "schema": TELEMETRY_SCHEMA_VERSION,
                "kind": kind,
                "trace": self.trace_id,
                "start_unix": self.start_unix,
                "stages": self.stages,
                **fields,
            }
        )


class TraceView:
    """All telemetry records for one trace ID, merged back together."""

    def __init__(self, trace_id: str, records: List[Dict[str, Any]]) -> None:
        self.trace_id = trace_id
        self.records = records

    def _record_of_kind(self, kind: str) -> Optional[Dict[str, Any]]:
        for record in self.records:
            if record.get("kind") == kind:
                return record
        return None

    @property
    def http(self) -> Optional[Dict[str, Any]]:
        return self._record_of_kind("http")

    @property
    def engine(self) -> Optional[Dict[str, Any]]:
        return self._record_of_kind("engine")

    def all_stages(self) -> List[Dict[str, Any]]:
        """Every stage from every record, ordered by start offset."""
        stages: List[Dict[str, Any]] = []
        for record in self.records:
            stages.extend(record.get("stages", ()))
        return sorted(stages, key=lambda s: s.get("start_s", 0.0))

    def stage_seconds(self) -> Dict[str, float]:
        """Total duration per stage name (a stage may repeat)."""
        totals: Dict[str, float] = {}
        for stage in self.all_stages():
            name = str(stage.get("stage"))
            totals[name] = totals.get(name, 0.0) + float(
                stage.get("duration_s", 0.0)
            )
        return totals

    @property
    def duration_s(self) -> Optional[float]:
        """The request's server-observed wall time (from the http record)."""
        record = self.http
        if record is None:
            return None
        value = record.get("duration_s")
        return None if value is None else float(value)

    def coverage(self) -> Optional[float]:
        """Fraction of the request wall time explained by stages.

        Stages overlapping the request window (``drift_observe`` runs
        after the response is sent) can push this slightly above 1.
        """
        duration = self.duration_s
        if not duration:
            return None
        return sum(self.stage_seconds().values()) / duration

    def tree_lines(self) -> List[str]:
        """The request as an indented span tree (for humans/tests)."""
        http = self.http or {}
        duration = self.duration_s or 0.0
        header = (
            f"trace {self.trace_id}  "
            f"{http.get('method', '?')} {http.get('path', '?')} "
            f"-> {http.get('status', '?')}  {duration * 1e3:.2f} ms"
        )
        lines = [header]
        for stage in self.all_stages():
            lines.append(
                f"  {stage.get('stage', '?'):16s} "
                f"+{float(stage.get('start_s', 0.0)) * 1e3:8.2f} ms  "
                f"{float(stage.get('duration_s', 0.0)) * 1e3:8.3f} ms"
            )
        return lines


def reconstruct_traces(
    records: Iterable[Dict[str, Any]]
) -> Dict[str, TraceView]:
    """Group telemetry records by trace ID into :class:`TraceView`\\ s."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("type") != "telemetry":
            continue
        trace_id = record.get("trace")
        if not isinstance(trace_id, str):
            continue
        grouped.setdefault(trace_id, []).append(record)
    return {
        trace_id: TraceView(trace_id, group)
        for trace_id, group in grouped.items()
    }


def load_trace(
    path: Union[str, Path], trace_id: Optional[str] = None
) -> Union[Dict[str, TraceView], Optional[TraceView]]:
    """Read an event log and reconstruct its traces.

    With ``trace_id`` the matching :class:`TraceView` (or None) is
    returned; without it, the full id -> view mapping.
    """
    views = reconstruct_traces(read_events(path))
    if trace_id is not None:
        return views.get(trace_id)
    return views
