"""Threaded HTTP/JSON API over the registry and prediction engine.

Stdlib only (:mod:`http.server`): each connection is handled on its own
thread by ``ThreadingHTTPServer`` while all predictions funnel through
the engine's serialized flushes — many slow clients, one fast
vectorized compute path.  A predict that finds the engine idle flushes
on its handler thread; the rest coalesce on the engine's batcher.

Routes (see ``docs/SERVING.md`` for the full reference)::

    GET  /healthz                          liveness + model count + build
    GET  /metrics                          Prometheus text exposition
    GET  /v1/status                        one-document serving status
    GET  /v1/pipeline                      MLOps loop state + promotion trail
    GET  /v1/profile/cpu                   on-demand sampling CPU profile
    GET  /dashboard                        self-refreshing HTML status page
    GET  /v1/models                        list published records
    GET  /v1/models/{ref}                  one record (id or alias)
    GET  /v1/models/{ref}/profile          leaf models, equations, shares
    GET  /v1/models/{ref}/compare/{ref2}   structural tree comparison
    GET  /v1/models/{ref}/drift            online transferability verdict
    POST /v1/models/{ref}/predict          micro-batched CPI prediction

A predict body may carry ``"actuals"`` — observed CPI values (one per
instance, ``null`` = unlabelled) that feed the drift monitor without
affecting the returned predictions.

Every response echoes a trace ID in the ``X-Repro-Trace`` header: a
well-formed client-supplied ID verbatim, otherwise a server-generated
one.  When the server is constructed with ``events_path``, each
request additionally records a stage timeline (decode, validate,
queue_wait, batch_assembly, kernel, respond, drift_observe) into the
rotating JSONL event log, reconstructable per trace ID with
``repro.obs.load_trace``; without an event log the only telemetry
cost is the header echo.

Errors are structured JSON — ``{"error": {"code", "message"}}`` — with
conventional status codes: 400 malformed body/shape, 404 unknown model
or route, 405 wrong method, 413 oversized body, 500 integrity or
internal failures.  Bodies above ``max_body_bytes`` are rejected
before being read into memory (and counted on
``serve.http.rejected_oversized``).

Every response leaves in one socket write (:class:`OneWriteHandler`).

Shutdown is graceful: :meth:`ModelServer.shutdown` stops accepting
connections, then drains the engine queue so every accepted predict
request is answered before the process exits (the CLI wires this to
SIGTERM/SIGINT).

A serving process runs on one CPU (:func:`pin_to_one_cpu`): one
interpreter runs Python on one thread at a time, so letting its
threads spread over several cores buys no parallelism and moves the
GIL and every shared cache line between cores on each hand-over.  The
process that owns the server pins itself — ``repro serve`` and each
cluster replica; a :class:`ModelServer` never pins its host process.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs.events import EventLog
from repro.obs.manifest import build_info
from repro.obs.metrics import counter, histogram, summary
from repro.obs.prof import (
    DEFAULT_HZ,
    MAX_HZ,
    Profile,
    SamplingProfiler,
    render_flamegraph_html,
)
from repro.obs.slo import SloConfig, SloTracker
from repro.obs.summary import render_prometheus
from repro.obs.telemetry import TRACE_HEADER, RequestTrace, normalize_trace_id
from repro.obs.trace import span as obs_span
from repro.serve.engine import BatchConfig, PredictionEngine
from repro.serve.registry import (
    CorruptArtifact,
    ModelNotFound,
    ModelRegistry,
    RegistryError,
)
from repro.serve.status import build_status_document, render_dashboard_html

__all__ = [
    "ApiError",
    "ModelServer",
    "OneWriteHandler",
    "DEFAULT_MAX_BODY_BYTES",
    "REPLICA_HEADER",
    "choose_cpu",
    "pin_to_one_cpu",
    "pinned_to_one_cpu",
]

DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Which cluster replica answered — absent on single-process servers.
REPLICA_HEADER = "X-Repro-Replica"

#: Seconds between ``serve_forever``'s checks for a shutdown request;
#: socketserver's default of 0.5 s made every shutdown wait ~0.45 s.
POLL_INTERVAL_S = 0.05

_HTTP_REQUESTS = counter("serve.http.requests")
_HTTP_2XX = counter("serve.http.responses_2xx")
_HTTP_4XX = counter("serve.http.responses_4xx")
_HTTP_5XX = counter("serve.http.responses_5xx")
_HTTP_LATENCY = histogram("serve.http.latency_s")
_PREDICTIONS = counter("serve.http.predictions")
_REJECTED_OVERSIZED = counter("serve.http.rejected_oversized")

#: How many recent request latencies the dashboard sparkline shows.
_RECENT_LATENCY_WINDOW = 120


def _endpoint_label(path: str) -> str:
    """Collapse a request path to a bounded-cardinality endpoint label.

    Model refs are folded into ``{ref}`` so the per-endpoint latency
    summaries cannot grow one instrument per model alias; unknown
    paths share a single ``other`` label.
    """
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path in (
        "/healthz",
        "/metrics",
        "/dashboard",
        "/v1/status",
        "/v1/pipeline",
        "/v1/profile/cpu",
    ):
        return path
    parts = [p for p in path.split("/") if p]
    if parts[:2] == ["v1", "models"]:
        rest = parts[2:]
        if not rest:
            return "/v1/models"
        if len(rest) == 1:
            return "/v1/models/{ref}"
        if len(rest) == 2 and rest[1] in ("predict", "profile", "drift"):
            return f"/v1/models/{{ref}}/{rest[1]}"
        if len(rest) == 3 and rest[1] == "compare":
            return "/v1/models/{ref}/compare/{ref}"
    return "other"


class ApiError(Exception):
    """A structured, client-visible failure."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


#: Default and ceiling for one on-demand profile capture.
_PROFILE_DEFAULT_SECONDS = 2.0
_PROFILE_MAX_SECONDS = 60.0
#: How many distinct stacks of the last profile the status document
#: retains (the dashboard flame graph reads them; unbounded stacks
#: would bloat every /v1/status response).
_PROFILE_STATUS_STACKS = 60

_PROFILE_CAPTURES = counter("serve.http.profile_captures")
_PROFILE_BUSY = counter("serve.http.profile_busy")


class _ProfilerState:
    """Serializes on-demand CPU captures; keeps the latest profile.

    One capture at a time process-wide: two overlapping samplers would
    each halve the other's throughput measurement and both profiles
    would include the other's sampling cost.  The loser gets a 409,
    not a queue — a profile request is interactive diagnostics, and a
    stale queued capture is worse than an immediate "busy, retry".
    """

    def __init__(self) -> None:
        self._gate = threading.Lock()  # held for the whole capture
        self._mutex = threading.Lock()  # guards the fields below
        self._busy = False
        self._captures = 0
        self._last: Optional[Dict[str, Any]] = None

    def capture(self, seconds: float, hz: int) -> Profile:
        if not self._gate.acquire(blocking=False):
            _PROFILE_BUSY.inc()
            raise ApiError(
                409,
                "profile_in_progress",
                "another CPU profile capture is running; retry shortly",
            )
        try:
            with self._mutex:
                self._busy = True
            profiler = SamplingProfiler(hz=hz)
            profiler.start()
            # Event.wait, not time.sleep: sleep is a C builtin, so the
            # sampler would see this thread as busy in `capture`;
            # Event.wait parks in threading:wait, a known waitpoint.
            threading.Event().wait(seconds)
            profile = profiler.stop()
            with self._mutex:
                self._busy = False
                self._captures += 1
                self._last = self._capped(profile.as_dict())
            _PROFILE_CAPTURES.inc()
            return profile
        finally:
            with self._mutex:
                self._busy = False
            self._gate.release()

    @staticmethod
    def _capped(payload: Dict[str, Any]) -> Dict[str, Any]:
        stacks = sorted(
            payload.get("stacks", []),
            key=lambda record: -int(record.get("count", 0)),
        )[:_PROFILE_STATUS_STACKS]
        return {**payload, "stacks": stacks, "idle": []}

    def report(self) -> Dict[str, Any]:
        """The ``profiler`` section of the status document."""
        with self._mutex:
            return {
                "available": True,
                "busy": self._busy,
                "captures": self._captures,
                "last": self._last,
            }


def _instances_to_matrix(
    body: Dict[str, Any], feature_names: Tuple[str, ...]
) -> np.ndarray:
    """Decode the ``instances`` field into a (n, n_features) matrix.

    Rows may be arrays (schema order) or objects keyed by event name;
    object rows must cover the schema exactly — a misspelled event is a
    400, not a silently-zeroed column.
    """
    instances = body.get("instances")
    if not isinstance(instances, list) or not instances:
        raise ApiError(
            400, "invalid_instances", "'instances' must be a non-empty list"
        )
    rows = []
    index = {name: i for i, name in enumerate(feature_names)}
    for row_number, row in enumerate(instances):
        if isinstance(row, dict):
            unknown = sorted(set(row) - set(index))
            missing = sorted(set(index) - set(row))
            if unknown or missing:
                raise ApiError(
                    400,
                    "invalid_instances",
                    f"instances[{row_number}]: unknown events {unknown}, "
                    f"missing events {missing}",
                )
            rows.append([row[name] for name in feature_names])
        elif isinstance(row, list):
            if len(row) != len(feature_names):
                raise ApiError(
                    400,
                    "invalid_instances",
                    f"instances[{row_number}] has {len(row)} value(s); "
                    f"the model expects {len(feature_names)}",
                )
            rows.append(row)
        else:
            raise ApiError(
                400,
                "invalid_instances",
                f"instances[{row_number}] must be an array or an object",
            )
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as error:
        raise ApiError(
            400, "invalid_instances", f"non-numeric instance value: {error}"
        ) from None


def _decode_actuals(
    body: Dict[str, Any], n_rows: int
) -> Optional[np.ndarray]:
    """Decode the optional ``actuals`` field (null = unlabelled row)."""
    actuals = body.get("actuals")
    if actuals is None:
        return None
    if not isinstance(actuals, list) or len(actuals) != n_rows:
        raise ApiError(
            400,
            "invalid_actuals",
            f"'actuals' must be a list of {n_rows} value(s) "
            "(null for unlabelled rows)",
        )
    decoded = np.empty(n_rows, dtype=float)
    for i, value in enumerate(actuals):
        if value is None:
            decoded[i] = np.nan
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            decoded[i] = float(value)
        else:
            raise ApiError(
                400,
                "invalid_actuals",
                f"actuals[{i}] must be a number or null, got {value!r}",
            )
    return decoded


def _json(payload: Any) -> bytes:
    return json.dumps(payload).encode()


class OneWriteHandler(BaseHTTPRequestHandler):
    """Keep-alive HTTP/1.1 handler whose every response is one write.

    ``wfile`` is buffered, so the status line, the header block and the
    body collect in memory and :meth:`_send` flushes them together.
    Written separately, the body ``send()`` would wait behind Nagle's
    algorithm for the client's delayed ACK of the headers (~40 ms on a
    keep-alive connection).  A response larger than the 64 KiB buffer
    is written as the header block, then the body.
    """

    protocol_version = "HTTP/1.1"
    wbufsize = 64 * 1024

    #: The request's trace ID, echoed on the response when set.
    _trace_id: Optional[str] = None

    def log_message(self, format: str, *args: Any) -> None:
        # Access logging is the metrics registry's job; stderr stays
        # quiet so the CLI and tests are readable.
        pass

    def handle_expect_100(self) -> bool:
        # The interim response must reach the client before the body
        # it is waiting to send can be read.
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        """Write one complete response, tagged with the trace and
        replica headers, and flush it to the socket."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id is not None:
            self.send_header(TRACE_HEADER, self._trace_id)
        replica = self._replica()
        if replica is not None:
            self.send_header(REPLICA_HEADER, str(replica["index"]))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _replica(self) -> Optional[Dict[str, Any]]:
        """The cluster replica answering, or None (no header)."""
        return None


class _Handler(OneWriteHandler):
    """Dispatches one request; all state lives on the
    :class:`ModelServer`, reached as ``self.server.model_server``."""

    #: Per-request telemetry state, reset by :meth:`_dispatch`.
    _trace: Optional[RequestTrace] = None

    # -- plumbing --------------------------------------------------------

    def _replica(self) -> Optional[Dict[str, Any]]:
        return self.server.model_server.replica

    def _send_error_envelope(
        self, status: int, code: str, message: str
    ) -> int:
        self._send(
            status,
            _json(
                {
                    "error": {"code": code, "message": message},
                    "trace": self._trace_id,
                }
            ),
        )
        return status

    def _read_body(self) -> Dict[str, Any]:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise ApiError(
                411, "length_required", "Content-Length header is required"
            )
        try:
            length = int(length_header)
        except ValueError:
            raise ApiError(
                400, "invalid_length", "Content-Length is not an integer"
            ) from None
        limit = self.server.model_server.max_body_bytes
        if length > limit:
            _REJECTED_OVERSIZED.inc()
            raise ApiError(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ApiError(
                400, "invalid_json", f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(body, dict):
            raise ApiError(
                400, "invalid_json", "request body must be a JSON object"
            )
        return body

    # -- dispatch --------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        server = self.server.model_server
        self._trace_id = normalize_trace_id(self.headers.get(TRACE_HEADER))
        self._trace = (
            RequestTrace(self._trace_id, sink=server.telemetry, t0=start)
            if server.telemetry is not None
            else None
        )
        endpoint = _endpoint_label(self.path)
        with server.stats_lock:
            _HTTP_REQUESTS.inc()
        status = 500
        try:
            with obs_span("serve.http", method=method, path=self.path):
                status = self._route(method)
        except ApiError as error:
            status = self._send_error_envelope(
                error.status, error.code, error.message
            )
        except ModelNotFound as error:
            status = self._send_error_envelope(
                404, "model_not_found", str(error)
            )
        except CorruptArtifact as error:
            status = self._send_error_envelope(
                500, "corrupt_artifact", str(error)
            )
        except ValueError as error:
            # The hardened ModelTree.predict boundary surfaces here.
            status = self._send_error_envelope(
                400, "invalid_input", str(error)
            )
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away; nothing to send
        except Exception as error:  # pragma: no cover - defensive
            status = self._send_error_envelope(500, "internal", str(error))
        finally:
            duration = time.perf_counter() - start
            with server.stats_lock:
                _HTTP_LATENCY.observe(duration)
                if 200 <= status < 300:
                    _HTTP_2XX.inc()
                elif 400 <= status < 500:
                    _HTTP_4XX.inc()
                else:
                    _HTTP_5XX.inc()
                summary(
                    "serve.http.request_latency_s",
                    labels={"endpoint": endpoint},
                ).observe(duration)
                server.recent_latency.append(duration)
            server.slo.record(duration, status)
            if self._trace is not None:
                self._trace.emit(
                    "http",
                    method=method,
                    path=self.path,
                    endpoint=endpoint,
                    status=status,
                    duration_s=duration,
                )

    def _route(self, method: str) -> int:
        server = self.server.model_server
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if path == "/healthz" and method == "GET":
            payload = {
                "status": "ok",
                "models": len(server.registry),
                "engine_running": server.engine.running,
                "build": build_info(),
            }
            if server.replica is not None:
                payload["replica"] = server.replica
            self._send(200, _json(payload))
            return 200
        if path == "/metrics" and method == "GET":
            from repro.obs.metrics import get_registry

            self._send(
                200,
                render_prometheus(get_registry().as_records()).encode(),
                "text/plain; version=0.0.4",
            )
            return 200
        if path == "/v1/status" and method == "GET":
            self._send(200, _json(server.status_document()))
            return 200
        if path == "/v1/pipeline" and method == "GET":
            pipeline = server.pipeline
            if pipeline is None:
                self._send(200, _json({"armed": False}))
                return 200
            self._send(200, _json(pipeline.report()))
            return 200
        if path == "/v1/profile/cpu":
            if method != "GET":
                raise ApiError(405, "method_not_allowed", "use GET")
            return self._profile_cpu()
        if path == "/dashboard" and method == "GET":
            self._send(
                200,
                render_dashboard_html(server.status_document()).encode(),
                "text/html; charset=utf-8",
            )
            return 200
        if parts[:2] == ["v1", "models"]:
            return self._route_models(method, parts[2:])
        raise ApiError(404, "not_found", f"no route for {method} {path}")

    def _profile_cpu(self) -> int:
        """``GET /v1/profile/cpu?seconds=N&hz=M&format=F``.

        The handler thread sleeps for the capture window while the
        sampler (its own daemon thread) observes the whole process —
        other requests proceed normally and are what the profile sees.
        """
        query = parse_qs(urlsplit(self.path).query)

        def _param(name: str, default: float, cast) -> Any:
            raw = query.get(name, [None])[-1]
            if raw is None:
                return default
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise ApiError(
                    400,
                    "invalid_parameter",
                    f"'{name}' must be a number, got {raw!r}",
                ) from None

        seconds = _param("seconds", _PROFILE_DEFAULT_SECONDS, float)
        hz = _param("hz", float(DEFAULT_HZ), float)
        if not 0.0 < seconds <= _PROFILE_MAX_SECONDS:
            raise ApiError(
                400,
                "invalid_parameter",
                f"'seconds' must be in (0, {_PROFILE_MAX_SECONDS:g}], "
                f"got {seconds:g}",
            )
        if not 1 <= hz <= MAX_HZ:
            raise ApiError(
                400,
                "invalid_parameter",
                f"'hz' must be in [1, {MAX_HZ}], got {hz:g}",
            )
        fmt = query.get("format", ["json"])[-1]
        if fmt not in ("json", "collapsed", "html"):
            raise ApiError(
                400,
                "invalid_parameter",
                f"'format' must be json, collapsed or html, got {fmt!r}",
            )
        profile = self.server.model_server.profiler.capture(seconds, int(hz))
        if fmt == "collapsed":
            self._send(
                200, profile.folded().encode(), "text/plain; charset=utf-8"
            )
        elif fmt == "html":
            self._send(
                200,
                render_flamegraph_html(
                    profile, title="serving CPU profile"
                ).encode(),
                "text/html; charset=utf-8",
            )
        else:
            self._send(200, _json(profile.as_dict()))
        return 200

    def _route_models(self, method: str, rest: list) -> int:
        server = self.server.model_server
        registry = server.registry
        engine = server.engine
        if not rest:
            if method != "GET":
                raise ApiError(405, "method_not_allowed", "use GET")
            self._send(
                200,
                _json(
                    {
                        "models": [
                            r.as_dict() for r in registry.list_records()
                        ],
                        "aliases": registry.aliases(),
                    }
                ),
            )
            return 200
        ref = rest[0]
        if len(rest) == 1:
            if method != "GET":
                raise ApiError(405, "method_not_allowed", "use GET")
            self._send(200, _json(registry.record(ref).as_dict()))
            return 200
        action = rest[1]
        if action == "predict" and len(rest) == 2:
            if method != "POST":
                raise ApiError(405, "method_not_allowed", "use POST")
            return self._predict(ref)
        if action == "profile" and len(rest) == 2:
            if method == "GET":
                self._send(200, _json(engine.profile(ref)))
                return 200
            if method == "POST":
                # Profile *submitted* rows through the model (Eq. 4),
                # by the resolved id: the model that decoded the rows
                # answers even if a promotion moves the alias meanwhile.
                body = self._read_body()
                record, _ = registry.load(ref)
                X = _instances_to_matrix(body, record.feature_names)
                self._send(
                    200, _json(engine.profile_inputs(record.model_id, X))
                )
                return 200
            raise ApiError(405, "method_not_allowed", "use GET or POST")
        if action == "compare" and len(rest) == 3:
            if method != "GET":
                raise ApiError(405, "method_not_allowed", "use GET")
            self._send(200, _json(engine.compare(ref, rest[2])))
            return 200
        if action == "drift" and len(rest) == 2:
            if method != "GET":
                raise ApiError(405, "method_not_allowed", "use GET")
            drift = server.drift
            if drift is None:
                self._send(
                    200,
                    _json(
                        {
                            "monitoring": False,
                            "model_id": registry.resolve(ref),
                        }
                    ),
                )
                return 200
            payload = drift.report(ref)
            payload["monitoring"] = True
            self._send(200, _json(payload))
            return 200
        raise ApiError(
            404, "not_found", f"no route for {method} {self.path}"
        )

    def _predict(self, ref: str) -> int:
        server = self.server.model_server
        trace = self._trace
        with trace.stage("decode") if trace else nullcontext():
            body = self._read_body()
            record, tree = server.registry.load(ref)
            X = _instances_to_matrix(body, record.feature_names)
            smooth = body.get("smooth")
            if smooth is not None and not isinstance(smooth, bool):
                raise ApiError(
                    400, "invalid_smooth", "'smooth' must be a boolean"
                )
            actuals = _decode_actuals(body, X.shape[0])
        t_predict = time.perf_counter()
        engine = server.engine
        # This handler wakes the drift hub for an idle flush when the
        # block ends, after the response is written (or its write
        # failed); another wake or a batcher flush may come first.
        with engine.answering():
            # The loaded (record, tree) pair, not ``ref``: the engine
            # makes no second registry lookup, and an alias moved by a
            # promotion since ``load()`` cannot pair this id with
            # another model's predictions.
            predictions = engine.predict(
                (record, tree), X, smooth=smooth, actuals=actuals,
                trace=trace,
            )
            predict_s = time.perf_counter() - t_predict
            # Recording the call is part of answering it, so the respond
            # stage times it rather than leaving a gap in the timeline.
            with trace.stage("respond") if trace else nullcontext():
                with server.stats_lock:
                    _PREDICTIONS.inc(X.shape[0])
                    summary(
                        "serve.predict.latency_s",
                        labels={"model": record.model_id},
                    ).observe(predict_s)
                self._send(
                    200,
                    _json(
                        {
                            "model_id": record.model_id,
                            "n": int(X.shape[0]),
                            "predictions": predictions.tolist(),
                            "trace": self._trace_id,
                        }
                    ),
                )
        return 200


def choose_cpu(allowed: Iterable[int], index: int) -> int:
    """The CPU serving process ``index`` takes from the ``allowed`` set.

    Counts down from the highest allowed CPU and wraps, so replicas
    land on distinct CPUs whenever there are at least as many CPUs as
    replicas, and a respawned replica returns to its slot's CPU.
    """
    cpus = sorted(allowed)
    return cpus[-1 - index % len(cpus)]


def _thread_ids() -> List[int]:
    """This process's threads: 0 for the calling one, then the others."""
    me = threading.get_native_id()
    try:
        tids = [int(tid) for tid in os.listdir("/proc/self/task")]
    except OSError:  # no procfs: only the calling thread is reachable
        tids = []
    return [0] + [tid for tid in tids if tid != me]


def pin_to_one_cpu(index: int) -> Optional[int]:
    """Confine the process to :func:`choose_cpu`'s CPU of its mask.

    On Linux the mask is per thread and a new thread inherits its
    creator's, so call this before the process starts its serving
    threads.  The calling thread is pinned first, then every thread
    that already exists (numpy's BLAS pool starts at import).  Returns
    the CPU, or None — and the process runs unpinned — where the
    platform has no ``sched_setaffinity`` or refuses it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    setaffinity = getattr(os, "sched_setaffinity", None)
    if getaffinity is None or setaffinity is None:
        return None
    try:
        cpu = choose_cpu(getaffinity(0), index)
        setaffinity(0, {cpu})
    except OSError:
        return None
    for tid in _thread_ids()[1:]:
        try:
            setaffinity(tid, {cpu})
        except OSError:  # the thread has exited
            pass
    return cpu


@contextmanager
def pinned_to_one_cpu(index: int) -> Iterator[Optional[int]]:
    """:func:`pin_to_one_cpu` for the block; yields its CPU or None.

    On exit each thread that existed on entry gets its own mask back,
    so an in-process caller (a test running ``repro serve``) is left
    as it was.
    """
    masks = {}
    if hasattr(os, "sched_getaffinity"):
        for tid in _thread_ids():
            try:
                masks[tid] = os.sched_getaffinity(tid)
            except OSError:  # the thread has exited
                pass
    cpu = pin_to_one_cpu(index)
    try:
        yield cpu
    finally:
        if cpu is not None:
            # Only threads still in this process: the tid of one that
            # has exited may name another process's thread by now.
            alive = set(_thread_ids())
            for tid, mask in masks.items():
                if tid in alive:
                    try:
                        os.sched_setaffinity(tid, mask)
                    except OSError:  # exited since the check
                        pass


class ModelServer:
    """The serving process: registry + engine + threaded HTTP front end.

    ``port=0`` binds an ephemeral port (read :attr:`address` after
    construction) — the self-test and the test suite rely on this.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 8080,
        batch: Optional[BatchConfig] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        monitor: bool = True,
        shadow: Optional[str] = None,
        shadow_champion: str = "latest",
        audit_path: Optional[str] = None,
        drift: Optional[Any] = None,
        events_path: Optional[str] = None,
        events_per_pid: bool = False,
        slo: Optional[SloConfig] = None,
        pipeline: Any = False,
        listen_socket: Optional[socket.socket] = None,
        replica: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Drift monitoring is on by default (``monitor=False`` turns it
        off); ``shadow`` names a challenger model evaluated against the
        ``shadow_champion`` ref on the champion's live traffic, and
        ``audit_path`` appends every drift evaluation as JSONL.  Pass a
        pre-built hub via ``drift`` to control everything else.

        ``events_path`` enables request telemetry: every request's
        stage timeline is appended to that rotating JSONL event log
        (omit it and requests carry only the trace-ID header).  ``slo``
        overrides the default :class:`~repro.obs.slo.SloConfig`
        targets; SLO tracking itself is always on.

        ``pipeline=True`` arms the MLOps loop: a
        :class:`~repro.pipeline.orchestrator.PipelineOrchestrator` is
        attached to the drift hub (monitoring must be on) so a
        ``transfer_failed`` verdict automatically retrains, shadows
        and promotes.  Pass a pre-built orchestrator instead to
        control its configuration.

        The last three parameters exist for :mod:`repro.cluster`:
        ``listen_socket`` skips bind/listen entirely and serves on an
        already-listening socket the supervisor created before forking
        (:mod:`repro.cluster.sockets` does any ``SO_REUSEPORT`` binding;
        the server takes ownership and closes it on shutdown);
        ``replica`` (``{"index", "leader", "cpu"}``, plus the ``pid``
        the server adds) tags every response with an
        ``X-Repro-Replica`` header and shows up in ``/healthz`` and
        ``/v1/status``; ``events_per_pid`` gives the event log a
        per-PID filename so sibling workers sharing ``events_path``
        never interleave writes.
        """
        self.registry = registry
        if drift is None and monitor:
            from repro.drift.hub import DriftHub
            from repro.drift.monitor import JsonlAudit, LogSink

            actions = [LogSink()]
            if audit_path is not None:
                actions.append(JsonlAudit(audit_path))
            drift = DriftHub(
                registry,
                actions=actions,
                shadow=(
                    (shadow_champion, shadow) if shadow is not None else None
                ),
            )
        self.drift = drift
        self.engine = PredictionEngine(registry, batch=batch, drift=drift)
        self.max_body_bytes = max_body_bytes
        self.stats_lock = threading.Lock()
        self.telemetry = (
            EventLog(events_path, per_pid=events_per_pid)
            if events_path is not None
            else None
        )
        self.slo = SloTracker(slo or SloConfig())
        self.recent_latency: "deque" = deque(maxlen=_RECENT_LATENCY_WINDOW)
        self.started_unix = time.time()
        if pipeline is True:
            if drift is None:
                raise ValueError(
                    "pipeline=True requires drift monitoring "
                    "(construct with monitor=True or pass a hub)"
                )
            from repro.pipeline.orchestrator import PipelineOrchestrator

            pipeline = PipelineOrchestrator(
                registry, drift, events=self.telemetry
            )
        self.pipeline = pipeline if pipeline is not False else None
        self.profiler = _ProfilerState()
        if replica is not None:
            replica = {**replica, "pid": os.getpid()}
        self.replica = replica
        if listen_socket is not None:
            # Serve on a socket someone else bound (cluster workers
            # inherit it from the supervisor).
            self._httpd = ThreadingHTTPServer(
                (host, port), _Handler, bind_and_activate=False
            )
            self._httpd.socket.close()  # the unbound one it just made
            self._httpd.socket = listen_socket
            bound_host, bound_port = listen_socket.getsockname()[:2]
            self._httpd.server_address = (bound_host, bound_port)
            self._httpd.server_name = bound_host
            self._httpd.server_port = bound_port
        else:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # Handlers reach everything through self.server.model_server.
        self._httpd.model_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    def status_document(self) -> Dict[str, Any]:
        """The one-document status: ``/v1/status``, ``/dashboard``'s
        data and a cluster worker's ``status`` reply."""
        with self.stats_lock:
            recent = list(self.recent_latency)
        return build_status_document(
            self.registry,
            self.engine,
            drift=self.drift,
            slo=self.slo,
            events=self.telemetry,
            recent_latency_s=recent,
            started_unix=self.started_unix,
            pipeline=self.pipeline,
            profiler=self.profiler,
            replica=self.replica,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound — port is resolved for port=0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ModelServer":
        """Serve on a background thread (tests, benchmarks)."""
        self.engine.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(POLL_INTERVAL_S,),
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (the CLI)."""
        self.engine.start()
        self._httpd.serve_forever(POLL_INTERVAL_S)

    def shutdown(self) -> None:
        """Stop accepting, drain queued predictions, release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self.engine.stop()
        if self.telemetry is not None:
            # After the engine drain: the last batch's records are in.
            self.telemetry.close()
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
