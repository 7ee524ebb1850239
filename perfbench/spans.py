"""In-memory spans around calls into the program's layers, and their analysis.

The traced launcher wraps each layer's public entry points with
:meth:`Recorder.wrap`.  A span records its layer, start, end, thread,
parent (the innermost open span on the same thread), the request's
``X-Repro-Trace`` id where there is one, and the rows a call carried.
Spans stay in a list until the launcher writes them once, at exit.

A span's self time is its duration minus the durations of its direct
children.  Children run on their parent's thread inside its interval,
so they never overlap one another.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence

TRACE_HEADER = "X-Repro-Trace"

#: Layer names, after the program's modules.
API = "serve.api"
REGISTRY_READ = "serve.registry.read"
REGISTRY_WRITE = "serve.registry.write"
SUBMIT = "serve.engine.submit"
WAIT = "serve.engine.wait"
PREDICT = "mtree.predict"
FIT = "mtree.fit"
GENERATE = "workloads.generate"
CACHE = "datasets.cache"
BASELINES = "baselines"
OBSERVE = "drift.observe"
BUFFER = "pipeline.buffer_extend"
JOURNAL = "pipeline.journal_write"
PROMOTION = "pipeline.promotion_append"
APPEND = "obs.events.append"
FLUSH = "obs.events.flush"


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        token = (next(self._ids), layer, time.perf_counter(), parent)
        stack.append(token)
        return token

    def end(self, token: tuple, layer: Optional[str] = None,
            trace: Optional[str] = None, rows: Optional[int] = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is token:
            stack.pop()
        span_id, begun_as, start, parent = token
        self.spans.append((span_id, layer or begun_as, start, end,
                           threading.get_ident(), parent, trace, rows))

    def wrap(self, owner: type, name: str, layer: str,
             rows_arg: Optional[int] = None) -> None:
        """Replace ``owner.name`` with a version that records a span."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            token = self.begin(layer)
            try:
                return original(*args, **kwargs)
            finally:
                rows = None
                if rows_arg is not None and len(args) > rows_arg:
                    rows = len(args[rows_arg])
                self.end(token, rows=rows)

        setattr(owner, name, timed)

    def wrap_handler(self, handler: type) -> None:
        """Time each HTTP request from its request line to its last write.

        ``handle_one_request`` begins by blocking on the connection for
        the next request line, which on a keep-alive connection is idle
        time, so the span opens in ``parse_request`` instead, right
        after that line arrived.
        """
        parse, handle = handler.parse_request, handler.handle_one_request
        recorder = self

        def parse_request(self: Any) -> bool:
            self._bench_span = recorder.begin(API)
            return parse(self)

        def handle_one_request(self: Any) -> None:
            self._bench_span = None
            try:
                handle(self)
            finally:
                token = self._bench_span
                if token is not None:
                    predict = (getattr(self, "command", None) == "POST"
                               and str(self.path).endswith("/predict"))
                    headers = getattr(self, "headers", None)
                    recorder.end(
                        token,
                        layer=API if predict else API + ".other",
                        trace=headers.get(TRACE_HEADER) if headers else None,
                    )

        handler.parse_request = parse_request
        handler.handle_one_request = handle_one_request

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark times."""
    from repro.baselines import cart, knn, linreg, mlp
    from repro.datasets.cache import SampleSetCache
    from repro.drift.hub import DriftHub
    from repro.mtree.tree import ModelTree
    from repro.obs.events import EventLog
    from repro.pipeline.buffer import TrafficBuffer
    from repro.pipeline.journal import PipelineJournal
    from repro.pipeline.promotions import PromotionLog
    from repro.serve.api import _Handler
    from repro.serve.engine import PredictionEngine, PredictionFuture
    from repro.serve.registry import ModelRegistry
    from repro.workloads.suite import Suite

    recorder.wrap_handler(_Handler)
    for name in ("record", "resolve", "load"):
        recorder.wrap(ModelRegistry, name, REGISTRY_READ)
    for name in ("publish", "move_alias"):
        recorder.wrap(ModelRegistry, name, REGISTRY_WRITE)
    recorder.wrap(PredictionEngine, "submit", SUBMIT)
    recorder.wrap(PredictionFuture, "result", WAIT)
    recorder.wrap(ModelTree, "predict", PREDICT, rows_arg=1)
    recorder.wrap(ModelTree, "fit", FIT, rows_arg=1)
    recorder.wrap(Suite, "generate", GENERATE)
    recorder.wrap(SampleSetCache, "get_or_generate", CACHE)
    for model in (cart.CartRegressionTree, knn.KnnRegressor,
                  linreg.LinearRegressionBaseline, mlp.MlpRegressor):
        recorder.wrap(model, "fit", BASELINES)
        recorder.wrap(model, "predict", BASELINES)
    recorder.wrap(DriftHub, "observe", OBSERVE)
    recorder.wrap(TrafficBuffer, "extend", BUFFER)
    recorder.wrap(PipelineJournal, "write", JOURNAL)
    recorder.wrap(PromotionLog, "append", PROMOTION)
    recorder.wrap(EventLog, "append", APPEND)
    recorder.wrap(EventLog, "flush", FLUSH)
    # The idle flush runs on a timer thread, not through flush().
    recorder.wrap(EventLog, "_timer_flush", FLUSH)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Spans:
    """Read-side view: parent links, self times and per-layer selections."""

    def __init__(self, records: Iterable[Sequence[Any]]) -> None:
        self.records = [tuple(r) for r in records]
        self.by_id = {r[0]: r for r in self.records}
        self.kids: Dict[Any, List[tuple]] = defaultdict(list)
        self.child_s: Dict[Any, float] = defaultdict(float)
        for r in self.records:
            if r[5] is not None:
                self.kids[r[5]].append(r)
                self.child_s[r[5]] += r[3] - r[2]

    @staticmethod
    def duration(span: tuple) -> float:
        return span[3] - span[2]

    def self_s(self, span: tuple) -> float:
        return self.duration(span) - self.child_s.get(span[0], 0.0)

    def layer(self, name: str) -> List[tuple]:
        return [r for r in self.records if r[1] == name]

    def outermost(self, name: str) -> List[tuple]:
        """Spans of a layer not nested inside another span of that layer."""
        return [r for r in self.layer(name)
                if not self._has_ancestor(r, (name,))]

    def _has_ancestor(self, span: tuple, layers: Sequence[str]) -> bool:
        parent = self.by_id.get(span[5])
        while parent is not None:
            if parent[1] in layers:
                return True
            parent = self.by_id.get(parent[5])
        return False

    def inside(self, name: str, ancestor: str) -> List[tuple]:
        return [r for r in self.layer(name)
                if self._has_ancestor(r, (ancestor,))]

    def busy_s(self, name: str) -> float:
        return sum((self.self_s(r) for r in self.layer(name)), 0.0)

    def roots(self) -> List[tuple]:
        return [r for r in self.records if r[5] is None]

    def request_parts(self, span: tuple) -> Dict[str, float]:
        """Split one request's handler span into its layers' self times."""
        parts = {API: self.self_s(span), REGISTRY_READ: 0.0,
                 SUBMIT: 0.0, WAIT: 0.0}
        for child in self.kids.get(span[0], ()):
            if child[1] == SUBMIT:
                # submit validates against the registry: split the two.
                parts[SUBMIT] += self.self_s(child)
                parts[REGISTRY_READ] += self.child_s.get(child[0], 0.0)
            else:
                parts[child[1]] = parts.get(child[1], 0.0) + self.duration(child)
        return parts


def load(path: str) -> Spans:
    with open(path, encoding="utf-8") as handle:
        return Spans(json.load(handle))
