"""Micro-batching prediction engine over a model registry.

Individual predict calls (one per HTTP request) are cheap for the
caller but expensive to run one-by-one: :meth:`ModelTree.predict` is
vectorized, so 64 single-row traversals cost ~64x what one 64-row
traversal does.  The engine closes that gap with request coalescing: a
batcher thread drains a queue, groups consecutive requests by
(model, smoothing) and flushes a group when it reaches ``max_batch``
rows.  The batcher is work-conserving: it never idles while work is
queued.  Every request already waiting joins the batch, and with the
default ``max_wait_s=0`` the batch flushes as soon as the queue is
empty — requests that arrive while the kernel runs form the next
batch, so batches grow with load on their own.  A non-zero
``max_wait_s`` additionally holds the head request for company, which
only pays off for many tiny concurrent requests.

A blocking :meth:`~PredictionEngine.predict` that finds the engine
idle (zero window, empty queue, no flush running) skips the hand-off:
it runs its own one-request flush on the calling thread, so an
uncontended request never crosses threads.  One lock serializes every
flush, on either thread, and the batcher coalesces whatever queues
behind a running flush.  Results are deterministic and bit-identical
to calling ``tree.predict`` directly on the same rows, whichever
thread flushed them: batching concatenates inputs and splits outputs,
and every flushed batch evaluates through the compiled kernel
(:mod:`repro.mtree.compiled`, the default ``tree.predict`` backend),
whose per-row arithmetic — one routing pass plus one batch-invariant
row dot against the leaf coefficient matrix — is independent of batch
composition by construction.

The drift hub, when attached, is fed only by the batcher, in flush
order: each flush queues its batch for the hub while it holds the
flush lock, and the batcher observes the queued batches after its own
flushes or when an idle flush wakes it.  A caller thread never runs
the monitor or a retrain.

The engine also answers the characterization queries a model server
needs beyond raw CPI: leaf profiles (which linear models exist, their
equations and training shares), Eq. 4 workload profiling (classify
submitted rows and measure their L1 distance from the training
distribution), and structural model-vs-model comparison via
:mod:`repro.mtree.compare`.

The engine is a pure in-process component: it owns no socket, no
signal handler and no process, only a queue and one batcher thread, so
any front end can embed it — the threaded HTTP server
(:mod:`repro.serve.api`), a forked cluster replica
(:mod:`repro.cluster`), or an asyncio loop wrapping
:meth:`PredictionEngine.submit`'s :class:`PredictionFuture` in an
executor.  Blocking front ends call :meth:`~PredictionEngine.predict`
(submit + wait, or the idle flush); non-blocking ones call
:meth:`~PredictionEngine.submit`, which always enqueues, and wait on
the returned future however they like.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.characterization.similarity import l1_difference
from repro.mtree.compare import compare_trees
from repro.mtree.tree import ModelTree
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.telemetry import RequestTrace
from repro.obs.trace import span as obs_span
from repro.serve.registry import ModelRecord, ModelRegistry

__all__ = ["BatchConfig", "PredictionEngine", "PredictionFuture"]

_REQUESTS = counter("serve.engine.requests")
_ROWS = counter("serve.engine.rows")
_BATCHES = counter("serve.engine.batches")
_ERRORS = counter("serve.engine.errors")
_BATCH_ROWS = histogram("serve.engine.batch_rows")
_BATCH_REQUESTS = histogram("serve.engine.batch_requests")
_WAIT_S = histogram("serve.engine.queue_wait_s")
_QUEUE_DEPTH = gauge("serve.engine.queue_depth")
_MONITOR_ERRORS = counter("serve.engine.monitor_errors")
#: Failure-path accounting, one counter per distinct path: requests
#: that failed validation before ever occupying queue capacity, and
#: requests answered by the shutdown drain rather than a live worker.
_VALIDATION_FAILURES = counter("serve.engine.validation_failures")
_DRAINED = counter("serve.engine.drained_requests")


@dataclass(frozen=True)
class BatchConfig:
    """Micro-batching knobs.

    ``max_batch`` bounds the rows coalesced into one tree traversal.
    Every flush takes whatever is already queued, up to ``max_batch``.
    ``max_wait_s`` is how long the head request of a batch may wait
    for more requests to arrive; the default 0 never waits.  A window
    only helps when many tiny requests arrive concurrently; otherwise
    every batch sits out the whole window.
    """

    max_batch: int = 256
    max_wait_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ValueError(
                f"max_wait_s must be non-negative, got {self.max_wait_s}"
            )


class PredictionFuture:
    """Handle to one in-flight prediction.

    Returned by :meth:`PredictionEngine.submit`, which stores on it the
    tree the request was validated against; the flush predicts with
    that tree — it makes no registry call — then fulfils the future
    (result or error) and sets its event.  The flush runs on the
    batcher, or on the caller's own thread for an idle
    :meth:`PredictionEngine.predict`.  Front ends that block call
    :meth:`result`; front ends that multiplex (asyncio, pipe shims)
    hold the future, poll :attr:`done` or park a thread on
    :meth:`wait`, and collect the result later.  A future is fulfilled
    exactly once and never re-enqueued.
    """

    __slots__ = (
        "model_id",
        "smooth",
        "X",
        "tree",
        "actuals",
        "event",
        "result_array",
        "error",
        "trace",
        "t_submit",
        "t_dequeue",
        "t_flush",
        "t_kernel_end",
        "batch_rows",
        "batch_requests",
        "_spans_built",
    )

    def __init__(
        self,
        model_id: str,
        smooth: Optional[bool],
        X: np.ndarray,
        actuals: Optional[np.ndarray] = None,
        trace: Optional[RequestTrace] = None,
        tree: Optional[ModelTree] = None,
    ):
        self.model_id = model_id
        self.smooth = smooth
        self.X = X
        self.tree = tree
        self.actuals = actuals
        self.event = threading.Event()
        self.result_array: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        # Telemetry: the caller's trace, plus raw perf_counter marks the
        # flush sets before answering.  A flush does NO record building
        # or I/O per request — flushes are serialized, so every
        # microsecond one spends per request costs the whole server;
        # the caller's thread turns these marks into spans in
        # :meth:`result`.
        self.trace = trace
        self.t_submit: Optional[float] = None
        self.t_dequeue: Optional[float] = None
        self.t_flush: Optional[float] = None
        self.t_kernel_end: Optional[float] = None
        self.batch_rows: int = 0
        self.batch_requests: int = 0
        self._spans_built = False

    @property
    def done(self) -> bool:
        """True once a flush has fulfilled this future."""
        return self.event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until fulfilled (or ``timeout``); returns :attr:`done`."""
        return self.event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """The predictions, blocking up to ``timeout`` seconds.

        Raises :class:`TimeoutError` if no flush has answered in time,
        or re-raises whatever error failed the batch.  Safe to call
        more than once; trace spans are built exactly once, on the
        first post-fulfilment call (in the caller's thread, never the
        batcher's).
        """
        if not self.event.wait(timeout):
            raise TimeoutError(
                f"prediction for model {self.model_id!r} timed out after "
                f"{timeout}s"
            )
        if self.trace is not None and not self._spans_built:
            self._spans_built = True
            self._marks_to_spans()
        if self.error is not None:
            raise self.error
        assert self.result_array is not None
        return self.result_array

    def _marks_to_spans(self) -> None:
        """Convert the flush's perf_counter marks into trace spans.

        Runs on the waiting front end's thread after the event fired;
        the marks were all written before ``event.set()``, so they are
        visible here.  Missing marks (a request that errored before
        the kernel ran) simply yield fewer spans.  An idle flush
        stamps submit and dequeue together, so its queue_wait reads 0
        and its batch_assembly holds only the decision to flush alone.
        """
        trace = self.trace
        assert trace is not None
        if self.t_submit is not None and self.t_dequeue is not None:
            trace.add_stage("queue_wait", self.t_submit, self.t_dequeue)
        if self.t_dequeue is not None and self.t_flush is not None:
            trace.add_stage("batch_assembly", self.t_dequeue, self.t_flush)
        if self.t_flush is not None and self.t_kernel_end is not None:
            trace.add_stage(
                "kernel",
                self.t_flush,
                self.t_kernel_end,
                batch_rows=self.batch_rows,
                batch_requests=self.batch_requests,
            )


_SHUTDOWN = object()
#: Queued by an idle flush to wake the batcher for the drift hub.
_OBSERVE = object()

#: What :meth:`PredictionEngine.submit` accepts as the model: a ref to
#: resolve, or a ``(record, tree)`` pair already loaded from the registry.
ModelRef = Union[str, Tuple[ModelRecord, ModelTree]]


class PredictionEngine:
    """Batches predictions through one flush lock and a batcher thread.

    Use as a context manager (or call :meth:`start`/:meth:`stop`)::

        engine = PredictionEngine(registry)
        with engine:
            cpi = engine.predict("latest", X)

    The batcher flushes everything :meth:`submit` queues; an idle
    :meth:`predict` flushes on its own thread.  Either way, flushes run
    one at a time.  :meth:`stop` drains: requests already queued are
    answered before the batcher exits, and new submissions are refused.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        batch: Optional[BatchConfig] = None,
        drift=None,
    ) -> None:
        """``drift``, when given, is a :class:`repro.drift.hub.DriftHub`
        (duck-typed: anything with ``observe(model_id, X, predictions,
        actuals)``).  The batcher feeds it each flushed batch, in flush
        order, *after* the batch's callers were answered, so monitoring
        never sits on the client latency path; monitor failures are
        counted, never propagated, and every batch flushed before
        :meth:`stop` returns has been observed.
        """
        self.registry = registry
        self.batch = batch or BatchConfig()
        self.drift = drift
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._worker: Optional[threading.Thread] = None
        self._closed = True
        # Serializes the closed-check+enqueue pair against stop(): once
        # the shutdown sentinel is queued, nothing can enqueue behind it,
        # so the drain provably answers every accepted request.
        self._submit_lock = threading.Lock()
        # Serializes every flush, the batcher's and idle callers'.
        self._flush_lock = threading.Lock()
        # Flushed (group, predictions) the batcher has yet to feed the
        # drift hub; appended under the flush lock, so in flush order.
        self._unobserved: Deque[
            Tuple[List[PredictionFuture], np.ndarray]
        ] = deque()

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def start(self) -> "PredictionEngine":
        if self.running:
            return self
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Refuse new work, answer everything queued, join the worker."""
        if self._worker is None:
            return
        with self._submit_lock:
            self._closed = True
            self._queue.put(_SHUTDOWN)
        self._worker.join(timeout)
        self._worker = None

    def __enter__(self) -> "PredictionEngine":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- prediction ------------------------------------------------------

    def submit(
        self,
        ref: ModelRef,
        X: Any,
        smooth: Optional[bool] = None,
        actuals: Any = None,
        trace: Optional[RequestTrace] = None,
        *,
        _validate_only: bool = False,
    ) -> PredictionFuture:
        """Validate and enqueue one prediction; returns its future.

        Validation (model existence, shape, finiteness) happens before
        enqueueing, so malformed requests fail fast in the caller's
        thread and never occupy batch capacity.  ``ref`` is a model id
        or alias, which costs one :meth:`ModelRegistry.load` (for a
        cached model, one alias resolve and no metadata read), or the
        ``(record, tree)`` pair a caller already got from ``load()``,
        which costs no registry call.  The tree rides on the returned
        :class:`PredictionFuture` and the flush predicts with it, so an
        accepted request is answered by the tree it was validated
        against even if the model is evicted or deleted meanwhile.
        ``submit()`` always enqueues, and the batcher fulfils the
        future; collect the result with :meth:`PredictionFuture.result`.
        (``_validate_only`` is :meth:`predict`'s, which then flushes
        or enqueues the future itself.)

        ``actuals`` optionally carries observed CPI values (one per
        row; NaN = unlabelled) for the drift monitor.  They do not
        affect the predictions returned.

        ``trace`` optionally carries the caller's
        :class:`repro.obs.telemetry.RequestTrace`: validation happens
        here, and queue_wait, batch_assembly and kernel stages land on
        it *in the collecting thread* — a flush only stamps raw
        perf_counter marks on the future, and
        :meth:`PredictionFuture.result` converts them to spans, so
        traced requests add no work to the serialized flushes.  The
        exception is ``drift_observe``, which happens after callers
        are answered: when a drift hub is attached the batcher emits
        it as a small supplementary ``engine`` record sharing the
        trace ID.
        """
        if self._closed or not self.running:
            raise RuntimeError("prediction engine is not running")
        t_validate = time.perf_counter()
        try:
            record, tree = (
                self.registry.load(ref) if isinstance(ref, str) else ref
            )
            model_id = record.model_id
            X = tree._check_X(X)
            if actuals is not None:
                actuals = np.asarray(actuals, dtype=float).ravel()
                if actuals.shape[0] != X.shape[0]:
                    raise ValueError(
                        f"actuals must have one value per row: got "
                        f"{actuals.shape[0]} for {X.shape[0]} rows"
                    )
        except Exception:
            _VALIDATION_FAILURES.inc()
            raise
        if trace is not None:
            trace.add_stage(
                "validate", t_validate, time.perf_counter(), model=model_id
            )
        future = PredictionFuture(
            model_id, smooth, X, actuals, trace=trace, tree=tree
        )
        if not _validate_only:
            self._enqueue(future)
        return future

    def predict(
        self,
        ref: ModelRef,
        X: Any,
        smooth: Optional[bool] = None,
        timeout: Optional[float] = 30.0,
        actuals: Any = None,
        trace: Optional[RequestTrace] = None,
    ) -> np.ndarray:
        """CPI predictions for ``X``, blocking until they are ready.

        Validates through :meth:`submit` and collects through
        :meth:`PredictionFuture.result`.  In between, a request that
        finds the engine idle — ``max_wait_s == 0``, the engine open,
        the queue empty and no flush running — flushes alone on the
        calling thread, so it never crosses threads.  Otherwise it is
        enqueued for the batcher, exactly like :meth:`submit`.  A
        window (``max_wait_s > 0``) means "wait for company", so it
        always queues.
        """
        future = self.submit(
            ref, X, smooth=smooth, actuals=actuals, trace=trace,
            _validate_only=True,
        )
        if not self._flush_idle(future):
            self._enqueue(future)
        return future.result(timeout)

    def _enqueue(self, future: PredictionFuture) -> None:
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("prediction engine is not running")
            _REQUESTS.inc()
            _ROWS.inc(future.X.shape[0])
            future.t_submit = time.perf_counter()
            self._queue.put(future)
            _QUEUE_DEPTH.set(self._queue.qsize())

    def _flush_idle(self, future: PredictionFuture) -> bool:
        """Flush ``future`` alone on this thread if the engine is idle.

        Returns False, having done nothing, when a window is set, work
        is queued, another flush holds the lock or :meth:`stop` has
        begun.  ``_closed`` is re-read under the flush lock, which the
        batcher's shutdown drain takes once ``_closed`` is set, so an
        idle flush is either observed before :meth:`stop` returns or
        refused.
        """
        # Deciding to flush alone is this batch's assembly: the request
        # is dequeued the moment it is submitted.
        t_dequeue = time.perf_counter()
        if (
            self.batch.max_wait_s > 0
            or self._closed
            or not self._queue.empty()
            or not self._flush_lock.acquire(blocking=False)
        ):
            return False
        try:
            with self._submit_lock:
                if self._closed:
                    return False
                _REQUESTS.inc()
                _ROWS.inc(future.X.shape[0])
            future.t_submit = future.t_dequeue = t_dequeue
            self._flush([future])
        finally:
            self._flush_lock.release()
        if self.drift is not None:
            self._queue.put(_OBSERVE)  # the batcher feeds the hub
        return True

    # -- characterization queries ---------------------------------------

    def profile(self, ref: str) -> Dict[str, Any]:
        """The model's linear-model profile (Tables II/IV row schema)."""
        record, tree = self.registry.load(ref)
        return {
            "model_id": record.model_id,
            "n_leaves": tree.n_leaves,
            "depth": tree.depth(),
            "n_train": tree.n_train,
            "root_split": tree.root_split_feature(),
            "split_features": tree.split_features(),
            "leaves": [
                {
                    "name": leaf.name,
                    "share_pct": 100.0 * leaf.share,
                    "n_samples": leaf.n_samples,
                    "mean_cpi": leaf.mean_y,
                    "equation": leaf.model.equation(),
                }
                for leaf in tree.leaves()
            ],
        }

    def profile_inputs(self, ref: str, X: Any) -> Dict[str, Any]:
        """Classify rows into leaves and compare against training shares.

        The returned ``l1_vs_training_pct`` is Eq. 4 applied to (input
        distribution, training distribution): 0 means the submitted
        workload exercises the model's regimes exactly like its
        training suite; 100 means completely disjoint regimes — the
        serving-time transferability warning light.
        """
        record, tree = self.registry.load(ref)
        X = tree._check_X(X)
        assignments = tree.assign_leaves(X)
        n = X.shape[0]
        shares = {
            leaf.name: 100.0 * float(np.sum(assignments == leaf.name)) / n
            for leaf in tree.leaves()
        }
        training = {
            leaf.name: 100.0 * leaf.share for leaf in tree.leaves()
        }
        return {
            "model_id": record.model_id,
            "n": n,
            "shares_pct": shares,
            "training_shares_pct": training,
            "l1_vs_training_pct": l1_difference(shares, training),
        }

    def compare(self, ref_a: str, ref_b: str) -> Dict[str, Any]:
        """Structural similarity of two published models (Section VI)."""
        record_a, tree_a = self.registry.load(ref_a)
        record_b, tree_b = self.registry.load(ref_b)
        comparison = compare_trees(
            tree_a, tree_b, name_a=record_a.model_id, name_b=record_b.model_id
        )
        return comparison.as_dict()

    # -- the batcher -----------------------------------------------------

    def _run(self) -> None:
        while True:
            head = self._queue.get()
            if head is _SHUTDOWN:
                break
            if head is not _OBSERVE:
                with self._flush_lock:
                    self._coalesce(head)
            self._observe_flushed()
        # Drain whatever arrived before the close flag was seen.
        pending: List[PredictionFuture] = []
        t_drain = time.perf_counter()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, PredictionFuture):
                item.t_dequeue = t_drain
                pending.append(item)
        if pending:
            _DRAINED.inc(len(pending))
        # Taking the flush lock, even with nothing pending, waits out an
        # idle flush still running, so its batch is observed below.
        with self._flush_lock:
            for group in self._group(pending):
                self._flush(group)
        self._observe_flushed()

    def _coalesce(self, head: PredictionFuture) -> None:
        """Flush ``head`` with what queues behind it (flush lock held)."""
        cfg = self.batch
        head.t_dequeue = time.perf_counter()
        group = [head]
        rows = head.X.shape[0]
        deadline = time.monotonic() + cfg.max_wait_s
        t_enqueue = time.monotonic()
        while rows < cfg.max_batch:
            # Work-conserving: what is already queued joins the
            # batch even once the window has run out (or was 0).
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _OBSERVE:
                continue  # the hub is fed after this flush anyway
            if item is _SHUTDOWN:
                self._queue.put(_SHUTDOWN)  # re-deliver for the drain
                break
            item.t_dequeue = time.perf_counter()
            if (item.model_id, item.smooth) != (head.model_id, head.smooth):
                # Different model/mode: flush what we have, then put
                # the newcomer at the head of its own batch.
                self._flush(group)
                group, head = [item], item
                rows = item.X.shape[0]
                deadline = time.monotonic() + cfg.max_wait_s
                continue
            group.append(item)
            rows += item.X.shape[0]
        _WAIT_S.observe(time.monotonic() - t_enqueue)
        self._flush(group)

    @staticmethod
    def _group(requests: List[PredictionFuture]) -> List[List[PredictionFuture]]:
        """Partition drained requests into same-(model, smooth) runs."""
        groups: List[List[PredictionFuture]] = []
        for request in requests:
            if groups and (
                groups[-1][0].model_id,
                groups[-1][0].smooth,
            ) == (request.model_id, request.smooth):
                groups[-1].append(request)
            else:
                groups.append([request])
        return groups

    def _flush(self, group: List[PredictionFuture]) -> None:
        """Predict one batch and answer its callers (flush lock held)."""
        if not group:
            return
        head = group[0]
        rows = sum(r.X.shape[0] for r in group)
        _QUEUE_DEPTH.set(self._queue.qsize())
        # The batch's shape is known before the kernel runs; recording
        # it here keeps the bookkeeping inside batch_assembly.
        _BATCH_ROWS.observe(rows)
        _BATCH_REQUESTS.observe(len(group))
        t_flush = time.perf_counter()
        try:
            with obs_span(
                "serve.batch",
                model=head.model_id,
                requests=len(group),
                rows=rows,
            ):
                # One model id is one content hash, so every request in
                # the group carries a bit-identical tree.
                if len(group) == 1:
                    predictions = head.tree.predict(head.X, smooth=head.smooth)
                else:
                    stacked = np.vstack([r.X for r in group])
                    predictions = head.tree.predict(
                        stacked, smooth=head.smooth
                    )
            t_kernel_end = time.perf_counter()
            _BATCHES.inc()
            offset = 0
            for request in group:
                n = request.X.shape[0]
                request.result_array = predictions[offset : offset + n]
                offset += n
                if request.trace is not None:
                    # Marks only — the caller's thread builds the spans.
                    request.t_flush = t_flush
                    request.t_kernel_end = t_kernel_end
                    request.batch_rows = rows
                    request.batch_requests = len(group)
                request.event.set()
            if self.drift is not None:
                self._unobserved.append((group, predictions))
        except BaseException as error:  # answer callers, keep serving
            _ERRORS.inc()
            for request in group:
                if request.error is None and request.result_array is None:
                    request.error = error
                request.event.set()

    def _observe_flushed(self) -> None:
        """Feed flushed batches to the drift hub, oldest first.

        Runs only on the batcher: after each of its own flushes, when
        an idle flush wakes it, and once more at shutdown.  Callers
        were answered at flush time, so this adds nothing to request
        latency — only pipeline cost, which ``benchmarks/run_bench.py
        --only drift`` measures.
        """
        while self._unobserved:
            group, predictions = self._unobserved.popleft()
            try:
                t_drift_start = time.perf_counter()
                self._notify_drift(group, predictions)
                t_drift_end = time.perf_counter()
                self._emit_drift_traces(group, t_drift_start, t_drift_end)
            except Exception:
                # Monitoring must never take serving down with it.
                _MONITOR_ERRORS.inc()

    def _emit_drift_traces(
        self,
        group: List[PredictionFuture],
        t_drift_start: float,
        t_drift_end: float,
    ) -> None:
        """Emit the ``drift_observe`` span for each traced request.

        Drift observation runs after callers are answered, so its span
        cannot ride in the caller's own record — by the time the hub
        has seen the batch, the response is already on the wire.  Each
        traced request instead gets a small supplementary ``engine``
        record on a child trace sharing its ID and clock;
        :func:`repro.obs.telemetry.reconstruct_traces` merges the two
        at read time.
        """
        for request in group:
            rt = request.trace
            if rt is None:
                continue
            child = rt.child()
            child.add_stage("drift_observe", t_drift_start, t_drift_end)
            child.emit(
                "engine",
                model=request.model_id,
                rows=request.X.shape[0],
            )

    def _notify_drift(
        self, group: List[PredictionFuture], predictions: np.ndarray
    ) -> None:
        """Feed one flushed batch, with its actuals, to the drift hub."""
        head = group[0]
        if len(group) == 1:
            X = head.X
        else:
            X = np.vstack([r.X for r in group])
        if any(r.actuals is not None for r in group):
            actuals = np.concatenate(
                [
                    r.actuals
                    if r.actuals is not None
                    else np.full(r.X.shape[0], np.nan)
                    for r in group
                ]
            )
        else:
            actuals = None
        self.drift.observe(head.model_id, X, predictions, actuals)
