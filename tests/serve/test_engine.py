"""Prediction engine: batching semantics, equivalence, drain, queries."""

import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.obs.telemetry import RequestTrace
from repro.serve import engine as engine_module
from repro.serve.engine import BatchConfig, PredictionEngine
from repro.serve.registry import ModelNotFound

from tests.serve.conftest import make_tree


@pytest.fixture
def published(registry, tiny_tree):
    record = registry.publish(tiny_tree, metadata={"suite": "synth"})
    return registry, record


class TestBatchConfig:
    def test_defaults(self):
        config = BatchConfig()
        assert config.max_batch >= 1
        assert config.max_wait_s >= 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(max_wait_s=-1)


class TestPredict:
    def test_bit_identical_to_direct_predict(
        self, published, tiny_tree, probe
    ):
        registry, record = published
        with PredictionEngine(registry) as engine:
            result = engine.predict(record.model_id, probe)
        np.testing.assert_array_equal(result, tiny_tree.predict(probe))

    def test_alias_reference(self, published, tiny_tree, probe):
        registry, _ = published
        with PredictionEngine(registry) as engine:
            result = engine.predict("latest", probe)
        np.testing.assert_array_equal(result, tiny_tree.predict(probe))

    def test_smoothing_override(self, published, tiny_tree, probe):
        registry, record = published
        with PredictionEngine(registry) as engine:
            raw = engine.predict(record.model_id, probe, smooth=False)
        np.testing.assert_array_equal(
            raw, tiny_tree.predict(probe, smooth=False)
        )

    def test_concurrent_callers_all_get_their_rows(self, published, tiny_tree):
        """Many threads, coalesced batches, per-caller results intact."""
        registry, record = published
        rng = np.random.default_rng(5)
        inputs = [rng.random((rows, 3)) for rows in (1, 3, 7, 2, 5, 1, 4, 6)]
        expected = [tiny_tree.predict(X) for X in inputs]
        results = [None] * len(inputs)
        errors = []
        barrier = threading.Barrier(len(inputs))

        def call(index: int) -> None:
            try:
                barrier.wait()
                results[index] = engine.predict(record.model_id, inputs[index])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        with PredictionEngine(
            registry, batch=BatchConfig(max_batch=16, max_wait_s=0.01)
        ) as engine:
            threads = [
                threading.Thread(target=call, args=(i,))
                for i in range(len(inputs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_mixed_models_in_queue(self, registry, probe):
        """Requests for different models flush as separate batches."""
        tree_a, tree_b = make_tree(seed=31), make_tree(seed=32)
        a = registry.publish(tree_a, aliases=())
        b = registry.publish(tree_b, aliases=())
        with PredictionEngine(
            registry, batch=BatchConfig(max_batch=64, max_wait_s=0.01)
        ) as engine:
            results = {}
            errors = []

            def call(key, ref):
                try:
                    results[key] = engine.predict(ref, probe)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=call, args=(i, ref))
                for i, ref in enumerate(
                    [a.model_id, b.model_id, a.model_id, b.model_id]
                )
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        np.testing.assert_array_equal(results[0], tree_a.predict(probe))
        np.testing.assert_array_equal(results[1], tree_b.predict(probe))
        np.testing.assert_array_equal(results[0], results[2])
        np.testing.assert_array_equal(results[1], results[3])


class _HoldFirstFlush:
    """Drift-hub stand-in that parks the worker in its first flush.

    The engine feeds the hub after answering a batch's callers, so the
    first request completes while the worker stays busy until
    :attr:`release` is set.
    """

    def __init__(self) -> None:
        self.holding = threading.Event()
        self.release = threading.Event()

    def observe(self, model_id, X, predictions, actuals) -> None:
        if not self.holding.is_set():
            self.holding.set()
            self.release.wait(30)


class _ExpiredWindowClock:
    """Engine ``time`` stand-in: ``monotonic`` jumps a second per call,
    so every batch window has run out by the time it is checked."""

    perf_counter = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


class TestWorkConserving:
    """Requests queued behind a busy worker flush together."""

    @staticmethod
    def _flushes(published, tiny_tree, batch, inputs) -> int:
        """Queue ``inputs`` while the worker is held in its first flush,
        release it, check every caller's rows, and return how many
        batches the queued requests took."""
        registry, record = published
        hub = _HoldFirstFlush()
        batches = get_registry().counter("serve.engine.batches")
        with PredictionEngine(registry, batch=batch, drift=hub) as engine:
            try:
                engine.predict(record.model_id, inputs[0], timeout=10)
                assert hub.holding.wait(10)
                before = batches.value
                futures = [engine.submit(record.model_id, X) for X in inputs]
            finally:
                hub.release.set()
            results = [future.result(10) for future in futures]
            flushed = batches.value - before
        for X, got in zip(inputs, results):
            np.testing.assert_array_equal(got, tiny_tree.predict(X))
        return flushed

    @pytest.fixture
    def inputs(self):
        rng = np.random.default_rng(17)
        return [rng.random((rows, 3)) for rows in (3, 1, 4, 2, 5)]

    def test_zero_window_takes_everything_queued(
        self, published, tiny_tree, inputs
    ):
        batch = BatchConfig(max_wait_s=0)
        assert self._flushes(published, tiny_tree, batch, inputs) == 1

    def test_expired_window_takes_everything_queued(
        self, published, tiny_tree, inputs, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "time", _ExpiredWindowClock())
        batch = BatchConfig(max_wait_s=0.05)
        assert self._flushes(published, tiny_tree, batch, inputs) == 1

    def test_batch_stops_at_max_batch(self, published, tiny_tree):
        X = np.random.default_rng(18).random((4, 3))
        batch = BatchConfig(max_batch=8)
        assert self._flushes(published, tiny_tree, batch, [X] * 4) == 2


class _KernelLog:
    """Stands in for one tree's ``predict`` and logs every batch.

    Records the thread that ran each batch and a copy of its rows, in
    call order; flushes are serialized, so that is flush order.  With
    ``hold_first`` the first batch parks in the kernel, holding the
    engine's flush lock, until :attr:`release` is set.
    """

    def __init__(self, tree, hold_first: bool = False) -> None:
        self.calls = []
        self.holding = threading.Event()
        self.release = threading.Event()
        self._hold = hold_first
        self._predict = tree.predict
        tree.predict = self

    def __call__(self, X, smooth=None):
        self.calls.append((threading.current_thread().name, X.copy()))
        if self._hold and not self.holding.is_set():
            self.holding.set()
            self.release.wait(30)
        return self._predict(X, smooth=smooth)

    @property
    def threads(self):
        return [name for name, _ in self.calls]


class _RecordingHub:
    """Drift-hub stand-in that records each batch it observes."""

    def __init__(self) -> None:
        self.calls = []

    def observe(self, model_id, X, predictions, actuals) -> None:
        self.calls.append((threading.current_thread().name, X.copy()))


def _wait_for(condition, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


BATCHER = "repro-serve-batcher"


class TestIdleFlush:
    """An idle ``predict()`` flushes on its own thread; the rest queue."""

    @pytest.fixture
    def served(self, registry):
        tree = make_tree(seed=71)
        twin = make_tree(seed=71)
        record = registry.publish(tree)
        return registry, record, tree, twin

    def test_idle_predict_runs_on_the_calling_thread(self, served, probe):
        registry, record, tree, twin = served
        kernel = _KernelLog(tree)
        trace = RequestTrace("idle-1")
        with PredictionEngine(registry) as engine:
            result = engine.predict(record.model_id, probe, trace=trace)
        assert kernel.threads == [threading.current_thread().name]
        np.testing.assert_array_equal(result, twin.predict(probe))
        stages = {stage["stage"]: stage for stage in trace.stages}
        assert list(stages) == [
            "validate", "queue_wait", "batch_assembly", "kernel"
        ]
        assert stages["queue_wait"]["duration_s"] == 0.0
        assert stages["kernel"]["batch_requests"] == 1

    def test_requests_during_a_held_flush_coalesce_on_the_batcher(
        self, served
    ):
        registry, record, tree, twin = served
        kernel = _KernelLog(tree, hold_first=True)
        rng = np.random.default_rng(73)
        inputs = [rng.random((rows, 3)) for rows in (2, 3, 1, 4, 5)]
        results = [None] * len(inputs)
        errors = []
        metrics = get_registry()
        batches = metrics.counter("serve.engine.batches")
        requests = metrics.counter("serve.engine.requests")

        def call(index: int) -> None:
            try:
                results[index] = engine.predict(
                    record.model_id, inputs[index], timeout=30
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        with PredictionEngine(registry) as engine:
            batches_before = batches.value
            first = threading.Thread(target=call, args=(0,), name="first")
            first.start()
            try:
                assert kernel.holding.wait(10)
                requests_before = requests.value
                others = [
                    threading.Thread(target=call, args=(i,))
                    for i in range(1, len(inputs))
                ]
                for thread in others:
                    thread.start()
                # The held flush owns the lock, so each one queues.
                assert _wait_for(
                    lambda: requests.value
                    == requests_before + len(others)
                )
            finally:
                kernel.release.set()
            for thread in [first, *others]:
                thread.join(30)
            flushed = batches.value - batches_before
        assert not any(t.is_alive() for t in [first, *others])
        assert not errors
        assert flushed == 2
        assert kernel.threads == ["first", BATCHER]
        assert kernel.calls[1][1].shape[0] == sum(
            X.shape[0] for X in inputs[1:]
        )
        for X, got in zip(inputs, results):
            np.testing.assert_array_equal(got, twin.predict(X))

    def test_window_always_queues(self, served, probe):
        registry, record, tree, twin = served
        kernel = _KernelLog(tree)
        batch = BatchConfig(max_wait_s=0.001)
        with PredictionEngine(registry, batch=batch) as engine:
            result = engine.predict(record.model_id, probe)
        assert kernel.threads == [BATCHER]
        np.testing.assert_array_equal(result, twin.predict(probe))

    def test_submit_always_queues(self, served, probe):
        registry, record, tree, twin = served
        kernel = _KernelLog(tree)
        with PredictionEngine(registry) as engine:
            result = engine.submit(record.model_id, probe).result(10)
        assert kernel.threads == [BATCHER]
        np.testing.assert_array_equal(result, twin.predict(probe))

    def test_loaded_pair_skips_the_registry(self, served, probe):
        registry, record, tree, twin = served
        pair = registry.load(record.model_id)
        loads = get_registry().counter("serve.registry.loads")
        with PredictionEngine(registry) as engine:
            before = loads.value
            result = engine.predict(pair, probe)
            assert loads.value == before
        np.testing.assert_array_equal(result, twin.predict(probe))


class TestDriftHandOff:
    """Only the batcher feeds the hub, once per batch, in flush order."""

    def test_hub_sees_every_batch_once_in_flush_order(self, registry):
        tree = make_tree(seed=74)
        record = registry.publish(tree)
        kernel = _KernelLog(tree)
        hub = _RecordingHub()
        rng = np.random.default_rng(75)
        errors = []

        def caller(seed: int) -> None:
            local = np.random.default_rng(seed)
            try:
                for _ in range(15):
                    X = local.random((int(local.integers(1, 6)), 3))
                    if local.random() < 0.3:
                        engine.submit(record.model_id, X).result(10)
                    else:
                        engine.predict(record.model_id, X)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PredictionEngine(registry, drift=hub) as engine:
                engine.predict(record.model_id, rng.random((3, 3)))
                threads = [
                    threading.Thread(target=caller, args=(seed,))
                    for seed in (1, 2, 3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert kernel.threads[0] == threading.current_thread().name
        assert {name for name, _ in hub.calls} == {BATCHER}
        assert len(hub.calls) == len(kernel.calls)
        for (_, observed), (_, flushed) in zip(hub.calls, kernel.calls):
            np.testing.assert_array_equal(observed, flushed)

    def test_stop_waits_out_an_idle_flush_and_observes_it(
        self, registry, probe
    ):
        tree = make_tree(seed=77)
        record = registry.publish(tree)
        kernel = _KernelLog(tree, hold_first=True)
        hub = _RecordingHub()
        engine = PredictionEngine(registry, drift=hub).start()
        results = []
        caller = threading.Thread(
            target=lambda: results.append(
                engine.predict(record.model_id, probe)
            )
        )
        caller.start()
        stopper = threading.Thread(target=engine.stop)
        try:
            assert kernel.holding.wait(10)
            stopper.start()
            stopper.join(0.2)
            # The held flush owns the lock the shutdown drain takes.
            assert stopper.is_alive()
        finally:
            kernel.release.set()
        stopper.join(10)
        caller.join(10)
        assert not stopper.is_alive() and not caller.is_alive()
        assert len(results) == 1
        assert [name for name, _ in hub.calls] == [BATCHER]
        np.testing.assert_array_equal(hub.calls[0][1], probe)

    def test_predict_racing_stop_is_observed_or_refused(self, registry):
        tree = make_tree(seed=76)
        record = registry.publish(tree)
        hub = _RecordingHub()
        engine = PredictionEngine(registry, drift=hub).start()
        completed, refused = [], []
        some_done = threading.Event()

        def caller(seed: int) -> None:
            local = np.random.default_rng(seed)
            while True:
                X = local.random((2, 3))
                try:
                    engine.predict(record.model_id, X, timeout=10)
                except RuntimeError:
                    refused.append(seed)
                    return
                completed.append(X)
                if len(completed) >= 6:
                    some_done.set()

        threads = [
            threading.Thread(target=caller, args=(seed,))
            for seed in (11, 12, 13)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            assert some_done.wait(10)
            engine.stop()
            observed = {
                row.tobytes() for _, X in list(hub.calls) for row in X
            }
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(refused) == [11, 12, 13]
        assert len(completed) >= 6
        for X in completed:
            for row in X:
                assert row.tobytes() in observed


class TestHotSwap:
    def test_in_flight_requests_pin_the_old_model_across_alias_flip(
        self, registry, probe
    ):
        """A request submitted before a ``move_alias`` completes against
        the model the alias resolved to at submit time — bit-identical
        to that tree — while the next request serves the new model.

        The engine resolves alias -> model_id in the caller's thread
        before enqueueing, so the pipeline's promotion flip can never
        re-route a request that is already in a batch.
        """
        tree_a, tree_b = make_tree(seed=41), make_tree(seed=42)
        a = registry.publish(tree_a)  # takes 'latest'
        b = registry.publish(tree_b, aliases=())
        results = {}
        errors = []
        # A wide-open batch window: the in-flight request sits in A's
        # accumulating batch until a different model forces a flush.
        with PredictionEngine(
            registry, batch=BatchConfig(max_batch=1024, max_wait_s=0.5)
        ) as engine:

            def call_before_flip() -> None:
                try:
                    results["old"] = engine.predict("latest", probe)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            thread = threading.Thread(target=call_before_flip)
            thread.start()
            time.sleep(0.05)  # let the request reach A's open batch
            registry.move_alias("latest", b.model_id, reason="hot swap")
            # Resolves to B now; its arrival flushes A's batch at once.
            results["new"] = engine.predict("latest", probe)
            thread.join()
        assert not errors
        np.testing.assert_array_equal(results["old"], tree_a.predict(probe))
        np.testing.assert_array_equal(results["new"], tree_b.predict(probe))
        assert not np.array_equal(results["old"], results["new"])


class TestFlushUsesValidatedTree:
    def test_accepted_request_survives_eviction_and_deletion(
        self, registry, probe
    ):
        """The batcher predicts with the tree ``submit`` validated
        against, so deleting the model after acceptance cannot fail an
        accepted request."""
        tree_a = make_tree(seed=61)
        a = registry.publish(tree_a)
        hub = _HoldFirstFlush()
        with PredictionEngine(registry, drift=hub) as engine:
            try:
                engine.predict(a.model_id, probe, timeout=10)
                assert hub.holding.wait(10)
                future = engine.submit(a.model_id, probe)
                registry.evict(a.model_id)
                shutil.rmtree(registry.root / "models" / a.model_id)
            finally:
                hub.release.set()
            result = future.result(10)
        np.testing.assert_array_equal(result, tree_a.predict(probe))


class TestValidation:
    def test_unknown_model_fails_fast(self, published, probe):
        registry, _ = published
        with PredictionEngine(registry) as engine:
            with pytest.raises(ModelNotFound):
                engine.predict("ghost", probe)

    def test_bad_shape_fails_fast(self, published):
        registry, record = published
        with PredictionEngine(registry) as engine:
            with pytest.raises(ValueError, match="feature column"):
                engine.predict(record.model_id, np.ones((4, 7)))

    def test_non_finite_fails_fast(self, published):
        registry, record = published
        X = np.ones((3, 3))
        X[1, 2] = np.nan
        with PredictionEngine(registry) as engine:
            with pytest.raises(ValueError, match="NaN/Inf"):
                engine.predict(record.model_id, X)

    def test_stopped_engine_refuses(self, published, probe):
        registry, record = published
        engine = PredictionEngine(registry)
        with pytest.raises(RuntimeError, match="not running"):
            engine.predict(record.model_id, probe)
        engine.start()
        engine.stop()
        with pytest.raises(RuntimeError, match="not running"):
            engine.predict(record.model_id, probe)


class TestDrain:
    def test_stop_answers_queued_work(self, published, tiny_tree, probe):
        """Requests racing shutdown either finish or fail loudly."""
        registry, record = published
        engine = PredictionEngine(
            registry, batch=BatchConfig(max_batch=4, max_wait_s=0.05)
        ).start()
        outcomes = []

        def call() -> None:
            try:
                outcomes.append(engine.predict(record.model_id, probe))
            except RuntimeError:
                outcomes.append("refused")

        threads = [threading.Thread(target=call) for _ in range(6)]
        for thread in threads:
            thread.start()
        engine.stop()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 6
        expected = tiny_tree.predict(probe)
        for outcome in outcomes:
            if not isinstance(outcome, str):
                np.testing.assert_array_equal(outcome, expected)

    def test_stop_is_idempotent(self, registry):
        engine = PredictionEngine(registry).start()
        engine.stop()
        engine.stop()
        assert not engine.running


class TestQueries:
    def test_profile(self, published, tiny_tree):
        registry, record = published
        engine = PredictionEngine(registry)  # profile works unstarted
        profile = engine.profile("latest")
        assert profile["model_id"] == record.model_id
        assert profile["n_leaves"] == tiny_tree.n_leaves
        assert len(profile["leaves"]) == tiny_tree.n_leaves
        shares = sum(leaf["share_pct"] for leaf in profile["leaves"])
        assert shares == pytest.approx(100.0)
        assert profile["leaves"][0]["equation"].startswith("CPI =")

    def test_profile_inputs_matches_training_distribution(
        self, published, tiny_tree
    ):
        """Feeding back training-like data gives a small Eq. 4 distance."""
        registry, record = published
        rng = np.random.default_rng(3)
        X = rng.random((2000, 3))
        engine = PredictionEngine(registry)
        result = engine.profile_inputs("latest", X)
        assert result["n"] == 2000
        assert sum(result["shares_pct"].values()) == pytest.approx(100.0)
        assert 0.0 <= result["l1_vs_training_pct"] <= 100.0

    def test_profile_inputs_skewed_distribution_is_distant(self, published):
        registry, record = published
        X = np.full((50, 3), 0.01)  # everything lands in one leaf
        engine = PredictionEngine(registry)
        result = engine.profile_inputs("latest", X)
        assert max(result["shares_pct"].values()) == pytest.approx(100.0)
        assert result["l1_vs_training_pct"] > 10.0

    def test_compare_self_is_identical(self, published):
        registry, record = published
        engine = PredictionEngine(registry)
        comparison = engine.compare("latest", record.model_id)
        assert comparison["split_jaccard"] == 1.0
        assert comparison["weighted_overlap"] == pytest.approx(1.0)

    def test_compare_distinct_models(self, registry):
        registry.publish(make_tree(seed=3), aliases=("a",))
        registry.publish(make_tree(seed=4), aliases=("b",))
        engine = PredictionEngine(registry)
        comparison = engine.compare("a", "b")
        assert 0.0 <= comparison["split_jaccard"] <= 1.0
        assert set(comparison) >= {
            "split_events_a",
            "split_events_b",
            "weighted_overlap",
        }
