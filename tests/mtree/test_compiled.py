"""Compiled evaluator vs the recursive reference walk.

The contract under test is strict: in float64, ``CompiledTree`` (the
default ``ModelTree.predict`` backend) must be **bit-identical** to the
recursive walk (``compiled=False``) — not merely close — across random
trees, smoothed and unsmoothed, degenerate shapes, and any batch
slicing.  float32 mode must route identically and agree within the
tolerance documented in docs/PERFORMANCE.md.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mtree import tree as tree_module
from repro.mtree.compiled import CompiledForest, CompiledTree
from repro.mtree.tree import ModelTree, ModelTreeConfig

#: docs/PERFORMANCE.md documents float32 model arithmetic as accurate
#: to ~1e-5 relative; the guard leaves an order of magnitude of slack.
FLOAT32_RTOL = 1e-4


def random_tree(seed, smooth=True, n_features=None, min_leaf=None):
    """A tree fitted on piecewise-linear data with regime jumps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(120, 500))
    f = n_features or int(rng.integers(2, 9))
    X = rng.normal(size=(n, f)) * rng.uniform(0.5, 3.0, size=f)
    y = (
        X @ rng.normal(size=f)
        + np.where(X[:, 0] > 0, 2.0, -1.0)
        + rng.normal(scale=0.3, size=n)
    )
    tree = ModelTree(
        ModelTreeConfig(
            min_leaf=min_leaf or int(rng.integers(5, 40)), smooth=smooth
        )
    ).fit(X, y, [f"f{i}" for i in range(f)])
    probe = rng.normal(size=(257, f)) * 2.0
    return tree, probe


class TestBitEquality:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_compiled_matches_recursive_bitwise(self, seed, smooth):
        tree, probe = random_tree(seed, smooth=smooth)
        for n in (0, 1, 7, 64, 257):
            batch = probe[:n]
            for override in (None, True, False):
                compiled = tree.predict(batch, smooth=override)
                recursive = tree.predict(
                    batch, smooth=override, compiled=False
                )
                assert compiled.shape == (n,)
                assert np.array_equal(compiled, recursive)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_routing_matches_recursive(self, seed):
        tree, probe = random_tree(seed)
        assert np.array_equal(
            tree.assign_leaves(probe),
            tree.assign_leaves(probe, compiled=False),
        )

    def test_training_rows_roundtrip(self, cpu_tree, cpu_split):
        train, test = cpu_split
        for X in (train.X, test.X):
            assert np.array_equal(
                cpu_tree.predict(X), cpu_tree.predict(X, compiled=False)
            )
            assert np.array_equal(
                cpu_tree.assign_leaves(X),
                cpu_tree.assign_leaves(X, compiled=False),
            )

    def test_batch_slicing_invariance(self, cpu_tree, cpu_split):
        """A row's prediction is independent of its batch neighbours."""
        _, test = cpu_split
        X = test.X[:200]
        full = cpu_tree.predict(X)
        assert np.array_equal(full[:1], cpu_tree.predict(X[:1]))
        assert np.array_equal(full[37:113], cpu_tree.predict(X[37:113]))
        rows = np.array([5, 3, 198, 77])
        assert np.array_equal(full[rows], cpu_tree.predict(X[rows]))


class TestDegenerateShapes:
    def test_single_leaf_tree(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        tree = ModelTree(ModelTreeConfig(min_leaf=30)).fit(
            X, np.ones(40), ["a", "b", "c"]
        )
        assert tree.n_leaves == 1
        probe = rng.normal(size=(17, 3))
        assert np.array_equal(
            tree.predict(probe), tree.predict(probe, compiled=False)
        )
        compiled = tree.compiled()
        assert np.array_equal(
            compiled.route(probe), np.zeros(17, dtype=np.int64)
        )
        assert list(compiled.assign_names(probe)) == ["LM1"] * 17

    def test_empty_batch(self, cpu_tree):
        empty = np.empty((0, len(cpu_tree.feature_names)))
        assert cpu_tree.predict(empty).shape == (0,)
        assert cpu_tree.assign_leaves(empty).shape == (0,)

    def test_one_row_batch(self, cpu_tree, cpu_split):
        _, test = cpu_split
        one = test.X[:1]
        assert np.array_equal(
            cpu_tree.predict(one), cpu_tree.predict(one, compiled=False)
        )


class TestFloat32Mode:
    def test_routing_identical_and_values_within_tolerance(self, cpu_tree, cpu_split):
        _, test = cpu_split
        X = test.X[:500]
        f64 = cpu_tree.compiled()
        f32 = cpu_tree.compiled(np.float32)
        assert f32.dtype == np.dtype(np.float32)
        # Routing always compares in float64: identical leaf choice.
        assert np.array_equal(f64.route(X), f32.route(X))
        for smooth in (True, False):
            a = f64.predict(X, smooth=smooth)
            b = f32.predict(X, smooth=smooth)
            assert b.dtype == np.float32
            np.testing.assert_allclose(b, a, rtol=FLOAT32_RTOL)

    def test_rejects_other_dtypes(self, cpu_tree):
        with pytest.raises(ValueError, match="float64 or float32"):
            CompiledTree(cpu_tree, dtype=np.int32)


class TestCompiledCache:
    def test_cached_per_dtype_and_invalidated_by_refit(self):
        tree, probe = random_tree(11)
        first = tree.compiled()
        assert tree.compiled() is first
        assert tree.compiled(np.float32) is not first
        assert tree.compiled(np.float32) is tree.compiled(np.float32)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, len(tree.feature_names)))
        tree.fit(X, X[:, 0], tree.feature_names)
        assert tree.compiled() is not first

    def test_first_use_from_many_threads(self, monkeypatch):
        """Threads racing through a fresh tree's lazy compile all get
        its predictions.  A slow smoothing composition holds the race
        window open: a thread must never find the cache pointing at
        this root before the composed tree is in it."""
        tree, probe = random_tree(12)
        twin, _ = random_tree(12)
        expected = twin.predict(probe)
        compose = tree_module.compose_smoothed

        def slow_compose(fitted):
            time.sleep(0.05)
            return compose(fitted)

        monkeypatch.setattr(tree_module, "compose_smoothed", slow_compose)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def call(index: int) -> None:
            try:
                barrier.wait(10)
                results[index] = tree.predict(probe)
            except Exception as error:
                errors.append(error)

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for got in results:
            np.testing.assert_array_equal(got, expected)
        assert tree.compiled() is tree.compiled()

    def test_leaf_names_in_lm_order(self, cpu_tree):
        assert list(cpu_tree.compiled().leaf_names) == cpu_tree.leaf_names()

    def test_input_validation(self, cpu_tree):
        compiled = cpu_tree.compiled()
        with pytest.raises(ValueError, match="expected"):
            compiled.predict(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="expected"):
            compiled.route(np.zeros(4))


class TestCompiledForest:
    def test_members_bit_identical_to_solo_predict(self, cpu_tree, omp_tree_cpu_schema, cpu_split):
        _, test = cpu_split
        X = test.X[:300]
        forest = CompiledForest(
            [("champion", cpu_tree), ("challenger", omp_tree_cpu_schema)]
        )
        stacked = forest.predict(X)
        assert stacked.shape == (2, 300)
        assert np.array_equal(stacked[0], cpu_tree.predict(X))
        assert np.array_equal(stacked[1], omp_tree_cpu_schema.predict(X))
        by_name = forest.predict_dict(X)
        assert np.array_equal(by_name["champion"], stacked[0])
        assert np.array_equal(by_name["challenger"], stacked[1])

    def test_route_matches_member_routing(self, cpu_tree, omp_tree_cpu_schema, cpu_split):
        _, test = cpu_split
        X = test.X[:100]
        forest = CompiledForest(
            [("a", cpu_tree), ("b", omp_tree_cpu_schema)]
        )
        slots = forest.route(X)
        assert np.array_equal(slots[0], cpu_tree.compiled().route(X))
        assert np.array_equal(
            slots[1], omp_tree_cpu_schema.compiled().route(X)
        )

    def test_comparisons_slices_cover_all_splits(self, cpu_tree, omp_tree_cpu_schema, cpu_split):
        _, test = cpu_split
        X = test.X[:50]
        forest = CompiledForest(
            [("a", cpu_tree), ("b", omp_tree_cpu_schema)]
        )
        went = forest.comparisons(X)
        total = sum(
            m._split_feature.size for m in forest.members
        )
        assert went.shape == (50, total)
        assert forest.slices[0].stop == forest.slices[1].start

    def test_rejects_empty_and_duplicates_and_schema_mismatch(self, cpu_tree):
        with pytest.raises(ValueError, match="at least one"):
            CompiledForest([])
        with pytest.raises(ValueError, match="duplicate"):
            CompiledForest([("m", cpu_tree), ("m", cpu_tree)])
        other, _ = random_tree(2, n_features=3)
        with pytest.raises(ValueError, match="schema"):
            CompiledForest([("a", cpu_tree), ("b", other)])

    def test_single_member_forest(self, cpu_tree, cpu_split):
        _, test = cpu_split
        X = test.X[:64]
        forest = CompiledForest([("only", cpu_tree)])
        assert np.array_equal(
            forest.predict(X)[0], cpu_tree.predict(X)
        )


@pytest.fixture(scope="module")
def omp_tree_cpu_schema(cpu_split):
    """A second tree over the *CPU* schema (forests need one schema)."""
    train, _ = cpu_split
    return ModelTree(ModelTreeConfig(min_leaf=60, smooth=False)).fit_sample_set(
        train
    )
