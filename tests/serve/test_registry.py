"""Registry behaviour: publishing, aliasing, integrity, concurrency."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.mtree.serialize import tree_to_dict
from repro.obs.metrics import get_registry
from repro.serve.registry import (
    ALIAS_HISTORY_SCHEMA,
    CorruptArtifact,
    ModelNotFound,
    ModelRecord,
    ModelRegistry,
    RegistryError,
)

from tests.serve.conftest import make_tree


class TestPublish:
    def test_publish_and_load_round_trip(self, registry, tiny_tree, probe):
        record = registry.publish(tiny_tree, metadata={"suite": "synth"})
        loaded_record, loaded_tree = registry.load(record.model_id)
        assert loaded_record.model_id == record.model_id
        assert loaded_record.metadata["suite"] == "synth"
        np.testing.assert_array_equal(
            loaded_tree.predict(probe), tiny_tree.predict(probe)
        )

    def test_content_addressed_id_is_deterministic(self, registry, tiny_tree):
        first = registry.publish(tiny_tree)
        second = registry.publish(tiny_tree)
        assert first.model_id == second.model_id
        assert first.artifact_sha256 == second.artifact_sha256
        assert len(registry) == 1

    def test_different_trees_get_different_ids(self, registry):
        a = registry.publish(make_tree(seed=3))
        b = registry.publish(make_tree(seed=4))
        assert a.model_id != b.model_id
        assert len(registry) == 2

    def test_record_fields(self, registry, tiny_tree):
        record = registry.publish(tiny_tree)
        assert record.n_leaves == tiny_tree.n_leaves
        assert record.n_features == 3
        assert record.feature_names == ("p", "q", "r")
        assert len(record.model_id) == 16
        restored = ModelRecord.from_dict(
            json.loads(json.dumps(record.as_dict()))
        )
        assert restored == record

    def test_list_records_sorted_oldest_first(self, registry):
        a = registry.publish(make_tree(seed=3))
        b = registry.publish(make_tree(seed=4))
        listed = [r.model_id for r in registry.list_records()]
        assert set(listed) == {a.model_id, b.model_id}


class TestAliases:
    def test_latest_by_default(self, registry, tiny_tree):
        record = registry.publish(tiny_tree)
        assert registry.resolve("latest") == record.model_id

    def test_repointing_latest(self, registry):
        registry.publish(make_tree(seed=3))
        newer = registry.publish(make_tree(seed=4))
        assert registry.resolve("latest") == newer.model_id

    def test_custom_aliases(self, registry, tiny_tree):
        record = registry.publish(tiny_tree, aliases=("latest", "prod"))
        assert registry.aliases() == {
            "latest": record.model_id,
            "prod": record.model_id,
        }

    def test_missing_alias_raises_model_not_found(self, registry, tiny_tree):
        registry.publish(tiny_tree, aliases=())
        with pytest.raises(ModelNotFound, match="no model or alias"):
            registry.resolve("latest")

    def test_alias_to_unknown_model_rejected(self, registry):
        with pytest.raises(ModelNotFound):
            registry.set_alias("latest", "0" * 16)

    def test_dangling_alias_reported(self, registry, tiny_tree, tmp_path):
        record = registry.publish(tiny_tree)
        # Simulate a pruned model left behind by a partial cleanup.
        (registry.root / "models" / record.model_id / "meta.json").unlink()
        with pytest.raises(ModelNotFound, match="points at missing model"):
            registry.resolve("latest")

    def test_invalid_alias_name_rejected(self, registry, tiny_tree):
        registry.publish(tiny_tree)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(RegistryError):
                registry.set_alias(bad, registry.resolve("latest"))

    def test_model_not_found_message_is_prose(self, registry):
        # KeyError subclasses normally repr() their message; ours must not.
        try:
            registry.resolve("ghost")
        except ModelNotFound as error:
            assert "no model or alias 'ghost'" in str(error)
        else:  # pragma: no cover
            pytest.fail("expected ModelNotFound")


class TestIntegrity:
    def test_corrupted_artifact_detected(self, registry, tiny_tree):
        record = registry.publish(tiny_tree)
        artifact = registry.root / "models" / record.model_id / "artifact.json"
        payload = json.loads(artifact.read_text())
        payload["root"]["model"]["intercept"] += 0.25  # the silent killer
        artifact.write_text(json.dumps(payload))
        cold = ModelRegistry(registry.root)  # no LRU copy to hide behind
        with pytest.raises(CorruptArtifact, match="hash mismatch"):
            cold.load(record.model_id)

    def test_truncated_artifact_detected(self, registry, tiny_tree):
        record = registry.publish(tiny_tree)
        artifact = registry.root / "models" / record.model_id / "artifact.json"
        artifact.write_bytes(artifact.read_bytes()[:-10])
        with pytest.raises(CorruptArtifact):
            ModelRegistry(registry.root).load(record.model_id)

    def test_missing_artifact_detected(self, registry, tiny_tree):
        record = registry.publish(tiny_tree)
        (registry.root / "models" / record.model_id / "artifact.json").unlink()
        with pytest.raises(CorruptArtifact, match="missing artifact"):
            ModelRegistry(registry.root).load(record.model_id)

    def test_cache_shields_corruption_until_eviction(
        self, registry, tiny_tree
    ):
        """A cached tree keeps serving; only a cold load re-reads disk."""
        record = registry.publish(tiny_tree)
        artifact = registry.root / "models" / record.model_id / "artifact.json"
        artifact.write_bytes(b"garbage")
        _, tree = registry.load(record.model_id)  # LRU hit from publish
        assert tree.n_leaves == tiny_tree.n_leaves
        cold = ModelRegistry(registry.root)
        with pytest.raises(CorruptArtifact):
            cold.load(record.model_id)


class TestLru:
    def test_lru_bounds_cached_trees(self, tmp_path):
        registry = ModelRegistry(tmp_path, max_cached_trees=2)
        for seed in (3, 4, 5):
            registry.publish(make_tree(seed=seed), aliases=())
        assert len(registry._trees) == 2
        assert len(registry) == 3  # everything still on disk

    def test_evicted_tree_reloads_from_disk(self, tmp_path, probe):
        registry = ModelRegistry(tmp_path, max_cached_trees=1)
        first = registry.publish(make_tree(seed=3), aliases=())
        registry.publish(make_tree(seed=4), aliases=())  # evicts first
        assert first.model_id not in registry._trees
        _, tree = registry.load(first.model_id)
        np.testing.assert_array_equal(
            tree.predict(probe), make_tree(seed=3).predict(probe)
        )

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ModelRegistry(tmp_path, max_cached_trees=0)


class TestCachedRecord:
    """``load()`` serves the record cached with the tree."""

    def test_hit_counts_as_a_load_and_a_cache_hit(self, registry, tiny_tree):
        record = registry.publish(tiny_tree)
        metrics = get_registry()
        loads = metrics.counter("serve.registry.loads").value
        hits = metrics.counter("serve.registry.cache_hits").value
        assert registry.load("latest") == registry.load(record.model_id)
        assert metrics.counter("serve.registry.loads").value == loads + 2
        assert metrics.counter("serve.registry.cache_hits").value == hits + 2

    def test_republish_in_process_replaces_cached_record(
        self, registry, tiny_tree
    ):
        first = registry.publish(tiny_tree, metadata={"v": 1})
        assert registry.load(first.model_id)[0].metadata == {"v": 1}
        second = registry.publish(tiny_tree, metadata={"v": 2})
        assert registry.load(first.model_id)[0] == second

    def test_republish_by_another_registry_shows_after_evict(
        self, registry, tiny_tree
    ):
        first = registry.publish(tiny_tree, metadata={"v": 1})
        ModelRegistry(registry.root).publish(tiny_tree, metadata={"v": 2})
        assert registry.record(first.model_id).metadata == {"v": 2}
        assert registry.load(first.model_id)[0].metadata == {"v": 1}
        registry.evict(first.model_id)
        assert registry.load(first.model_id)[0].metadata == {"v": 2}

    def test_concurrent_loads_keep_records_paired_with_trees(
        self, tmp_path
    ):
        """A two-slot LRU over three models, hit and missed from six
        threads: every load returns the record and tree of one model."""
        registry = ModelRegistry(tmp_path, max_cached_trees=2)
        expected = {}
        for seed in (3, 4, 5):
            tree = make_tree(seed=seed)
            record = registry.publish(tree, aliases=())
            expected[record.model_id] = tree_to_dict(tree)
        ids = list(expected)
        mismatches = []

        def churn(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for k in rng.integers(len(ids), size=30):
                model_id = ids[k]
                try:
                    record, tree = registry.load(model_id)
                    paired = record.model_id == model_id and (
                        tree_to_dict(tree) == expected[model_id]
                    )
                except Exception as error:  # pragma: no cover
                    paired = error
                if paired is not True:
                    mismatches.append((model_id, paired))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(k,)) for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(registry._trees) == 2

    def test_alias_moved_by_another_registry_is_seen_at_once(
        self, registry
    ):
        a = registry.publish(make_tree(seed=3))
        b = registry.publish(make_tree(seed=4), aliases=())
        assert registry.load("latest")[0].model_id == a.model_id
        ModelRegistry(registry.root).move_alias("latest", b.model_id)
        assert registry.load("latest")[0].model_id == b.model_id


class TestAliasHistory:
    def test_move_alias_records_prior_target(self, registry):
        a = registry.publish(make_tree(seed=3), aliases=())
        b = registry.publish(make_tree(seed=4), aliases=())
        first = registry.move_alias(
            "latest", a.model_id, reason="initial", actor="test"
        )
        second = registry.move_alias("latest", b.model_id, reason="promote")
        assert first["schema"] == ALIAS_HISTORY_SCHEMA
        assert first["from"] is None
        assert first["to"] == a.model_id
        assert first["actor"] == "test"
        assert second["from"] == a.model_id
        assert second["to"] == b.model_id
        assert registry.resolve("latest") == b.model_id

    def test_history_survives_reopen(self, registry, tmp_path):
        a = registry.publish(make_tree(seed=3), aliases=())
        registry.move_alias("latest", a.model_id)
        history = ModelRegistry(registry.root).alias_history("latest")
        assert len(history) == 1
        assert history[0]["to"] == a.model_id

    def test_move_to_unknown_model_leaves_no_history(self, registry):
        registry.publish(make_tree(seed=3))
        with pytest.raises(ModelNotFound):
            registry.move_alias("latest", "0" * 16)
        assert registry.alias_history("latest") == []

    def test_drop_alias_recorded_with_null_target(self, registry):
        a = registry.publish(make_tree(seed=3))
        dropped = registry.drop_alias("latest", reason="retire")
        assert dropped["from"] == a.model_id
        assert dropped["to"] is None
        with pytest.raises(ModelNotFound):
            registry.resolve("latest")
        assert registry.drop_alias("latest") is None  # idempotent

    def test_unwritten_alias_has_empty_history(self, registry):
        assert registry.alias_history("never-seen") == []

    def test_torn_tail_line_tolerated(self, registry):
        a = registry.publish(make_tree(seed=3), aliases=())
        registry.move_alias("latest", a.model_id)
        path = registry.root / "alias_history" / "latest.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-alias-mo')  # crashed writer
        history = registry.alias_history("latest")
        assert len(history) == 1

    def test_invalid_alias_name_rejected_for_history(self, registry):
        with pytest.raises(RegistryError):
            registry.alias_history("a/b")


class TestConcurrentAliasFlips:
    def test_two_writers_one_winner_no_dangling_alias(self, registry, probe):
        """Racing flips serialize: the alias always lands on a loadable
        model and the history forms an unbroken from -> to chain."""
        a = registry.publish(make_tree(seed=21), aliases=())
        b = registry.publish(make_tree(seed=22), aliases=())
        flips_each = 20
        errors = []
        barrier = threading.Barrier(2)

        def flip(model_id: str) -> None:
            try:
                barrier.wait()
                for _ in range(flips_each):
                    registry.move_alias("latest", model_id, actor="racer")
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=flip, args=(model_id,))
            for model_id in (a.model_id, b.model_id)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # One winner, never a dangling alias.
        final = registry.resolve("latest")
        assert final in {a.model_id, b.model_id}
        record, tree = registry.load("latest")
        np.testing.assert_array_equal(
            tree.predict(probe),
            registry.load(final)[1].predict(probe),
        )
        # Every move was recorded, and each entry's `from` is exactly
        # the previous entry's `to` — no lost updates.
        history = registry.alias_history("latest")
        assert len(history) == 2 * flips_each
        assert history[0]["from"] is None
        for prev, entry in zip(history, history[1:]):
            assert entry["from"] == prev["to"]
        assert history[-1]["to"] == final


class TestConcurrentPublish:
    def test_two_threads_publishing_same_tree(self, tmp_path, probe):
        """Atomic renames make the same-content race benign."""
        tree = make_tree(seed=11)
        errors = []
        barrier = threading.Barrier(2)

        def publish() -> None:
            try:
                registry = ModelRegistry(tmp_path)  # own LRU, shared disk
                barrier.wait()
                for _ in range(10):
                    registry.publish(tree, metadata={"suite": "race"})
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=publish) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        registry = ModelRegistry(tmp_path)
        assert len(registry) == 1
        record, loaded = registry.load("latest")
        np.testing.assert_array_equal(
            loaded.predict(probe), tree.predict(probe)
        )

    def test_two_threads_publishing_different_trees(self, tmp_path):
        trees = [make_tree(seed=21), make_tree(seed=22)]
        errors = []
        barrier = threading.Barrier(2)

        def publish(index: int) -> None:
            try:
                registry = ModelRegistry(tmp_path)
                barrier.wait()
                registry.publish(trees[index])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=publish, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        registry = ModelRegistry(tmp_path)
        assert len(registry) == 2
        # 'latest' ends on whichever publisher renamed last; either way
        # it must resolve to a loadable, integrity-checked model.
        record, _ = registry.load("latest")
        assert record.model_id in {
            r.model_id for r in registry.list_records()
        }
