"""Disk caching of generated suites."""

import numpy as np
import pytest

from repro.datasets.cache import (
    CacheStats,
    SampleSetCache,
    format_cache_stats,
    generation_digest,
)
from repro.workloads.spec_omp2001 import spec_omp2001
from repro.workloads.suite import SuiteGenerationConfig


@pytest.fixture
def small_config():
    return SuiteGenerationConfig(total_samples=1200, seed=3)


class TestDigest:
    def test_stable(self, small_config):
        suite = spec_omp2001()
        assert generation_digest(suite, small_config) == generation_digest(
            spec_omp2001(), small_config
        )

    def test_sensitive_to_seed(self, small_config):
        suite = spec_omp2001()
        other = SuiteGenerationConfig(total_samples=1200, seed=4)
        assert generation_digest(suite, small_config) != generation_digest(
            suite, other
        )

    def test_sensitive_to_sample_count(self, small_config):
        suite = spec_omp2001()
        other = SuiteGenerationConfig(total_samples=1300, seed=3)
        assert generation_digest(suite, small_config) != generation_digest(
            suite, other
        )

    def test_sensitive_to_engine(self, small_config):
        from repro.uarch.core2 import build_core2_cost_model
        from repro.uarch.execution import ExecutionEngine
        from repro.uarch.nextgen import build_nextgen_cost_model

        suite = spec_omp2001()
        core2 = ExecutionEngine(build_core2_cost_model())
        nextgen = ExecutionEngine(build_nextgen_cost_model())
        assert generation_digest(suite, small_config, core2) != (
            generation_digest(suite, small_config, nextgen)
        )


class TestSampleSetCache:
    def test_memory_tier_returns_same_object(self, small_config):
        cache = SampleSetCache()
        suite = spec_omp2001()
        first = cache.get_or_generate(suite, small_config)
        second = cache.get_or_generate(suite, small_config)
        assert first is second
        assert len(cache) == 1

    def test_matches_direct_generation(self, small_config):
        cached = SampleSetCache().get_or_generate(spec_omp2001(), small_config)
        direct = spec_omp2001().generate(small_config)
        np.testing.assert_array_equal(cached.X, direct.X)
        np.testing.assert_array_equal(cached.y, direct.y)
        assert list(cached.benchmarks) == list(direct.benchmarks)

    def test_disk_roundtrip_identical(self, small_config, tmp_path):
        suite = spec_omp2001()
        generated = SampleSetCache(tmp_path).get_or_generate(
            suite, small_config
        )
        assert len(list(tmp_path.glob("*.npz"))) == 1
        # A fresh cache (empty memory tier) must serve the disk entry
        # bit-for-bit.
        loaded = SampleSetCache(tmp_path).get_or_generate(suite, small_config)
        np.testing.assert_array_equal(loaded.X, generated.X)
        np.testing.assert_array_equal(loaded.y, generated.y)
        assert loaded.feature_names == generated.feature_names
        assert list(loaded.benchmarks) == list(generated.benchmarks)

    def test_distinct_configs_distinct_entries(self, small_config, tmp_path):
        cache = SampleSetCache(tmp_path)
        cache.get_or_generate(spec_omp2001(), small_config)
        cache.get_or_generate(
            spec_omp2001(), SuiteGenerationConfig(total_samples=1200, seed=9)
        )
        assert len(cache) == 2
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_corrupt_disk_entry_regenerated(self, small_config, tmp_path):
        suite = spec_omp2001()
        SampleSetCache(tmp_path).get_or_generate(suite, small_config)
        entry = next(tmp_path.glob("*.npz"))
        entry.write_bytes(b"not an npz archive")
        data = SampleSetCache(tmp_path).get_or_generate(suite, small_config)
        assert len(data) == 1200
        direct = suite.generate(small_config)
        np.testing.assert_array_equal(data.X, direct.X)


class TestCacheStats:
    def test_memory_tier_counts(self, small_config):
        cache = SampleSetCache()
        suite = spec_omp2001()
        cache.get_or_generate(suite, small_config)
        cache.get_or_generate(suite, small_config)
        stats = cache.stats
        assert stats.memory_hits == 1
        assert stats.memory_misses == 1
        assert stats.generations == 1
        assert stats.memory_hit_rate == 0.5

    def test_disk_tier_counts_and_bytes(self, small_config, tmp_path):
        suite = spec_omp2001()
        writer = SampleSetCache(tmp_path)
        writer.get_or_generate(suite, small_config)
        assert writer.stats.disk_misses == 1
        assert writer.stats.disk_bytes_written > 0
        # A fresh cache over the same directory hits the disk tier.
        reader = SampleSetCache(tmp_path)
        reader.get_or_generate(suite, small_config)
        stats = reader.stats
        assert stats.disk_hits == 1
        assert stats.disk_bytes_read > 0
        assert stats.generations == 0

    def test_lru_eviction_counted(self, small_config):
        suite = spec_omp2001()
        other = SuiteGenerationConfig(total_samples=1200, seed=9)
        cache = SampleSetCache(max_memory_entries=1)
        cache.get_or_generate(suite, small_config)
        cache.get_or_generate(suite, other)  # evicts the first entry
        assert len(cache) == 1
        assert cache.stats.memory_evictions == 1
        # The evicted entry now misses the memory tier and regenerates.
        cache.get_or_generate(suite, small_config)
        assert cache.stats.memory_misses == 3
        assert cache.stats.generations == 3

    def test_lru_refresh_protects_recently_used(self, small_config):
        suite = spec_omp2001()
        other = SuiteGenerationConfig(total_samples=1200, seed=9)
        cache = SampleSetCache(max_memory_entries=2)
        first = cache.get_or_generate(suite, small_config)
        cache.get_or_generate(suite, other)
        # Touch the older entry, then insert a third: the *middle*
        # entry is now least recently used and gets evicted.
        assert cache.get_or_generate(suite, small_config) is first
        cache.get_or_generate(
            suite, SuiteGenerationConfig(total_samples=1200, seed=10)
        )
        assert cache.get_or_generate(suite, small_config) is first
        assert cache.stats.memory_evictions == 1

    def test_eviction_falls_back_to_disk_tier(self, small_config, tmp_path):
        suite = spec_omp2001()
        other = SuiteGenerationConfig(total_samples=1200, seed=9)
        cache = SampleSetCache(tmp_path, max_memory_entries=1)
        cache.get_or_generate(suite, small_config)
        cache.get_or_generate(suite, other)
        cache.get_or_generate(suite, small_config)  # reload from disk
        assert cache.stats.disk_hits == 1
        assert cache.stats.generations == 2

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="max_memory_entries"):
            SampleSetCache(max_memory_entries=0)

    def test_snapshot_arithmetic(self):
        a = CacheStats(memory_hits=3, disk_hits=1, generations=2)
        b = CacheStats(memory_hits=1, generations=1)
        assert (a - b).memory_hits == 2
        assert (a - b).generations == 1
        assert (a + b).memory_hits == 4
        assert (a + b).disk_hits == 1

    def test_format_mentions_both_tiers(self):
        text = format_cache_stats(
            CacheStats(memory_hits=2, memory_misses=2, disk_hits=1)
        )
        assert "cache memory:" in text and "cache disk:" in text
        assert "50% hit rate" in text

    def test_metrics_registry_mirrors_traffic(self, small_config):
        from repro.obs.metrics import get_registry

        hits = get_registry().counter("cache.memory.hits")
        before = hits.value
        cache = SampleSetCache()
        suite = spec_omp2001()
        cache.get_or_generate(suite, small_config)
        cache.get_or_generate(suite, small_config)
        assert hits.value == before + 1
