"""Content-addressed caching of generated sample sets.

Suite generation is deterministic given its configuration, so a
generated SampleSet can be cached keyed by a digest of everything that
determines it (suite name and benchmark specs, sample count, seed,
collector and noise parameters, cost model identity).  Repeated CLI
invocations, experiment batteries and parallel workers then generate
each distinct dataset exactly once.

:class:`SampleSetCache` is an in-process digest-keyed table backed by
an optional on-disk ``.npz`` store that can be shared between processes
(writes are atomic, so concurrent workers race benignly).
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from repro.datasets.dataset import SampleSet
from repro.durable import atomic_write
from repro.obs.metrics import counter

if TYPE_CHECKING:  # avoid a layering inversion at runtime
    from repro.uarch.execution import ExecutionEngine
    from repro.workloads.suite import Suite, SuiteGenerationConfig

__all__ = [
    "generation_digest",
    "CacheStats",
    "format_cache_stats",
    "SampleSetCache",
]

# Process-wide cache metrics (summed over every SampleSetCache in the
# process); cached instruments keep the per-access cost to one add.
_MEM_HITS = counter("cache.memory.hits")
_MEM_MISSES = counter("cache.memory.misses")
_MEM_EVICTIONS = counter("cache.memory.evictions")
_DISK_HITS = counter("cache.disk.hits")
_DISK_MISSES = counter("cache.disk.misses")
_DISK_BYTES_READ = counter("cache.disk.bytes_read")
_DISK_BYTES_WRITTEN = counter("cache.disk.bytes_written")
_GENERATIONS = counter("cache.generations")


def generation_digest(
    suite: "Suite",
    config: "SuiteGenerationConfig",
    engine: Optional["ExecutionEngine"] = None,
) -> str:
    """A stable hex digest of everything that determines the output."""
    payload = {
        "suite": suite.name,
        "benchmarks": [
            {
                "name": spec.name,
                "weight": spec.weight,
                "persistence": spec.persistence,
                "phases": [
                    {
                        "name": phase.name,
                        "weight": phase.weight,
                        "densities": dict(sorted(phase.densities.items())),
                        "spread": phase.spread,
                        "spreads": dict(sorted(phase.spreads.items())),
                    }
                    for phase in spec.phases
                ],
            }
            for spec in suite.benchmarks
        ],
        "total_samples": config.total_samples,
        "seed": config.seed,
        "collector": {
            "interval_instructions": config.collector.interval_instructions,
            "n_programmable": config.collector.n_programmable,
            "multiplex": config.collector.multiplex,
        },
        "noise": {
            "additive_sigma": config.noise.additive_sigma,
            "relative_sigma": config.noise.relative_sigma,
            "floor_cpi": config.noise.floor_cpi,
        },
    }
    if engine is not None:
        payload["cost_model"] = engine.cost_model.describe()
        payload["engine_noise"] = {
            "additive_sigma": engine.noise.additive_sigma,
            "relative_sigma": engine.noise.relative_sigma,
            "floor_cpi": engine.noise.floor_cpi,
        }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _save_npz(data: SampleSet, path: Path) -> None:
    """Atomically write a SampleSet as a compressed-free ``.npz``."""
    buffer = io.BytesIO()
    np.savez(
        buffer,
        feature_names=np.asarray(data.feature_names, dtype=str),
        X=data.X,
        y=data.y,
        benchmarks=data.benchmarks.astype(str),
    )
    atomic_write(path, buffer.getbuffer())


def _load_npz(path: Path) -> SampleSet:
    with np.load(path, allow_pickle=False) as archive:
        return SampleSet(
            [str(name) for name in archive["feature_names"]],
            archive["X"],
            archive["y"],
            archive["benchmarks"].astype(object),
        )


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time :class:`SampleSetCache` statistics, per tier.

    Styled after :mod:`repro.pmu.diagnostics`: a frozen snapshot plus a
    formatter, so callers can difference two snapshots (``after -
    before``) to isolate one battery's traffic, or sum per-worker
    deltas (``a + b``) into battery totals.
    """

    memory_hits: int = 0
    memory_misses: int = 0
    memory_evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_bytes_read: int = 0
    disk_bytes_written: int = 0
    generations: int = 0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            *(
                getattr(self, name) - getattr(other, name)
                for name in self.__dataclass_fields__
            )
        )

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            *(
                getattr(self, name) + getattr(other, name)
                for name in self.__dataclass_fields__
            )
        )

    @property
    def memory_hit_rate(self) -> float:
        lookups = self.memory_hits + self.memory_misses
        return self.memory_hits / lookups if lookups else 0.0


def format_cache_stats(stats: CacheStats) -> str:
    """Two-line per-tier rendering for run summaries."""
    return "\n".join(
        [
            (
                f"  cache memory: {stats.memory_hits} hit(s), "
                f"{stats.memory_misses} miss(es), "
                f"{stats.memory_evictions} eviction(s) "
                f"({stats.memory_hit_rate:.0%} hit rate)"
            ),
            (
                f"  cache disk:   {stats.disk_hits} hit(s), "
                f"{stats.disk_misses} miss(es), "
                f"{stats.disk_bytes_read / 1e6:.1f} MB read, "
                f"{stats.disk_bytes_written / 1e6:.1f} MB written, "
                f"{stats.generations} generation(s)"
            ),
        ]
    )


class SampleSetCache:
    """Two-tier content-addressed cache of generated sample sets.

    Hits are served from process memory first, then (when ``cache_dir``
    is given) from an on-disk ``.npz`` store keyed by
    :func:`generation_digest`.  Disk writes go through a temp file and
    an atomic rename, so multiple worker processes can share one
    directory: concurrent misses regenerate the same bytes and the last
    rename wins.

    ``max_memory_entries`` bounds the in-process tier: when set, the
    least-recently-used sample set is evicted on insert (it remains
    reloadable from disk if a ``cache_dir`` was given).  Per-tier
    hit/miss/eviction statistics are kept per cache (:attr:`stats`) and
    mirrored into the process-wide metrics registry under
    ``cache.memory.*`` / ``cache.disk.*``.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        max_memory_entries: Optional[int] = None,
    ) -> None:
        if max_memory_entries is not None and max_memory_entries < 1:
            raise ValueError(
                f"max_memory_entries must be >= 1, got {max_memory_entries}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_memory_entries = max_memory_entries
        self._memory: Dict[str, SampleSet] = {}
        self._memory_hits = 0
        self._memory_misses = 0
        self._memory_evictions = 0
        self._disk_hits = 0
        self._disk_misses = 0
        self._disk_bytes_read = 0
        self._disk_bytes_written = 0
        self._generations = 0

    @property
    def stats(self) -> CacheStats:
        """Snapshot of this cache's lifetime statistics."""
        return CacheStats(
            memory_hits=self._memory_hits,
            memory_misses=self._memory_misses,
            memory_evictions=self._memory_evictions,
            disk_hits=self._disk_hits,
            disk_misses=self._disk_misses,
            disk_bytes_read=self._disk_bytes_read,
            disk_bytes_written=self._disk_bytes_written,
            generations=self._generations,
        )

    def _path(self, suite_name: str, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{suite_name.replace(' ', '_')}-{digest}.npz"

    def _remember(self, digest: str, data: SampleSet) -> None:
        if (
            self.max_memory_entries is not None
            and digest not in self._memory
            and len(self._memory) >= self.max_memory_entries
        ):
            oldest = next(iter(self._memory))
            del self._memory[oldest]
            self._memory_evictions += 1
            _MEM_EVICTIONS.inc()
        self._memory[digest] = data

    def get_or_generate(
        self,
        suite: "Suite",
        config: "SuiteGenerationConfig",
        engine: Optional["ExecutionEngine"] = None,
    ) -> SampleSet:
        """The sample set for (suite, config, engine), generated at most once."""
        digest = generation_digest(suite, config, engine)
        hit = self._memory.get(digest)
        if hit is not None:
            self._memory_hits += 1
            _MEM_HITS.inc()
            if self.max_memory_entries is not None:
                # LRU refresh: re-insert at the back of the dict order.
                del self._memory[digest]
                self._memory[digest] = hit
            return hit
        self._memory_misses += 1
        _MEM_MISSES.inc()
        if self.cache_dir is not None:
            path = self._path(suite.name, digest)
            if path.exists():
                try:
                    nbytes = path.stat().st_size
                    data = _load_npz(path)
                except (ValueError, OSError, KeyError):
                    path.unlink(missing_ok=True)
                else:
                    self._disk_hits += 1
                    self._disk_bytes_read += nbytes
                    _DISK_HITS.inc()
                    _DISK_BYTES_READ.inc(nbytes)
                    self._remember(digest, data)
                    return data
            self._disk_misses += 1
            _DISK_MISSES.inc()
        data = suite.generate(config, engine=engine)
        self._generations += 1
        _GENERATIONS.inc()
        self._remember(digest, data)
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(suite.name, digest)
            _save_npz(data, path)
            try:
                nbytes = path.stat().st_size
            except OSError:
                nbytes = 0
            self._disk_bytes_written += nbytes
            _DISK_BYTES_WRITTEN.inc(nbytes)
        return data

    def __len__(self) -> int:
        return len(self._memory)
