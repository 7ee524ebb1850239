"""Dataset layer: named-column sample containers, splits and I/O."""

from repro.datasets.arff import load_arff, save_arff
from repro.datasets.cache import (
    CacheStats,
    SampleSetCache,
    format_cache_stats,
    generation_digest,
)
from repro.datasets.dataset import SampleSet
from repro.datasets.io import load_csv, save_csv
from repro.datasets.splits import train_test_split, stratified_split

__all__ = [
    "CacheStats",
    "SampleSet",
    "SampleSetCache",
    "format_cache_stats",
    "generation_digest",
    "load_arff",
    "load_csv",
    "save_arff",
    "save_csv",
    "train_test_split",
    "stratified_split",
]
