"""Dataset layer: named-column sample containers, splits and I/O."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "load_arff": "repro.datasets.arff",
    "save_arff": "repro.datasets.arff",
    "CacheStats": "repro.datasets.cache",
    "SampleSetCache": "repro.datasets.cache",
    "format_cache_stats": "repro.datasets.cache",
    "generation_digest": "repro.datasets.cache",
    "SampleSet": "repro.datasets.dataset",
    "load_csv": "repro.datasets.io",
    "save_csv": "repro.datasets.io",
    "train_test_split": "repro.datasets.splits",
    "stratified_split": "repro.datasets.splits",
}

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

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
