"""Characterization layer: leaf profiles and benchmark similarity.

Implements Section IV.B / V.B of the paper: classify every sample of a
data set into the linear models of a fitted tree, tabulate the
distribution per benchmark (Tables II and IV), and compare benchmarks
by the L1 (Manhattan) distance between their distributions (Table III,
Equation 4).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BenchmarkProfile": "repro.characterization.profile",
    "SuiteProfile": "repro.characterization.profile",
    "profile_sample_set": "repro.characterization.profile",
    "SimilarityMatrix": "repro.characterization.similarity",
    "l1_difference": "repro.characterization.similarity",
    "similarity_matrix": "repro.characterization.similarity",
    "format_profile_table": "repro.characterization.report",
    "format_similarity_table": "repro.characterization.report",
    "SalientFeature": "repro.characterization.salience",
    "find_salient_features": "repro.characterization.salience",
    "render_salience": "repro.characterization.salience",
}

__all__ = [
    "SalientFeature",
    "find_salient_features",
    "render_salience",
    "BenchmarkProfile",
    "SimilarityMatrix",
    "SuiteProfile",
    "format_profile_table",
    "format_similarity_table",
    "l1_difference",
    "profile_sample_set",
    "similarity_matrix",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
