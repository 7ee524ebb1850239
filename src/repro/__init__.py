"""repro — reproduction of "Characterization of SPEC CPU2006 and SPEC
OMP2001: Regression Models and their Transferability" (ISPASS 2008).

The package is organized bottom-up:

* :mod:`repro.pmu` — simulated performance-counter collection (Table I
  events, round-robin multiplexing).
* :mod:`repro.uarch` — the Core-2-like ground-truth cost model standing
  in for the paper's hardware.
* :mod:`repro.workloads` — synthetic SPEC CPU2006 / SPEC OMP2001 suites.
* :mod:`repro.datasets` — sample containers, splits, CSV I/O.
* :mod:`repro.mtree` — the M5' model tree (the paper's core method).
* :mod:`repro.baselines` — comparison regressors (OLS, CART, kNN, MLP).
* :mod:`repro.characterization` — leaf profiles and benchmark
  similarity (Tables II-IV).
* :mod:`repro.stats` / :mod:`repro.transfer` — hypothesis tests and
  prediction metrics for transferability (Section VI).
* :mod:`repro.experiments` — one runner per paper table/figure.

Quickstart::

    from repro import (ModelTree, ModelTreeConfig, spec_cpu2006,
                       SuiteGenerationConfig)
    data = spec_cpu2006().generate(SuiteGenerationConfig(total_samples=10_000))
    tree = ModelTree(ModelTreeConfig(min_leaf=40)).fit_sample_set(data)
    print(tree.root_split_feature(), tree.n_leaves)
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SampleSet": "repro.datasets",
    "load_csv": "repro.datasets",
    "save_csv": "repro.datasets",
    "train_test_split": "repro.datasets",
    "l1_difference": "repro.characterization",
    "profile_sample_set": "repro.characterization",
    "similarity_matrix": "repro.characterization",
    "ExperimentConfig": "repro.experiments",
    "ExperimentContext": "repro.experiments",
    "run_experiment": "repro.experiments",
    "ModelTree": "repro.mtree",
    "ModelTreeConfig": "repro.mtree",
    "render_ascii": "repro.mtree",
    "render_dot": "repro.mtree",
    "render_equations": "repro.mtree",
    "tree_from_dict": "repro.mtree",
    "tree_to_dict": "repro.mtree",
    "TransferabilityCriteria": "repro.transfer",
    "assess_transferability": "repro.transfer",
    "prediction_metrics": "repro.transfer",
    "two_sample_t_test": "repro.transfer",
    "Suite": "repro.workloads",
    "SuiteGenerationConfig": "repro.workloads",
    "spec_cpu2006": "repro.workloads",
    "spec_omp2001": "repro.workloads",
}

__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentContext",
    "ModelTree",
    "ModelTreeConfig",
    "SampleSet",
    "Suite",
    "SuiteGenerationConfig",
    "TransferabilityCriteria",
    "__version__",
    "assess_transferability",
    "l1_difference",
    "load_csv",
    "prediction_metrics",
    "profile_sample_set",
    "render_ascii",
    "render_dot",
    "render_equations",
    "run_experiment",
    "save_csv",
    "similarity_matrix",
    "spec_cpu2006",
    "spec_omp2001",
    "train_test_split",
    "tree_from_dict",
    "tree_to_dict",
    "two_sample_t_test",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
