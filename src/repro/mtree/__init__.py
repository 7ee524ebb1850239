"""M5' model trees — the paper's core analytical engine.

A from-scratch implementation of Quinlan's M5 algorithm with the M5'
refinements (Wang & Witten), as used by the paper via WEKA:

* growth by standard-deviation-reduction (SDR) split search
  (:mod:`repro.mtree.splitting`),
* multivariate linear models at the leaves with greedy attribute
  elimination driven by the adjusted error (:mod:`repro.mtree.linear`),
* pruning that replaces subtrees whose estimated error is no better
  than their leaf model's (:mod:`repro.mtree.pruning`),
* optional smoothing of leaf predictions along the path to the root
  (:mod:`repro.mtree.smoothing`),
* rendering (ASCII + Graphviz DOT) with the per-node sample shares and
  average CPI annotations of the paper's Figures 1 and 2
  (:mod:`repro.mtree.render`), and JSON serialization.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CompiledTree": "repro.mtree.compiled",
    "LinearModel": "repro.mtree.linear",
    "fit_linear_model": "repro.mtree.linear",
    "row_dot": "repro.mtree.linear",
    "LeafNode": "repro.mtree.tree",
    "ModelTree": "repro.mtree.tree",
    "ModelTreeConfig": "repro.mtree.tree",
    "SplitNode": "repro.mtree.tree",
    "cpi_attribution": "repro.mtree.importance",
    "permutation_importance": "repro.mtree.importance",
    "split_importance": "repro.mtree.importance",
    "render_ascii": "repro.mtree.render",
    "render_dot": "repro.mtree.render",
    "render_equations": "repro.mtree.render",
    "tree_from_dict": "repro.mtree.serialize",
    "tree_to_dict": "repro.mtree.serialize",
    "compose_smoothed": "repro.mtree.smoothing",
}

__all__ = [
    "CompiledTree",
    "LeafNode",
    "LinearModel",
    "ModelTree",
    "ModelTreeConfig",
    "SplitNode",
    "compose_smoothed",
    "cpi_attribution",
    "fit_linear_model",
    "permutation_importance",
    "render_ascii",
    "render_dot",
    "render_equations",
    "row_dot",
    "split_importance",
    "tree_from_dict",
    "tree_to_dict",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
