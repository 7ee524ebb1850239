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

from repro.mtree.compiled import CompiledTree
from repro.mtree.linear import LinearModel, fit_linear_model, row_dot
from repro.mtree.tree import LeafNode, ModelTree, ModelTreeConfig, SplitNode
from repro.mtree.importance import (
    cpi_attribution,
    permutation_importance,
    split_importance,
)
from repro.mtree.render import render_ascii, render_dot, render_equations
from repro.mtree.serialize import tree_from_dict, tree_to_dict
from repro.mtree.smoothing import compose_smoothed

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
