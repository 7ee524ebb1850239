"""The M5' model tree.

:class:`ModelTree` ties the pieces together: SDR growth
(:mod:`repro.mtree.splitting`), leaf models with attribute elimination
(:mod:`repro.mtree.linear`), bottom-up pruning
(:mod:`repro.mtree.pruning`) and prediction smoothing
(:mod:`repro.mtree.smoothing`).  After fitting, leaves are named LM1,
LM2, ... left-to-right exactly as in the paper's Figures 1 and 2, and
:meth:`ModelTree.assign_leaves` classifies arbitrary samples into
those models — the operation behind Tables II and IV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.dataset import SampleSet
from repro.mtree.compiled import CompiledTree
from repro.mtree.linear import LinearModel, fit_linear_model
from repro.mtree.pruning import (
    combine_subtree_errors,
    node_model_error,
    should_prune,
)
from repro.mtree.smoothing import SMOOTHING_K, compose_smoothed
from repro.mtree.splitting import best_split_presorted
from repro.obs.metrics import counter
from repro.obs.trace import span as obs_span

__all__ = ["ModelTreeConfig", "LeafNode", "SplitNode", "ModelTree"]


@dataclass(frozen=True)
class ModelTreeConfig:
    """M5' hyperparameters.

    ``min_leaf`` is WEKA's -M (minimum instances per leaf);
    ``sd_threshold`` stops splitting once a node's target deviation
    falls below that fraction of the root's (M5's 5% rule);
    ``smooth`` enables Quinlan's prediction smoothing;
    ``penalty`` scales the parameter-count term of the adjusted error.
    The paper "varied M5' parameters to achieve a balance between
    tractable model size and good prediction accuracy" — these are the
    parameters it varied.
    """

    min_leaf: int = 25
    sd_threshold: float = 0.05
    max_depth: int = 12
    prune: bool = True
    smooth: bool = True
    smoothing_k: float = SMOOTHING_K
    eliminate: bool = True
    penalty: float = 4.0

    def __post_init__(self) -> None:
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if not 0.0 <= self.sd_threshold < 1.0:
            raise ValueError(
                f"sd_threshold must be in [0, 1), got {self.sd_threshold}"
            )
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.smoothing_k < 0:
            raise ValueError(
                f"smoothing_k must be non-negative, got {self.smoothing_k}"
            )


@dataclass
class LeafNode:
    """A leaf: one linear model plus its training statistics."""

    model: LinearModel
    n_samples: int
    mean_y: float
    name: str = ""
    share: float = 0.0  # fraction of training samples, filled after fit


@dataclass
class SplitNode:
    """An interior node: a threshold test plus a model for smoothing."""

    feature_index: int
    feature_name: str
    threshold: float
    left: "TreeNode"
    right: "TreeNode"
    model: LinearModel
    n_samples: int
    mean_y: float
    share: float = 0.0


TreeNode = Union[LeafNode, SplitNode]

#: Trees fitted process-wide; cached instruments keep the per-fit
#: bookkeeping to two integer adds.
_TREES_FITTED = counter("mtree.fits")
_NODES_BUILT = counter("mtree.nodes_built")


class ModelTree:
    """An M5' regression model tree.

    Typical use::

        tree = ModelTree(ModelTreeConfig(min_leaf=40))
        tree.fit_sample_set(train)
        predictions = tree.predict(test.X)
        leaf_names = tree.assign_leaves(test.X)
    """

    def __init__(self, config: Optional[ModelTreeConfig] = None) -> None:
        self.config = config or ModelTreeConfig()
        self.feature_names: Tuple[str, ...] = ()
        self.root: Optional[TreeNode] = None
        self.n_train: int = 0
        self._leaves: List[LeafNode] = []
        self._leaf_by_name: Dict[str, LeafNode] = {}
        # Lazily-built compiled evaluators, keyed by dtype and pinned
        # to the root they were compiled from (refitting replaces the
        # root object, which invalidates the cache by identity).  Each
        # cache is one (root, value) attribute, replaced whole, so a
        # thread never sees a root paired with another root's value.
        self._compiled_cache: Tuple[Optional[TreeNode], Dict] = (None, {})
        # The smoothing-composed twin (see ``_composed``), cached and
        # invalidated the same way.
        self._composed_cache: Tuple[
            Optional[TreeNode], Optional["ModelTree"]
        ] = (None, None)
        # Fit-time working state (populated only inside ``fit``).
        self._fit_y: Optional[np.ndarray] = None
        self._fit_XT: Optional[np.ndarray] = None
        self._left_mask: Optional[np.ndarray] = None

    # -- fitting ---------------------------------------------------------

    def fit(
        self, X: np.ndarray, y: np.ndarray, feature_names: Sequence[str]
    ) -> "ModelTree":
        """Fit the tree to samples ``(X, y)``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        feature_names = tuple(feature_names)
        if X.ndim != 2 or X.shape[1] != len(feature_names):
            raise ValueError(
                f"X shape {X.shape} does not match {len(feature_names)} features"
            )
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} != ({X.shape[0]},)")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 samples to fit a model tree")
        self.feature_names = feature_names
        self.n_train = X.shape[0]
        _TREES_FITTED.inc()
        with obs_span(
            "mtree.fit",
            n_samples=X.shape[0],
            n_features=len(feature_names),
        ) as fit_span:
            root_sd = float(np.std(y))

            # Fit-wide working state for the presorted split search:
            # each feature is stable-sorted ONCE here; `_build`
            # partitions the sorted index arrays at every split instead
            # of re-sorting.
            self._fit_y = y
            self._fit_XT = np.ascontiguousarray(X.T)
            self._left_mask = np.zeros(X.shape[0], dtype=bool)
            # int32 indices halve the bandwidth of every per-node
            # gather; the gathered float64 values are unaffected.
            # Sorting the transposed copy row-wise yields the identical
            # stable permutation as column-sorting X (same sequences,
            # same tie order) but runs on contiguous memory and needs
            # no transpose copy afterwards.
            presorted = np.argsort(
                self._fit_XT, axis=-1, kind="stable"
            ).astype(np.int32)
            # The sorted value/target stacks are gathered once here;
            # every split below partitions them with a boolean take
            # (which keeps both order and bits), so no node re-gathers
            # from X or y.
            values_sorted = self._fit_XT[
                np.arange(X.shape[1])[:, None], presorted
            ]
            try:
                self.root, _ = self._build(
                    np.arange(X.shape[0], dtype=np.int32),
                    presorted,
                    values_sorted,
                    y[presorted],
                    depth=0,
                    root_sd=root_sd,
                )
            finally:
                self._fit_y = self._fit_XT = None
                self._left_mask = None
            self._finalize()
            fit_span.note(n_leaves=len(self._leaves))
        return self

    def fit_sample_set(self, data: SampleSet) -> "ModelTree":
        """Fit from a :class:`SampleSet` (CPI as the target)."""
        return self.fit(data.X, data.y, data.feature_names)

    def _constant_leaf(self, y: np.ndarray) -> LeafNode:
        # Inlined np.mean/np.std arithmetic (bit-identical: np.mean of a
        # 1-D float64 array is np.add.reduce(a) / n).
        mean_y = float(np.add.reduce(y) / y.size)
        deviations = np.abs(y - mean_y)
        model = LinearModel(
            feature_names=self.feature_names,
            intercept=mean_y,
            coef=np.zeros(len(self.feature_names)),
            n_samples=y.size,
            train_mae=float(np.add.reduce(deviations) / y.size),
        )
        return LeafNode(model=model, n_samples=y.size, mean_y=mean_y)

    def _build(
        self,
        rows: np.ndarray,
        presorted: np.ndarray,
        values_sorted: np.ndarray,
        y_sorted: np.ndarray,
        depth: int,
        root_sd: float,
    ) -> Tuple[TreeNode, float]:
        """Grow and (optionally) prune; returns (node, adjusted error).

        ``rows`` are the node's sample indices in original order;
        ``presorted`` is (n_features, len(rows)) with row ``j`` holding
        the same indices sorted by feature ``j``; ``values_sorted`` and
        ``y_sorted`` carry the matching attribute values and targets.
        Children inherit order-preserving partitions of all three, so
        no recursive call ever re-sorts, re-gathers or re-validates
        anything.
        """
        cfg = self.config
        n = rows.size
        y = self._fit_y[rows]
        _NODES_BUILT.inc()
        split = None
        if n >= 2 * cfg.min_leaf and depth < cfg.max_depth:
            # The node's deviation only feeds the stopping rule, so it
            # is skipped entirely when size or depth already stops the
            # node.  Inlined np.std(y): identical float64 arithmetic
            # without the per-call dispatch overhead.
            centered = y - np.add.reduce(y) / n
            np.multiply(centered, centered, out=centered)
            sd = math.sqrt(np.add.reduce(centered) / n)
            if sd >= cfg.sd_threshold * root_sd:
                with obs_span(
                    "mtree.split_search", depth=depth, n=n
                ) as search_span:
                    split = best_split_presorted(
                        values_sorted, y_sorted, cfg.min_leaf
                    )
                    if split is not None:
                        search_span.note(
                            feature=self.feature_names[split.feature_index],
                            threshold=split.threshold,
                            sdr=split.sdr,
                        )
        if split is None:
            leaf = self._constant_leaf(y)
            return leaf, node_model_error(leaf.model, cfg.penalty)

        mask = self._fit_XT[split.feature_index, rows] <= split.threshold
        left_rows = rows[mask]
        right_rows = rows[np.logical_not(mask, out=mask)]

        # Partition each feature's sorted row in place-order: selecting
        # the surviving positions keeps the sorted order (and the exact
        # values), so children never pay the O(n log n) sorts or the
        # gathers again.  The flat position lists are computed once and
        # reused across all three stacks — a 2-D boolean take visits
        # elements in the same C order, just slower.
        self._left_mask[left_rows] = True
        goes_left = self._left_mask[presorted]
        self._left_mask[left_rows] = False
        flat_left = np.flatnonzero(goes_left)
        flat_right = np.flatnonzero(np.logical_not(goes_left, out=goes_left))
        n_l, n_r = left_rows.size, right_rows.size

        left, left_error = self._build(
            left_rows,
            presorted.take(flat_left).reshape(-1, n_l),
            values_sorted.take(flat_left).reshape(-1, n_l),
            y_sorted.take(flat_left).reshape(-1, n_l),
            depth + 1,
            root_sd,
        )
        right, right_error = self._build(
            right_rows,
            presorted.take(flat_right).reshape(-1, n_r),
            values_sorted.take(flat_right).reshape(-1, n_r),
            y_sorted.take(flat_right).reshape(-1, n_r),
            depth + 1,
            root_sd,
        )

        candidates = sorted(
            self._subtree_feature_indices(left)
            | self._subtree_feature_indices(right)
            | {split.feature_index}
        )
        # Gather only the candidate columns (rows of the transposed
        # matrix) instead of all schema columns for these rows — the
        # interior-node fit never looks at the rest.
        candidate_cols = np.array(candidates, dtype=int)
        model = fit_linear_model(
            self._fit_XT[candidate_cols[:, None], rows].T,
            y,
            self.feature_names,
            candidate_columns=candidate_cols,
            pregathered=True,
            eliminate=cfg.eliminate,
            penalty=cfg.penalty,
        )
        model_error = node_model_error(model, cfg.penalty)
        subtree_error = combine_subtree_errors(
            left_error, self._node_n(left), right_error, self._node_n(right)
        )
        mean_y = float(np.add.reduce(y) / n)
        if cfg.prune and should_prune(model_error, subtree_error):
            leaf = LeafNode(model=model, n_samples=n, mean_y=mean_y)
            return leaf, model_error
        node = SplitNode(
            feature_index=split.feature_index,
            feature_name=self.feature_names[split.feature_index],
            threshold=split.threshold,
            left=left,
            right=right,
            model=model,
            n_samples=n,
            mean_y=mean_y,
        )
        return node, subtree_error

    @staticmethod
    def _node_n(node: TreeNode) -> int:
        return node.n_samples

    def _subtree_feature_indices(self, node: TreeNode) -> set:
        """Feature columns used by splits or models in the subtree.

        Index-space twin of "which features appear anywhere below":
        a model's active features are exactly the non-zero coefficient
        positions, so no name round-trips are needed while fitting.
        """
        used = set(np.flatnonzero(node.model.coef).tolist())
        if isinstance(node, SplitNode):
            used.add(node.feature_index)
            used |= self._subtree_feature_indices(node.left)
            used |= self._subtree_feature_indices(node.right)
        return used

    def _finalize(self) -> None:
        """Name leaves LM1..LMk left-to-right and fill share fields."""
        self._leaves = []

        def visit(node: TreeNode) -> None:
            node.share = node.n_samples / self.n_train
            if isinstance(node, LeafNode):
                node.name = f"LM{len(self._leaves) + 1}"
                self._leaves.append(node)
            else:
                visit(node.left)
                visit(node.right)

        assert self.root is not None
        visit(self.root)
        self._leaf_by_name = {leaf.name: leaf for leaf in self._leaves}

    def _finalize_from_loaded(self) -> None:
        """Rebuild the leaf list of a deserialized tree (names kept)."""
        self._leaves = []

        def visit(node: TreeNode) -> None:
            if isinstance(node, LeafNode):
                self._leaves.append(node)
            else:
                visit(node.left)
                visit(node.right)

        visit(self._require_fitted())
        self._leaf_by_name = {leaf.name: leaf for leaf in self._leaves}

    # -- introspection ---------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self.root is not None

    def _require_fitted(self) -> TreeNode:
        if self.root is None:
            raise RuntimeError("model tree is not fitted yet")
        return self.root

    def leaves(self) -> List[LeafNode]:
        """All leaves, left-to-right (LM1 first)."""
        self._require_fitted()
        return list(self._leaves)

    def leaf_names(self) -> List[str]:
        return [leaf.name for leaf in self.leaves()]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def leaf(self, name: str) -> LeafNode:
        """Look up a leaf by its LM name (O(1) dict lookup)."""
        self._require_fitted()
        try:
            return self._leaf_by_name[name]
        except KeyError:
            raise KeyError(
                f"no leaf named {name!r}; have {self.leaf_names()}"
            ) from None

    def depth(self) -> int:
        """Maximum depth (a lone leaf has depth 0)."""

        def measure(node: TreeNode) -> int:
            if isinstance(node, LeafNode):
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self._require_fitted())

    def split_features(self) -> Dict[str, int]:
        """How many split nodes test each feature."""
        counts: Dict[str, int] = {}

        def visit(node: TreeNode) -> None:
            if isinstance(node, SplitNode):
                counts[node.feature_name] = counts.get(node.feature_name, 0) + 1
                visit(node.left)
                visit(node.right)

        visit(self._require_fitted())
        return counts

    def root_split_feature(self) -> Optional[str]:
        """The most discriminating performance factor (root test)."""
        root = self._require_fitted()
        return root.feature_name if isinstance(root, SplitNode) else None

    # -- prediction --------------------------------------------------------

    def _check_X(self, X: np.ndarray) -> np.ndarray:
        """Validate prediction inputs at the serving boundary.

        A tree that silently mispredicts on malformed input (a 1-D
        vector, a transposed matrix, NaN densities from a broken
        collector) is worse than one that refuses: every caller —
        including the HTTP serving path — relies on these checks.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(
                f"X must be 2-D (n_samples, {len(self.feature_names)}); "
                f"got ndim={X.ndim} with shape {X.shape}"
            )
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"X has {X.shape[1]} feature column(s); this tree was "
                f"fitted on {len(self.feature_names)}"
            )
        finite = np.isfinite(X)
        if not finite.all():
            bad_rows = np.flatnonzero(~finite.all(axis=1))
            raise ValueError(
                f"X contains NaN/Inf in {bad_rows.size} row(s) "
                f"(first bad row: {int(bad_rows[0])})"
            )
        return X

    def compiled(self, dtype=np.float64) -> "CompiledTree":
        """The tree's compiled evaluator (built lazily, cached).

        The cache is keyed by dtype and invalidated when the tree is
        refitted (the root object changes identity).  Serving paths
        that hold a tree — the registry LRU, the prediction engine, the
        drift hub — therefore compile each model once.  Threads racing
        on a fresh tree may each compile it; every one gets a complete
        evaluator, and the last to publish stays cached.
        """
        root = self._require_fitted()
        key = np.dtype(dtype)
        built_for, evaluators = self._compiled_cache
        if built_for is not root:
            evaluators = {}
        evaluator = evaluators.get(key)
        if evaluator is None:
            evaluator = CompiledTree(self, dtype=key)
            self._compiled_cache = (root, {**evaluators, key: evaluator})
        return evaluator

    def _composed(self) -> "ModelTree":
        """The smoothing-composed twin (cached; ``self`` when k == 0).

        Quinlan smoothing of linear models is itself linear, so it
        folds into the leaf equations exactly once per fitted tree
        (:func:`repro.mtree.smoothing.compose_smoothed`).  Both predict
        backends evaluate these composed leaf models — smoothed
        prediction costs one dot per row, and the two backends agree
        bit for bit because they share the arithmetic.
        """
        root = self._require_fitted()
        built_for, composed = self._composed_cache
        if built_for is not root:
            composed = (
                compose_smoothed(self) if self.config.smoothing_k > 0 else self
            )
            self._composed_cache = (root, composed)
        return composed

    def predict(
        self,
        X: np.ndarray,
        smooth: Optional[bool] = None,
        compiled: Optional[bool] = None,
    ) -> np.ndarray:
        """Predicted CPI per row; smoothing per config unless overridden.

        Batches evaluate through the compiled kernel
        (:mod:`repro.mtree.compiled`) by default; pass
        ``compiled=False`` to force the recursive reference walk.  The
        two backends are bit-identical in float64 (property-tested), so
        the flag is a debugging escape hatch, not a semantic choice.
        """
        root = self._require_fitted()
        X = self._check_X(X)
        use_smoothing = self.config.smooth if smooth is None else smooth
        if compiled is None or compiled:
            return self.compiled().predict(
                X, smooth=use_smoothing, checked=True
            )
        if use_smoothing and self.config.smoothing_k > 0:
            # Smoothing composes into the leaf equations (see
            # ``_composed``); the reference walk routes the composed
            # twin and predicts with its raw leaf models.
            return self._composed().predict(X, smooth=False, compiled=False)
        out = np.empty(X.shape[0], dtype=float)

        def visit(node: TreeNode, rows: np.ndarray) -> None:
            if rows.size == 0:
                return
            if isinstance(node, LeafNode):
                out[rows] = node.model.predict(X[rows])
                return
            go_left = X[rows, node.feature_index] <= node.threshold
            visit(node.left, rows[go_left])
            visit(node.right, rows[~go_left])

        visit(root, np.arange(X.shape[0]))
        return out

    def assign_leaves(
        self, X: np.ndarray, compiled: Optional[bool] = None
    ) -> np.ndarray:
        """Leaf (LM) name each row is classified into.

        Routed through the compiled signed-path-matrix classifier by
        default (comparisons are exact, so both backends agree on
        every row); ``compiled=False`` forces the recursive walk.
        """
        root = self._require_fitted()
        X = self._check_X(X)
        if compiled is None or compiled:
            return self.compiled().assign_names(X)
        out = np.empty(X.shape[0], dtype=object)

        def visit(node: TreeNode, rows: np.ndarray) -> None:
            if rows.size == 0:
                return
            if isinstance(node, LeafNode):
                out[rows] = node.name
                return
            go_left = X[rows, node.feature_index] <= node.threshold
            visit(node.left, rows[go_left])
            visit(node.right, rows[~go_left])

        visit(root, np.arange(X.shape[0]))
        return out

    def __repr__(self) -> str:
        if not self.is_fitted:
            return "ModelTree(unfitted)"
        return (
            f"ModelTree(n_leaves={self.n_leaves}, depth={self.depth()}, "
            f"n_train={self.n_train})"
        )
