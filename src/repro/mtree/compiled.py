"""Compiled batch prediction: a fitted model tree as a few vector ops.

:meth:`~repro.mtree.tree.ModelTree.predict` is a recursive walk — at
every split node it partitions its row set with a boolean mask, calls
each leaf's linear model on a gathered sub-matrix, and blends ancestor
models back in on the way up.  Correct, readable, and dominated by
per-node Python and tiny-array dispatch overhead: a 20-leaf tree costs
a few *hundred* numpy calls per batch.

This module flattens the whole evaluation into a handful of vectorized
operations, generalizing the signed path-matrix trick the drift hub
pioneered for leaf routing:

* **Routing.**  A leaf's decision path is a conjunction of split
  outcomes, so with one ``±1`` signed matrix over (splits x leaves), a
  row belongs to leaf ``l`` exactly when its comparison vector scores
  ``+1`` on every split the path takes left and ``-1`` on every split
  it takes right — i.e. when the signed score equals the number of
  left turns on ``l``'s path.  Classifying a batch is one comparison
  pass over the split predicates plus one (rows x splits) @ (splits x
  leaves) matmul, independent of depth.  The score matmul runs in
  float32: scores are small integers (bounded by the split count), all
  exactly representable, so the comparison against the left-turn count
  is exact.
* **Leaf models.**  All leaf models live in one contiguous
  ``(n_leaves, n_features + 1)`` matrix (coefficients plus intercept).
  Evaluation is a single row gather and one batched row-wise dot.
* **Smoothing.**  Quinlan's smoothing blends each leaf prediction with
  its ancestors' models, nearest first.  Because every model involved
  is linear, the blend *composes* into the leaves exactly
  (:func:`repro.mtree.smoothing.compose_smoothed` — the same
  transformation WEKA applies when it prints a smoothed tree), so the
  compiled tree simply carries a second coefficient matrix with the
  ancestor influence folded in.  Smoothed prediction costs exactly
  one gather/dot, the same as raw prediction.

Every dot product goes through :func:`repro.mtree.linear.row_dot`, the
library's batch-invariant prediction primitive, and the recursive walk
evaluates the *same* composed leaf models through the same primitive,
so in float64 the compiled evaluator is **bit-identical** to the
recursive walk by construction — ``tests/mtree/test_compiled.py``
holds both backends to ``np.array_equal`` across a randomized corpus.

An optional float32 mode (``dtype=np.float32``) halves the bandwidth
of the model arithmetic for throughput-critical callers.  Routing
always compares in float64, so *leaf assignment is identical* in both
modes; only the linear algebra is single-precision, with relative
error around 1e-5 (documented in docs/PERFORMANCE.md; composed
smoothing sums amplify rounding past the naive single-dot 1e-7).

:meth:`CompiledTree.predict` accepts the leaf slots a caller already
got from :meth:`CompiledTree.route`, so one routing pass can serve
both a prediction and a leaf profile: the prediction engine routes
each flushed batch once and hands the slots to the drift hub.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mtree.linear import row_dot

__all__ = ["CompiledTree"]


class CompiledTree:
    """A fitted :class:`~repro.mtree.tree.ModelTree`, flattened.

    Construction walks the tree once (depth-first, so compiled leaf
    slots match the LM1..LMk left-to-right naming) and never touches
    the tree again — serving a registry model compiles it the first
    time it predicts and reuses the arrays for every later batch.
    """

    def __init__(self, tree, dtype=np.float64) -> None:
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {dtype}"
            )
        root = tree._require_fitted()
        self.feature_names: Tuple[str, ...] = tree.feature_names
        self.n_features = len(tree.feature_names)
        self.dtype = dtype
        self.smooth_default = bool(tree.config.smooth)
        self.smoothing_k = float(tree.config.smoothing_k)

        split_feature: List[int] = []
        split_threshold: List[float] = []
        leaf_names: List[str] = []
        leaf_rows: List[np.ndarray] = []
        #: Per leaf: [(split slot, went_left)] along its path.
        leaf_paths: List[List[Tuple[int, bool]]] = []

        def pack(model) -> np.ndarray:
            packed = np.empty(self.n_features + 1)
            packed[:-1] = model.coef
            packed[-1] = model.intercept
            return packed

        def walk(node, path) -> None:
            if hasattr(node, "threshold"):  # SplitNode
                slot = len(split_feature)
                split_feature.append(node.feature_index)
                split_threshold.append(node.threshold)
                walk(node.left, path + [(slot, True)])
                walk(node.right, path + [(slot, False)])
            else:
                leaf_names.append(node.name)
                leaf_rows.append(pack(node.model))
                leaf_paths.append(path)

        walk(root, [])
        n_splits, n_leaves = len(split_feature), len(leaf_names)
        self.n_leaves = n_leaves
        self.leaf_names: Tuple[str, ...] = tuple(leaf_names)
        self._leaf_name_arr = np.array(leaf_names, dtype=object)
        self._split_feature = np.asarray(split_feature, dtype=np.int64)
        self._split_threshold = np.asarray(split_threshold, dtype=float)
        signs = np.zeros((n_splits, n_leaves), dtype=np.float32)
        lefts = np.zeros(n_leaves, dtype=np.float32)
        for l, path in enumerate(leaf_paths):
            for slot, went_left in path:
                signs[slot, l] = 1.0 if went_left else -1.0
                if went_left:
                    lefts[l] += 1.0
        self._signs = signs
        self._lefts = lefts

        self._leaf_models = np.ascontiguousarray(
            np.stack(leaf_rows), dtype=dtype
        )
        # Smoothing folds into the leaves (every model on a root-leaf
        # path is linear); the composed twin's leaf models — in the
        # same left-to-right LM order — form the second matrix.  With
        # k == 0 smoothing is the identity, so both matrices coincide.
        if self.smoothing_k > 0:
            composed_leaves = tree._composed().leaves()
            assert [leaf.name for leaf in composed_leaves] == leaf_names
            self._smoothed_models = np.ascontiguousarray(
                np.stack([pack(leaf.model) for leaf in composed_leaves]),
                dtype=dtype,
            )
        else:
            self._smoothed_models = self._leaf_models

    # -- routing ---------------------------------------------------------

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_features}) inputs, got shape {X.shape}"
            )
        return X

    def route(self, X: np.ndarray, *, checked: bool = False) -> np.ndarray:
        """Leaf slot (0..n_leaves-1, LM order) for every row.

        Comparisons run on the float64 inputs regardless of
        ``dtype``, so routing never depends on the precision mode.
        """
        if not checked:
            X = self._check(X)
        if self._split_feature.size == 0:
            return np.zeros(X.shape[0], dtype=np.int64)
        went_left = X[:, self._split_feature] <= self._split_threshold
        # score[r, l] counts left turns taken minus wrong-way right
        # turns; it equals lefts[l] exactly when every split on l's
        # path went the required way, and the tree partitions the
        # feature space, so exactly one leaf matches each row.
        score = went_left.astype(np.float32) @ self._signs
        return np.argmax(score == self._lefts, axis=1)

    def assign_names(self, X: np.ndarray) -> np.ndarray:
        """Leaf (LM) name per row; equals ``ModelTree.assign_leaves``."""
        return self._leaf_name_arr[self.route(X)]

    # -- prediction ------------------------------------------------------

    def predict(
        self,
        X: np.ndarray,
        smooth: Optional[bool] = None,
        *,
        checked: bool = False,
        slots: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Predicted CPI per row; smoothing per the tree's config unless
        overridden.  Smoothed and raw prediction cost the same — one
        gather and one row-wise dot against the matching coefficient
        matrix.  In float64 mode the result is bit-identical to the
        recursive walk; in float32 mode the model arithmetic (not the
        routing) runs in single precision.  ``slots`` optionally
        supplies this tree's :meth:`route` of ``X``, which is then not
        routed again.
        """
        X = X if checked else self._check(X)
        use_smoothing = (
            self.smooth_default if smooth is None else bool(smooth)
        )
        if slots is None:
            slots = self.route(X, checked=True)
        Xd = X if self.dtype == np.float64 else X.astype(self.dtype)
        f = self.n_features
        models = (
            self._smoothed_models
            if use_smoothing and self.smoothing_k > 0
            else self._leaf_models
        )
        gathered = models[slots]
        return row_dot(Xd, gathered[:, :f]) + gathered[:, f]
