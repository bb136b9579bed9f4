"""Binary decision tree with gain-ratio splits on numeric features.

Thresholds are midpoints between consecutive sorted distinct values, so a
grown tree depends on the data only through value order and label
alignment. Splits are scored by gain ratio (information gain divided by
the split's intrinsic information); zero-gain splits are still taken when
nothing better exists, which lets patterns invisible to a single split
(XOR-like) be separated deeper down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..metrics import MetricId
from ..records import EffectivenessLabel, FeatureMatrix
from .base import (
    DimensionMismatch,
    ModelKind,
    check_row_width,
    check_two_classes,
)


@dataclass
class TreeNode:
    """Internal nodes split ``feature <= threshold`` left, ``>`` right."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: tuple[int, int] = (0, 0)  # (non-effective, effective) for leaves

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 2
    max_depth: int | None = None


@dataclass
class DecisionTreeModel:
    kind: ModelKind
    feature_ids: tuple[MetricId, ...]
    seed: int
    params: TreeParams
    root: TreeNode

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Probability of Effective per row, from reached-leaf distributions."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        check_row_width(X, len(self.feature_ids))
        return tree_scores(self.root, X)


def tree_scores(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Leaf Effective-fraction per row, routing whole index blocks at once."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            non_eff, eff = node.counts
            out[idx] = eff / (eff + non_eff)
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def _xlog2x(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log2(p[nz])
    return out


def entropy_bits(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Binary class entropy of groups with `pos` positives out of `n`."""
    p = np.divide(pos, n, out=np.zeros_like(pos, dtype=np.float64), where=n > 0)
    return -(_xlog2x(p) + _xlog2x(1.0 - p))


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[int],
    min_leaf: int,
) -> tuple[int, float] | None:
    """Pick (feature, threshold) maximizing gain ratio over midpoints.

    Ties break on smaller feature index, then smaller threshold; returns
    None when no split keeps min_leaf rows on both sides.
    """
    n = y.size
    total_pos = int(y.sum())
    h_parent = float(entropy_bits(np.array([total_pos]), np.array([n]))[0])
    best: tuple[float, int, float] | None = None  # (-gain_ratio, feature, threshold)
    for j in candidates:
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        v = col[order]
        lab = y[order].astype(np.float64)
        cut = np.nonzero(v[1:] != v[:-1])[0] + 1  # left side sizes
        if cut.size:
            cut = cut[(cut >= min_leaf) & (n - cut >= min_leaf)]
        if cut.size == 0:
            continue
        pos_left = np.cumsum(lab)[cut - 1]
        n_left = cut.astype(np.float64)
        n_right = n - n_left
        pos_right = total_pos - pos_left
        h_children = (
            n_left / n * entropy_bits(pos_left, n_left)
            + n_right / n * entropy_bits(pos_right, n_right)
        )
        gain = np.maximum(h_parent - h_children, 0.0)
        p_l = n_left / n
        intrinsic = -(_xlog2x(p_l) + _xlog2x(1.0 - p_l))
        ratio = gain / intrinsic
        thresholds = (v[cut - 1] + v[cut]) / 2.0
        k = int(np.lexsort((thresholds, -ratio))[0])
        entry = (-float(ratio[k]), j, float(thresholds[k]))
        if best is None or entry < best:
            best = entry
    if best is None:
        return None
    return best[1], best[2]


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    max_depth: int | None,
    n_candidates: int | None = None,
    rng: np.random.Generator | None = None,
) -> TreeNode:
    """Grow a tree iteratively (no recursion limit on deep trees).

    When ``n_candidates`` is given, that many feature indices are sampled
    uniformly without replacement at every split (random-forest mode).
    """
    d = X.shape[1]
    root = TreeNode()
    stack: list[tuple[TreeNode, np.ndarray, int]] = [(root, np.arange(y.size), 0)]
    while stack:
        node, idx, depth = stack.pop()
        sub_y = y[idx]
        pos = int(sub_y.sum())
        node.counts = (idx.size - pos, pos)
        if pos in (0, idx.size) or (max_depth is not None and depth >= max_depth):
            continue
        if n_candidates is not None and n_candidates < d:
            assert rng is not None
            candidates = np.sort(rng.choice(d, size=n_candidates, replace=False))
        else:
            candidates = np.arange(d)
        split = best_split(X[idx], sub_y, list(candidates), min_leaf)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = X[idx, node.feature] <= node.threshold
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, idx[~mask], depth + 1))
        stack.append((node.left, idx[mask], depth + 1))
    return root


def train_decision_tree(
    matrix: FeatureMatrix,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> DecisionTreeModel:
    check_two_classes(matrix.y)
    root = grow_tree(matrix.X, matrix.y, params.min_leaf, params.max_depth)
    return DecisionTreeModel(
        kind=ModelKind.DECISION_TREE,
        feature_ids=matrix.feature_ids,
        seed=seed,
        params=params,
        root=root,
    )
