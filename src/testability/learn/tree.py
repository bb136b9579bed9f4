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
    max_depth: int | None = None  # None means unlimited

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be at least 1, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be at least 0 or none, got {self.max_depth}")


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

    All candidate columns are sorted and scored in one array pass: cell
    (i, c) is the cut after sorted row i of candidate c, valid where the
    value changes and both sides keep min_leaf rows; other cells score
    -inf. The first maximum in (candidate, row) order wins, so ties break
    on the earlier candidate (the smaller feature index, as candidates are
    sorted), then the smaller threshold. Returns None when no cut is valid.
    """
    n = y.size
    total_pos = int(y.sum())
    h_parent = float(entropy_bits(np.array([total_pos]), np.array([n]))[0])
    cols = X[:, candidates]
    order = np.argsort(cols, axis=0, kind="stable")
    v = np.take_along_axis(cols, order, axis=0)
    sizes = np.arange(1.0, n)[:, None]  # left side size of the cut after each row
    valid = (v[1:] != v[:-1]) & (sizes >= min_leaf) & (n - sizes >= min_leaf)
    if not valid.any():
        return None
    pos_left = np.cumsum(y[order], axis=0, dtype=np.float64)[:-1][valid]
    n_left = np.broadcast_to(sizes, valid.shape)[valid]
    n_right = n - n_left
    pos_right = total_pos - pos_left
    h_children = (
        n_left / n * entropy_bits(pos_left, n_left)
        + n_right / n * entropy_bits(pos_right, n_right)
    )
    gain = np.maximum(h_parent - h_children, 0.0)
    p_l = n_left / n
    intrinsic = -(_xlog2x(p_l) + _xlog2x(1.0 - p_l))
    ratio = np.full(valid.shape, -np.inf)
    ratio[valid] = gain / intrinsic
    c, row = divmod(int(np.argmax(ratio.T)), n - 1)
    return candidates[c], float((v[row, c] + v[row + 1, c]) / 2.0)


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
