"""Binary decision trees with gain-ratio splits on numeric features.

Thresholds are midpoints between consecutive sorted distinct values, so a
grown tree depends on the data only through value order and label
alignment. Splits are scored by gain ratio (information gain divided by
the split's intrinsic information); zero-gain splits are still taken when
nothing better exists, which lets patterns invisible to a single split
(XOR-like) be separated deeper down.

One engine, ``grow_trees``, grows all the trees of a fit in lockstep: the
bootstrap trees of a random forest, or a single decision tree as a forest
of one. A fit first codes each column once as ranks into its sorted
distinct values (``column_codes``), so split search sorts integer keys and
never floats. Each round gathers the nodes that need a split (a forest
tree's next one in preorder, or every pending node of a tree that draws no
candidates) and scores them together in slices of at most ``SLICE_CELLS``
(row, candidate) cells, which bounds the working set of a round. The
feature rankers and ``auc`` share ``column_codes`` through ``value_counts``.

Prediction (``tree_scores``) lays the trees of a model out as flat node
arrays and routes every row through every tree at once, one level per
step, in place of a walk over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..dataset import FeatureMatrix
from ..metrics import MetricId
from .base import ModelKind, check_two_classes, model_rows


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
    kind: ClassVar[ModelKind] = ModelKind.DECISION_TREE
    feature_ids: tuple[MetricId, ...]
    seed: int
    params: TreeParams
    root: TreeNode

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Probability of Effective per row, from reached-leaf distributions."""
        X = model_rows(X, len(self.feature_ids))
        return tree_scores([self.root], X)[0]


def tree_scores(roots: Sequence[TreeNode], X: np.ndarray) -> np.ndarray:
    """Each tree's leaf Effective-fraction for each row, shape (trees, rows).

    The trees are laid out breadth first in flat node arrays (feature,
    threshold, left child, leaf score; a right child follows its left
    one), and every (tree, row) pair goes down one level per step, all
    pairs at once, until each sits on a leaf. Rows go in blocks of at most
    ``SLICE_CELLS`` pairs, which bounds the working set. A leaf's score is
    ``eff / (eff + non_eff)`` of its counts.
    """
    nodes = list(roots)  # tree t's root is node t
    left = []  # 0 marks a leaf: node 0 is a root, no one's child
    for node in nodes:  # the loop visits the children it appends
        left.append(0 if node.is_leaf else len(nodes))
        if not node.is_leaf:
            nodes += (node.left, node.right)
    left = np.array(left)
    feature = np.array([node.feature for node in nodes])
    threshold = np.array([node.threshold for node in nodes], dtype=np.float64)
    score = np.array([node.counts[1] / sum(node.counts) if node.is_leaf else 0.0
                      for node in nodes])
    trees, n = len(roots), X.shape[0]
    out = np.empty((trees, n))
    step = max(1, SLICE_CELLS // trees)
    for start in range(0, n, step):
        block = X[start : start + step]
        at = np.repeat(np.arange(trees), block.shape[0])  # pair t * rows + r's node
        live = np.flatnonzero(left[at])
        while live.size:
            node = at[live]
            stay_left = block[live % block.shape[0], feature[node]] <= threshold[node]
            at[live] = left[node] + ~stay_left
            live = live[left[at[live]] > 0]
        out[:, start : start + step] = score[at].reshape(trees, -1)
    return out


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p * log2(p) for each p in [0, 1], with 0 where p is 0."""
    out = np.log2(p, out=np.zeros_like(p), where=p > 0)
    out *= p
    return out


def entropy_bits(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Binary class entropy of groups with `pos` positives out of `n`."""
    p = np.divide(pos, n, out=np.zeros_like(pos, dtype=np.float64), where=n > 0)
    return -(_xlog2x(p) + _xlog2x(1.0 - p))


#: Most (row, candidate) cells one scoring pass holds. A round's nodes are
#: scored in slices of this many cells; a node larger than this is scored
#: on its own.
SLICE_CELLS = 1 << 15


def column_codes(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column of X as ranks into its own sorted distinct values, with labels.

    Returns ``(codes, values, starts)``. ``codes[j, r]`` is ``2 * rank + y[r]``,
    where rank is the position of ``X[r, j]`` among column j's distinct
    values ``values[starts[j]:]`` (ascending), so sorting codes orders rows
    by value and carries their labels along.
    """
    n, d = X.shape
    codes = np.empty((d, n), dtype=np.int64)
    tables = []
    for j in range(d):
        table, codes[j] = np.unique(X[:, j], return_inverse=True)
        tables.append(table)
    codes *= 2
    codes += y
    sizes = [table.size for table in tables]
    values = np.concatenate(tables) if tables else np.empty(0)
    starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    return codes, values, starts


def midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cut between each pair of values a < b: their midpoint, or a where it fails.

    The midpoint overflows to +-inf beyond about 9e307 and can round up to b
    between adjacent floats; a still keeps every value up to a at or below
    the cut and every value from b on above it.
    """
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    return np.where((a <= mid) & (mid < b), mid, a)


def value_counts(x: Sequence[float], y: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of x, ascending, with its (NonEffective, Effective) row count.

    ``counts[i]`` counts the rows where x equals ``values[i]``, by label:
    one ``np.bincount`` over the single column's ``column_codes``.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.intp)
    codes, values, _ = column_codes(x[:, None], y)
    return values, np.bincount(codes[0], minlength=2 * values.size).reshape(-1, 2)


def best_splits(
    coded: tuple[np.ndarray, np.ndarray, np.ndarray],
    nodes: Sequence[tuple[np.ndarray, np.ndarray]],
    min_leaf: int,
) -> list[tuple[int, float] | None]:
    """Pick each node's (feature, threshold) maximizing gain ratio.

    ``coded`` is ``column_codes(X, y)``. A node is its rows (indices into
    X) and its sorted candidate features. Nodes are scored in slices of at
    most ``SLICE_CELLS`` (row, candidate) cells. Returns None for a node
    that has no cut keeping ``min_leaf`` rows on each side.
    """
    splits: list[tuple[int, float] | None] = []
    start, cells = 0, 0
    for i, (rows, candidates) in enumerate(nodes):
        size = rows.size * candidates.size
        if i > start and cells + size > SLICE_CELLS:
            splits += _score_slice(coded, nodes[start:i], min_leaf)
            start, cells = i, 0
        cells += size
    return splits + _score_slice(coded, nodes[start:], min_leaf)


def _score_slice(coded, nodes, min_leaf):
    """Score every cut of every (node, candidate) segment in one array pass.

    Each cell (row, candidate) gets the int64 key ``segment * 2n + code``
    for the n rows of X, so one sort groups the cells by segment and orders
    them by value, label last. A cut is the end of a run of equal values
    that leaves ``min_leaf`` rows on each side; its left positive count is
    one global cumsum of the labels minus the count before the segment,
    exact for integers.

    Every binary entropy the scores need (each node's parent, each left
    and right side, and each cut's left share for the intrinsic
    information) comes from one ``_xlog2x`` pass over a single vector of
    probabilities followed by their complements, with the same float
    expressions as ``entropy_bits``. The first maximum per node in
    (candidate, value) order wins, so ties break on the smaller feature
    index, then the smaller threshold. The threshold is ``midpoints`` of
    the two values around the cut.
    """
    codes, values, starts = coded
    splits: list[tuple[int, float] | None] = [None] * len(nodes)
    sizes = np.array([rows.size for rows, _ in nodes])
    counts = np.array([candidates.size for _, candidates in nodes])
    if not counts.any():
        return splits
    seg_node = np.repeat(np.arange(len(nodes)), counts)
    seg_col = np.concatenate([candidates for _, candidates in nodes])
    seg_size = sizes[seg_node]
    seg_end = np.cumsum(seg_size)
    seg_start = seg_end - seg_size
    row_start = (np.cumsum(sizes) - sizes)[seg_node]
    n_rows = codes.shape[1]
    stride = 2 * n_rows  # codes are below 2n
    rows = np.concatenate([rows for rows, _ in nodes])
    rows = rows[np.arange(seg_end[-1]) + np.repeat(row_start - seg_start, seg_size)]
    key = codes.ravel()[np.repeat(seg_col * n_rows, seg_size) + rows]
    key += np.repeat(np.arange(seg_col.size) * stride, seg_size)
    key.sort()
    pos = np.zeros(key.size + 1, dtype=np.int64)
    np.cumsum(key & 1, out=pos[1:])
    edge = np.flatnonzero((key[1:] ^ key[:-1]) > 1)  # the next cell has another value
    seg = key[edge] // stride
    n_left = edge + 1 - seg_start[seg]
    keep = (n_left >= min_leaf) & (seg_size[seg] - n_left >= min_leaf)
    cut, seg, n_left = edge[keep], seg[keep], n_left[keep]
    if cut.size == 0:
        return splits
    node = seg_node[seg]
    first_seg = np.cumsum(counts) - counts
    node_pos = (pos[seg_end[first_seg]] - pos[seg_start[first_seg]]).astype(np.float64)
    node_n = sizes.astype(np.float64)
    total_pos, n = node_pos[node], node_n[node]
    pos_left = (pos[cut + 1] - pos[seg_start[seg]]).astype(np.float64)
    left = n_left.astype(np.float64)
    right = n - left
    k, m = len(nodes), cut.size
    half = k + 3 * m
    p = np.empty(2 * half)  # [parents, left p's, right p's, left shares, 1 - each]
    np.divide(node_pos, node_n, out=p[:k])
    np.divide(pos_left, left, out=p[k : k + m])
    np.divide(total_pos - pos_left, right, out=p[k + m : k + 2 * m])
    np.divide(left, n, out=p[k + 2 * m : half])
    np.subtract(1.0, p[:half], out=p[half:])
    terms = _xlog2x(p)
    bits = -(terms[:half] + terms[half:])
    h_children = left / n * bits[k : k + m] + right / n * bits[k + m : k + 2 * m]
    gain = np.maximum(bits[:k][node] - h_children, 0.0)
    ratio = gain / bits[k + 2 * m :]
    first = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    best = np.maximum.reduceat(ratio, first)
    hits = np.flatnonzero(ratio == np.repeat(best, np.diff(np.r_[first, m])))
    pick = hits[np.r_[True, node[hits[1:]] != node[hits[:-1]]]]
    cut, seg = cut[pick], seg[pick]
    col = seg_col[seg]
    low = starts[col] + (key[cut] - seg * stride) // 2
    high = starts[col] + (key[cut + 1] - seg * stride) // 2
    threshold = midpoints(values[low], values[high])
    for i, feature, t in zip(node[pick].tolist(), col.tolist(), threshold.tolist()):
        splits[i] = (feature, t)
    return splits


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    row_sets: Sequence[np.ndarray],
    min_leaf: int,
    max_depth: int | None = None,
    n_candidates: int | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[TreeNode]:
    """Grow one tree per row set (indices into X, repeats allowed) in lockstep.

    Each tree keeps its own preorder stack. When ``n_candidates`` is below
    the feature count, every split samples that many feature indices
    uniformly without replacement from the tree's own generator in
    ``rngs`` (random-forest mode), so a tree depends only on its rows and
    its generator. Each round moves every live tree to its next node that
    needs a split, draws that node's candidates, and scores all those
    nodes together. A tree that samples no candidates has no draw order to
    keep, so it puts every pending node into the round. Iterative, so deep
    trees hit no recursion limit.
    """
    d = X.shape[1]
    y = np.asarray(y, dtype=np.intp)
    coded = column_codes(X, y)
    sampled = n_candidates is not None and n_candidates < d
    every = np.arange(d)
    roots = [TreeNode() for _ in row_sets]
    stacks = [[(root, np.asarray(rows), 0)] for root, rows in zip(roots, row_sets)]
    live = list(range(len(roots)))
    while live:
        waiting: list[tuple[int, TreeNode, np.ndarray, int]] = []
        nodes: list[tuple[np.ndarray, np.ndarray]] = []
        for t in live:
            stack = stacks[t]
            while stack:
                node, rows, depth = stack.pop()
                pos = np.count_nonzero(y[rows])  # labels are 0 or 1
                node.counts = (rows.size - pos, pos)
                if pos in (0, rows.size) or (max_depth is not None and depth >= max_depth):
                    continue
                waiting.append((t, node, rows, depth))
                if not sampled:
                    nodes.append((rows, every))
                    continue
                draw = rngs[t].choice(d, size=n_candidates, replace=False)
                draw.sort()
                nodes.append((rows, draw))
                break
        for (t, node, rows, depth), split in zip(waiting, best_splits(coded, nodes, min_leaf)):
            if split is None:
                continue
            node.feature, node.threshold = split
            mask = X[rows, node.feature] <= node.threshold
            node.left = TreeNode()
            node.right = TreeNode()
            stacks[t].append((node.right, rows[~mask], depth + 1))
            stacks[t].append((node.left, rows[mask], depth + 1))
        live = [t for t in live if stacks[t]]
    return roots


def train_decision_tree(
    matrix: FeatureMatrix,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> DecisionTreeModel:
    check_two_classes(matrix.y)
    (root,) = grow_trees(
        matrix.X, matrix.y, [np.arange(matrix.n_rows)], params.min_leaf, params.max_depth
    )
    return DecisionTreeModel(
        feature_ids=matrix.feature_ids,
        seed=seed,
        params=params,
        root=root,
    )
