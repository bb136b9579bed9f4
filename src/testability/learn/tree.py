"""Binary decision trees with gain-ratio splits on numeric features.

Thresholds are midpoints between consecutive sorted distinct values, so a
grown tree depends on the data only through value order and label
alignment. Splits are scored by gain ratio (information gain divided by
the split's intrinsic information); zero-gain splits are still taken when
nothing better exists, which lets patterns invisible to a single split
(XOR-like) be separated deeper down.

A tree is stored as flat node arrays (``Tree``), in the order its nodes
are made, root at index 0: ``feature`` (-1 for a leaf), ``threshold``,
``left`` and ``right`` child indices (-1 for a leaf; a row goes left when
``x[feature] <= threshold``), and ``counts``, the (NonEffective,
Effective) rows that reached the node. ``TreeNode`` is a read-only view of
one node of such a tree, for callers that walk nodes.

One engine, ``grow_trees``, grows all the trees of a fit in lockstep: the
bootstrap trees of a random forest, or a single decision tree as a forest
of one. A fit first codes each column once as ranks into its sorted
distinct values (``column_codes``), so split search sorts integer keys and
never floats. Each tree keeps a stack of the nodes that still need a
split; a child that is pure, or at the depth limit, becomes a leaf at
once and never enters it. Each round takes one node from every forest
tree (its next in preorder) or every pending node of a tree that draws no
candidates, scores them together in slices of at most ``SLICE_CELLS``
(row, candidate) cells, which bounds the working set of a round, and then
applies every split in one pass: a gather of ``x[feature] <= threshold``,
one stable partition of the rows and one cumulative label count give
every child's rows and class counts.

A forest split's candidate features are the tree's ``Generator.choice(d,
k, replace=False)``, sorted; ``CandidateDraws`` replays that call ahead of
time, bit for bit, from the tree's 32-bit stream (see there). The feature
rankers and ``auc`` share ``column_codes`` through ``value_counts``.

Prediction (``tree_scores``) concatenates the trees' arrays and routes
every row through every tree at once, one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..dataset import FeatureMatrix
from ..metrics import MetricId
from .base import ModelKind, check_two_classes, model_rows


@dataclass(eq=False)
class Tree:
    """One tree's nodes as flat arrays, root at index 0 (see the module docstring)."""

    feature: np.ndarray  # int64, -1 for a leaf
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64, -1 for a leaf
    right: np.ndarray  # int64, -1 for a leaf
    counts: np.ndarray  # int64 (nodes, 2): (non-effective, effective)


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Node ``index`` of ``tree``, read-only. Internal nodes split
    ``feature <= threshold`` left, ``>`` right; a leaf has no children."""

    tree: Tree
    index: int = 0

    @property
    def is_leaf(self) -> bool:
        return bool(self.tree.feature[self.index] < 0)

    @property
    def feature(self) -> int:
        return int(self.tree.feature[self.index])

    @property
    def threshold(self) -> float:
        return float(self.tree.threshold[self.index])

    @property
    def left(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.tree, int(self.tree.left[self.index]))

    @property
    def right(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.tree, int(self.tree.right[self.index]))

    @property
    def counts(self) -> tuple[int, int]:
        non_eff, eff = self.tree.counts[self.index].tolist()
        return non_eff, eff


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
    tree: Tree

    @property
    def root(self) -> TreeNode:
        return TreeNode(self.tree)

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Probability of Effective per row, from reached-leaf distributions."""
        X = model_rows(X, len(self.feature_ids))
        return tree_scores([self.tree], X)[0]


def tree_scores(trees: Sequence[Tree], X: np.ndarray) -> np.ndarray:
    """Each tree's leaf Effective-fraction for each row, shape (trees, rows).

    The trees' node arrays are concatenated, child indices shifted by each
    tree's offset, and every (tree, row) pair goes down one level per step,
    all pairs at once, until each sits on a leaf. Rows go in blocks of at
    most ``SLICE_CELLS`` pairs, which bounds the working set. A leaf's
    score is ``eff / (eff + non_eff)`` of its counts.
    """
    sizes = np.array([tree.feature.size for tree in trees])
    roots = np.cumsum(sizes) - sizes
    shift = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + shift
    right = np.concatenate([tree.right for tree in trees]) + shift
    counts = np.concatenate([tree.counts for tree in trees])
    leaf = feature < 0
    score = np.divide(counts[:, 1], counts.sum(axis=1), out=np.zeros(leaf.size), where=leaf)
    n = X.shape[0]
    out = np.empty((len(trees), n))
    step = max(1, SLICE_CELLS // len(trees))
    for start in range(0, n, step):
        block = X[start : start + step]
        at = np.repeat(roots, block.shape[0])  # pair t * rows + r's node
        live = np.flatnonzero(~leaf[at])
        while live.size:
            node = at[live]
            stay_left = block[live % block.shape[0], feature[node]] <= threshold[node]
            at[live] = np.where(stay_left, left[node], right[node])
            live = live[~leaf[at[live]]]
        out[:, start : start + step] = score[at].reshape(len(trees), -1)
    return out


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p * log2(p) for each p in [0, 1] (float64), with 0 where p is 0."""
    out = np.log2(p, out=np.zeros(p.shape), where=p > 0)
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
    by value and carries their labels along. Codes are int32 unless the
    rows are too many for it, which halves what split search sorts.
    """
    n, d = X.shape
    codes = np.empty((d, n), dtype=np.int32 if n < 1 << 29 else np.int64)
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


def _best_splits(coded, rows, sizes, columns, min_leaf):
    """Pick each node's (feature, threshold) maximizing gain ratio.

    ``coded`` is ``column_codes(X, y)``. Node i is the next ``sizes[i]`` of
    ``rows`` (indices into X), and its candidate features are row i of
    ``columns``, ascending, padded at the end with -1.

    Returns ``(feature, threshold)`` per node, feature -1 where no cut
    keeps ``min_leaf`` rows on each side. Nodes are scored in slices of at
    most ``SLICE_CELLS`` (row, candidate) cells.
    """
    feature = np.full(sizes.size, -1)
    threshold = np.zeros(sizes.size)
    ends = np.cumsum(sizes).tolist()
    start, cells = 0, 0  # the slice so far: nodes start..i-1, with their cells
    # a last, oversized entry closes the final slice
    for i, size in enumerate((sizes * columns.shape[1]).tolist() + [SLICE_CELLS + 1]):
        if i > start and cells + size > SLICE_CELLS:
            lo = ends[start - 1] if start else 0
            _score_slice(coded, rows[lo : ends[i - 1]], sizes[start:i], columns[start:i],
                         min_leaf, feature[start:i], threshold[start:i])
            start, cells = i, 0
        cells += size
    return feature, threshold


def _score_slice(coded, rows, sizes, columns, min_leaf, feature, threshold):
    """Score every cut of every (node, candidate) segment in one array pass,
    writing each node's best into ``feature`` and ``threshold``.

    Each cell (row, candidate) gets the key ``segment * 2n + code`` for the
    n rows of X, where segment is ``node * width + slot`` for the
    candidate's slot in its node's row of ``columns``; a padding slot's
    cells all get code 0, so they hold no cut. Keys keep the codes' dtype
    unless the largest would not fit it, and are int64 then. One sort
    groups the cells by segment and orders them by value, label last. A
    cut is the end of a run of equal values that leaves ``min_leaf`` rows
    on each side; its left positive count is one global cumsum of the
    labels minus the count before the segment, exact for integers.

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
    k, width = columns.shape
    if width == 0:
        return
    n_rows = codes.shape[1]
    stride = 2 * n_rows  # codes are below 2n
    index = np.repeat((columns * n_rows).T, sizes, axis=1)  # cell (slot, row) of the slice
    index += rows
    key = codes.ravel()[index]
    if k * width * stride > np.iinfo(key.dtype).max:
        key = key.astype(np.int64)
    padding = columns < 0
    if padding.any():
        key[np.repeat(padding.T, sizes, axis=1)] = 0
    key += np.repeat(np.arange(0, k * width * stride, width * stride, dtype=key.dtype), sizes)
    key += np.arange(0, width * stride, stride, dtype=key.dtype)[:, None]
    key = key.ravel()
    key.sort()
    seg_size = np.repeat(sizes, width)
    seg_end = np.cumsum(seg_size)
    seg_start = seg_end - seg_size
    pos = np.zeros(key.size + 1, dtype=key.dtype)
    np.cumsum(key & 1, out=pos[1:])
    edge = np.flatnonzero((key[1:] ^ key[:-1]) > 1)  # the next cell has another value
    seg = key[edge] // stride
    n_left = edge + 1 - seg_start[seg]
    keep = (n_left >= min_leaf) & (seg_size[seg] - n_left >= min_leaf)
    cut, seg, n_left = edge[keep], seg[keep], n_left[keep]
    m = cut.size
    if m == 0:
        return
    node = seg // width
    first_seg = np.arange(0, k * width, width)
    node_pos = (pos[seg_end[first_seg]] - pos[seg_start[first_seg]]).astype(np.float64)
    node_n = sizes.astype(np.float64)
    total_pos, n = node_pos[node], node_n[node]
    pos_left = (pos[cut + 1] - pos[seg_start[seg]]).astype(np.float64)
    left = n_left.astype(np.float64)
    right = n - left
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
    new = np.empty(m, dtype=bool)  # the first cut of each node
    new[0] = True
    np.not_equal(node[1:], node[:-1], out=new[1:])
    first = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    best = np.maximum.reduceat(ratio, first)
    pick = np.minimum.reduceat(np.where(ratio == best[group], np.arange(m), m), first)
    cut, seg = cut[pick], seg[pick]
    col = columns.ravel()[seg]
    low = starts[col] + (key[cut] - seg * stride) // 2
    high = starts[col] + (key[cut + 1] - seg * stride) // 2
    at = node[first]
    feature[at] = col
    threshold[at] = midpoints(values[low], values[high])


#: Candidate sets a forest tree decodes from its stream at a time.
DRAW_BATCH = 48


class CandidateDraws:
    """Every forest tree's split candidates, ``np.sort(rng.choice(d, k,
    replace=False))`` once per split, drawn ahead from the tree's generator.

    numpy (up to at least 2.4) makes that call, for a population of at most
    10,000, with Floyd's algorithm over Lemire's bounded integers on the
    generator's 32-bit stream: for j = d - k, ..., d - 1 it draws v in
    [0, j] as ``(u * (j + 1)) >> 32`` from the next 32-bit word u, and takes
    v, or j when v was already taken; then it shuffles the k values with
    k - 1 more bounded draws, in [0, i] for i = k - 1, ..., 1, which sorting
    undoes but which still consume words. Lemire rejects a word, and draws
    the next in its place, when ``(u * (j + 1)) mod 2**32`` is below
    ``2**32 mod (j + 1)``; that happens about once in 2.4e8 draws.

    So each tree reads its stream with ``rng.integers(0, 2**32, size,
    dtype=np.uint32)``, which continues the same 32-bit stream (the
    generator keeps the unread half of a 64-bit word for the next call), in
    even-sized chunks of ``DRAW_BATCH`` sets' words, 2k - 1 words a set. A
    chunk decodes as arrays. A set whose words hold a rejection, and every
    set after it in its chunk, is decoded one word at a time instead, with
    one more word drawn for each rejection. Features here number at most
    34, well inside Floyd's range.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], d: int, k: int):
        self.rngs, self.d, self.k = rngs, d, k
        floyd = np.arange(d - k + 1, d + 1, dtype=np.uint64)  # the bounds j + 1
        self.bounds = np.concatenate([floyd, np.arange(k, 1, -1, dtype=np.uint64)])
        self.rejected_below = np.uint64(1 << 32) % self.bounds
        self.sets = self._decode(list(range(len(rngs))))
        self.next = np.zeros(len(rngs), dtype=np.intp)

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next candidate set of each of ``trees``, shape (len(trees), k)."""
        for t in trees[self.next[trees] == DRAW_BATCH].tolist():
            self.sets[t] = self._decode([t])[0]
            self.next[t] = 0
        sets = self.sets[trees, self.next[trees]]
        self.next[trees] += 1
        return sets

    def _words(self, t: int, size: int) -> np.ndarray:
        return self.rngs[t].integers(0, 2**32, size, np.uint32)

    def _decode(self, trees: list[int]) -> np.ndarray:
        """The next ``DRAW_BATCH`` sets of each of ``trees``, shape (trees, batch, k)."""
        d, k, per = self.d, self.k, self.bounds.size
        words = np.stack([self._words(t, DRAW_BATCH * per) for t in trees])
        scaled = words.reshape(len(trees), DRAW_BATCH, per).astype(np.uint64) * self.bounds
        drawn = (scaled[..., :k] >> 32).astype(np.intp)
        sets = np.empty_like(drawn)
        for c, j in enumerate(range(d - k, d)):
            taken = (sets[..., :c] == drawn[..., c, None]).any(axis=-1)
            sets[..., c] = np.where(taken, j, drawn[..., c])
        rejected = ((scaled & 0xFFFFFFFF) < self.rejected_below).any(axis=-1)
        for r in np.flatnonzero(rejected.any(axis=-1)).tolist():
            s = int(rejected[r].argmax())
            sets[r, s:] = self._replay(trees[r], words[r, s * per :].tolist(), DRAW_BATCH - s)
        sets.sort(axis=-1)
        return sets

    def _replay(self, t: int, words: list[int], n_sets: int) -> list[list[int]]:
        """``n_sets`` sets decoded one word at a time, rejections included.
        ``words`` holds the sets' words without rejections; each rejection
        draws one more word from tree t's stream."""
        words.reverse()

        def bounded(bound: int) -> int:  # Lemire's draw in [0, bound)
            while True:
                scaled = (words.pop() if words else int(self._words(t, 1)[0])) * bound
                if scaled & 0xFFFFFFFF >= (1 << 32) % bound:
                    return scaled >> 32

        sets = []
        for _ in range(n_sets):
            chosen: list[int] = []
            for j in range(self.d - self.k, self.d):
                v = bounded(j + 1)
                chosen.append(j if v in chosen else v)
            for i in range(self.k - 1, 0, -1):
                bounded(i + 1)
            sets.append(chosen)
        return sets


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    row_sets: Sequence[np.ndarray],
    min_leaf: int,
    max_depth: int | None = None,
    n_candidates: int | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[Tree]:
    """Grow one tree per row set (indices into X, repeats allowed) in lockstep.

    When ``n_candidates`` is below the feature count, every split samples
    that many feature indices uniformly without replacement from the
    tree's own generator in ``rngs`` (random-forest mode), so a tree
    depends only on its rows and its generator. Each round takes every
    live tree's next node in preorder, with its candidates, and scores all
    those nodes together; a tree that samples no candidates has no draw
    order to keep, so it puts every pending node into the round. Leaves
    draw nothing, so the stacks skip them. Iterative, so deep trees hit no
    recursion limit.

    Nodes live in one pool while the trees grow: the roots are nodes 0 to
    trees - 1, and each split appends its two children, left then right.
    At the end each tree's nodes are taken out of the pool in that order.
    """
    d = X.shape[1]
    y = np.asarray(y, dtype=np.intp)
    coded = column_codes(X, y)
    sampled = n_candidates is not None and n_candidates < d
    draws = CandidateDraws(rngs, d, n_candidates) if sampled else None
    every = np.arange(d)

    def splittable(pos, size, depth):
        return (0 < pos) & (pos < size) & (max_depth is None or depth < max_depth)

    row_sets = [np.asarray(rows) for rows in row_sets]
    trees = len(row_sets)
    pos = [np.count_nonzero(y[rows]) for rows in row_sets]  # labels are 0 or 1
    node_tree = [np.arange(trees)]
    node_counts = [np.array([(rows.size - p, p) for rows, p in zip(row_sets, pos)])]
    splits: list[tuple[np.ndarray, ...]] = []  # (node, feature, threshold, left child)
    stacks = [[(t, t, rows, 0)] if splittable(p, rows.size, 0) else []
              for t, (rows, p) in enumerate(zip(row_sets, pos))]
    made = trees
    live = [t for t in range(trees) if stacks[t]]
    while live:
        if sampled:
            picked = [stacks[t].pop() for t in live]
            columns = draws.take(np.array(live))
        else:
            picked = [entry for t in live for entry in stacks[t]]
            for t in live:
                stacks[t].clear()
            columns = np.tile(every, (len(picked), 1))
        node_ids, tree_ids, rows, depths = zip(*picked)
        sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        rows = np.concatenate(rows)
        feature, threshold = _best_splits(coded, rows, sizes, columns, min_leaf)
        split = feature >= 0
        found = np.flatnonzero(split)
        if found.size:
            feature, threshold = feature[found], threshold[found]
            rows, start, mid, end, pos_left, pos_right = _partition(
                X, y, rows[np.repeat(split, sizes)], sizes[found], feature, threshold)
            n_left, n_right = mid - start, end - mid
            left = made + 2 * np.arange(found.size)
            made += 2 * found.size
            depth = np.array(depths)[found] + 1
            owner = np.array(tree_ids)[found]
            node_tree.append(np.repeat(owner, 2))
            node_counts.append(np.column_stack(
                [n_left - pos_left, pos_left, n_right - pos_right, pos_right]).reshape(-1, 2))
            splits.append((np.array(node_ids)[found], feature, threshold, left))
            for t, child, level, a, b, c, go_left, go_right in zip(
                    owner.tolist(), left.tolist(), depth.tolist(), start.tolist(),
                    mid.tolist(), end.tolist(), splittable(pos_left, n_left, depth).tolist(),
                    splittable(pos_right, n_right, depth).tolist()):
                if go_right:  # pushed first, so the left child is taken first
                    stacks[t].append((child + 1, t, rows[b:c], level))
                if go_left:
                    stacks[t].append((child, t, rows[a:b], level))
        live = [t for t in live if stacks[t]]
    return _pool_trees(np.concatenate(node_tree), np.concatenate(node_counts), splits, trees)


def _partition(X, y, rows, sizes, feature, threshold):
    """Split node i's rows (the next ``sizes[i]`` of ``rows``) by
    ``x[feature[i]] <= threshold[i]``, all nodes in one pass.

    Returns the rows stably partitioned node by node, left rows first, each
    node's start, middle (its first right row) and end in them, and the
    Effective count of each node's left and right rows.
    """
    node = np.repeat(np.arange(sizes.size), sizes)
    goes_left = X[rows, feature[node]] <= threshold[node]
    key = 2 * node
    key += ~goes_left
    rows = rows[np.argsort(key, kind="stable")]
    end = np.cumsum(sizes)
    start = end - sizes
    mid = start + np.add.reduceat(goes_left, start, dtype=np.intp)
    labels = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(y[rows], out=labels[1:])
    return rows, start, mid, end, labels[mid] - labels[start], labels[end] - labels[mid]


def _pool_trees(node_tree, counts, splits, trees):
    """Each tree's nodes out of the growth pool, in the order they were made.

    ``node_tree[i]`` is node i's tree and ``counts[i]`` its class counts;
    each split names its node, feature, threshold and left child (the
    right child is the next node).
    """
    n = node_tree.size
    feature = np.full(n, -1)
    threshold = np.zeros(n)
    left = np.full(n, -1)
    if splits:
        at, f, t, child = (np.concatenate(part) for part in zip(*splits))
        feature[at], threshold[at], left[at] = f, t, child
    order = np.argsort(node_tree, kind="stable")
    per_tree = np.bincount(node_tree, minlength=trees)
    ends = np.cumsum(per_tree)
    local = np.empty(n, dtype=np.intp)  # each node's index in its own tree
    local[order] = np.arange(n) - np.repeat(ends - per_tree, per_tree)
    inner = left >= 0
    right = np.where(inner, local[left + 1], -1)[order]
    left = np.where(inner, local[left], -1)[order]
    feature, threshold, counts = feature[order], threshold[order], counts[order]
    bounds = zip((ends - per_tree).tolist(), ends.tolist())
    return [Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], counts[a:b])
            for a, b in bounds]


def train_decision_tree(
    matrix: FeatureMatrix,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> DecisionTreeModel:
    check_two_classes(matrix.y)
    (tree,) = grow_trees(
        matrix.X, matrix.y, [np.arange(matrix.n_rows)], params.min_leaf, params.max_depth
    )
    return DecisionTreeModel(
        feature_ids=matrix.feature_ids,
        seed=seed,
        params=params,
        tree=tree,
    )
