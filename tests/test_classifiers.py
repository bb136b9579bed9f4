import functools
import math
import operator
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from conftest import FIXTURES
from testability.dataset import FeatureMatrix, ingest_csv, label_by_quartiles, to_feature_matrix
from testability.learn import (
    DimensionMismatch,
    FoldTrainingError,
    ForestParams,
    MLPParams,
    ModelKind,
    NonFiniteLoss,
    SingleClassInput,
    TreeParams,
    auc,
    dump_model,
    evaluate,
    evaluation,
    load_model,
    train_decision_tree,
    train_mlp,
    train_model,
    train_random_forest,
)
from testability.forkpool import fork_pool
from testability.learn import tree
from testability.learn.evaluation import cross_validate, pooled_report, stratified_kfold
from testability.learn.forest import RandomForestModel
from testability.learn.mlp import _Pass, _sigmoid, _views
from testability.learn.tree import (
    DecisionTreeModel,
    Tree,
    TreeNode,
    _best_splits,
    _xlog2x,
    column_codes,
    entropy_bits,
)
from testability.metrics import INDEPENDENT_VARIABLES, MetricId

FEATURES_2D = (MetricId.LOC, MetricId.WMC)


def matrix_2d(X, y):
    return FeatureMatrix(feature_ids=FEATURES_2D, X=np.asarray(X, float),
                         y=np.asarray(y))


def separable_1d(n=40, threshold=10.0):
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 20, size=n)
    y = (x < threshold).astype(int)  # LOC < 10  <=>  Effective
    X = np.column_stack([x, rng.uniform(0, 1, size=n)])
    return matrix_2d(X, y)


# -- decision tree -------------------------------------------------------------


def test_separable_1d_gives_depth_one_tree():
    fm = separable_1d()
    model = train_decision_tree(fm, TreeParams(min_leaf=2))
    assert model.root.feature == 0
    assert 8.0 < model.root.threshold < 12.0
    assert model.root.left.is_leaf and model.root.right.is_leaf
    predictions = (model.predict_scores(fm.X) >= 0.5).astype(int)
    assert np.array_equal(predictions, fm.y)


def test_xor_needs_depth_two_and_fits_exactly():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([0, 1, 1, 0])
    fm = matrix_2d(X, y)
    model = train_decision_tree(fm, TreeParams(min_leaf=1))
    assert not model.root.is_leaf
    assert not (model.root.left.is_leaf and model.root.right.is_leaf)  # depth >= 2
    assert np.array_equal((model.predict_scores(X) >= 0.5).astype(int), y)


def test_constant_features_give_single_leaf_majority():
    X = np.ones((10, 2))
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
    model = train_decision_tree(matrix_2d(X, y))
    assert model.root.is_leaf
    assert model.root.counts == (6, 4)
    score = float(model.predict_scores(np.array([[1.0, 1.0]]))[0])
    assert score < 0.5
    assert score == pytest.approx(0.4)


def test_single_class_input_rejected():
    with pytest.raises(SingleClassInput):
        train_decision_tree(matrix_2d(np.zeros((4, 2)), [1, 1, 1, 1]))


def test_pure_leaf_scores_are_zero_or_one():
    fm = separable_1d()
    model = train_decision_tree(fm, TreeParams(min_leaf=2))
    scores = model.predict_scores(fm.X)
    assert set(np.unique(scores)) <= {0.0, 1.0}


def test_predict_checks_dimension():
    model = train_decision_tree(separable_1d())
    with pytest.raises(DimensionMismatch):
        model.predict_scores(np.array([[1.0, 2.0, 3.0]]))


def test_tree_monotone_transform_invariance():
    fm = separable_1d(n=60)
    cubed = matrix_2d(fm.X**3, fm.y)
    a = train_decision_tree(fm, TreeParams(min_leaf=2))
    b = train_decision_tree(cubed, TreeParams(min_leaf=2))
    assert np.array_equal(
        a.predict_scores(fm.X) >= 0.5, b.predict_scores(cubed.X) >= 0.5
    )


# -- split search ---------------------------------------------------------------


def reference_best_split(X, y, candidates, min_leaf):
    """The earlier per-feature loop of ``best_split``, kept as its oracle."""
    n = y.size
    total_pos = int(y.sum())
    h_parent = float(entropy_bits(np.array([total_pos]), np.array([n]))[0])
    best = None  # (-gain_ratio, feature, threshold)
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


@st.composite
def split_problems(draw):
    """Small tie-heavy integer matrices, a sorted candidate subset, min_leaf 1-4."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    candidates = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    min_leaf = draw(st.integers(1, 4))
    X = np.array(cells, dtype=np.float64).reshape(n, d)
    return X, np.array(labels, dtype=np.intp), candidates, min_leaf


def best_splits(coded, nodes, min_leaf):
    """Each node's (feature, threshold), or None, from ``_best_splits`` over
    the flat arrays of ``nodes``, (rows, sorted candidates) pairs."""
    columns = np.full((len(nodes), max(c.size for _, c in nodes)), -1)
    for i, (_, candidates) in enumerate(nodes):
        columns[i, : candidates.size] = candidates
    feature, threshold = _best_splits(coded, np.concatenate([rows for rows, _ in nodes]),
                                      np.array([rows.size for rows, _ in nodes]), columns,
                                      min_leaf)
    return [None if f < 0 else (f, t) for f, t in zip(feature.tolist(), threshold.tolist())]


def score_one(X, y, candidates, min_leaf):
    """One node over every row of X, through the batched scorer."""
    (split,) = best_splits(column_codes(X, y), [(np.arange(y.size), np.array(candidates))],
                           min_leaf)
    return split


@settings(max_examples=500, deadline=None)
@given(split_problems())
def test_split_scorer_matches_the_per_feature_reference(problem):
    assert score_one(*problem) == reference_best_split(*problem)


@settings(max_examples=300, deadline=None)
@given(st.lists(split_problems(), min_size=2, max_size=6), st.sampled_from([1, 20, 1 << 15]))
def test_split_scorer_scores_several_problems_in_one_call(problems, slice_cells):
    """Problems stacked as row blocks of one matrix, scored as one round of nodes."""
    min_leaf = problems[0][3]
    d = max(X.shape[1] for X, _, _, _ in problems)
    X = np.vstack([np.pad(X, ((0, 0), (0, d - X.shape[1]))) for X, _, _, _ in problems])
    y = np.concatenate([y for _, y, _, _ in problems])
    ends = np.cumsum([y.size for _, y, _, _ in problems])
    nodes = [(np.arange(end - y.size, end), np.array(candidates))
             for end, (_, y, candidates, _) in zip(ends, problems)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree, "SLICE_CELLS", slice_cells)
        got = best_splits(column_codes(X, y), nodes, min_leaf)
    assert got == [reference_best_split(X, y, c, min_leaf) for X, y, c, _ in problems]


def test_split_keys_widen_when_the_codes_dtype_cannot_hold_them():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 5, size=(40, 3)).astype(float)
    y = rng.integers(0, 2, size=40)
    codes, values, starts = column_codes(X, y)
    # codes stay below 2 * 40 and fit int8; keys reach 2 nodes * 3 slots * 80
    narrow = (codes.astype(np.int8), values, starts)
    nodes = [(np.arange(40), np.arange(3)), (np.arange(0, 40, 2), np.array([1, 2]))]
    want = [reference_best_split(X[rows], y[rows], list(candidates), 1)
            for rows, candidates in nodes]
    assert best_splits(narrow, nodes, 1) == want
    assert best_splits((codes, values, starts), nodes, 1) == want


def test_split_scorer_ties_go_to_the_smaller_feature_then_the_smaller_threshold():
    # features 0 and 2 are copies, and each separates the labels at 1.5 and
    # at 2.5 with the same gain ratio
    X = np.array([[1, 9, 1], [2, 9, 2], [2, 9, 2], [3, 9, 3]], dtype=float)
    y = np.array([0, 1, 1, 0])
    assert score_one(X, y, [0, 1, 2], 1) == (0, 1.5)
    assert score_one(X, y, [1, 2], 1) == (2, 1.5)
    assert score_one(X, y, [1], 1) is None  # a constant column has no cut
    assert score_one(X, y, [0, 2], 3) is None  # no cut keeps 3 rows a side
    # each side of every cut is half Effective, so every gain is exactly 0: the 4|4
    # cut at 0.5 comes first and wins over the 6|2 cut at 1.5, whose intrinsic
    # information is smaller
    X = np.array([[0], [0], [0], [0], [1], [1], [2], [2]], dtype=float)
    assert score_one(X, np.array([0, 1, 0, 1, 0, 1, 0, 1]), [0], 1) == (0, 0.5)


def masked_xlog2x(p):
    """The masked form that the ``where=`` log in _xlog2x replaced."""
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log2(p[nz])
    return out


def test_xlog2x_is_bit_identical_to_the_masked_form():
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, 1.0, 5e-324, 2.5e-323, tiny / 3, tiny, tiny * 2, 0.5, 1 / 3,
             1 - 2**-53, 2**-53, 1e-300]
    p = np.concatenate([edges, np.random.default_rng(4).random(10_000)])
    for q in (p, 1.0 - p, np.array(edges)[:, None] * np.array([1.0, 0.25])):
        assert np.array_equal(_xlog2x(q).view(np.uint64), masked_xlog2x(q).view(np.uint64))


# -- lockstep growth against one tree at a time -----------------------------------


@dataclass
class RefNode:
    """A node of the trees the references grow, linked by object. Internal
    nodes split ``feature <= threshold`` left, ``>`` right."""

    feature: int = -1
    threshold: float = 0.0
    left: "RefNode | None" = None
    right: "RefNode | None" = None
    counts: tuple[int, int] = (0, 0)  # (non-effective, effective)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def to_tree(root: RefNode) -> Tree:
    """The model's flat node arrays for a tree of RefNodes, numbered in preorder."""
    nodes, stack = [], [root]
    while stack:
        nodes.append(stack.pop())
        stack += [] if nodes[-1].is_leaf else [nodes[-1].right, nodes[-1].left]
    index = {id(node): i for i, node in enumerate(nodes)}
    child = [(-1, -1) if node.is_leaf else (index[id(node.left)], index[id(node.right)])
             for node in nodes]
    return Tree(feature=np.array([node.feature for node in nodes]),
                threshold=np.array([node.threshold for node in nodes]),
                left=np.array([left for left, _ in child]),
                right=np.array([right for _, right in child]),
                counts=np.array([node.counts for node in nodes]))


def reference_grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    max_depth: int | None,
    n_candidates: int | None = None,
    rng: np.random.Generator | None = None,
) -> RefNode:
    """The earlier one-tree-at-a-time ``grow_tree``, kept as the oracle of
    ``grow_trees``; only its ``best_split`` call now goes to the reference.

    Grow a tree iteratively (no recursion limit on deep trees).

    When ``n_candidates`` is given, that many feature indices are sampled
    uniformly without replacement at every split (random-forest mode).
    """
    d = X.shape[1]
    root = RefNode()
    stack: list[tuple[RefNode, np.ndarray, int]] = [(root, np.arange(y.size), 0)]
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
        split = reference_best_split(X[idx], sub_y, list(candidates), min_leaf)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = X[idx, node.feature] <= node.threshold
        node.left = RefNode()
        node.right = RefNode()
        stack.append((node.right, idx[~mask], depth + 1))
        stack.append((node.left, idx[mask], depth + 1))
    return root


def reference_forest(fm, params, seed):
    """Trees grown one after another on bootstrap copies, as forests were before."""
    n, d = fm.X.shape
    fps = params.candidates_per_split(d)
    trees = []
    for seq in np.random.SeedSequence(seed).spawn(params.trees):
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        trees.append(to_tree(reference_grow_tree(fm.X[idx], fm.y[idx], min_leaf=params.min_leaf,
                                                 max_depth=None, n_candidates=fps, rng=rng)))
    return RandomForestModel(feature_ids=fm.feature_ids, seed=seed, params=params, trees=trees)


@st.composite
def tree_matrices(draw):
    """Tie-heavy matrices of 2-60 rows by 1-8 columns with both classes: small
    integers with mixed signed zeros, scaled by 1e-300, 1, -1 or 1e300, and
    sometimes noise on top."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 8))
    cells = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]),
                          min_size=n * d, max_size=n * d))
    X = np.array(cells).reshape(n, d) * draw(st.sampled_from([1e-300, 1.0, -1.0, 1e300]))
    if draw(st.booleans()):
        noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d))
        X = X + noise * np.abs(X).max() * draw(st.sampled_from([1e-9, 0.3]))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[:2] = [0, 1]  # two classes, so training accepts the matrix
    return FeatureMatrix(feature_ids=tuple(MetricId)[:d], X=X, y=np.array(labels))


@settings(max_examples=150, deadline=None)
@given(tree_matrices(), st.data())
def test_lockstep_forest_dumps_match_trees_grown_one_at_a_time(fm, data):
    params = ForestParams(
        trees=data.draw(st.integers(1, 15)),
        features_per_split=data.draw(st.integers(1, fm.n_features)),
        min_leaf=data.draw(st.integers(1, 4)),
        bootstrap=data.draw(st.booleans()),
    )
    seed = data.draw(st.integers(0, 1000))
    with pytest.MonkeyPatch.context() as patch:  # small slices split the first rounds
        patch.setattr(tree, "SLICE_CELLS", data.draw(st.sampled_from([1, 64, 1 << 15])))
        got = dump_model(train_random_forest(fm, params, seed))
    assert got == dump_model(reference_forest(fm, params, seed))


@settings(max_examples=200, deadline=None)
@given(tree_matrices(), st.integers(1, 4), st.sampled_from([None, 0, 1, 2, 3]))
def test_single_tree_dump_matches_the_tree_grown_node_by_node(fm, min_leaf, max_depth):
    params = TreeParams(min_leaf=min_leaf, max_depth=max_depth)
    root = reference_grow_tree(fm.X, fm.y, min_leaf, max_depth)
    expected = DecisionTreeModel(feature_ids=fm.feature_ids, seed=0, params=params,
                                 tree=to_tree(root))
    assert dump_model(train_decision_tree(fm, params)) == dump_model(expected)


def test_a_first_round_over_the_slice_is_scored_in_several_slices(monkeypatch):
    fm = fixture_matrix()
    params = ForestParams(trees=8)
    expected = dump_model(reference_forest(fm, params, seed=4))
    assert fm.n_rows * params.candidates_per_split(fm.n_features) * params.trees > 2000
    monkeypatch.setattr(tree, "SLICE_CELLS", 2000)
    assert dump_model(train_random_forest(fm, params, seed=4)) == expected


@pytest.mark.parametrize(
    "column",
    [[1e308, 1.7e308], [1 + 2**-52, 1 + 2**-51], [-1.7e308, -1e308]],
    ids=["midpoint-overflows-to-inf", "midpoint-rounds-to-b", "midpoint-overflows-to-minus-inf"],
)
def test_a_threshold_whose_midpoint_is_off_still_splits_the_rows(column):
    def hang(signum, frame):
        raise TimeoutError("tree growth did not end within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        (grown,) = tree.grow_trees(np.array([column]).T, np.array([0, 1]), [np.arange(2)], 1,
                                   None)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    a, b = column
    root = TreeNode(grown)
    assert a <= root.threshold < b
    assert root.left.counts == (1, 0) and root.right.counts == (0, 1)
    assert root.left.is_leaf and root.right.is_leaf


# -- random forest ------------------------------------------------------------


def test_forest_is_deterministic_under_seed():
    fm = separable_1d(n=80)
    a = train_random_forest(fm, ForestParams(trees=20), seed=9)
    b = train_random_forest(fm, ForestParams(trees=20), seed=9)
    assert dump_model(a) == dump_model(b)
    assert np.array_equal(a.predict_scores(fm.X), b.predict_scores(fm.X))


def test_forest_differs_across_seeds():
    fm = separable_1d(n=80)
    a = train_random_forest(fm, ForestParams(trees=20), seed=9)
    b = train_random_forest(fm, ForestParams(trees=20), seed=10)
    assert dump_model(a) != dump_model(b)


def test_degenerate_forest_equals_single_tree():
    fm = separable_1d(n=50)
    forest = train_random_forest(
        fm,
        ForestParams(trees=1, features_per_split=2, min_leaf=1, bootstrap=False),
        seed=3,
    )
    tree = train_decision_tree(fm, TreeParams(min_leaf=1))
    assert np.array_equal(
        forest.predict_scores(fm.X) >= 0.5, tree.predict_scores(fm.X) >= 0.5
    )


def test_forest_vote_fraction_is_score():
    fm = separable_1d(n=50)
    model = train_random_forest(fm, ForestParams(trees=10), seed=1)
    scores = model.predict_scores(fm.X)
    assert np.all((scores * 10) == np.round(scores * 10))  # multiples of 1/10
    assert np.all((0 <= scores) & (scores <= 1))


@pytest.mark.parametrize("settings", [
    {"trees": 0}, {"trees": -2}, {"features_per_split": 0}, {"features_per_split": -1},
    {"min_leaf": 0}, {"min_leaf": -1},
])
def test_forest_params_reject_out_of_range_settings(settings):
    with pytest.raises(ValueError, match=next(iter(settings))):
        ForestParams(**settings)
    assert ForestParams(features_per_split=None).features_per_split is None  # auto


def test_forest_rejects_more_features_per_split_than_features():
    fm = separable_1d()
    with pytest.raises(ValueError, match="features_per_split must be at most the 2 features"):
        train_random_forest(fm, ForestParams(trees=1, features_per_split=3))
    assert train_random_forest(fm, ForestParams(trees=1, features_per_split=2)).roots


@pytest.mark.parametrize("params, settings", [
    (TreeParams, {"min_leaf": 0}), (TreeParams, {"min_leaf": -3}),
    (TreeParams, {"max_depth": -1}),
    (MLPParams, {"hidden": 0}), (MLPParams, {"hidden": -2}), (MLPParams, {"epochs": -1}),
])
def test_tree_and_mlp_params_reject_out_of_range_settings(params, settings):
    with pytest.raises(ValueError, match=next(iter(settings))):
        params(**settings)


def test_unlimited_depth_auto_hidden_and_zero_epochs_stay_valid():
    assert TreeParams(max_depth=None).max_depth is None
    assert TreeParams(max_depth=0).max_depth == 0
    assert MLPParams(hidden=None, epochs=0).epochs == 0


# -- flat prediction against the per-node walk -----------------------------------


def walk_scores(grown, X):
    """The per-node walk that flat prediction replaced: one tree's scores,
    following its child indices from the root."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if grown.feature[node] < 0:
            non_eff, eff = grown.counts[node].tolist()
            out[idx] = eff / (eff + non_eff)
            continue
        mask = X[idx, grown.feature[node]] <= grown.threshold[node]
        stack.append((grown.left[node], idx[mask]))
        stack.append((grown.right[node], idx[~mask]))
    return out


def split_points(grown):
    """Every (feature, threshold) of a tree's internal nodes."""
    inner = grown.feature >= 0
    return list(zip(grown.feature[inner].tolist(), grown.threshold[inner].tolist()))


CELLS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 1e300, -1e300])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_prediction_equals_the_per_node_walk(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 24))
    X = np.array(data.draw(st.lists(st.lists(CELLS, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = (0, 1)
    min_leaf = data.draw(st.integers(1, 4))  # large ones leave one-leaf trees
    fm = FeatureMatrix(INDEPENDENT_VARIABLES[:d], X, y)
    single = train_decision_tree(fm, TreeParams(min_leaf=min_leaf))
    forest_params = ForestParams(trees=data.draw(st.integers(1, 7)), min_leaf=min_leaf)
    forest = train_random_forest(fm, forest_params, seed=data.draw(st.integers(0, 9)))
    probes = [X]  # the training rows, then rows that sit on each threshold
    for feature, threshold in split_points(single.tree) + [
            p for grown in forest.trees for p in split_points(grown)]:
        row = X[0].copy()
        row[feature] = threshold
        probes.append(row[None])
    P = np.vstack(probes)
    want_tree = walk_scores(single.tree, P)
    want_votes = np.zeros(P.shape[0])
    for grown in forest.trees:
        want_votes += walk_scores(grown, P) >= 0.5
    want_forest = want_votes / len(forest.trees)
    for cells in (1, 5, tree.SLICE_CELLS):  # one (tree, row) pair per block, a few, all
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree, "SLICE_CELLS", cells)
            assert np.array_equal(bits(single.predict_scores(P)), bits(want_tree))
            assert np.array_equal(bits(forest.predict_scores(P)), bits(want_forest))


# -- AUC ------------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=2, max_size=60))
def test_auc_is_the_mann_whitney_statistic_over_tied_scores(pairs):
    scores = np.array([s / 5 for s, _ in pairs])
    labels = np.array([label for _, label in pairs])
    pos, neg = scores[labels == 1], scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        with pytest.raises(SingleClassInput):
            auc(scores, labels)
        return
    expected = mannwhitneyu(pos, neg).statistic / (pos.size * neg.size)
    assert abs(auc(scores, labels) - expected) <= 1e-12


def reference_auc(scores, labels):
    """AUC by sorting scores descending and cutting after each run of tied scores."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    tp = np.cumsum(y_sorted == 1)
    fp = np.cumsum(y_sorted == 0)
    last = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    tpr = np.concatenate(([0.0], tp[last] / int((y == 1).sum())))
    fpr = np.concatenate(([0.0], fp[last] / int((y == 0).sum())))
    return float(np.trapezoid(tpr, fpr))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 5).map(lambda s: s / 5),
                                    st.floats(-1e9, 1e9, allow_nan=False)),
                          st.integers(0, 1)), min_size=2, max_size=80))
def test_auc_equals_the_sort_and_cut_reference_exactly(pairs):
    scores = np.array([s for s, _ in pairs])
    labels = np.array([label for _, label in pairs])
    if 0 < labels.sum() < labels.size:
        assert auc(scores, labels) == reference_auc(scores, labels)


# -- cross-validation folds ------------------------------------------------------


@pytest.mark.parametrize("k", [1, 0, -1])
def test_stratified_kfold_needs_at_least_two_folds(k):
    with pytest.raises(ValueError, match="at least 2"):
        stratified_kfold(separable_1d(), k=k)


def test_stratified_kfold_partitions_rows_and_deals_each_class():
    fm = separable_1d(n=40)
    folds = stratified_kfold(fm, k=4, seed=2)
    tests = np.sort(np.concatenate([test for _, test in folds]))
    assert np.array_equal(tests, np.arange(40))
    per_class = [np.bincount(fm.y[test], minlength=2) for _, test in folds]
    for cls in (0, 1):
        counts = [c[cls] for c in per_class]
        assert max(counts) - min(counts) <= 1
    for train, test in folds:
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == 40


# -- cross-validation across worker processes ------------------------------------

CV_PARAMS = {
    ModelKind.DECISION_TREE: TreeParams(),
    ModelKind.RANDOM_FOREST: ForestParams(trees=5),
    ModelKind.MULTILAYER_PERCEPTRON: MLPParams(epochs=30),
}


def fixture_matrix():
    with open(os.path.join(FIXTURES, "metrics.csv"), encoding="utf-8", newline="") as handle:
        return to_feature_matrix(label_by_quartiles(ingest_csv(handle)))


def serial_report(fm, kind, params, k, seed):
    """Every fold trained in this process, one after another: the reference."""
    scores = np.empty(fm.n_rows)
    for train, test in stratified_kfold(fm, k=k, seed=seed):
        sub = FeatureMatrix(feature_ids=fm.feature_ids, X=fm.X[train], y=fm.y[train])
        scores[test] = train_model(sub, kind, params, seed=seed).predict_scores(fm.X[test])
    return pooled_report(kind, fm.y, scores, k, seed)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_a_pool_of_one_worker_gives_the_serial_report(kind, monkeypatch):
    fm = fixture_matrix()
    params = CV_PARAMS[kind]
    default = evaluate(fm, kind, params, k=5, seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert evaluate(fm, kind, params, k=5, seed=3) == default
    assert default == serial_report(fm, kind, params, k=5, seed=3)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_kind_in_one_pool_gives_the_serial_reports(workers, monkeypatch):
    fm = fixture_matrix()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    with fork_pool() as pool:
        reports = list(cross_validate(pool, fm, list(ModelKind), CV_PARAMS.get, k=5, seed=3))
    assert reports == [serial_report(fm, kind, CV_PARAMS[kind], k=5, seed=3)
                       for kind in ModelKind]


class InlinePool:
    """A pool that runs each job as it is submitted; after ``healthy`` jobs
    it is broken, as a pool is once a worker has died."""

    def __init__(self, healthy=None):
        self.healthy = healthy
        self.submitted = []

    def submit(self, fn, matrix, kind, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        if len(self.submitted) == self.healthy:
            raise BrokenProcessPool("a child process terminated abruptly")
        self.submitted.append(kind)
        future = Future()
        future.set_result(fn(matrix, kind, *args))
        return future


def test_a_bad_setting_is_raised_at_its_turn_and_stops_submission():
    fm = fixture_matrix()
    pool = InlinePool()
    params = {**CV_PARAMS, ModelKind.RANDOM_FOREST: ForestParams(trees=2, features_per_split=99)}
    reports = cross_validate(pool, fm, list(ModelKind), params.get, k=3, seed=1)
    assert pool.submitted == [ModelKind.DECISION_TREE] * 3
    assert next(reports) == serial_report(fm, ModelKind.DECISION_TREE,
                                          CV_PARAMS[ModelKind.DECISION_TREE], k=3, seed=1)
    with pytest.raises(ValueError, match="features_per_split must be at most"):
        next(reports)


def test_a_pool_that_breaks_while_jobs_are_submitted_fails_the_first_missing_fold():
    fm = fixture_matrix()
    pool = InlinePool(healthy=4)  # every tree fold, then the first forest fold
    reports = cross_validate(pool, fm, list(ModelKind), CV_PARAMS.get, k=3, seed=1)
    assert next(reports).classifier is ModelKind.DECISION_TREE
    with pytest.raises(FoldTrainingError, match="^training failed on fold 1: a child process"):
        next(reports)


def test_a_dead_worker_is_a_fold_training_error(monkeypatch):
    monkeypatch.setattr(evaluation, "train_model", lambda *args, **kwargs: os._exit(1))
    with pytest.raises(FoldTrainingError) as caught:
        evaluate(fixture_matrix(), ModelKind.DECISION_TREE, k=3, seed=1)
    assert caught.value.fold == 0
    assert "terminated abruptly" in str(caught.value)


def test_a_worker_error_keeps_its_message(monkeypatch):
    def diverge(*args, **kwargs):
        raise NonFiniteLoss(12)

    monkeypatch.setattr(evaluation, "train_model", diverge)
    with pytest.raises(FoldTrainingError, match="^training failed on fold 0: "
                                                "non-finite loss at epoch 12$"):
        evaluate(fixture_matrix(), ModelKind.MULTILAYER_PERCEPTRON, k=3, seed=1)


def test_non_finite_loss_survives_a_pickle_round_trip():
    clone = pickle.loads(pickle.dumps(NonFiniteLoss(12)))
    assert str(clone) == "non-finite loss at epoch 12"
    assert clone.epoch == 12


def test_fold_training_error_survives_a_pickle_round_trip():
    clone = pickle.loads(pickle.dumps(FoldTrainingError(3, ValueError("x"))))
    assert str(clone) == "training failed on fold 3: x"
    assert clone.fold == 3


# -- multilayer perceptron ------------------------------------------------------


def reference_sigmoid(z):
    """The masked two-branch logistic function."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_of(z):
    return _sigmoid(z.copy())  # _sigmoid writes over its argument


def test_sigmoid_is_within_one_ulp_of_the_masked_form():
    """Each form is off the exact value by up to about 1.5 * 2**-53, so on
    [0.5, 1) they may differ by one ulp, 2**-52. They agree at 0 and at the
    infinities, and both keep NaN."""
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, np.inf, -np.inf, 709.8, -709.8, 745.2, -745.2, 1e-320, -1e-320]
    for z in [rng.standard_normal((1000, 18)) * scale for scale in (0.1, 1, 30, 300)] + [
            np.array(edges), rng.standard_normal(10**6) * 40, rng.uniform(-40, 40, 10**6)]:
        assert np.abs(sigmoid_of(z) - reference_sigmoid(z)).max() <= 2.0**-52
    z = np.array([0.0, -0.0, np.inf, -np.inf])
    assert sigmoid_of(z).tolist() == reference_sigmoid(z).tolist() == [0.5, 0.5, 1.0, 0.0]
    z = np.array([np.nan, -np.nan, 1.0])
    assert np.array_equal(np.isnan(sigmoid_of(z)), [True, True, False])


def test_mlp_gradients_match_central_finite_differences():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10)
    w1 = rng.normal(scale=0.5, size=(3, 4))
    b1 = rng.normal(scale=0.1, size=4)
    w2 = rng.normal(scale=0.5, size=(4, 2))
    b2 = rng.normal(scale=0.1, size=2)
    epoch_pass = _Pass(xs, y, 4)  # the code a fit runs each epoch
    _, grad = epoch_pass.loss_and_gradients(w1, b1, w2, b2)
    grads = _views(grad.copy(), 3, 4)  # the pass writes over it on its next call
    eps = 1e-6
    for p, g in zip((w1, b1, w2, b2), grads):
        flat = p.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up, _ = epoch_pass.loss_and_gradients(w1, b1, w2, b2)
            flat[i] = keep - eps
            down, _ = epoch_pass.loss_and_gradients(w1, b1, w2, b2)
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            analytic = g.ravel()[i]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-5


# The fit this module's buffered pass computes, with every epoch allocating
# its arrays afresh: rows with a ones column times (w1; b1), the tanh form
# of the sigmoid, and the two products over the rows summed in row blocks.


def blocked_product(a, b):
    """a.T @ b summed over the row blocks _Pass uses, in order."""
    step = max(1, 2**18 // (a.shape[1] * b.shape[1]))
    return functools.reduce(operator.add, [a[s:s + step].T @ b[s:s + step]
                                           for s in range(0, a.shape[0], step)])


def with_ones(xs):
    return np.hstack([xs, np.ones((xs.shape[0], 1))])


def _reference_forward(xs, w1, b1, w2, b2):
    hidden = 0.5 + 0.5 * np.tanh(with_ones(xs) @ np.vstack([w1, b1]) / 2)
    logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    probs = ez / ez.sum(axis=1, keepdims=True)
    return hidden, probs


def _reference_loss_and_gradients(xs, y, w1, b1, w2, b2):
    n = xs.shape[0]
    hidden, probs = _reference_forward(xs, w1, b1, w2, b2)
    eps = np.finfo(np.float64).tiny
    loss = -float(np.mean(np.log(probs[np.arange(n), y] + eps)))
    delta2 = probs.copy()
    delta2[np.arange(n), y] -= 1.0
    delta2 /= n
    gw2 = blocked_product(hidden, delta2)
    gb2 = delta2.sum(axis=0)
    delta1 = (delta2 @ w2.T) * hidden * (1.0 - hidden)
    gw1b = blocked_product(with_ones(xs), delta1)
    return loss, (gw1b[:-1], gw1b[-1], gw2, gb2)


def reference_train_mlp(matrix, params, seed):
    """(w1, b1, w2, b2) of the allocating fit, or the NonFiniteLoss it raises."""
    X = matrix.X
    y = matrix.y.astype(np.intp)
    d = X.shape[1]
    h = params.hidden if params.hidden is not None else math.ceil((d + 2) / 2)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    xs = (X - mean) / scale
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, size=(d, h)) / math.sqrt(d)
    b1 = np.zeros(h)
    w2 = rng.uniform(-0.5, 0.5, size=(h, 2)) / math.sqrt(h)
    b2 = np.zeros(2)
    velocity = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    parameters = [w1, b1, w2, b2]
    for epoch in range(params.epochs):
        loss, grads = _reference_loss_and_gradients(xs, y, *parameters)
        if not math.isfinite(loss):
            raise NonFiniteLoss(epoch)
        for p, v, g in zip(parameters, velocity, grads):
            v *= params.momentum
            v -= params.learning_rate * g
            p += v
    return parameters


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_fit_matches_the_reference(fm, params, seed):
    model = train_mlp(fm, params, seed=seed)
    for got, want in zip((model.w1, model.b1, model.w2, model.b2),
                         reference_train_mlp(fm, params, seed)):
        assert np.array_equal(bits(got), bits(want))
    xs = (fm.X - model.mean) / model.scale
    want = _reference_forward(xs, model.w1, model.b1, model.w2, model.b2)[1][:, 1]
    assert np.array_equal(bits(model.predict_scores(fm.X)), bits(want))
    assert np.array_equal(bits(model.predict_scores(fm.X[0])), bits(want[:1]))  # n = 1


@pytest.mark.parametrize("n, d, params", [
    (2, 2, MLPParams(epochs=40)),
    (60, 2, MLPParams(hidden=1, epochs=60)),
    (60, 2, MLPParams(epochs=0)),
    (280, 34, MLPParams(epochs=30)),
    (10000, 34, MLPParams(epochs=25)),
], ids=["n2", "hidden1", "epochs0", "fold-size", "10k-by-34"])
def test_mlp_fit_is_bit_identical_to_the_allocating_reference(n, d, params):
    rng = np.random.default_rng(n + d)
    X = rng.integers(0, 40, size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    y = (X[:, 0] + rng.normal(0, 10, n) > X[:, 0].mean()).astype(int)
    y[:2] = (0, 1)
    assert_fit_matches_the_reference(FeatureMatrix(INDEPENDENT_VARIABLES[:d], X, y), params, 3)


def test_an_epoch_over_one_row_is_bit_identical_to_the_allocating_reference():
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(1, 3))
    w1, b1 = rng.normal(size=(3, 2)), rng.normal(size=2)
    w2, b2 = rng.normal(size=(2, 2)), rng.normal(size=2)
    for label in (0, 1):
        y = np.array([label])
        loss, grad = _Pass(xs, y, 2).loss_and_gradients(w1, b1, w2, b2)
        grads = _views(grad, 3, 2)
        want_loss, want_grads = _reference_loss_and_gradients(xs, y, w1, b1, w2, b2)
        assert bits(loss) == bits(want_loss)
        for got, want in zip(grads, want_grads):
            assert np.array_equal(bits(got), bits(want))


def test_a_diverging_fit_stops_at_the_reference_epoch():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 2))
    fm = matrix_2d(X, (X[:, 0] > 0).astype(int))
    params = MLPParams(learning_rate=1e300, momentum=3.0)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss) as want:
            reference_train_mlp(fm, params, 1)
        with pytest.raises(NonFiniteLoss) as got:
            train_mlp(fm, params, seed=1)
    assert got.value.epoch == want.value.epoch == 21


def test_mlp_zero_epochs_is_untrained_baseline():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 2))
    y = (X[:, 0] > 0).astype(int)
    fm = matrix_2d(X, y)
    model = train_mlp(fm, MLPParams(epochs=0), seed=4)
    accuracy = np.mean((model.predict_scores(X) >= 0.5).astype(int) == y)
    assert 0.3 <= accuracy <= 0.7


def test_mlp_learns_separable_data():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    fm = matrix_2d(X, y)
    model = train_mlp(fm, MLPParams(epochs=200), seed=4)
    accuracy = np.mean((model.predict_scores(X) >= 0.5).astype(int) == y)
    assert accuracy >= 0.95


def test_mlp_standardization_is_internal():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(100, 2))
    y = (X[:, 0] > 0).astype(int)
    shifted = X * np.array([1e6, 1e-6]) + np.array([5e8, -3.0])
    model = train_mlp(matrix_2d(shifted, y), MLPParams(epochs=150), seed=7)
    accuracy = np.mean((model.predict_scores(shifted) >= 0.5).astype(int) == y)
    assert accuracy >= 0.95


def test_mlp_deterministic_under_seed():
    fm = separable_1d(n=60)
    a = train_mlp(fm, MLPParams(epochs=50), seed=12)
    b = train_mlp(fm, MLPParams(epochs=50), seed=12)
    assert np.array_equal(a.predict_scores(fm.X), b.predict_scores(fm.X))


# -- serialization ---------------------------------------------------------------


#: settings per kind that between them write every spelling of the params line
ROUND_TRIP_SETTINGS = {
    ModelKind.DECISION_TREE: [TreeParams(min_leaf=2), TreeParams(max_depth=3)],
    ModelKind.RANDOM_FOREST: [ForestParams(trees=7),
                              ForestParams(trees=7, features_per_split=1, bootstrap=False)],
    ModelKind.MULTILAYER_PERCEPTRON: [MLPParams(epochs=30),
                                      MLPParams(hidden=3, learning_rate=0.1, epochs=30)],
}


@pytest.mark.parametrize("kind", list(ModelKind))
def test_export_import_round_trip_preserves_predictions(kind):
    fm = separable_1d(n=60)
    for params in ROUND_TRIP_SETTINGS[kind]:
        model = train_model(fm, kind, params, seed=1)
        text = dump_model(model)
        clone = load_model(text)
        assert clone.kind is kind
        assert clone.feature_ids == model.feature_ids
        assert clone.params == params
        assert np.array_equal(clone.predict_scores(fm.X), model.predict_scores(fm.X))
        assert dump_model(clone) == text
