import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from testability.learn import (
    DimensionMismatch,
    ForestParams,
    MLPParams,
    ModelKind,
    SingleClassInput,
    TreeParams,
    auc,
    dump_model,
    load_model,
    predict,
    train_decision_tree,
    train_mlp,
    train_random_forest,
)
from testability.learn.evaluation import stratified_kfold
from testability.learn.mlp import loss_and_gradients
from testability.learn.tree import _xlog2x, best_split, entropy_bits
from testability.metrics import MetricId
from testability.records import EffectivenessLabel, FeatureMatrix

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
    label, score = predict(model, [1.0, 1.0])
    assert label is EffectivenessLabel.NON_EFFECTIVE
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
        predict(model, [1.0, 2.0, 3.0])


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


@settings(max_examples=500, deadline=None)
@given(split_problems())
def test_best_split_matches_the_per_feature_reference(problem):
    assert best_split(*problem) == reference_best_split(*problem)


def test_best_split_ties_go_to_the_smaller_feature_then_the_smaller_threshold():
    # features 0 and 2 are copies, and each separates the labels at 1.5 and
    # at 2.5 with the same gain ratio
    X = np.array([[1, 9, 1], [2, 9, 2], [2, 9, 2], [3, 9, 3]], dtype=float)
    y = np.array([0, 1, 1, 0])
    assert best_split(X, y, [0, 1, 2], 1) == (0, 1.5)
    assert best_split(X, y, [1, 2], 1) == (2, 1.5)
    assert best_split(X, y, [1], 1) is None  # a constant column has no cut
    assert best_split(X, y, [0, 2], 3) is None  # no cut keeps 3 rows a side


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


# -- multilayer perceptron ------------------------------------------------------


def test_mlp_gradients_match_central_finite_differences():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10)
    w1 = rng.normal(scale=0.5, size=(3, 4))
    b1 = rng.normal(scale=0.1, size=4)
    w2 = rng.normal(scale=0.5, size=(4, 2))
    b2 = rng.normal(scale=0.1, size=2)
    _, grads = loss_and_gradients(xs, y, w1, b1, w2, b2)
    eps = 1e-6
    for p, g in zip((w1, b1, w2, b2), grads):
        flat = p.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up, _ = loss_and_gradients(xs, y, w1, b1, w2, b2)
            flat[i] = keep - eps
            down, _ = loss_and_gradients(xs, y, w1, b1, w2, b2)
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            analytic = g.ravel()[i]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-5


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


@pytest.mark.parametrize("kind", list(ModelKind))
def test_export_import_round_trip_preserves_predictions(kind):
    fm = separable_1d(n=60)
    if kind is ModelKind.DECISION_TREE:
        model = train_decision_tree(fm, TreeParams(min_leaf=2), seed=1)
    elif kind is ModelKind.RANDOM_FOREST:
        model = train_random_forest(fm, ForestParams(trees=7), seed=1)
    else:
        model = train_mlp(fm, MLPParams(epochs=30), seed=1)
    text = dump_model(model)
    clone = load_model(text)
    assert clone.kind is kind
    assert clone.feature_ids == model.feature_ids
    assert np.array_equal(clone.predict_scores(fm.X), model.predict_scores(fm.X))
    assert dump_model(clone) == text
