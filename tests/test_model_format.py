"""load_model on malformed text: a ModelFormatError, never a crash or a hang."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testability.dataset import FeatureMatrix
from testability.learn import (
    ForestParams,
    MLPParams,
    TreeParams,
    dump_model,
    load_model,
    train_decision_tree,
    train_mlp,
    train_random_forest,
)
from testability.learn.serialize import ModelFormatError
from testability.metrics import MetricId


def _matrix():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 10, size=(40, 2))
    y = (X[:, 0] + rng.normal(0, 2, 40) > 5).astype(int)
    return FeatureMatrix(feature_ids=(MetricId.LOC, MetricId.WMC), X=X, y=y)


MATRIX = _matrix()
TREE = dump_model(train_decision_tree(MATRIX, TreeParams(min_leaf=2), seed=1))
DUMPS = [
    TREE,
    dump_model(train_random_forest(MATRIX, ForestParams(trees=3), seed=1)),
    dump_model(train_mlp(MATRIX, MLPParams(hidden=2, epochs=5), seed=1)),
]


def _replace_line(text, prefix, new):
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    return "\n".join(lines[:at] + [new] + lines[at + 1:]) + "\n"


@pytest.mark.parametrize("text", [
    TREE[: len(TREE) // 2],
    _replace_line(TREE, "split", "split 0 5.0 0 2"),
    _replace_line(TREE, "split", "split 0 5.0 1 99"),
    _replace_line(TREE, "split", "split 2 5.0 1 2"),
    _replace_line(TREE, "split", "split -1 5.0 1 2"),
    _replace_line(TREE, "leaf", "leaf 0 0"),
    _replace_line(TREE, "leaf", "leaf -1 2"),
    _replace_line(TREE, "nodes", "nodes 999999999"),
    _replace_line(DUMPS[2], "b1", "b1 0.5"),
    _replace_line(DUMPS[2], "shape", "shape 3 2"),
    _replace_line(DUMPS[2], "kind", "kind Perceptron"),
    _replace_line(TREE, "split", "split 0 inf 1 2"),
    _replace_line(TREE, "split", "split 0 nan 1 2"),
    _replace_line(DUMPS[2], "w2", "w2 " + " ".join(["0.5"] * 3 + ["inf"])),
    _replace_line(DUMPS[2], "mean", "mean 1.0 nan"),
    _replace_line(DUMPS[2], "scale", "scale 0.0 0.0"),
    _replace_line(DUMPS[2], "scale", "scale 2.0 0.0"),
    _replace_line(TREE, "features", "features LOC,M"),
    _replace_line(TREE, "features", "features B,WMC"),
    _replace_line(TREE, "params", "params min_leaf=2 max_depth=none extra=1"),
    _replace_line(TREE, "params", "params min_leaf=2"),
    _replace_line(TREE, "params", "params min_leaf=2 min_leaf=2 max_depth=none"),
    _replace_line(DUMPS[1], "params", "params trees=3 features_per_split=auto min_leaf=1 "
                                      "bootstrap=2"),
    TREE + "leaf 1 1\n",
    _replace_line(TREE, "features", "features LOC,LOC"),
], ids=["truncated", "self-link", "link-past-end", "feature-past-end", "negative-feature",
        "empty-leaf", "negative-leaf", "huge-node-count", "short-vector", "wrong-shape",
        "unknown-kind", "infinite-threshold", "nan-threshold", "infinite-weight", "nan-mean",
        "zero-scale", "one-zero-scale", "mutation-score-feature", "branch-coverage-feature",
        "extra-param", "missing-param", "repeated-param", "bootstrap-not-0-or-1",
        "line-after-tree", "repeated-feature"])
def test_malformed_text_raises_model_format_error(text):
    with pytest.raises(ModelFormatError):
        load_model(text)


def _mutations():
    """A dump cut at any character, or with one token replaced."""
    cut = st.builds(lambda text, at: text[: int(at * len(text))],
                    st.sampled_from(DUMPS), st.floats(0, 1))
    token = st.one_of(
        st.integers(-3, 60).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["", "x", "nan", "leaf", "split", "nodes", "none", "auto", "1e308"]),
    )

    def replace(text, which, new):
        parts = re.split(r"(\s+)", text)
        words = [i for i, part in enumerate(parts) if part and not part.isspace()]
        parts[words[int(which * (len(words) - 1))]] = new
        return "".join(parts)

    swapped = st.builds(replace, st.sampled_from(DUMPS), st.floats(0, 1), token)
    return st.one_of(cut, swapped)


@settings(max_examples=300, deadline=None)
@given(_mutations())
def test_mutated_dumps_fail_cleanly_or_load_a_usable_model(text):
    try:
        model = load_model(text)
    except ModelFormatError:
        return
    rows = np.tile(MATRIX.X[:5, :1], (1, len(model.feature_ids)))
    with np.errstate(all="ignore"):
        scores = model.predict_scores(rows)
    assert scores.shape == (5,)


HEADER = "".join(line + "\n" for line in TREE.splitlines()[:5])  # through the params line


def _tree_text(*nodes):
    return HEADER + f"nodes {len(nodes)}\n" + "".join(node + "\n" for node in nodes)


@pytest.mark.parametrize("nodes, message", [
    (["split 0 1.5 2 2", "leaf 1 0", "leaf 0 1"], "bad node 1: 'leaf 1 0' is linked 0 times"),
    (["split 0 1.5 1 2", "leaf 1 0", "leaf 0 1", "leaf 2 2"],
     "bad node 3: 'leaf 2 2' is linked 0 times"),
    (["split 0 1.5 1 2", "split 1 0.5 2 3", "leaf 0 1", "leaf 1 0"],
     "bad node 2: 'leaf 0 1' is linked 2 times"),
], ids=["both-children-one-node", "unlinked-leaf", "node-with-two-parents"])
def test_nodes_that_do_not_form_one_tree_are_rejected(nodes, message):
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(_tree_text(*nodes))


def test_a_tree_numbered_out_of_preorder_loads_predicts_and_dumps_in_preorder():
    text = _tree_text("split 0 5.0 3 1", "split 1 2.0 2 4", "leaf 3 1", "leaf 5 0", "leaf 0 4")
    rows = np.array([[4.0, 0.0], [6.0, 1.0], [6.0, 3.0]])
    model = load_model(text)
    assert model.predict_scores(rows).tolist() == [0.0, 0.25, 1.0]
    dumped = dump_model(model)
    assert dumped == _tree_text("split 0 5.0 1 2", "leaf 5 0", "split 1 2.0 3 4", "leaf 3 1",
                                "leaf 0 4")
    assert load_model(dumped).predict_scores(rows).tolist() == [0.0, 0.25, 1.0]
    assert dump_model(load_model(dumped)) == dumped
