"""The traced benchmark pass can read the models the program trains.

``bench/layers.py`` counts tree nodes by walking ``forest.roots`` and
``tree.root`` through ``is_leaf``, ``left`` and ``right``. This imports it
as it is and checks its counts against each tree's ``nodes N`` line in
``dump_model``, so a model change that breaks the benchmark's traced pass
fails here too.
"""

import importlib
import os
import sys

import pytest

from conftest import FIXTURES
from testability.dataset import ingest_csv, label_by_quartiles, to_feature_matrix
from testability.learn import (
    ForestParams,
    TreeParams,
    dump_model,
    train_decision_tree,
    train_random_forest,
)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, BENCH)  # layers.py imports its sibling generate.py
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(BENCH)


def dumped_node_counts(model):
    return [int(line.split()[1]) for line in dump_model(model).splitlines()
            if line.startswith("nodes ")]


def test_count_nodes_equals_the_dumped_node_counts(layers):
    with open(os.path.join(FIXTURES, "metrics.csv"), encoding="utf-8", newline="") as handle:
        fm = to_feature_matrix(label_by_quartiles(ingest_csv(handle)))
    forest = train_random_forest(fm, ForestParams(trees=7), seed=3)
    assert [layers.count_nodes(root) for root in forest.roots] == dumped_node_counts(forest)
    single = train_decision_tree(fm, TreeParams(min_leaf=1), seed=3)
    assert [layers.count_nodes(single.root)] == dumped_node_counts(single)
    assert dumped_node_counts(single)[0] > 1
