"""The traced benchmark pass can read the models the program trains.

``bench/layers.py`` counts tree nodes by walking ``forest.roots`` and
``tree.root`` through ``is_leaf``, ``left`` and ``right``. This imports it
as it is and checks its counts against each tree's ``nodes N`` line in
``dump_model``, and runs its traced ``bulk-20k`` pass on a small generated
CSV, so a program change that breaks the benchmark's traced passes fails
here too.
"""

import os

import pytest

from conftest import FIXTURES, import_bench
from testability.dataset import ingest_csv, label_by_quartiles, to_feature_matrix
from testability.learn import (
    ForestParams,
    TreeParams,
    dump_model,
    train_decision_tree,
    train_random_forest,
)

@pytest.fixture(scope="module")
def layers():
    return import_bench("layers")


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


def test_the_traced_bulk_pass_times_ingest_training_and_prediction(layers, tmp_path):
    path, _ = import_bench("generate").metrics_csv(str(tmp_path), 1, 400)
    spans = layers.Spans()
    layers.bulk(spans, path, 1, str(tmp_path))
    for name in ("dataset.ingest_s", "mlp.train_s", "mlp.epochs_per_s", "predict.scores_s",
                 *layers.RANKER_METRICS.values(), "ranking.mdl_cuts"):
        assert spans.values[name] > 0, name
