"""The traced run: each layer's public functions, called in-process and timed.

Spans are taken from outside the program, around calls into its public
API, and kept in memory until the run ends. Counts (tree nodes, MDL cuts,
files, classes, pairs) come from walking the returned objects after the
timed call. Each pass repeats in-process the work one pass of the
workload's CLI commands does, so the CLI wall minus the summed ``ATTRIBUTED``
layers is the part no layer accounts for: process start and CLI glue such
as repeated ingest.
"""

from __future__ import annotations

import io
import os
import time

import numpy as np

import generate
from testability import classfile, dataset, javasrc, reports
from testability.correlation import correlation_table
from testability.javasrc.lexer import tokenize
from testability.learn import (
    ForestParams,
    MLPParams,
    ModelKind,
    TreeParams,
    dump_model,
    evaluate,
    load_model,
    train_decision_tree,
    train_mlp,
    train_random_forest,
)
from testability.metrics import INDEPENDENT_VARIABLES, MetricId
from testability.ranking import RankingAlgorithm, mdl_discretize, rank_features

RANKER_METRICS = {
    RankingAlgorithm.GAIN_RATIO: "ranking.gain_ratio_s",
    RankingAlgorithm.INFO_GAIN: "ranking.info_gain_s",
    RankingAlgorithm.SYMMETRIC_UNCERTAINTY: "ranking.symmetric_uncertainty_s",
    RankingAlgorithm.ONE_R: "ranking.one_r_s",
}
EVALUATION_METRICS = {
    ModelKind.DECISION_TREE: ("evaluation.decision_tree_s", TreeParams()),
    ModelKind.RANDOM_FOREST: ("evaluation.random_forest_s", ForestParams()),
    ModelKind.MULTILAYER_PERCEPTRON: ("evaluation.mlp_s", MLPParams()),
}

#: Every per-layer metric with its unit; a layer a workload does not reach
#: reports 0. The ``cli.<command>_s`` walls come from the CLI pass.
LAYER_UNITS = {
    "dataset.ingest_s": "s", "dataset.label_s": "s", "dataset.matrix_s": "s",
    "correlation.table_s": "s",
    **{name: "s" for name in RANKER_METRICS.values()},
    "ranking.mdl_cuts": "count",
    **{name: "s" for name, _ in EVALUATION_METRICS.values()},
    "forest.train_s": "s", "forest.nodes": "count", "forest.nodes_per_s": "1/s",
    "tree.train_10k_s": "s", "tree.nodes": "count",
    "mlp.train_s": "s", "mlp.epochs_per_s": "1/s",
    "serialize.dump_s": "s", "serialize.load_s": "s", "serialize.bytes": "bytes",
    "predict.scores_s": "s", "reports.render_s": "s",
    "javasrc.find_files_s": "s", "lexer.tokenize_s": "s", "parser.parse_s": "s",
    "parser.lines_per_s": "1/s", "parser.files": "count",
    "corpus.index_s": "s", "corpus.classes": "count",
    "extract.pair_s": "s", "extract.pairs": "count", "extract.records_s": "s",
    "classfile.nbi_s": "s", "classfile.files": "count", "dataset.write_csv_s": "s",
    **{f"cli.{c}_s": "s" for c in ("pipeline", "label", "correlate", "rank", "train",
                                    "predict", "extract")},
    "cli.glue_s": "s",
}

#: Layer spans that repeat work the CLI commands do. Spans outside this set
#: (forest.train_s, tree.train_10k_s, lexer.tokenize_s, which parse_s
#: already contains) are extra probes and stay out of cli.glue_s.
ATTRIBUTED = frozenset({
    "dataset.ingest_s", "dataset.label_s", "dataset.matrix_s", "correlation.table_s",
    *RANKER_METRICS.values(), *(name for name, _ in EVALUATION_METRICS.values()),
    "mlp.train_s", "serialize.dump_s", "serialize.load_s", "predict.scores_s",
    "reports.render_s", "javasrc.find_files_s", "parser.parse_s", "corpus.index_s",
    "extract.pair_s", "extract.records_s", "classfile.nbi_s", "dataset.write_csv_s",
})

#: Raw rows whose ~10k labelled rows train the single tree of tree.train_10k_s.
TREE_10K_ROWS = 20000


class Spans:
    """Named durations and counts of one traced pass, plus the facts of any
    extra input the pass generated (its generation time is in no span)."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.inputs: list[dict] = []

    def timed(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.values[name] = self.values.get(name, 0.0) + time.perf_counter() - start
        return result

    def count(self, name: str, value: float) -> None:
        self.values[name] = float(value)


def count_nodes(root) -> int:
    nodes, stack = 0, [root]
    while stack:
        node = stack.pop()
        nodes += 1
        if not node.is_leaf:
            stack += [node.left, node.right]
    return nodes


def _labelled_matrix(spans: Spans, path: str):
    with open(path, encoding="utf-8", newline="") as handle:
        raw = spans.timed("dataset.ingest_s", dataset.ingest_csv, handle,
                          require=list(INDEPENDENT_VARIABLES) + [MetricId.M], provenance=path)
    labeled = spans.timed("dataset.label_s", dataset.label_by_quartiles, raw)
    matrix = spans.timed("dataset.matrix_s", dataset.to_feature_matrix, labeled,
                         INDEPENDENT_VARIABLES)
    return raw, labeled, matrix


def _rank(spans: Spans, matrix):
    tables = [spans.timed(name, rank_features, matrix, algorithm)
              for algorithm, name in RANKER_METRICS.items()]
    y = matrix.y.astype(np.intp)
    spans.count("ranking.mdl_cuts", sum(
        len(mdl_discretize(matrix.X[:, j], y).cut_points) for j in range(matrix.n_features)))
    return tables


def _render(spans: Spans, entries, *parts) -> None:
    """Render report texts the way the CLI does: manifest hash, then tables."""
    def render():
        run_hash = reports.manifest_hash(reports.manifest_text(entries))
        return [fn(value, run_hash) for fn, value in parts]
    spans.timed("reports.render_s", render)


def paper_cv(spans: Spans, path: str, seed: int, cache: str) -> None:
    raw, labeled, matrix = _labelled_matrix(spans, path)
    correlation = spans.timed("correlation.table_s", correlation_table, raw,
                              threshold=0.5, features=INDEPENDENT_VARIABLES)
    results = [spans.timed(name, evaluate, matrix, kind, params, k=10, seed=seed)
               for kind, (name, params) in EVALUATION_METRICS.items()]
    tables = _rank(spans, matrix)
    _render(spans, [("command", "pipeline"), ("seed", str(seed))],
            (reports.correlation_csv, correlation), (reports.correlation_md, correlation),
            (reports.classification_csv, results), (reports.classification_md, results),
            (reports.ranking_csv, tables), (reports.ranking_md, tables))

    forest = spans.timed("forest.train_s", train_random_forest, matrix, ForestParams(), seed)
    nodes = sum(count_nodes(root) for root in forest.roots)
    spans.count("forest.nodes", nodes)
    spans.count("forest.nodes_per_s", nodes / spans.values["forest.train_s"])

    big_path, info = generate.metrics_csv(cache, seed, TREE_10K_ROWS)
    spans.inputs.append(info)
    _, _, big = _labelled_matrix(Spans(), big_path)  # set-up, not a layer span
    tree = spans.timed("tree.train_10k_s", train_decision_tree, big, TreeParams(), seed)
    spans.count("tree.nodes", count_nodes(tree.root))


def bulk(spans: Spans, path: str, seed: int, cache: str) -> None:
    raw, labeled, matrix = _labelled_matrix(spans, path)
    correlation = spans.timed("correlation.table_s", correlation_table, raw,
                              threshold=0.5, features=INDEPENDENT_VARIABLES)
    tables = _rank(spans, matrix)
    _render(spans, [("command", "rank"), ("seed", str(seed))],
            (reports.correlation_csv, correlation), (reports.correlation_md, correlation),
            (reports.ranking_csv, tables), (reports.ranking_md, tables))

    params = MLPParams()
    model = spans.timed("mlp.train_s", train_mlp, matrix, params, seed)
    spans.count("mlp.epochs_per_s", params.epochs / spans.values["mlp.train_s"])
    text = spans.timed("serialize.dump_s", dump_model, model)
    spans.count("serialize.bytes", len(text.encode("utf-8")))
    loaded = spans.timed("serialize.load_s", load_model, text)
    rows = np.array([[r[m] for m in loaded.feature_ids] for r in raw.records])
    spans.timed("predict.scores_s", loaded.predict_scores, rows)


def corpus_extract(spans: Spans, root: str, seed: int, cache: str) -> None:
    files = spans.timed("javasrc.find_files_s", javasrc.find_java_files,
                        [os.path.join(root, "src")])
    texts = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    lines = sum(text.count("\n") for text in texts)

    def lex_all():
        for path, text in zip(files, texts):
            tokenize(text, path)

    spans.timed("lexer.tokenize_s", lex_all)
    trees = spans.timed("parser.parse_s", lambda: [
        javasrc.parse_source(text, path) for path, text in zip(files, texts)])
    spans.count("parser.files", len(trees))
    spans.count("parser.lines_per_s", lines / spans.values["parser.parse_s"])
    index = spans.timed("corpus.index_s", javasrc.build_corpus_index, trees)
    spans.count("corpus.classes", len(index.class_names()))
    pairs = spans.timed("extract.pair_s", javasrc.pair_classes, index)
    spans.count("extract.pairs", len(pairs))
    nbi = spans.timed("classfile.nbi_s", classfile.nbi_for_paths,
                      [os.path.join(root, "classes")])
    spans.count("classfile.files", len(nbi))
    records = spans.timed("extract.records_s", javasrc.extract_records,
                          javasrc.ParsedCorpus(trees=trees, index=index), pairs,
                          nbi_by_class=nbi)
    spans.timed("dataset.write_csv_s", dataset.write_records_csv, io.StringIO(), records,
                INDEPENDENT_VARIABLES)


PASSES = {"paper-cv": paper_cv, "bulk-20k": bulk, "corpus-extract": corpus_extract}
