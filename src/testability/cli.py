"""Command-line front end: reproducible extraction/analysis runs.

Commands: extract, label, correlate, train, evaluate, rank, predict,
pipeline. Configuration comes from an optional key=value file plus
command-line overrides (overrides win); every analysis run writes a
manifest whose hash is embedded in each emitted report, and all output is
written atomically. The analysis commands share ``run_analysis`` over the
stage table ``STAGES``: correlate, evaluate and rank each run one stage,
and pipeline runs all three in that order.

Exit codes: 0 success, 2 input error, 3 labeling degeneracy, 4 training
failure, 5 prediction schema mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import classfile, dataset, javasrc, reports
from .correlation import DegenerateInput, correlation_table
from .dataset import (
    DegenerateSplit,
    IngestError,
    LabeledDataset,
    MissingColumn,
    RawDataset,
    TooFewValues,
    ingest_csv,
    label_by_quartiles,
    to_feature_matrix,
)
from .learn import (
    FoldTrainingError,
    ForestParams,
    MLPParams,
    ModelKind,
    NonFiniteLoss,
    SingleClassInput,
    TooFewPerClass,
    TreeParams,
    dump_model,
    evaluate,
    load_model,
    train_model,
)
from .learn.base import label_from_score
from .learn.serialize import ModelFormatError
from .metrics import ALL_METRICS, INDEPENDENT_VARIABLES, MetricId, metric_for_column
from .ranking import RankingAlgorithm, rank_features
from .records import EffectivenessLabel, FeatureMatrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LABELING = 3
EXIT_TRAINING = 4
EXIT_PREDICT = 5

_LABEL_TEXT = {
    EffectivenessLabel.EFFECTIVE: "Effective",
    EffectivenessLabel.NON_EFFECTIVE: "NonEffective",
}


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        self.exit_code = exit_code
        super().__init__(message)


@dataclass
class RunConfig:
    src: list[str] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    dataset: str | None = None
    pairs: str | None = None
    out: str = "."
    seed: int | None = None
    q1: float | None = None
    q3: float | None = None
    features: list[str] = field(default_factory=list)  # canonical column names
    classifier: str = "all"
    k: int = 10
    threshold: float = 0.5
    population: str = "raw"
    # classifier hyperparameters
    min_leaf: int = 2
    max_depth: int | None = None
    trees: int = 100
    features_per_split: int | None = None
    forest_min_leaf: int = 1
    hidden: int | None = None
    learning_rate: float = 0.3
    momentum: float = 0.2
    epochs: int = 500

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:  # NaN fails too
            raise CliError(EXIT_INPUT, f"threshold must be in [0, 1], got {self.threshold!r}")
        if self.population not in ("raw", "labeled"):
            raise CliError(EXIT_INPUT, f"population must be raw or labeled, got {self.population!r}")

    def feature_ids(self) -> tuple[MetricId, ...]:
        if not self.features:
            return INDEPENDENT_VARIABLES
        out = []
        for name in self.features:
            metric = metric_for_column(name)
            if metric is None:
                raise CliError(EXIT_INPUT, f"unknown metric column {name!r}")
            out.append(metric)
        return tuple(out)

    def thresholds_override(self) -> tuple[float, float] | None:
        if self.q1 is None and self.q3 is None:
            return None
        if self.q1 is None or self.q3 is None:
            raise CliError(EXIT_INPUT, "q1 and q3 must be overridden together")
        if not self.q1 <= self.q3:  # NaN fails too; q1 == q3 is a degenerate split (exit 3)
            raise CliError(
                EXIT_INPUT, f"q1 must be at most q3, got q1={self.q1!r} and q3={self.q3!r}"
            )
        return (self.q1, self.q3)

    def params(self, kind: ModelKind) -> TreeParams | ForestParams | MLPParams:
        """Hyperparameters of one classifier kind."""
        if kind is ModelKind.DECISION_TREE:
            return TreeParams(min_leaf=self.min_leaf, max_depth=self.max_depth)
        if kind is ModelKind.RANDOM_FOREST:
            return ForestParams(
                trees=self.trees,
                features_per_split=self.features_per_split,
                min_leaf=self.forest_min_leaf,
            )
        return MLPParams(
            hidden=self.hidden,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            epochs=self.epochs,
        )


_FIELDS = {f.name: f for f in fields(RunConfig)}


def load_config_file(path: str) -> dict[str, object]:
    """Line-oriented key=value file; '#' starts a comment."""
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(EXIT_INPUT, f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELDS:
                raise CliError(EXIT_INPUT, f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _coerce(key, value)
    return values


def _coerce(key: str, value: str) -> object:
    """Parse text by the field's type; an optional int or float takes none/auto."""
    declared, _, optional = _FIELDS[key].type.partition(" | ")
    if declared == "list[str]":
        return [v.strip() for v in value.split(",") if v.strip()]
    if declared not in ("int", "float"):
        return value
    if optional and value.lower() in ("none", "auto"):
        return None
    return int(value) if declared == "int" else float(value)


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _FIELDS:
        arg = getattr(args, name, None)
        if arg is not None:
            values[name] = _coerce(name, arg) if isinstance(arg, str) else arg
    return RunConfig(**values)


# ---- shared helpers --------------------------------------------------------


def _ingest(config: RunConfig, require=None, missing_exit: int = EXIT_INPUT) -> RawDataset:
    """Read --dataset; ``require`` defaults to the features plus M."""
    if not config.dataset:
        raise CliError(EXIT_INPUT, "no dataset CSV given (--dataset)")
    if require is None:
        require = [*config.feature_ids(), MetricId.M]
    try:
        with open(config.dataset, "r", encoding="utf-8", newline="") as handle:
            return ingest_csv(handle, require=require, provenance=config.dataset)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read dataset: {exc}")
    except IngestError as exc:
        code = missing_exit if isinstance(exc, MissingColumn) else EXIT_INPUT
        raise CliError(code, f"bad dataset: {exc}")


def _label(config: RunConfig, raw: RawDataset) -> LabeledDataset:
    try:
        return label_by_quartiles(raw, thresholds=config.thresholds_override())
    except DegenerateSplit as exc:
        raise CliError(EXIT_LABELING, f"labeling degenerate: {exc}")
    except TooFewValues as exc:
        raise CliError(EXIT_INPUT, f"cannot label: {exc}")


def _require_seed(config: RunConfig) -> int:
    if config.seed is None:
        raise CliError(EXIT_INPUT, "a --seed is mandatory for train/evaluate runs")
    return config.seed


def _classifier_kinds(config: RunConfig) -> list[ModelKind]:
    if config.classifier == "all":
        return list(ModelKind)
    by_name = {kind.value.lower(): kind for kind in ModelKind}
    by_name.update(tree=ModelKind.DECISION_TREE, forest=ModelKind.RANDOM_FOREST,
                   mlp=ModelKind.MULTILAYER_PERCEPTRON)
    kind = by_name.get(config.classifier.lower())
    if kind is None:
        raise CliError(EXIT_INPUT, f"unknown classifier {config.classifier!r}")
    return [kind]


def _output_path(config: RunConfig, default_name: str) -> str:
    """--out is the output file when it has the default's extension, else its directory."""
    if config.out.endswith(os.path.splitext(default_name)[1]):
        return config.out
    return os.path.join(config.out, default_name)


def _write_manifest(config: RunConfig, command: str, raw, labeled) -> str:
    eff = int(labeled.y.sum())
    params = zip(("tree_params", "forest_params", "mlp_params"), map(config.params, ModelKind))
    text = reports.manifest_text([
        ("command", command),
        ("dataset", config.dataset or ""),
        ("seed", str(config.seed)),
        ("records_ingested", str(len(raw))),
        ("q1_threshold", repr(labeled.q1_threshold)),
        ("q3_threshold", repr(labeled.q3_threshold)),
        ("records_labeled", str(len(labeled))),
        ("records_discarded", str(labeled.discarded_count)),
        ("effective", str(eff)),
        ("non_effective", str(len(labeled) - eff)),
        ("features", ",".join(m.column for m in config.feature_ids())),
        ("correlation_population", config.population),
        ("correlation_threshold", repr(config.threshold)),
        ("k", str(config.k)),
    ] + [  # every hyperparameter but bootstrap, a test hook no run sets
        (key, " ".join(f"{f.name}={getattr(p, f.name)!r}" for f in fields(p)
                       if f.name != "bootstrap"))
        for key, p in params
    ])
    run_hash = reports.manifest_hash(text)
    reports.write_text_atomic(
        os.path.join(config.out, "manifest.txt"),
        text + f"manifest_hash: {run_hash}\n",
    )
    return run_hash


def cmd_extract(config: RunConfig) -> int:
    if not config.src:
        raise CliError(EXIT_INPUT, "no source directories given (--src)")
    try:
        corpus = javasrc.parse_corpus(config.src)
    except javasrc.CorpusParseError as exc:
        for failure in exc.failures:
            print(f"error: {failure}", file=sys.stderr)
        raise CliError(EXIT_INPUT, str(exc))
    except (javasrc.DuplicateClass, javasrc.CyclicHierarchy) as exc:
        raise CliError(EXIT_INPUT, str(exc))
    if not corpus.index.class_names():
        raise CliError(EXIT_INPUT, "no classes found")
    explicit = None
    if config.pairs:
        try:
            explicit = javasrc.read_pairing_file(config.pairs)
        except (OSError, javasrc.PairingError) as exc:
            raise CliError(EXIT_INPUT, f"bad pairing file: {exc}")
    try:
        pairs = javasrc.pair_classes(corpus.index, explicit)
    except javasrc.PairingError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    if not pairs:
        raise CliError(EXIT_INPUT, "no paired (class, test class) combinations found")
    nbi = None
    if config.classes:
        try:
            nbi = classfile.nbi_for_paths(config.classes)
        except (OSError, classfile.MalformedClassFile,
                classfile.UnsupportedMajorVersion) as exc:
            raise CliError(EXIT_INPUT, f"bad class files: {exc}")
    data = javasrc.extract_records(corpus, pairs, nbi_by_class=nbi)  # ValueError: exit 2
    buffer = io.StringIO()
    dataset.write_records_csv(buffer, data, data.columns)
    out_path = _output_path(config, "metrics.csv")
    reports.write_text_atomic(out_path, buffer.getvalue())
    print(f"extracted {len(data)} paired classes -> {out_path}")
    return EXIT_OK


def cmd_label(config: RunConfig) -> int:
    raw = _ingest(config)
    labeled = _label(config, raw)
    kept = labeled.kept
    if not len(kept):  # with no row kept, no row lacks a variable: all are listed
        kept = RawDataset((), (), ALL_METRICS, np.empty((0, len(ALL_METRICS))))
    columns = [m for m in INDEPENDENT_VARIABLES if m in kept.columns] + [MetricId.M]
    cells = dataset.cell_columns(kept, columns)
    cells.append(["label", *map(_LABEL_TEXT.get, map(EffectivenessLabel, labeled.y.tolist()))])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(zip(*cells))
    out_path = os.path.join(config.out, "labeled.csv")
    reports.write_text_atomic(out_path, buffer.getvalue())
    print(
        f"ingested {len(raw)}, labeled {len(labeled)} "
        f"(thresholds {labeled.q1_threshold:g}/{labeled.q3_threshold:g}, "
        f"discarded {labeled.discarded_count}) -> {out_path}"
    )
    return EXIT_OK


def cmd_train(config: RunConfig) -> int:
    seed = _require_seed(config)
    kind, *others = _classifier_kinds(config)
    if others:
        raise CliError(EXIT_INPUT, "train needs exactly one --classifier")
    raw = _ingest(config)
    labeled = _label(config, raw)
    matrix = to_feature_matrix(labeled, config.feature_ids())
    try:
        model = train_model(matrix, kind, config.params(kind), seed=seed)
    except (SingleClassInput, NonFiniteLoss) as exc:
        raise CliError(EXIT_TRAINING, f"training failed: {exc}")
    out_path = _output_path(config, "model.txt")
    reports.write_text_atomic(out_path, dump_model(model))
    print(f"trained {kind.value} on {matrix.n_rows} records -> {out_path}")
    return EXIT_OK


def cmd_predict(config: RunConfig, model_path: str) -> int:
    try:
        with open(model_path, "r", encoding="utf-8") as handle:
            model = load_model(handle.read())
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read model: {exc}")
    except ModelFormatError as exc:
        raise CliError(EXIT_INPUT, f"bad model file: {exc}")
    data = _ingest(config, require=model.feature_ids, missing_exit=EXIT_PREDICT)
    scores = model.predict_scores(data.column(model.feature_ids)).tolist() if len(data) else []
    labels = list(map(label_from_score, scores))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["class_id", "score", "label"])
    writer.writerows(zip(data.class_ids, map(repr, scores), map(_LABEL_TEXT.get, labels)))
    out_path = _output_path(config, "predictions.csv")
    reports.write_text_atomic(out_path, buffer.getvalue())
    effective = labels.count(EffectivenessLabel.EFFECTIVE)
    print(
        f"predicted {len(data)} rows: {effective} Effective, "
        f"{len(data) - effective} NonEffective -> {out_path}"
    )
    return EXIT_OK


# ---- analysis stages -------------------------------------------------------------


def _correlate(config: RunConfig, raw, labeled, matrix):
    population = labeled if config.population == "labeled" else raw
    try:
        return correlation_table(
            population, threshold=config.threshold, features=config.feature_ids()
        )
    except DegenerateInput as exc:
        raise CliError(EXIT_INPUT, str(exc))


def _evaluate(config: RunConfig, raw, labeled, matrix):
    kinds = _classifier_kinds(config)
    seed = _require_seed(config)
    results = []
    for kind in kinds:
        try:
            results.append(evaluate(matrix, kind, config.params(kind), k=config.k, seed=seed))
        except (FoldTrainingError, SingleClassInput, TooFewPerClass, NonFiniteLoss) as exc:
            raise CliError(EXIT_TRAINING, f"{kind.value}: {exc}")
    return results


def _rank(config: RunConfig, raw, labeled, matrix):
    return [rank_features(matrix, algorithm) for algorithm in RankingAlgorithm]


@dataclass(frozen=True)
class Stage:
    """One analysis step: compute(config, raw, labeled, matrix) gives a result
    (matrix is None unless the stage needs it), each artefact renders it to a
    report file, and summary is the line printed when the stage runs alone."""

    compute: Callable[[RunConfig, RawDataset, LabeledDataset, FeatureMatrix | None], object]
    needs_matrix: bool
    artefacts: tuple[tuple[str, Callable[[object, str], str]], ...]  # file name, renderer
    summary: Callable[[RunConfig, object], str]


STAGES = {
    "correlate": Stage(
        _correlate, False,
        (("correlations.csv", reports.correlation_csv),
         ("correlations.md", reports.correlation_md)),
        lambda config, report: (
            f"correlations over {report.population} {report.population_kind} records; "
            f"{len(report.entries)} metrics above |rho| >= {config.threshold:g}"),
    ),
    "evaluate": Stage(
        _evaluate, True,
        (("classification.csv", reports.classification_csv),
         ("classification.md", reports.classification_md)),
        lambda config, results: "\n".join(
            f"{r.classifier.value}: accuracy={r.accuracy:.3f} auc={r.auc:.3f}"
            for r in results),
    ),
    "rank": Stage(
        _rank, True,
        (("ranking.csv", reports.ranking_csv), ("ranking.md", reports.ranking_md)),
        lambda config, tables: "rank-1 features -> " + ", ".join(
            f"{t.algorithm.value}: {t.entries[0][0].column}" for t in tables if t.entries),
    ),
}


def run_analysis(config: RunConfig, command: str) -> int:
    """Run one stage, or all of them for ``pipeline``, then write the reports."""
    stages = list(STAGES.values()) if command == "pipeline" else [STAGES[command]]
    raw = _ingest(config)
    labeled = _label(config, raw)
    needs_matrix = any(stage.needs_matrix for stage in stages)
    matrix = to_feature_matrix(labeled, config.feature_ids()) if needs_matrix else None
    results = [stage.compute(config, raw, labeled, matrix) for stage in stages]
    run_hash = _write_manifest(config, command, raw, labeled)
    for stage, result in zip(stages, results):
        for name, render in stage.artefacts:
            reports.write_text_atomic(os.path.join(config.out, name), render(result, run_hash))
    if command == "pipeline":
        print(
            f"pipeline: {len(raw)} ingested, {len(labeled)} labeled "
            f"(thresholds {labeled.q1_threshold:g}/{labeled.q3_threshold:g}); "
            f"reports in {config.out} (manifest {run_hash[:12]})"
        )
    else:
        print(stages[0].summary(config, results[0]))
    return EXIT_OK


# ---- argument parsing ------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--seed", help="master RNG seed")
    parser.add_argument("--dataset", help="metrics dataset CSV")
    parser.add_argument("--src", help="comma-separated Java source roots")
    parser.add_argument("--classes", help="comma-separated class file / jar paths")
    parser.add_argument("--pairs", help="explicit production,test pairing file")
    parser.add_argument("--out", help="output directory (or file for single outputs)")
    parser.add_argument("--features", help="comma-separated feature columns")
    parser.add_argument("--classifier", help="tree | forest | mlp | all")
    parser.add_argument("--k", help="cross-validation folds")
    parser.add_argument("--threshold", help="correlation reporting threshold")
    parser.add_argument("--population", choices=["raw", "labeled"],
                        help="correlation population")
    parser.add_argument("--q1", help="override lower mutation-score threshold")
    parser.add_argument("--q3", help="override upper mutation-score threshold")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="testability",
        description="Static OO metrics and mutation-score test-effectiveness analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("extract", "parse Java sources and emit the metrics CSV"),
        ("label", "quartile-label a dataset by mutation score"),
        ("correlate", "Spearman correlation of every metric with mutation score"),
        ("train", "train one classifier on the labeled dataset"),
        ("evaluate", "k-fold cross-validated evaluation of classifiers"),
        ("rank", "rank features by the four ranking algorithms"),
        ("predict", "predict effectiveness for a metrics CSV with a saved model"),
        ("pipeline", "full run: label, correlate, evaluate, rank"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "predict":
            p.add_argument("model", help="model file from `train`")
        _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "predict":
            return cmd_predict(config, args.model)
        handler = {"extract": cmd_extract, "label": cmd_label, "train": cmd_train}
        if args.command in handler:
            return handler[args.command](config)
        return run_analysis(config, args.command)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
