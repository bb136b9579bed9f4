"""Command-line front end: reproducible extraction/analysis runs.

Commands: extract, label, correlate, train, evaluate, rank, predict,
pipeline, each a handler in ``COMMANDS``. Configuration comes from an
optional key=value file plus command-line overrides (overrides win). A
handler returns the files it will write, as (path, text) pairs, and the
line to print; ``main`` alone writes them, atomically and in order, and
then prints. correlate, evaluate and rank each run one stage of
``STAGES`` through ``run_analysis``, and pipeline runs all three; each
writes a manifest whose hash every one of its reports embeds.

Exit codes: 0 success, 2 input error, 3 labeling degeneracy, 4 training
failure, 5 prediction schema mismatch.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import classfile, dataset, javasrc, reports
from .correlation import correlation_table
from .dataset import (
    LABELS,
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
from .forkpool import WorkerDied, fork_pool
from .learn import (
    FoldTrainingError,
    ForestParams,
    MLPParams,
    ModelKind,
    NonFiniteLoss,
    NonFiniteScale,
    SingleClassInput,
    TooFewPerClass,
    TreeParams,
    dump_model,
    evaluate,
    load_model,
    train_model,
)
from .learn.serialize import ModelFormatError, setting_value
from .metrics import ALL_METRICS, INDEPENDENT_VARIABLES, MetricId, metric_for_column
from .ranking import RankingAlgorithm, rank_features

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LABELING = 3
EXIT_TRAINING = 4
EXIT_PREDICT = 5

Outcome = tuple[list[tuple[str, str]], str]


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
        if self.seed is not None and self.seed < 0:
            raise CliError(EXIT_INPUT, f"seed must be at least 0, got {self.seed}")
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
            if metric in out:
                raise CliError(EXIT_INPUT, f"features repeat the column {name!r}")
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


def _not_utf8(path: str) -> str:
    """Where a file that failed to decode stops being UTF-8: its path, line and byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path}: line {line}: not UTF-8 (byte 0x{data[exc.start]:02x})"
    return f"{path}: not UTF-8"  # the file changed since it failed to decode


def load_config_file(path: str) -> dict[str, object]:
    """Line-oriented key=value file; '#' starts a comment."""
    values: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read config: {exc}")
    except UnicodeDecodeError:
        raise CliError(EXIT_INPUT, f"cannot read config: {_not_utf8(path)}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        key = key.strip()
        try:
            if not equals:
                raise CliError(EXIT_INPUT, "expected key=value")
            if key not in _FIELDS:
                raise CliError(EXIT_INPUT, f"unknown key {key!r}")
            values[key] = _coerce(key, value.strip())
        except CliError as exc:  # each error names the line
            raise CliError(EXIT_INPUT, f"{path}:{line_no}: {exc}") from None
    return values


def _coerce(key: str, value: str) -> object:
    """Parse text by the field's type; numbers are read as in a model's params line."""
    declared = _FIELDS[key].type
    if declared == "list[str]":
        return [v.strip() for v in value.split(",") if v.strip()]
    if declared.startswith("str"):
        return value
    try:
        return setting_value(_FIELDS[key], value)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from None


def build_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    for name in _FIELDS:
        arg = getattr(args, name, None)
        if arg is not None:
            values[name] = _coerce(name, arg)
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
    except UnicodeDecodeError:
        raise CliError(EXIT_INPUT, f"bad dataset: {_not_utf8(config.dataset)}") from None
    except IngestError as exc:
        code = missing_exit if isinstance(exc, MissingColumn) else EXIT_INPUT
        raise CliError(code, f"bad dataset: {exc}")


def _ingest_and_label(config: RunConfig) -> tuple[RawDataset, LabeledDataset]:
    raw = _ingest(config)
    try:
        return raw, label_by_quartiles(raw, thresholds=config.thresholds_override())
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


def _manifest(config: RunConfig, command: str, raw, labeled) -> tuple[str, str]:
    """The manifest file's text and the hash that each report embeds."""
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
    return text + f"manifest_hash: {run_hash}\n", run_hash


def cmd_extract(config: RunConfig, args) -> Outcome:
    if not config.src:
        raise CliError(EXIT_INPUT, "no source directories given (--src)")
    try:
        with fork_pool() as pool:
            return _extract(config, pool)
    except WorkerDied as exc:
        raise CliError(EXIT_INPUT, str(exc)) from None


def _extract(config: RunConfig, pool) -> Outcome:
    # the class files are read in the pool while the sources parse, but a
    # failure among them is reported only where it was reported in series
    nbi_job = pool.submit(classfile.nbi_for_paths, config.classes) if config.classes else None
    try:
        corpus = javasrc.parse_corpus(config.src, pool)
    except javasrc.CorpusParseError as exc:
        for failure in exc.failures:
            print(f"error: {failure}", file=sys.stderr)
        raise CliError(EXIT_INPUT, str(exc))
    if not corpus.index.class_names():
        raise CliError(EXIT_INPUT, "no classes found")
    explicit = None
    if config.pairs:
        try:
            explicit = javasrc.read_pairing_file(config.pairs)
        except (OSError, javasrc.PairingError) as exc:
            raise CliError(EXIT_INPUT, f"bad pairing file: {exc}")
        except UnicodeDecodeError:
            raise CliError(EXIT_INPUT, f"bad pairing file: {_not_utf8(config.pairs)}") from None
    pairs = javasrc.pair_classes(corpus.index, explicit)
    if not pairs:
        raise CliError(EXIT_INPUT, "no paired (class, test class) combinations found")
    nbi = None
    if nbi_job is not None:
        try:
            nbi = nbi_job.result()
        except (OSError, classfile.ClassFileError) as exc:
            raise CliError(EXIT_INPUT, f"bad class files: {exc}")
    data = javasrc.extract_records(corpus, pairs, nbi_by_class=nbi)  # ValueError: exit 2
    buffer = io.StringIO()
    dataset.write_records_csv(buffer, data, data.columns)
    out_path = _output_path(config, "metrics.csv")
    return [(out_path, buffer.getvalue())], f"extracted {len(data)} paired classes -> {out_path}"


def cmd_label(config: RunConfig, args) -> Outcome:
    raw, labeled = _ingest_and_label(config)
    kept = labeled.kept
    if not len(kept):  # with no row kept, no row lacks a variable: all are listed
        kept = RawDataset((), (), ALL_METRICS, np.empty((0, len(ALL_METRICS))))
    columns = [m for m in INDEPENDENT_VARIABLES if m in kept.columns] + [MetricId.M]
    cells = dataset.cell_columns(kept, columns)
    cells.append(["label", *(LABELS[y] for y in labeled.y.tolist())])
    out_path = os.path.join(config.out, "labeled.csv")
    return [(out_path, reports.csv_text(zip(*cells)))], (
        f"ingested {len(raw)}, labeled {len(labeled)} "
        f"(thresholds {labeled.q1_threshold:g}/{labeled.q3_threshold:g}, "
        f"discarded {labeled.discarded_count}) -> {out_path}"
    )


def cmd_train(config: RunConfig, args) -> Outcome:
    seed = _require_seed(config)
    kind, *others = _classifier_kinds(config)
    if others:
        raise CliError(EXIT_INPUT, "train needs exactly one --classifier")
    _, labeled = _ingest_and_label(config)
    matrix = to_feature_matrix(labeled, config.feature_ids())
    try:
        model = train_model(matrix, kind, config.params(kind), seed=seed)
    except (SingleClassInput, NonFiniteLoss, NonFiniteScale) as exc:
        raise CliError(EXIT_TRAINING, f"training failed: {exc}")
    out_path = _output_path(config, "model.txt")
    return [(out_path, dump_model(model))], (
        f"trained {kind.value} on {matrix.n_rows} records -> {out_path}")


def cmd_predict(config: RunConfig, args) -> Outcome:
    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            model = load_model(handle.read())
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read model: {exc}")
    except UnicodeDecodeError:
        raise CliError(EXIT_INPUT, f"bad model file: {_not_utf8(args.model)}") from None
    except ModelFormatError as exc:
        raise CliError(EXIT_INPUT, f"bad model file: {exc}")
    data = _ingest(config, require=model.feature_ids, missing_exit=EXIT_PREDICT)
    scores = model.predict_scores(data.column(model.feature_ids)).tolist() if len(data) else []
    labels = [LABELS[score >= 0.5] for score in scores]
    text = reports.csv_text([("class_id", "score", "label"),
                             *zip(data.class_ids, map(repr, scores), labels)])
    out_path = _output_path(config, "predictions.csv")
    effective = labels.count(LABELS[1])
    return [(out_path, text)], (
        f"predicted {len(data)} rows: {effective} Effective, "
        f"{len(data) - effective} NonEffective -> {out_path}"
    )


# ---- analysis stages -------------------------------------------------------------
# Each stage takes (config, raw, labeled, matrix), where matrix is None unless
# the stage needs it, and returns its result and the line printed when it runs alone.


def _correlate(config: RunConfig, raw, labeled, matrix):
    population = labeled if config.population == "labeled" else raw
    report = correlation_table(population, threshold=config.threshold,
                               features=config.feature_ids())  # DegenerateInput: exit 2
    return report, (
        f"correlations over {report.population} {report.population_kind} records; "
        f"{len(report.entries)} metrics above |rho| >= {config.threshold:g}")


def _evaluate(config: RunConfig, raw, labeled, matrix):
    kinds = _classifier_kinds(config)
    seed = _require_seed(config)
    results = []
    for kind in kinds:
        try:
            results.append(evaluate(matrix, kind, config.params(kind), k=config.k, seed=seed))
        except (FoldTrainingError, SingleClassInput, TooFewPerClass, NonFiniteLoss) as exc:
            raise CliError(EXIT_TRAINING, f"{kind.value}: {exc}")
    return results, "\n".join(
        f"{r.classifier.value}: accuracy={r.accuracy:.3f} auc={r.auc:.3f}" for r in results)


def _rank(config: RunConfig, raw, labeled, matrix):
    tables = [rank_features(matrix, algorithm) for algorithm in RankingAlgorithm]
    return tables, "rank-1 features -> " + ", ".join(
        f"{t.algorithm.value}: {t.entries[0][0].column}" for t in tables if t.entries)


#: command: (stage, whether it needs the feature matrix, (report file, renderer) pairs)
STAGES = {
    "correlate": (_correlate, False, (("correlations.csv", reports.correlation_csv),
                                      ("correlations.md", reports.correlation_md))),
    "evaluate": (_evaluate, True, (("classification.csv", reports.classification_csv),
                                   ("classification.md", reports.classification_md))),
    "rank": (_rank, True, (("ranking.csv", reports.ranking_csv),
                           ("ranking.md", reports.ranking_md))),
}


def run_analysis(config: RunConfig, args) -> Outcome:
    """Run one stage, or all of them for ``pipeline``: the manifest, then the reports."""
    stages = list(STAGES.values()) if args.command == "pipeline" else [STAGES[args.command]]
    raw, labeled = _ingest_and_label(config)
    needs_matrix = any(needs for _, needs, _ in stages)
    matrix = to_feature_matrix(labeled, config.feature_ids()) if needs_matrix else None
    results = [stage(config, raw, labeled, matrix) for stage, _, _ in stages]
    manifest, run_hash = _manifest(config, args.command, raw, labeled)
    outputs = [(os.path.join(config.out, "manifest.txt"), manifest)]
    for (_, _, artefacts), (result, _) in zip(stages, results):
        outputs += [(os.path.join(config.out, name), render(result, run_hash))
                    for name, render in artefacts]
    if args.command != "pipeline":
        return outputs, results[0][1]
    return outputs, (
        f"pipeline: {len(raw)} ingested, {len(labeled)} labeled "
        f"(thresholds {labeled.q1_threshold:g}/{labeled.q3_threshold:g}); "
        f"reports in {config.out} (manifest {run_hash[:12]})"
    )


# ---- argument parsing ------------------------------------------------------------

#: command: (handler, help text)
COMMANDS = {
    "extract": (cmd_extract, "parse Java sources and emit the metrics CSV"),
    "label": (cmd_label, "quartile-label a dataset by mutation score"),
    "correlate": (run_analysis, "Spearman correlation of every metric with mutation score"),
    "train": (cmd_train, "train one classifier on the labeled dataset"),
    "evaluate": (run_analysis, "k-fold cross-validated evaluation of classifiers"),
    "rank": (run_analysis, "rank features by the four ranking algorithms"),
    "predict": (cmd_predict, "predict effectiveness for a metrics CSV with a saved model"),
    "pipeline": (run_analysis, "full run: label, correlate, evaluate, rank"),
}



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
    parser.add_argument("--population", help="raw | labeled (correlation population)")
    parser.add_argument("--q1", help="override lower mutation-score threshold")
    parser.add_argument("--q3", help="override upper mutation-score threshold")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="testability",
        description="Static OO metrics and mutation-score test-effectiveness analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "predict":
            p.add_argument("model", help="model file from `train`")
        _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        outputs, summary = COMMANDS[args.command][0](build_config(args), args)
        for path, text in outputs:
            try:
                reports.write_text_atomic(path, text)
            except OSError as exc:
                raise CliError(EXIT_INPUT, f"cannot write output: {path}: {exc}")
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
