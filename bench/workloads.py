"""The three workloads: their inputs, CLI command sequences and output checks.

Each workload is what a researcher types, one command at a time. The
checks compare the outputs with independent oracles (scipy's Spearman,
numpy's quartiles, the generator's own record of what it wrote) and never
with the program's own code paths.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import generate

#: Raw rows of the paper-cv metrics CSV (about half survive labelling).
PAPER_CV_ROWS = 600
#: Raw rows of the bulk-20k metrics CSV.
BULK_ROWS = 20000
#: Packages in the corpus-extract Java corpus (13 files each).
CORPUS_PACKAGES = 400

RANKERS = ("GainRatio", "InfoGain", "SymmetricUncertainty", "OneR")
CLASSIFIERS = ("DecisionTree", "RandomForest", "MultilayerPerceptron")
RHO_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Inputs:
    """Generated input of one run."""

    path: str  # metrics CSV or corpus root, relative to the checkout
    info: dict  # generator facts: size, rows/lines/files/pairs, generate_s, digest


# ---- inputs --------------------------------------------------------------------


def _prepare_csv(rows: int):
    def prepare(cache: str, seed: int, size: int | None) -> Inputs:
        return Inputs(*generate.metrics_csv(cache, seed, size or rows))
    return prepare


def _prepare_corpus(cache: str, seed: int, size: int | None) -> Inputs:
    return Inputs(*generate.java_corpus(cache, seed, size or CORPUS_PACKAGES))


# ---- command sequences ---------------------------------------------------------


def _paper_cv(inputs, out, seed):
    return [("pipeline",
             ["pipeline", "--dataset", inputs.path, "--seed", str(seed), "--out", out])]


def _bulk(inputs, out, seed):
    common = ["--dataset", inputs.path, "--out", out]
    return [
        ("label", ["label", *common]),
        ("correlate", ["correlate", *common]),
        ("rank", ["rank", *common]),
        ("train", ["train", "--classifier", "mlp", "--seed", str(seed), *common]),
        ("predict", ["predict", os.path.join(out, "model.txt"), "--dataset", inputs.path,
                     "--out", out]),
    ]


def _extract(inputs, out, seed):
    return [("extract", ["extract", "--src", os.path.join(inputs.path, "src"),
                         "--classes", os.path.join(inputs.path, "classes"), "--out", out])]


# ---- oracles -------------------------------------------------------------------


def read_csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV file, skipping '# manifest' lines."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def load_metrics(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Class ids and float columns of a generated metrics CSV."""
    header, rows = read_csv_rows(path)
    columns = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)
               if name in generate.COLUMNS}
    return [r[0] for r in rows], columns


def quartile_labels(m: np.ndarray) -> np.ndarray:
    """+1 Effective, 0 NonEffective, -1 discarded, by numpy's linear quartiles."""
    q1, q3 = np.quantile(m, [0.25, 0.75])
    return np.where(m <= q1, 0, np.where(m >= q3, 1, -1))


def _check_correlations(path: str, columns: dict[str, np.ndarray]) -> list[str]:
    from scipy.stats import spearmanr

    _, rows = read_csv_rows(path)
    got = {r[0]: r[1] for r in rows}
    problems = []
    for name in generate.COLUMNS[:-3]:
        expected = spearmanr(columns[name], columns["M"]).statistic
        if name not in got:
            problems.append(f"correlations.csv: no row for {name}")
        elif math.isnan(expected):
            if got[name] != "":
                problems.append(f"correlations.csv: {name} should be skipped (constant)")
        elif got[name] == "" or abs(float(got[name]) - expected) > RHO_TOLERANCE:
            problems.append(f"correlations.csv: {name} rho {got[name]!r} != {expected!r}")
    return problems


def _check_ranking(path: str) -> list[str]:
    header, rows = read_csv_rows(path)
    if header[1::2] != list(RANKERS) or len(rows) != 10:
        return [f"ranking.csv: unexpected shape {header} x {len(rows)}"]
    names = set(generate.COLUMNS[:-3])
    bad = [c for r in rows for c in r[1::2] if c not in names]
    return [f"ranking.csv: unknown metrics {bad}"] if bad else []


def _check_classification(path: str, labelled: int, kinds) -> list[str]:
    header, rows = read_csv_rows(path)
    problems = [] if [r[0] for r in rows] == list(kinds) else [
        f"classification.csv: classifiers {[r[0] for r in rows]}"]
    at = header.index("tp")
    for r in rows:
        if sum(int(v) for v in r[at:at + 4]) != labelled:
            problems.append(f"classification.csv: {r[0]} confusion sums to "
                            f"{sum(int(v) for v in r[at:at + 4])}, expected {labelled}")
    return problems


def _check_paper_cv(inputs, out):
    _, columns = load_metrics(inputs.path)
    labelled = int((quartile_labels(columns["M"]) >= 0).sum())
    return (_check_correlations(os.path.join(out, "correlations.csv"), columns)
            + _check_classification(os.path.join(out, "classification.csv"), labelled,
                                    CLASSIFIERS)
            + _check_ranking(os.path.join(out, "ranking.csv")))


def _check_bulk(inputs, out):
    ids, columns = load_metrics(inputs.path)
    problems = _check_correlations(os.path.join(out, "correlations.csv"), columns)
    problems += _check_ranking(os.path.join(out, "ranking.csv"))

    expected = quartile_labels(columns["M"])
    header, rows = read_csv_rows(os.path.join(out, "labeled.csv"))
    want = [(ids[i], "Effective" if expected[i] else "NonEffective")
            for i in np.flatnonzero(expected >= 0)]
    if [(r[0], r[-1]) for r in rows] != want:
        problems.append(f"labeled.csv: {len(rows)} rows, expected {len(want)} "
                        "labelled rows in input order")

    _, rows = read_csv_rows(os.path.join(out, "predictions.csv"))
    if [r[0] for r in rows] != ids:
        problems.append(f"predictions.csv: {len(rows)} rows, expected one per input ({len(ids)})")
    for r in rows:
        score = float(r[1])
        if not 0.0 <= score <= 1.0 or r[2] != ("Effective" if score >= 0.5 else "NonEffective"):
            problems.append(f"predictions.csv: bad row {r}")
            break
    return problems


def _check_extract(inputs, out):
    header, rows = read_csv_rows(os.path.join(out, "metrics.csv"))
    packages = inputs.info["size"]
    paired = sorted(c for c in generate.PRODUCTION_CLASSES
                    if os.path.exists(os.path.join(generate.FIXTURE_DIR, c + "Test.java")))
    want = [(f"gen.p{p:05d}.{c}", f"gen.p{p:05d}.{c}Test")
            for p in range(packages) for c in paired]
    problems = []
    if [(r[0], r[1]) for r in rows] != want:
        problems.append(f"metrics.csv: {len(rows)} rows, expected one per generated pair "
                        f"({len(want)})")
    if "NBI" not in header:
        return problems + ["metrics.csv: no NBI column"]
    at = header.index("NBI")
    bad = [r[0] for r in rows if not float(r[at]) > 0]
    if bad:
        problems.append(f"metrics.csv: non-positive NBI for {bad[:5]}")
    return problems


# ---- the workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload: ``prepare(cache, seed, size)`` makes its inputs,
    ``commands(inputs, out, seed)`` lists its CLI runs as (name, argv), and
    ``check(inputs, out)`` returns the problems found in the outputs.

    ``rows_key`` names the input fact that rows_per_s divides by the
    workload wall time; lines_per_s divides the input's ``lines``.
    """

    name: str
    prepare: Callable[[str, int, int | None], Inputs]
    commands: Callable[[Inputs, str, int], list[tuple[str, list[str]]]]
    check: Callable[[Inputs, str], list[str]]
    rows_key: str
    outputs: dict[str, str]  # output file -> the command that writes it

    def rows(self, inputs: Inputs) -> int:
        return inputs.info[self.rows_key]

    def lines(self, inputs: Inputs) -> int:
        return inputs.info["lines"]

    def blame(self, problems: list[str]) -> set[str]:
        """Commands whose outputs the problems name; all of them if none is named."""
        named = {self.outputs.get(p.split(":", 1)[0]) for p in problems}
        return set(self.outputs.values()) if None in named else named


WORKLOADS = {w.name: w for w in (
    Workload("paper-cv", _prepare_csv(PAPER_CV_ROWS), _paper_cv, _check_paper_cv,
             rows_key="rows",
             outputs={f: "pipeline" for f in (
                 "manifest.txt", "correlations.csv", "correlations.md", "classification.csv",
                 "classification.md", "ranking.csv", "ranking.md")}),
    Workload("bulk-20k", _prepare_csv(BULK_ROWS), _bulk, _check_bulk, rows_key="rows",
             outputs={"labeled.csv": "label", "correlations.csv": "correlate",
                      "correlations.md": "correlate", "ranking.csv": "rank",
                      "ranking.md": "rank", "manifest.txt": "rank", "model.txt": "train",
                      "predictions.csv": "predict"}),
    Workload("corpus-extract", _prepare_corpus, _extract, _check_extract, rows_key="pairs",
             outputs={"metrics.csv": "extract"}),
)}
