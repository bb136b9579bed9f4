"""The dataset (ids plus one float64 matrix with a column per metric), CSV
ingestion and validation, quartile-based effectiveness labeling, and
feature matrices. Only this module knows the matrix layout; others read
columns through ``RawDataset.column``.

The CSV dialect is fixed: comma-separated, UTF-8, one header row of
canonical column names, "." decimal separator. Metadata columns carried by
the published dataset (project, url, commit, class and test paths) are not
features; the class/test paths double as record identifiers. Every metric
invariant is checked as a boolean array over the whole matrix.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Sequence, TextIO

import numpy as np

from .metrics import (
    COUNT_METRICS,
    INDEPENDENT_VARIABLES,
    TEST_QUALITY_METRICS,
    UNIT_INTERVAL_METRICS,
    MetricId,
    metric_for_column,
)
from .records import FeatureMatrix

#: Header names treated as metadata, never as features.
METADATA_COLUMNS = ("project", "url", "commit", "class_path", "test_path")

#: Metadata/identifier columns that name the record.
_ID_COLUMNS = {"class_path": "class_id", "test_path": "test_id",
               "class_id": "class_id", "test_id": "test_id"}


class IngestError(ValueError):
    pass


class MissingColumn(IngestError):
    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        super().__init__(f"required metric columns absent: {', '.join(columns)}")


class BadCell(IngestError):
    def __init__(self, row: int, column: str, content: str):
        self.row, self.column, self.content = row, column, content
        super().__init__(f"row {row}, column {column}: bad cell {content!r}")


class InvalidRecord(IngestError):
    def __init__(self, row: int, violations: Sequence[str]):
        self.row, self.violations = row, tuple(violations)
        super().__init__(f"row {row}: {'; '.join(violations)}")


class DuplicateRecord(IngestError):
    def __init__(self, class_id: str, test_id: str):
        super().__init__(f"duplicate record for ({class_id}, {test_id})")


class TooFewValues(ValueError):
    pass


class DegenerateSplit(ValueError):
    """q1 == q3: quartile labeling cannot separate two classes."""


class ForbiddenFeature(ValueError):
    """A test-quality metric (M, L, B) was requested as a feature."""


@dataclass(frozen=True)
class RawDataset:
    """Rows of (class id, test id) with one float64 value per metric column.

    ``values`` has shape ``(rows, len(columns))`` and is read-only; counts
    are stored as doubles so every consumer sees one numeric type.
    """

    class_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    columns: tuple[MetricId, ...]
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self) -> None:
        for name in ("class_ids", "test_ids", "columns"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        values = np.asarray(self.values, dtype=np.float64)
        rows = len(self.class_ids)
        if len(self.test_ids) != rows or values.shape != (rows, len(self.columns)):
            raise ValueError("ids and values are not a rows x columns table")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.class_ids)

    def column(self, metrics: MetricId | Sequence[MetricId]) -> np.ndarray:
        """One metric's column, or the ``(rows, k)`` block of a list of metrics."""
        if isinstance(metrics, MetricId):
            return self.column([metrics])[:, 0]
        missing = [m.column for m in metrics if m not in self.columns]
        if missing:
            raise MissingColumn(missing)
        return self.values.take([self.columns.index(m) for m in metrics], axis=1)

    @property
    def records(self) -> list[dict[MetricId, float]]:
        # a {metric: value} dict per row, kept for the benchmark's traced predict pass
        return [dict(zip(self.columns, row)) for row in self.values.tolist()]


@dataclass(frozen=True)
class LabeledDataset:
    """Rows surviving quartile filtering, their labels (1 = Effective) and thresholds."""

    kept: RawDataset
    y: np.ndarray
    q1_threshold: float
    q3_threshold: float
    discarded_count: int

    def __len__(self) -> int:
        return len(self.kept)


def ingest_csv(
    stream: TextIO | str,
    require: Iterable[MetricId] = (),
    provenance: str = "",
) -> RawDataset:
    """Read a metrics CSV into a validated RawDataset.

    Metadata columns are dropped from the metric columns (class/test paths
    become record identifiers); unknown columns are ignored and noted in
    the provenance. A repeated metric header keeps its first position and
    its last cell. A missing metric value is a hard error, never an
    imputed zero. Rows are checked in file order: a row's bad cell comes
    before its invariant violations, which come before a duplicate id.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input: no header row") from None
    header = [h.strip() for h in header]

    metric_cols: dict[int, MetricId] = {}
    id_cols: dict[str, int] = {}
    ignored: list[str] = []
    for i, name in enumerate(header):
        if name in _ID_COLUMNS:
            id_cols.setdefault(_ID_COLUMNS[name], i)
        elif name in METADATA_COLUMNS:
            pass
        else:
            metric = metric_for_column(name)
            if metric is None:
                ignored.append(name)
            else:
                metric_cols[i] = metric

    columns = tuple(dict.fromkeys(metric_cols.values()))
    missing = [m.column for m in require if m not in columns]
    if missing:
        raise MissingColumn(missing)

    last_cell = {metric: j for j, metric in enumerate(metric_cols.values())}
    buffer = array("d")
    row_nos: list[int] = []
    ids: dict[tuple[str, str], None] = {}  # (class id, test id) in row order
    try:
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            parsed = _parse_metric_cells(row_no, row, metric_cols)
            class_id = _id_cell(row_no, row, header, id_cols.get("class_id"))
            test_id = _id_cell(row_no, row, header, id_cols.get("test_id"))
            buffer.extend(parsed)
            row_nos.append(row_no)
            if (class_id, test_id) in ids:  # an id made of the row number never repeats
                raise DuplicateRecord(class_id, test_id)
            ids[class_id, test_id] = None
    finally:  # an earlier row's violation comes before whatever stopped the loop
        values = np.frombuffer(buffer, dtype=np.float64).reshape(len(row_nos), len(metric_cols))
        values = values.take([last_cell[m] for m in columns], axis=1)
        _check_invariants(columns, values, row_nos)

    note = provenance
    if ignored:
        note = f"{provenance} (ignored columns: {', '.join(ignored)})".strip()
    return RawDataset([c for c, _ in ids], [t for _, t in ids], columns, values, note)


def _parse_metric_cells(
    row_no: int, row: list[str], metric_cols: dict[int, MetricId]
) -> list[float]:
    """The row's metric cells in header order, each stripped and parsed by ``float()``."""
    parsed = []
    for i, metric in metric_cols.items():
        cell = row[i].strip() if i < len(row) else ""
        try:
            parsed.append(float(cell))
        except ValueError:
            raise BadCell(row_no, metric.column, cell) from None
    return parsed


def _id_cell(row_no: int, row: list[str], header: list[str], i: int | None) -> str:
    if i is None:
        return f"row-{row_no}"
    if i >= len(row):
        raise BadCell(row_no, header[i], "")
    return row[i].strip()


def _check_invariants(
    columns: tuple[MetricId, ...], values: np.ndarray, row_nos: list[int]
) -> None:
    """Raise InvalidRecord for the first row that breaks a metric invariant.

    Each check is a boolean array over the matrix; the failing row's
    messages come column by column, in the order of the checks below, then
    the NMC identity.
    """
    def among(metrics) -> np.ndarray:
        return np.array([m in metrics for m in columns], dtype=bool)

    finite = np.isfinite(values)
    with np.errstate(invalid="ignore"):
        cell_checks = [
            (~finite, "{} is not finite"),
            (finite & (values < 0) & among(COUNT_METRICS), "{} is negative"),
            (finite & (np.trunc(values) != values) & among(COUNT_METRICS),
             "{} is not an integer"),
            (finite & ~((values >= 0) & (values <= 1)) & among(UNIT_INTERVAL_METRICS),
             "{} out of [0,1]"),
            (finite & ~((values >= 0) & (values <= 2)) & among({MetricId.LCOM3}),
             "LCOM3 out of [0,2]"),
        ]
        nmc = [values[:, columns.index(m)] for m in (MetricId.NMC, MetricId.NMCI, MetricId.NMCE)
               if m in columns]
        nmc_mismatch = nmc[0] != nmc[1] + nmc[2] if len(nmc) == 3 else np.zeros(len(values), bool)
    invalid = np.logical_or.reduce([nmc_mismatch] + [mask.any(axis=1) for mask, _ in cell_checks])
    if not invalid.any():
        return
    r = int(np.argmax(invalid))
    violations = [text.format(metric.column) for j, metric in enumerate(columns)
                  for mask, text in cell_checks if mask[r, j]]
    if nmc_mismatch[r]:
        violations.append("NMC != NMCI+NMCE")
    raise InvalidRecord(row_nos[r], violations)


def compute_quartiles(scores: Sequence[float]) -> tuple[float, float]:
    """First and third quartile by linear interpolation between closest ranks.

    Position p = (n-1)*q on the sorted sequence, interpolating between the
    floor and ceil positions: [1,2,3,4] -> (1.75, 3.25).
    """
    values = np.sort(np.asarray(scores, dtype=np.float64))
    if values.size < 4:
        raise TooFewValues(f"need at least 4 values, got {values.size}")

    def at(q: float) -> float:
        p = (values.size - 1) * q
        lo = int(np.floor(p))
        hi = int(np.ceil(p))
        return float(values[lo] + (p - lo) * (values[hi] - values[lo]))

    return at(0.25), at(0.75)


def label_by_quartiles(
    data: RawDataset,
    thresholds: tuple[float, float] | None = None,
) -> LabeledDataset:
    """Split rows into NonEffective (M <= q1) and Effective (M >= q3).

    Rows with q1 < M < q3 are discretization noise and are discarded,
    keeping only their count. Thresholds come from the data's own mutation
    score quartiles unless an explicit pair is supplied.
    """
    if len(data) == 0:
        raise TooFewValues("dataset is empty")
    scores = data.column(MetricId.M)
    if thresholds is None:
        q1, q3 = compute_quartiles(scores)
    else:
        q1, q3 = float(thresholds[0]), float(thresholds[1])
    if q1 == q3:
        raise DegenerateSplit(f"q1 == q3 == {q1}: cannot separate classes")
    non_effective = scores <= q1
    keep = non_effective | (scores >= q3)
    kept = replace(data, class_ids=compress(data.class_ids, keep),
                   test_ids=compress(data.test_ids, keep), values=data.values[keep])
    return LabeledDataset(
        kept=kept,
        y=(~non_effective[keep]).astype(np.int8),
        q1_threshold=q1,
        q3_threshold=q3,
        discarded_count=len(data) - len(kept),
    )


def to_feature_matrix(
    data: LabeledDataset,
    features: Sequence[MetricId] = INDEPENDENT_VARIABLES,
) -> FeatureMatrix:
    """Assemble the numeric matrix and target vector in dataset order."""
    forbidden = [m.column for m in features if m in TEST_QUALITY_METRICS]
    if forbidden:
        raise ForbiddenFeature(
            f"test-quality metrics cannot be features: {', '.join(forbidden)}"
        )
    return FeatureMatrix(feature_ids=features, X=data.kept.column(features), y=data.y)


def format_metric_value(metric: MetricId, value: float) -> str:
    """Canonical CSV cell for a metric value; integral counts print as ints."""
    if metric in COUNT_METRICS and float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def cell_columns(data: RawDataset, columns: Sequence[MetricId]) -> list[list[str]]:
    """CSV text column by column, each headed by its name: class_id, test_id,
    then each metric's canonical cells."""
    return [["class_id", *data.class_ids], ["test_id", *data.test_ids], *(
        [m.column, *(format_metric_value(m, v) for v in data.column(m).tolist())]
        for m in columns)]


def write_records_csv(
    out: TextIO, data: RawDataset, columns: Sequence[MetricId]
) -> None:
    """Write rows with the canonical header: class_id, test_id, metrics."""
    csv.writer(out, lineterminator="\n").writerows(zip(*cell_columns(data, columns)))
