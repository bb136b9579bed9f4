"""Dataset ingestion, quartile-based effectiveness labeling, feature matrices.

The CSV dialect is fixed: comma-separated, UTF-8, one header row of
canonical column names, "." decimal separator. Metadata columns carried by
the published dataset (project, url, commit, class and test paths) are not
features; the class/test paths double as record identifiers.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence, TextIO

import numpy as np

from .metrics import (
    COUNT_METRICS,
    INDEPENDENT_VARIABLES,
    TEST_QUALITY_METRICS,
    MetricId,
    metric_for_column,
)
from .records import (
    ClassRecord,
    EffectivenessLabel,
    FeatureMatrix,
    LabeledDataset,
    RawDataset,
    label_array,
    validate_record,
)

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


def ingest_csv(
    stream: TextIO | str,
    require: Iterable[MetricId] = (),
    provenance: str = "",
) -> RawDataset:
    """Read a metrics CSV into a validated RawDataset.

    Metadata columns are dropped from the metric mapping (class/test paths
    become record identifiers); unknown columns are ignored and noted in
    the provenance. A missing metric value is a hard error, never an
    imputed zero, and every record must pass validate_record.
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

    present = set(metric_cols.values())
    missing = [m.column for m in require if m not in present]
    if missing:
        raise MissingColumn(missing)

    records: list[ClassRecord] = []
    seen: set[tuple[str, str]] = set()
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        metrics: dict[MetricId, float] = {}
        for i, metric in metric_cols.items():
            cell = row[i].strip() if i < len(row) else ""
            try:
                metrics[metric] = float(cell)
            except ValueError:
                raise BadCell(row_no, metric.column, cell) from None
        class_id = row[id_cols["class_id"]].strip() if "class_id" in id_cols else f"row-{row_no}"
        test_id = row[id_cols["test_id"]].strip() if "test_id" in id_cols else f"row-{row_no}"
        record = ClassRecord(class_id=class_id, test_id=test_id, metrics=metrics)
        violations = validate_record(record)
        if violations:
            raise InvalidRecord(row_no, violations)
        if id_cols:
            key = (class_id, test_id)
            if key in seen:
                raise DuplicateRecord(class_id, test_id)
            seen.add(key)
        records.append(record)

    note = provenance
    if ignored:
        note = f"{provenance} (ignored columns: {', '.join(ignored)})".strip()
    return RawDataset(records=tuple(records), provenance=note)


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
    """Split records into NonEffective (M <= q1) and Effective (M >= q3).

    Records with q1 < M < q3 are discretization noise and are discarded,
    keeping only their count. Thresholds come from the data's own mutation
    score quartiles unless an explicit pair is supplied.
    """
    if len(data) == 0:
        raise TooFewValues("dataset is empty")
    if thresholds is None:
        q1, q3 = compute_quartiles(data.scores(MetricId.M))
    else:
        q1, q3 = float(thresholds[0]), float(thresholds[1])
    if q1 == q3:
        raise DegenerateSplit(f"q1 == q3 == {q1}: cannot separate classes")
    labeled: list[tuple[ClassRecord, EffectivenessLabel]] = []
    discarded = 0
    for record in data.records:
        score = record[MetricId.M]
        if score <= q1:
            labeled.append((record, EffectivenessLabel.NON_EFFECTIVE))
        elif score >= q3:
            labeled.append((record, EffectivenessLabel.EFFECTIVE))
        else:
            discarded += 1
    return LabeledDataset(
        records=tuple(labeled),
        q1_threshold=q1,
        q3_threshold=q3,
        discarded_count=discarded,
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
    features = tuple(features)
    rows = np.empty((len(data), len(features)), dtype=np.float64)
    for i, (record, _) in enumerate(data.records):
        for j, metric in enumerate(features):
            value = record.get(metric)
            if value is None:
                raise MissingColumn([metric.column])
            rows[i, j] = value
    y = label_array(label for _, label in data.records)
    return FeatureMatrix(feature_ids=features, X=rows, y=y)


def format_metric_value(metric: MetricId, value: float) -> str:
    """Canonical CSV cell for a metric value; integral counts print as ints."""
    if metric in COUNT_METRICS and float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def record_to_row(record: ClassRecord, columns: Sequence[MetricId]) -> list[str]:
    """Serialize a record to CSV cells under the canonical schema."""
    cells = [record.class_id, record.test_id]
    cells.extend(format_metric_value(m, record[m]) for m in columns)
    return cells


def write_records_csv(
    out: TextIO, records: Sequence[ClassRecord], columns: Sequence[MetricId]
) -> None:
    """Write records with the canonical header: class_id, test_id, metrics."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["class_id", "test_id"] + [m.column for m in columns])
    for record in records:
        writer.writerow(record_to_row(record, columns))
