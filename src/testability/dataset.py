"""The dataset (ids plus one float64 matrix with a column per metric), CSV
ingestion and validation, quartile-based effectiveness labeling, and the
feature matrix the learners and rankers read. Only this module knows the
dataset's matrix layout; others read columns through ``RawDataset.column``.

A label is 0 (NonEffective) or 1 (Effective) everywhere, stored as int8;
``LABELS`` gives its text.

The CSV dialect is fixed: comma-separated, UTF-8, one header row of
canonical column names, "." decimal separator. Metadata columns carried by
the published dataset (project, url, commit, class and test paths) are not
features; the class/test paths double as record identifiers. A UTF-8
byte-order mark before the header of CSV text is dropped; the CLI opens a
dataset file as "utf-8-sig", which drops it before ingest reads.

Ingest reads the data lines in blocks of ``CSV_BLOCK_ROWS``. A block parses
in C, through ``np.loadtxt`` over its metric columns, with its ids from one
``split(",")`` per line, where that reading is sure to equal the csv
module's (``_parse_block``: ASCII, no quote, no NUL, no overlong line, one
row per line, id columns present, no repeated id, no loadtxt error). Any
other block, and every line after it, goes through the csv row loop,
numbered from that block's first row, so every error, its row and its order
come from the loop alone. The loop converts a row's metric cells in one
``map(float, ...)``; a row where that fails (a bad cell, or a row too short)
is parsed again cell by cell, so its error names its first bad cell. The
values go into one ``array('d')``, which becomes the matrix itself unless a
metric header repeats, so a dataset holds one copy of its rows. Every metric
invariant is checked one column at a time, so no check makes a temporary
larger than a column.

Written CSV (``labeled.csv``, extract's ``metrics.csv``) goes through
``csv_blocks``, ``CSV_BLOCK_ROWS`` rows at a time, so only one block's cells
exist as strings at once; within a block, cells are formatted a column at a
time where the column allows it (see ``cell_columns``).
"""

from __future__ import annotations

import csv
import io
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain, compress, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .metrics import (
    COUNT_METRICS,
    INDEPENDENT_VARIABLES,
    TEST_QUALITY_METRICS,
    UNIT_INTERVAL_METRICS,
    MetricId,
    metric_for_column,
)

#: Header names treated as metadata, never as features.
METADATA_COLUMNS = ("project", "url", "commit", "class_path", "test_path")

#: Metadata/identifier columns that name the record.
_ID_COLUMNS = {"class_path": "class_id", "test_path": "test_id",
               "class_id": "class_id", "test_id": "test_id"}

#: The text of label 0 and label 1.
LABELS = ("NonEffective", "Effective")


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


def check_columns(columns: Sequence[MetricId], metrics: Iterable[MetricId]) -> None:
    """Raise MissingColumn naming every metric of ``metrics`` not in ``columns``."""
    missing = [m.column for m in metrics if m not in columns]
    if missing:
        raise MissingColumn(missing)


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
        check_columns(self.columns, metrics)
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


@dataclass(frozen=True)
class FeatureMatrix:
    """Numeric matrix over selected independent variables plus binary target.

    Rows follow dataset order; ``y`` holds 1 for Effective, 0 for
    NonEffective. Test-quality metrics can never appear among the
    features (M is the target source; L and B are excluded from the 34
    independent variables).
    """

    feature_ids: tuple[MetricId, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int8)
        if X.ndim != 2 or X.shape[1] != len(self.feature_ids):
            raise ValueError("matrix is not rectangular over feature_ids")
        if y.shape != (X.shape[0],):
            raise ValueError("targets not aligned with rows")
        if not np.isfinite(X).all():
            raise ValueError("matrix contains missing or non-finite values")
        forbidden = [m.column for m in self.feature_ids if m in TEST_QUALITY_METRICS]
        if forbidden:
            raise ForbiddenFeature(
                f"test-quality metrics cannot be features: {', '.join(forbidden)}"
            )
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        X.setflags(write=False)
        y.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


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
        # Text decoded as plain UTF-8 keeps a byte-order mark; a file opened
        # as "utf-8-sig" has already dropped it.
        stream = io.StringIO(stream.removeprefix("\ufeff"))
    lines = iter(stream)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input: no header row") from None
    except csv.Error as exc:
        raise IngestError(f"row {reader.line_num}: {exc}") from None
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
    check_columns(columns, require)

    last_cell = {metric: j for j, metric in enumerate(metric_cols.values())}
    metric_cells = _cell_getter(list(metric_cols))
    buffer = array("d")
    row_nos: list[int] = []
    ids: dict[tuple[str, str], None] = {}  # (class id, test id) in row order
    usecols = list(metric_cols)
    header_lines, first_row = reader.line_num, 2  # first_row: the next data row's number
    try:
        while block := list(islice(lines, CSV_BLOCK_ROWS)):
            if not _parse_block(block, first_row, usecols, id_cols, ids, buffer):
                break
            row_nos.extend(range(first_row, first_row + len(block)))
            first_row += len(block)
        reader = csv.reader(chain(block, lines))
        for row_no, row in enumerate(reader, start=first_row):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                parsed = list(map(float, metric_cells(row)))
            except (ValueError, IndexError):  # a bad cell, or a row too short
                parsed = _parse_metric_cells(row_no, row, metric_cols)
            class_id = _id_cell(row_no, row, header, id_cols.get("class_id"))
            test_id = _id_cell(row_no, row, header, id_cols.get("test_id"))
            buffer.fromlist(parsed)
            row_nos.append(row_no)
            if (class_id, test_id) in ids:  # an id made of the row number never repeats
                raise DuplicateRecord(class_id, test_id)
            ids[class_id, test_id] = None
    except csv.Error as exc:  # such as a cell over the csv module's field size limit
        line = header_lines + first_row - 2 + reader.line_num  # a row loadtxt took is one line
        raise IngestError(f"row {line}: {exc}") from None
    finally:  # an earlier row's violation comes before whatever stopped the loop
        values = np.frombuffer(buffer, dtype=np.float64).reshape(len(row_nos), len(metric_cols))
        if len(columns) < len(metric_cols):  # a repeated header keeps its last cell
            values = values.take([last_cell[m] for m in columns], axis=1)
        _check_invariants(columns, values, row_nos)

    note = provenance
    if ignored:
        note = f"{provenance} (ignored columns: {', '.join(ignored)})".strip()
    return RawDataset([c for c, _ in ids], [t for _, t in ids], columns, values, note)


def _parse_block(
    block: list[str],
    first_row: int,
    usecols: list[int],
    id_cols: dict[str, int],
    ids: dict[tuple[str, str], None],
    buffer: array,
) -> bool:
    """Parse the data lines ``block``, numbered from ``first_row``, with
    ``np.loadtxt``, appending its values to ``buffer`` and its ids to
    ``ids``; or return False, having changed nothing, for a block that the
    csv row loop must read.

    The block is taken only where the two readings agree: at least one
    metric column, ASCII text with no quote character and no NUL (the csv
    dialect's special characters), no line over the csv field size limit,
    one parsed row per line (loadtxt skips a blank line, and fails on a
    line whose metric cells are blank), every line holding the id columns,
    and no id pair seen before. loadtxt converts a cell as
    ``float(cell.strip())`` does, or raises; it raises where the row loop
    would reject a cell, and also on a cell the loop accepts through
    Python's own syntax (``1_0``) or with a carriage return in it.
    """
    text = "".join(block)
    if (not usecols or not text.isascii() or '"' in text or "\0" in text
            or max(map(len, block)) > csv.field_size_limit()):
        return False
    try:
        with warnings.catch_warnings():  # a block of blank lines warns that it has no data
            warnings.simplefilter("ignore")
            values = np.loadtxt(block, delimiter=",", usecols=usecols, comments=None,
                                dtype=np.float64, ndmin=2)
    except ValueError:
        return False
    if values.shape[0] != len(block):
        return False
    rows = range(first_row, first_row + len(block))
    if id_cols:
        last = max(id_cols.values())
        cells = [line.split(",", last + 1) for line in block]
        if min(map(len, cells)) <= last:
            return False

    def id_column(name: str) -> Iterable[str]:
        i = id_cols.get(name)
        if i is None:
            return (f"row-{r}" for r in rows)
        return map(str.strip, map(itemgetter(i), cells))

    pairs = dict.fromkeys(zip(id_column("class_id"), id_column("test_id")))
    if len(pairs) < len(block) or not ids.keys().isdisjoint(pairs):
        return False
    buffer.frombytes(values.tobytes())
    ids.update(pairs)
    return True


def _cell_getter(indices: list[int]) -> Callable[[list[str]], tuple[str, ...]]:
    """A function giving a row's cells at ``indices`` as a tuple; IndexError on a short row."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple(row[i] for i in indices)


def _parse_metric_cells(
    row_no: int, row: list[str], metric_cols: dict[int, MetricId]
) -> list[float]:
    """The row's metric cells in header order, each stripped and parsed by
    ``float()``; the first cell that does not parse is a BadCell."""
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

    The checks run one column at a time, so no temporary is larger than a
    column. The failing row's messages come column by column, in the order
    of ``_cell_checks``, then the NMC identity.
    """
    with np.errstate(invalid="ignore"):
        nmc = [values[:, columns.index(m)] for m in (MetricId.NMC, MetricId.NMCI, MetricId.NMCE)
               if m in columns]
        nmc_mismatch = nmc[0] != nmc[1] + nmc[2] if len(nmc) == 3 else np.zeros(len(values), bool)
        invalid = nmc_mismatch.copy()
        for j, metric in enumerate(columns):
            for mask, _ in _cell_checks(metric, values[:, j]):
                invalid |= mask
    if not invalid.any():
        return
    r = int(np.argmax(invalid))
    with np.errstate(invalid="ignore"):
        violations = [text for j, metric in enumerate(columns)
                      for mask, text in _cell_checks(metric, values[r:r + 1, j]) if mask[0]]
    if nmc_mismatch[r]:
        violations.append("NMC != NMCI+NMCE")
    raise InvalidRecord(row_nos[r], violations)


def _cell_checks(metric: MetricId, column: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """Each invariant of ``metric`` as (a mask of the cells of ``column`` that
    break it, its message), in message order."""
    finite = np.isfinite(column)
    checks = [(~finite, f"{metric.column} is not finite")]
    if metric in COUNT_METRICS:
        checks += [(finite & (column < 0), f"{metric.column} is negative"),
                   (finite & (np.trunc(column) != column), f"{metric.column} is not an integer")]
    if metric in UNIT_INTERVAL_METRICS:
        checks.append((finite & ~((column >= 0) & (column <= 1)), f"{metric.column} out of [0,1]"))
    if metric is MetricId.LCOM3:
        checks.append((finite & ~((column >= 0) & (column <= 2)), "LCOM3 out of [0,2]"))
    return checks


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
    return FeatureMatrix(feature_ids=features, X=data.kept.column(features), y=data.y)


#: Rows that ``ingest_csv`` parses, and ``csv_blocks`` formats, at a time.
CSV_BLOCK_ROWS = 1024


def format_metric_value(metric: MetricId, value: float) -> str:
    """Canonical CSV cell for a metric value; integral counts print as ints."""
    if metric in COUNT_METRICS and float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def cell_columns(data: RawDataset, columns: Sequence[MetricId]) -> list[list[str]]:
    """CSV text column by column, each headed by its name: class_id, test_id,
    then each metric's canonical cells."""
    return [["class_id", *data.class_ids], ["test_id", *data.test_ids],
            *([m.column, *_metric_cells(m, data.column(m))] for m in columns)]


def _metric_cells(metric: MetricId, values: np.ndarray) -> Iterable[str]:
    """``format_metric_value`` of each value, decided once for the column: a
    float column is its reprs, a count column of whole values below 2**63 is
    its int64 texts, and any other column goes cell by cell."""
    if metric not in COUNT_METRICS:
        return map(repr, values.tolist())
    if ((np.trunc(values) == values) & (np.abs(values) < 2.0 ** 63)).all():
        return map(str, values.astype(np.int64).tolist())
    return (format_metric_value(metric, v) for v in values.tolist())


def csv_blocks(
    data: RawDataset, columns: Sequence[MetricId], y: np.ndarray | None = None
) -> Iterator[str]:
    """CSV text of ``data`` in blocks of ``CSV_BLOCK_ROWS`` rows, the header
    in the first: class_id, test_id, each metric's canonical cells, then,
    when labels ``y`` are given, each row's label text. Only one block's
    cells exist as strings at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for start in range(0, max(len(data), 1), CSV_BLOCK_ROWS):  # the header alone for no rows
        rows = slice(start, start + CSV_BLOCK_ROWS)
        block = replace(data, class_ids=data.class_ids[rows], test_ids=data.test_ids[rows],
                        values=data.values[rows])
        cells = cell_columns(block, columns)
        if y is not None:
            cells.append(["label", *(LABELS[v] for v in y[rows].tolist())])
        lines = zip(*cells)
        if start:
            next(lines)  # the header goes only before the first block
        writer.writerows(lines)
        yield buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()


def write_records_csv(
    out: TextIO, data: RawDataset, columns: Sequence[MetricId]
) -> None:
    """Write rows with the canonical header: class_id, test_id, metrics."""
    out.writelines(csv_blocks(data, columns))
