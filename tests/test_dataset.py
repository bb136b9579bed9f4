import csv
import io
import math
import os
import re
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, TextIO

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FIXTURES
from testability import dataset
from testability.dataset import (
    _ID_COLUMNS,
    METADATA_COLUMNS,
    BadCell,
    DegenerateSplit,
    DuplicateRecord,
    FeatureMatrix,
    ForbiddenFeature,
    IngestError,
    InvalidRecord,
    MissingColumn,
    RawDataset,
    TooFewValues,
    _check_invariants,
    _id_cell,
    cell_columns,
    compute_quartiles,
    format_metric_value,
    ingest_csv,
    label_by_quartiles,
    to_feature_matrix,
    write_records_csv,
)
from testability.metrics import (
    ALL_METRICS,
    COUNT_METRICS,
    INDEPENDENT_VARIABLES,
    UNIT_INTERVAL_METRICS,
    MetricId,
    metric_for_column,
)


def csv_text(rows, header="class_path,test_path,LOC,WMC,M"):
    return header + "\n" + "\n".join(rows) + "\n"


def test_metadata_columns_dropped_paths_become_ids():
    text = csv_text(
        [
            "proj,http://x,abc1,a/B.java,a/BTest.java,10,2,0.5",
            "proj,http://x,abc1,c/D.java,c/DTest.java,4,1,0.9",
        ],
        header="project,url,commit,class_path,test_path,LOC,WMC,M",
    )
    data = ingest_csv(text)
    assert len(data) == 2
    assert data.class_ids[0] == "a/B.java"
    assert data.test_ids[0] == "a/BTest.java"
    assert data.columns == (MetricId.LOC, MetricId.WMC, MetricId.M)
    assert data.values.tolist() == [[10, 2, 0.5], [4, 1, 0.9]]


def test_bad_cell_names_row_and_column():
    text = csv_text(["a,b,10,2,n/a"])
    with pytest.raises(BadCell) as info:
        ingest_csv(text)
    assert info.value.row == 2
    assert info.value.column == "M"


def test_missing_required_column():
    with pytest.raises(MissingColumn, match="NBI"):
        ingest_csv(csv_text(["a,b,10,2,0.5"]), require=[MetricId.NBI])


def test_duplicate_ids_rejected():
    text = csv_text(["a,b,10,2,0.5", "a,b,11,3,0.6"])
    with pytest.raises(DuplicateRecord):
        ingest_csv(text)


def test_unknown_columns_ignored_with_note():
    text = "class_path,test_path,LOC,WMC,M,mystery\na,b,1,1,0.5,zzz\n"
    data = ingest_csv(text)
    assert "mystery" in data.provenance
    assert MetricId.LOC in data.columns


def test_missing_metric_cell_is_hard_error():
    text = "class_path,test_path,LOC,WMC,M\na,b,1,1\n"
    with pytest.raises(BadCell):
        ingest_csv(text)


def test_a_short_row_missing_its_id_cell_is_a_bad_cell():
    with pytest.raises(BadCell) as info:
        ingest_csv("LOC,M,class_path,test_path\n1,0.5\n")
    assert (info.value.row, info.value.column, info.value.content) == (2, "class_path", "")
    assert str(info.value) == "row 2, column class_path: bad cell ''"


def test_an_earlier_invalid_row_wins_over_a_later_bad_cell_or_duplicate():
    for later in ("a,b,1,x", "a,b,1,0.5"):
        with pytest.raises(InvalidRecord, match="^row 3: M out of \\[0,1\\]$"):
            ingest_csv(csv_text(["a,b,1,0.5", "c,d,1,2", later], "class_path,test_path,LOC,M"))


#: A cell one character over the csv module's default field size limit.
OVERSIZED_CELL = "9" * (csv.field_size_limit() + 1)


def test_an_oversized_cell_is_an_ingest_error_naming_its_row():
    limit = re.escape(f"field larger than field limit ({csv.field_size_limit()})")
    with pytest.raises(IngestError, match=f"^row 3: {limit}$") as info:
        ingest_csv(csv_text(["a,b,1,0.5", f"c,d,{OVERSIZED_CELL},0.5"],
                            "class_path,test_path,LOC,M"))
    assert type(info.value) is IngestError
    with pytest.raises(IngestError, match=f"^row 1: {limit}$"):
        ingest_csv(f"LOC,M,{OVERSIZED_CELL}\n1,0.5\n")
    with pytest.raises(InvalidRecord, match="^row 2: M out of \\[0,1\\]$"):
        ingest_csv(csv_text(["a,b,1,2", f"c,d,{OVERSIZED_CELL},0.5"],
                            "class_path,test_path,LOC,M"))


def test_a_header_without_rows_gives_an_empty_matrix():
    data = ingest_csv("class_path,test_path,LOC,M\n")
    assert data.values.shape == (0, 2)
    assert ingest_csv("class_path,test_path\na,b\n").values.shape == (1, 0)


@pytest.mark.parametrize("header", ["class_id,test_id,LOC,M", '"class_id",test_id,LOC,M'],
                         ids=["bare", "quoted"])
def test_a_byte_order_mark_before_the_header_is_dropped(header):
    data = ingest_csv(f"\ufeff{header}\na,b,1,0.5\n")
    assert data.class_ids == ("a",) and data.columns == (MetricId.LOC, MetricId.M)


def test_quartiles_exact_rank_positions():
    assert compute_quartiles([0, 1, 2, 3, 4]) == (1.0, 3.0)


def test_quartiles_interpolated():
    assert compute_quartiles([1, 2, 3, 4]) == (1.75, 3.25)


def test_quartiles_need_four_values():
    with pytest.raises(TooFewValues):
        compute_quartiles([1, 2, 3])


def make_raw(scores):
    ids = [f"c{i}" for i in range(len(scores))]
    values = np.column_stack([np.arange(len(scores), dtype=float), np.asarray(scores, float)])
    return RawDataset(ids, [f"t{i}" for i in range(len(scores))],
                      (MetricId.LOC, MetricId.M), values)


def test_labeling_splits_and_discards():
    raw = make_raw([0.0, 0.2, 0.5, 0.7, 0.9, 1.0, 1.0, 0.4])
    labeled = label_by_quartiles(raw)
    assert len(labeled) + labeled.discarded_count == len(raw)
    for score, label in zip(labeled.kept.column(MetricId.M), labeled.y):
        if label == 0:
            assert score <= labeled.q1_threshold
        else:
            assert score >= labeled.q3_threshold
        assert not labeled.q1_threshold < score < labeled.q3_threshold


def test_boundary_scores_are_kept():
    raw = make_raw([0.1, 0.4, 0.7, 1.0, 0.4, 1.0, 0.2, 0.9])
    labeled = label_by_quartiles(raw, thresholds=(0.4, 1.0))
    by_id = dict(zip(labeled.kept.class_ids, labeled.y))
    assert by_id["c1"] == 0  # M = 0.4 kept
    assert by_id["c3"] == 1  # M = 1.0 kept
    assert "c2" not in by_id  # 0.7 strictly between -> discarded


def test_degenerate_split_rejected():
    raw = make_raw([0.5] * 8)
    with pytest.raises(DegenerateSplit):
        label_by_quartiles(raw)


def test_labeling_idempotent_under_same_thresholds():
    raw = make_raw([0.0, 0.2, 0.5, 0.7, 0.9, 1.0, 1.0, 0.4])
    once = label_by_quartiles(raw)
    again = label_by_quartiles(once.kept, thresholds=(once.q1_threshold, once.q3_threshold))
    assert again.kept.class_ids == once.kept.class_ids
    assert again.y.tolist() == once.y.tolist()
    assert again.discarded_count == 0


def test_feature_matrix_rejects_target_leakage():
    raw = make_raw([0.0, 0.1, 0.9, 1.0])
    labeled = label_by_quartiles(raw, thresholds=(0.1, 0.9))
    with pytest.raises(ForbiddenFeature, match="M"):
        to_feature_matrix(labeled, [MetricId.LOC, MetricId.M])


def test_feature_matrix_shape_and_alignment():
    raw = make_raw([0.0, 1.0, 0.1, 0.9])
    labeled = label_by_quartiles(raw, thresholds=(0.1, 0.9))
    matrix = to_feature_matrix(labeled, [MetricId.LOC])
    assert matrix.X.shape == (4, 1)
    assert matrix.X[:, 0].tolist() == [0, 1, 2, 3]
    assert matrix.y.tolist() == [0, 1, 0, 1]


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=4))
def test_quartiles_match_numpy_linear_interpolation(scores):
    q1, q3 = compute_quartiles(scores)
    assert q1 == pytest.approx(float(np.percentile(scores, 25)), abs=1e-12)
    assert q3 == pytest.approx(float(np.percentile(scores, 75)), abs=1e-12)


@settings(max_examples=200)
@given(
    st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False).map(
            lambda v: round(v, 3)
        ),
        min_size=4,
        max_size=60,
    )
)
def test_labeling_properties_hold_for_random_multisets(scores):
    raw = make_raw(scores)
    try:
        labeled = label_by_quartiles(raw)
    except DegenerateSplit:
        q1, q3 = compute_quartiles(scores)
        assert q1 == q3
        return
    assert len(labeled) + labeled.discarded_count == len(raw)
    for score in labeled.kept.column(MetricId.M):
        assert not labeled.q1_threshold < score < labeled.q3_threshold


# -- the row-by-row ingest this module replaced, kept as the reference --------
# ClassRecord, validate_record and ingest_csv are verbatim, except that the
# reference returns a ReferenceDataset.


@dataclass(frozen=True)
class ReferenceDataset:
    records: tuple
    provenance: str = ""


@dataclass(frozen=True)
class ClassRecord:
    """One production class paired with its test class.

    ``metrics`` maps MetricId to a double; counts are validated for
    integrality by :func:`validate_record` rather than stored as ints so
    that every downstream consumer sees one uniform numeric type.
    """

    class_id: str
    test_id: str
    metrics: Mapping[MetricId, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "metrics",
            MappingProxyType({m: float(v) for m, v in self.metrics.items()}),
        )

    def __getitem__(self, metric: MetricId) -> float:
        return self.metrics[metric]

    def get(self, metric: MetricId, default: float | None = None) -> float | None:
        return self.metrics.get(metric, default)


def validate_record(record: ClassRecord) -> list[str]:
    """Check every invariant of a record; returns the list of violations.

    An empty list means the record is valid. Violations are data, not
    failures: range errors, integrality errors, and the NMC identity are
    all reported together.
    """
    violations: list[str] = []
    for metric, value in record.metrics.items():
        if not math.isfinite(value):
            violations.append(f"{metric.column} is not finite")
            continue
        if metric in COUNT_METRICS:
            if value < 0:
                violations.append(f"{metric.column} is negative")
            if value != int(value):
                violations.append(f"{metric.column} is not an integer")
        if metric in UNIT_INTERVAL_METRICS and not 0.0 <= value <= 1.0:
            violations.append(f"{metric.column} out of [0,1]")
        if metric is MetricId.LCOM3 and not 0.0 <= value <= 2.0:
            violations.append("LCOM3 out of [0,2]")
    nmc = record.get(MetricId.NMC)
    nmci = record.get(MetricId.NMCI)
    nmce = record.get(MetricId.NMCE)
    if None not in (nmc, nmci, nmce) and nmc != nmci + nmce:
        violations.append("NMC != NMCI+NMCE")
    return violations


def reference_ingest_csv(
    stream: TextIO | str,
    require: Iterable[MetricId] = (),
    provenance: str = "",
) -> ReferenceDataset:
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
    return ReferenceDataset(records=tuple(records), provenance=note)


#: A valid cell per metric, with NMC = NMCI + NMCE.
VALID_CELLS = {"LOC": "12", "WMC": "3", "NMC": "2", "NMCI": "1", "NMCE": "1",
               "DAM": "0.5", "LCOM3": "1.5", "M": "0.75"}
ODD_CELLS = [" 1 ", "\t0\t", "\x1c1\x1f", "1_0", "inf", "-inf", "nan", "1e400", "-0",
             "-1", "1.5", "2", "0.5", "", "  ", "x", "1,5"]
ID_HEADERS = ["class_path", "test_path", "class_id", "test_id"]
ID_CELLS = ["a", "b", " a ", ""]


@st.composite
def metrics_csv(draw):
    """CSV text over a shuffled header of metric, id, metadata and unknown
    columns, with valid, odd, blank, short and duplicate-id rows."""
    metrics = draw(st.lists(st.sampled_from(sorted(VALID_CELLS)), unique=True))
    repeated = draw(st.lists(st.sampled_from(metrics), max_size=1)) if metrics else []
    others = draw(st.lists(st.sampled_from(ID_HEADERS + ["project", "mystery"]), unique=True))
    header = draw(st.permutations(metrics + repeated + others))
    rows = [[f" {name} " if draw(st.booleans()) else name for name in header]]
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for name in header:
            if name in VALID_CELLS:
                odd = draw(st.integers(0, 5)) == 0
                cells.append(draw(st.sampled_from(ODD_CELLS)) if odd else VALID_CELLS[name])
            elif name in ID_HEADERS:
                cells.append(draw(st.sampled_from(ID_CELLS)))
            else:
                cells.append("p")
        shape = draw(st.sampled_from(["full", "full", "full", "short", "trimmed", "blank",
                                      "oversized"]))
        if shape == "oversized" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = OVERSIZED_CELL
        elif shape == "short":
            cells = cells[:draw(st.integers(0, len(cells)))]
        elif shape == "trimmed":  # ends at its last metric cell
            cells = cells[:max((i + 1 for i, n in enumerate(header) if n in VALID_CELLS),
                               default=0)]
        elif shape == "blank":
            cells = [" "] * draw(st.integers(0, 2))
        rows.append(cells)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def ingest_outcome(ingest, text, require):
    try:
        data = ingest(text, require=require, provenance="in.csv")
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(data, ReferenceDataset):
        return [(r.class_id, r.test_id, list(r.metrics.items())) for r in data.records], \
            data.provenance
    assert data.values.shape == (len(data), len(data.columns))
    return [(c, t, list(r.items()))
            for c, t, r in zip(data.class_ids, data.test_ids, data.records)], data.provenance


@settings(max_examples=600, deadline=None)
@given(metrics_csv(), st.sampled_from([(), (), (), (MetricId.M,), (MetricId.LOC, MetricId.M)]))
def test_ingest_matches_the_row_by_row_reference(text, require):
    expected = ingest_outcome(reference_ingest_csv, text, require)
    got = ingest_outcome(ingest_csv, text, require)
    if expected[0] is IndexError:  # the reference crashed on a short row's id cell
        assert got[0] is BadCell and got[1].endswith(": bad cell ''")
        assert got[1].split("column ")[1].split(":")[0] in ID_HEADERS
    elif expected[0] is csv.Error:  # the reader refused a row, such as an oversized cell
        assert got[0] is IngestError and got[1].startswith("row ")
        assert got[1].endswith(f": {expected[1]}")
    else:
        assert got == expected


# -- one record's invariants, the dataset's shape and the CSV round trip --------


RECORD = {
    MetricId.NMC: 5.0, MetricId.NMCI: 2.0, MetricId.NMCE: 3.0,
    MetricId.DAM: 0.5, MetricId.MFA: 0.0, MetricId.CAM: 1.0,
    MetricId.LCOM3: 1.2, MetricId.M: 0.7, MetricId.LOC: 10.0,
}


def make_record(**overrides):
    """A one-row dataset of RECORD with some columns replaced."""
    metrics = dict(RECORD)
    for key, value in overrides.items():
        metrics[MetricId(key)] = value
    return RawDataset(("a.B",), ("a.BTest",), tuple(metrics), [list(metrics.values())])


def ingest_violations(data):
    """The violations ingest reports for the dataset's one row; [] when it is valid."""
    buffer = io.StringIO()
    buffer.write("class_id,test_id," + ",".join(m.column for m in data.columns) + "\n")
    buffer.write(",".join([data.class_ids[0], data.test_ids[0],
                           *map(repr, data.values[0].tolist())]) + "\n")
    try:
        ingest_csv(buffer.getvalue())
    except InvalidRecord as exc:
        assert exc.row == 2
        return list(exc.violations)
    return []


def test_valid_record_has_no_violations():
    assert ingest_violations(make_record()) == []


def test_dam_range_violation():
    violations = ingest_violations(make_record(DAM=1.3))
    assert violations == ["DAM out of [0,1]"]


def test_nmc_identity_violation():
    violations = ingest_violations(make_record(NMCI=4.0, NMCE=2.0, NMC=5.0))
    assert "NMC != NMCI+NMCE" in violations


def test_count_integrality_and_sign():
    assert "LOC is not an integer" in ingest_violations(make_record(LOC=1.5))
    assert "LOC is negative" in ingest_violations(make_record(LOC=-1.0))


def test_lcom3_upper_range():
    assert ingest_violations(make_record(LCOM3=2.0)) == []
    assert "LCOM3 out of [0,2]" in ingest_violations(make_record(LCOM3=2.5))


def test_violations_are_listed_by_column_then_check():
    violations = ingest_violations(make_record(NMC=-1.5, DAM=float("inf"), LOC=2.5, M=1.5))
    assert violations == [
        "NMC is negative", "NMC is not an integer", "DAM is not finite",
        "M out of [0,1]", "LOC is not an integer", "NMC != NMCI+NMCE",
    ]


def test_records_are_immutable():
    data = make_record()
    with pytest.raises(ValueError, match="read-only"):
        data.values[0, 0] = 1.0
    with pytest.raises(AttributeError):
        data.columns = ()


def test_dataset_values_must_be_rows_by_columns():
    with pytest.raises(ValueError, match="rows x columns"):
        RawDataset(("a",), ("t",), (MetricId.LOC,), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="rows x columns"):
        RawDataset(("a",), (), (MetricId.LOC,), np.zeros((1, 1)))


def test_feature_matrix_rejects_test_quality_features():
    with pytest.raises(ValueError, match="test-quality"):
        FeatureMatrix(feature_ids=(MetricId.M,), X=np.zeros((1, 1)), y=np.zeros(1))


def test_feature_matrix_rejects_ragged_and_nan():
    with pytest.raises(ValueError):
        FeatureMatrix(feature_ids=(MetricId.LOC,), X=np.zeros((2, 2)), y=np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        FeatureMatrix(
            feature_ids=(MetricId.LOC,), X=np.array([[np.nan]]), y=np.zeros(1)
        )


@given(
    st.lists(
        st.floats(min_value=0, max_value=1e6).map(lambda v: float(round(v, 6))),
        min_size=34, max_size=34,
    ),
    st.floats(min_value=0, max_value=1).map(lambda v: float(round(v, 9))),
)
def test_serialization_round_trip_is_identity(values, score):
    metrics = dict(zip(INDEPENDENT_VARIABLES, values))
    metrics[MetricId.M] = score
    # force integrality where the vocabulary demands it
    for metric in list(metrics):
        if metric in COUNT_METRICS:
            metrics[metric] = float(int(metrics[metric]))
        if metric in (MetricId.MFA, MetricId.DAM, MetricId.CAM):
            metrics[metric] = min(1.0, metrics[metric] / 1e6)
        if metric is MetricId.LCOM3:
            metrics[metric] = min(2.0, metrics[metric] / 1e6)
    metrics[MetricId.NMC] = metrics[MetricId.NMCI] + metrics[MetricId.NMCE]
    data = RawDataset(("p.C",), ("p.CTest",), tuple(metrics), [list(metrics.values())])
    columns = list(INDEPENDENT_VARIABLES) + [MetricId.M]
    buffer = io.StringIO()
    write_records_csv(buffer, data, columns)
    back = ingest_csv(buffer.getvalue())
    assert back.class_ids == data.class_ids
    assert back.test_ids == data.test_ids
    assert back.records == data.records


# -- the per-cell ingest loop the converting one replaced, kept as a reference ---
# percell_ingest_csv is ingest_csv as it was before whole rows were converted
# by one ``map(float, ...)``: every metric cell is stripped and parsed alone.


def percell_ingest_csv(stream, require=(), provenance=""):
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input: no header row") from None
    except csv.Error as exc:
        raise IngestError(f"row {reader.line_num}: {exc}") from None
    header = [h.strip() for h in header]

    metric_cols = {}
    id_cols = {}
    ignored = []
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
    row_nos = []
    ids = {}
    try:
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            parsed = []
            for i, metric in metric_cols.items():
                cell = row[i].strip() if i < len(row) else ""
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise BadCell(row_no, metric.column, cell) from None
            class_id = _id_cell(row_no, row, header, id_cols.get("class_id"))
            test_id = _id_cell(row_no, row, header, id_cols.get("test_id"))
            buffer.extend(parsed)
            row_nos.append(row_no)
            if (class_id, test_id) in ids:
                raise DuplicateRecord(class_id, test_id)
            ids[class_id, test_id] = None
    except csv.Error as exc:
        raise IngestError(f"row {reader.line_num}: {exc}") from None
    finally:
        values = np.frombuffer(buffer, dtype=np.float64).reshape(len(row_nos), len(metric_cols))
        values = values.take([last_cell[m] for m in columns], axis=1)
        _check_invariants(columns, values, row_nos)

    note = provenance
    if ignored:
        note = f"{provenance} (ignored columns: {', '.join(ignored)})".strip()
    return RawDataset([c for c, _ in ids], [t for _, t in ids], columns, values, note)


#: Whitespace that str.strip and float() both remove, ASCII and not.
SPACES = ["", " ", "\t", "\n", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028",
          "\u3000"]
#: Number spellings float() takes and refuses: signs, exponents, digit
#: separators, nan/inf spellings and non-ASCII digits.
NUMBERS = ["0", "-0", "+0", "1", "12", "0.25", "1.5", ".5", "5.", "1e3", "1E-2", "-3",
           "1_000", "1_0.2_5", "1__0", "_1", "1_", "1e1_0", "nan", "NaN", "-nan", "+nan",
           "inf", "-Inf", "+INF", "infinity", "-Infinity", "iNfInItY", "infinit", "nan1",
           "١٢", "٣.٥", "１２", "१e२", "1e400",
           "4.9e-324", "1e-400", "0x10", "1e", "--1", "1,5", "x", "", "1 2", "²"]
ODD_HEADERS = ["LOC", "LOCCOM", "AMC", "M"]


@st.composite
def odd_cells_csv(draw):
    """CSV text whose metric cells wrap a number spelling in whitespace, with
    short, blank and duplicate-id rows."""
    metrics = draw(st.lists(st.sampled_from(ODD_HEADERS), min_size=1, max_size=5))
    ids = draw(st.lists(st.sampled_from(["class_id", "test_id"]), unique=True))
    header = draw(st.permutations(metrics + ids))
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["full", "full", "full", "short", "blank", "duplicate"]))
        if shape == "duplicate" and len(rows) > 1:
            rows.append(list(draw(st.sampled_from(rows[1:]))))
            continue
        cells = [draw(st.sampled_from(["a", "b", " a"])) if name in ids else
                 draw(st.sampled_from(SPACES)) + draw(st.sampled_from(NUMBERS))
                 + draw(st.sampled_from(SPACES)) for name in header]
        if shape == "short":
            cells = cells[:draw(st.integers(0, len(cells)))]
        elif shape == "blank":
            cells = [draw(st.sampled_from(SPACES)) for _ in range(draw(st.integers(0, 2)))]
        rows.append(cells)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def exact_outcome(ingest, text):
    """The error's type and text, or the dataset with its values as bits."""
    try:
        data = ingest(text, provenance="in.csv")
    except Exception as exc:
        return type(exc), str(exc)
    return (data.class_ids, data.test_ids, data.columns, data.provenance,
            data.values.shape, data.values.view(np.uint64).tolist())


@settings(max_examples=800, deadline=None)
@given(odd_cells_csv())
def test_ingest_matches_the_per_cell_loop_bit_for_bit(text):
    assert exact_outcome(ingest_csv, text) == exact_outcome(percell_ingest_csv, text)


# -- loadtxt blocks against the csv row loop ---------------------------------------


#: A metric cell that passes every invariant of the ODD_HEADERS metrics.
CLEAN_CELL = "1"
#: Metric cells where the two readings could part: padded, Python-only and
#: non-ASCII spellings, a quoted or broken cell, and an invariant violation.
BLOCK_CELLS = ["1_0", " 1.5 ", "١", '"1"', "1\r5", "\x1c1", "", "x", "-0", "nan", "1e400",
               "2", "-1"]
ROW_KINDS = ["clean"] * 6 + ["odd", "repeat", "short", "blank", "spaces", "nul", "oversized",
                             "quoted"]


@st.composite
def blocked_csv(draw):
    """CSV text of mostly clean rows, so that loadtxt reads whole blocks,
    with an odd row anywhere: an odd cell, a repeated id, a short row, a
    blank or whitespace-only line, a NUL or an oversized field in an
    ignored column, or a quoted cell; and \\n, \\r\\n or \\r line ends."""
    metrics = draw(st.lists(st.sampled_from(ODD_HEADERS), min_size=1, unique=True))
    ids = draw(st.lists(st.sampled_from(["class_id", "test_id"]), unique=True))
    header = draw(st.permutations(metrics + ids + ["mystery"]))
    lines = [",".join(header)]
    for n in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(ROW_KINDS))
        cells = {name: f"{name[0]}{n}" for name in ids}
        cells.update({name: CLEAN_CELL for name in metrics}, mystery="p")
        if kind == "odd":
            cells[draw(st.sampled_from(metrics))] = draw(st.sampled_from(BLOCK_CELLS))
        elif kind == "repeat" and n:
            cells.update({name: f"{name[0]}{draw(st.integers(0, n - 1))}" for name in ids})
        elif kind == "nul":
            cells["mystery"] = "p\0q"
        elif kind == "oversized":
            cells["mystery"] = OVERSIZED_CELL
        elif kind == "quoted":
            cells[draw(st.sampled_from(ids + ["mystery"]))] = '"a,b"'
        line = ",".join(cells[name] for name in header)
        if kind == "short":
            line = line[:draw(st.integers(0, len(line) - 1))]
        elif kind == "blank":
            line = ""
        elif kind == "spaces":
            line = draw(st.sampled_from([" ", "\t", " , "]))
        lines.append(line)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"


def blocked_outcome(text, as_file, block_rows, loop_only):
    """``exact_outcome`` of ingesting ``text``, from a string or as a file
    opened with newline="", in blocks of ``block_rows``; with ``loop_only``
    every block goes to the csv row loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "CSV_BLOCK_ROWS", block_rows)
        if loop_only:
            patch.setattr(dataset, "_parse_block", lambda *args: False)
        return exact_outcome(ingest_csv, io.StringIO(text, newline="") if as_file else text)


@settings(max_examples=800, deadline=None)
@given(blocked_csv(), st.booleans(), st.sampled_from([1, 2, 3, 5, 1024]))
# a bad row on each side of the boundary of two 2-row blocks, either way round
@example("class_id,LOC,M\na,1,0.5\nb,x,0.5\nc,1,2\nd,1,0.5\n", False, 2)
@example("class_id,LOC,M\na,1,0.5\nb,1,2\nc,x,0.5\nd,1,0.5\n", False, 2)
def test_loadtxt_blocks_read_as_the_row_loop_does_bit_for_bit(text, as_file, block_rows):
    assert (blocked_outcome(text, as_file, block_rows, loop_only=False)
            == blocked_outcome(text, as_file, block_rows, loop_only=True))


def taken_blocks(text, block_rows, monkeypatch):
    """Whether ``_parse_block`` took each block it was given."""
    taken = []
    parse_block = dataset._parse_block
    monkeypatch.setattr(dataset, "CSV_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(dataset, "_parse_block", lambda *args: taken.append(
        parse_block(*args)) or taken[-1])
    exact_outcome(ingest_csv, text)
    return taken


def test_loadtxt_reads_every_block_of_a_clean_csv_and_the_loop_the_rest(monkeypatch):
    with open(os.path.join(FIXTURES, "metrics.csv"), encoding="utf-8", newline="") as handle:
        text = handle.read()
    rows = text.count("\n") - 1
    assert taken_blocks(text, 7, monkeypatch) == [True] * math.ceil(rows / 7)
    lines = text.splitlines(keepends=True)
    lines[9] = '"' + lines[9].replace(",", '",', 1)  # row 9 with its first cell quoted
    assert taken_blocks("".join(lines), 7, monkeypatch) == [True, False]


def test_ingest_keeps_the_sign_of_zero_and_names_the_first_bad_cell():
    data = ingest_csv("LOC,AMC\n-0, -0.0 \n")
    assert data.values.view(np.uint64).tolist() == [[1 << 63, 1 << 63]]
    with pytest.raises(BadCell, match=r"^row 3, column AMC: bad cell '1,5'$"):
        ingest_csv('LOC,AMC,M\n1,2,0.5\n١," 1,5 ",x\n')
    with pytest.raises(BadCell, match=r"^row 2, column M: bad cell ''$"):
        ingest_csv("LOC,AMC,M\n1,2\n")


# -- cell_columns against format_metric_value, cell by cell ---------------------


EDGE_COLUMNS = {
    MetricId.LOC: [0.0, -0.0, 3.0, 2.0**53 + 1, 2.0**53 + 2, 2.0**63 - 1024, 7.0, 1.0],
    MetricId.WMC: [1.0, 2.0**63, 5.0, 0.0, -0.0, 1e20, 2.0, 3.0],  # at or past 2**63
    MetricId.RFC: [2.0**63, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],  # just past int64
    MetricId.IC: [1.0, 1e19, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0],  # past int64, below 2**64
    MetricId.NOC: [1.0, 1.5, -0.0, 2.0, 0.25, 1e20, 4.0, 2.0**53 + 1],  # fractional counts
    MetricId.CBO: [-1.0, -(2.0**63), 0.0, 1.0, 2.0, 3.0, 4.0, 5.0],  # negative counts
    MetricId.AMC: [0.0, -0.0, 1.5, 1e20, 2.0**63, 1e-300, 5e-324, 3.0],  # a float column
    MetricId.M: [0.1, 0.2, 0.30000000000000004, 1.0, 0.0, -0.0, 1 / 3, 2 / 3],
    MetricId.LOCCOM: [float("nan"), float("inf"), -float("inf"), 1.0, 2.0, 3.0, 4.0, 5.0],
}


def test_cell_columns_equal_format_metric_value_on_edge_values():
    columns = tuple(EDGE_COLUMNS)
    data = RawDataset([f"c{i}" for i in range(8)], [f"t{i}" for i in range(8)], columns,
                      np.array(list(EDGE_COLUMNS.values())).T)
    expected = [[m.column, *(format_metric_value(m, v) for v in values)]
                for m, values in EDGE_COLUMNS.items()]
    assert cell_columns(data, columns)[2:] == expected
    assert expected[0][1:3] == ["0", "0"] and expected[1][6] == "100000000000000000000"
    assert expected[1][2] == expected[2][1] == "9223372036854775808"
    assert expected[3][2] == "10000000000000000000" and expected[4][2] == "1.5"


@pytest.mark.parametrize("value, error", [(float("nan"), ValueError),
                                          (float("inf"), OverflowError)])
def test_a_count_that_is_not_finite_fails_as_format_metric_value_does(value, error):
    data = RawDataset(["c"], ["t"], (MetricId.LOC,), [[value]])
    with pytest.raises(error):
        format_metric_value(MetricId.LOC, value)
    with pytest.raises(error):
        cell_columns(data, (MetricId.LOC,))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ALL_METRICS), st.lists(
    st.one_of(st.integers(-(2**64), 2**64).map(float), st.floats(allow_nan=False,
                                                                 allow_infinity=False)),
    min_size=3, max_size=3)), min_size=1, max_size=6, unique_by=lambda c: c[0]))
def test_cell_columns_equal_format_metric_value(columns):
    metrics = tuple(m for m, _ in columns)
    data = RawDataset(["a", "b", "c"], ["x", "y", "z"], metrics,
                      np.array([values for _, values in columns]).T)
    assert cell_columns(data, metrics)[2:] == [
        [m.column, *(format_metric_value(m, v) for v in values)] for m, values in columns]
