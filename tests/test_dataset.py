import csv
import io
import math
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, TextIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testability.dataset import (
    _ID_COLUMNS,
    METADATA_COLUMNS,
    BadCell,
    DegenerateSplit,
    DuplicateRecord,
    ForbiddenFeature,
    IngestError,
    InvalidRecord,
    MissingColumn,
    RawDataset,
    TooFewValues,
    compute_quartiles,
    ingest_csv,
    label_by_quartiles,
    to_feature_matrix,
)
from testability.metrics import (
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
