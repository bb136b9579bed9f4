import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from testability.dataset import InvalidRecord, RawDataset, ingest_csv, write_records_csv
from testability.metrics import COUNT_METRICS, INDEPENDENT_VARIABLES, MetricId
from testability.records import EffectivenessLabel, FeatureMatrix

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


def test_labels_enum_is_binary():
    assert {l.value for l in EffectivenessLabel} == {0, 1}


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
