"""The record tests live in test_dataset.py, beside the other tests of
``dataset.py``; importing them here keeps their test ids under this module."""

from test_dataset import (  # noqa: F401
    test_count_integrality_and_sign,
    test_dam_range_violation,
    test_dataset_values_must_be_rows_by_columns,
    test_feature_matrix_rejects_ragged_and_nan,
    test_feature_matrix_rejects_test_quality_features,
    test_lcom3_upper_range,
    test_nmc_identity_violation,
    test_records_are_immutable,
    test_serialization_round_trip_is_identity,
    test_valid_record_has_no_violations,
    test_violations_are_listed_by_column_then_check,
)
