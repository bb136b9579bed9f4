from testability.metrics import (
    ALL_METRICS,
    CODE_METRICS,
    COUNT_METRICS,
    INDEPENDENT_VARIABLES,
    TEST_EFFORT_METRICS,
    TEST_QUALITY_METRICS,
    _GROUPS,
    DesignProperty,
    MetricId,
    metric_for_column,
)

GROUPS = {
    DesignProperty.SIZE: {"LOC", "NBI", "LOCCOM", "NPM", "NSTAM", "NOF", "NSTAF",
                          "NMC", "NMCI", "NMCE"},
    DesignProperty.COMPLEXITY: {"WMC", "AMC", "RFC"},
    DesignProperty.INHERITANCE: {"DIT", "NOC", "MFA"},
    DesignProperty.COUPLING: {"CBO", "IC", "CBM", "Ca", "Ce"},
    DesignProperty.COHESION: {"LCOM", "LCOM3", "CAM"},
    DesignProperty.ENCAPSULATION: {"DAM", "NPRIF", "NPRIM", "NPROM"},
    DesignProperty.TEST_EFFORT: {"T-LOC", "T-NOT", "T-NOA", "T-NMC", "T-WMC", "T-AMC"},
    DesignProperty.TEST_QUALITY: {"L", "B", "M"},
}


def test_exactly_37_members():
    assert len(MetricId) == 37
    assert len(ALL_METRICS) == 37


def test_groups_partition_the_vocabulary():
    assert set(_GROUPS) == set(DesignProperty) == set(GROUPS)
    seen = set()
    for prop, expected in GROUPS.items():
        members = {m.column for m in _GROUPS[prop]}
        assert len(members) == len(_GROUPS[prop])
        assert members == expected
        assert not members & seen
        seen |= members
    assert seen == {m.column for m in MetricId}


def test_independent_variables_are_code_plus_test_effort():
    assert len(CODE_METRICS) == 28
    assert len(TEST_EFFORT_METRICS) == 6
    assert len(INDEPENDENT_VARIABLES) == 34
    assert set(INDEPENDENT_VARIABLES) == set(CODE_METRICS) | set(TEST_EFFORT_METRICS)
    assert not set(INDEPENDENT_VARIABLES) & set(TEST_QUALITY_METRICS)


def test_canonical_column_lookup():
    assert metric_for_column("LOC") is MetricId.LOC
    assert metric_for_column("T-NOT") is MetricId.T_NOT
    assert metric_for_column("Ca") is MetricId.CA
    assert metric_for_column("M") is MetricId.M
    assert metric_for_column("bogus") is None


def test_count_metrics_match_declared_set():
    # the validation list: every count metric, LOCCOM and the ratios excluded
    assert MetricId.LOCCOM not in COUNT_METRICS
    assert MetricId.AMC not in COUNT_METRICS
    assert MetricId.T_AMC not in COUNT_METRICS
    assert MetricId.LCOM in COUNT_METRICS
    assert len(COUNT_METRICS) == 27
