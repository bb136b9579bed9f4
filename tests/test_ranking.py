import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import entropy

from conftest import FIXTURES
from testability.dataset import FeatureMatrix, ingest_csv, label_by_quartiles, to_feature_matrix
from testability.learn.tree import entropy_bits, value_counts
from testability.metrics import INDEPENDENT_VARIABLES
from testability.ranking import (
    RankingAlgorithm,
    entropy_scores,
    mdl_discretize,
    oner_score,
    rank_all,
    rank_features,
)


# -- the distinct-value count table ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 1e300]),
                          st.integers(0, 1)), max_size=40))
def test_value_counts_match_a_row_by_row_reference(pairs):
    reference: dict[float, list[int]] = {}
    for value, label in pairs:  # -0.0 and 0.0 are one dict key, as they are equal
        reference.setdefault(value, [0, 0])[label] += 1
    x = np.array([value for value, _ in pairs], dtype=np.float64)
    values, counts = value_counts(x, np.array([label for _, label in pairs], dtype=np.intp))
    assert values.tolist() == sorted(reference)
    assert counts.tolist() == [reference[v] for v in sorted(reference)]


# -- MDL discretization ------------------------------------------------------------


def test_mdl_cuts_once_between_two_pure_halves():
    # gain 1 bit > (log2(7) + log2(7) - 2) / 8 = 0.452, and both halves are pure
    assert mdl_discretize(range(1, 9), [0] * 4 + [1] * 4).cut_points == (4.5,)


def test_mdl_rejects_a_cut_on_alternating_labels():
    # best cut gains 0.311 bits, under the MDL bar of 1.057 bits for n = 4
    assert mdl_discretize([1, 2, 3, 4], [0, 1, 0, 1]).cut_points == ()


def test_mdl_recurses_into_the_mixed_side():
    # three runs of 20: NonEffective, Effective, NonEffective. The first cut
    # ties between 20.5 and 40.5 (weighted entropy 2/3) and the lower wins;
    # it gains 0.252 bits against a bar of 0.148, and the mixed right half
    # then splits at 40.5 (gain 1 bit against 0.152).
    x = np.arange(1, 61)
    y = [0] * 20 + [1] * 20 + [0] * 20
    assert mdl_discretize(x, y).cut_points == (20.5, 40.5)


def test_mdl_cuts_at_the_midpoint_between_distinct_values():
    x = [1, 1, 1, 1, 3, 3, 3, 3]
    assert mdl_discretize(x, [0] * 4 + [1] * 4).cut_points == (2.0,)


@pytest.mark.parametrize("low, high", [(1 + 2**-52, 1 + 2**-51), (1e308, 1.7e308)],
                         ids=["midpoint-rounds-to-high", "midpoint-overflows"])
def test_mdl_cuts_at_the_lower_value_where_the_midpoint_fails(low, high):
    with np.errstate(all="raise"):
        cuts = mdl_discretize([low] * 8 + [high] * 8, [0] * 8 + [1] * 8).cut_points
    assert cuts == (low,)


# -- OneR --------------------------------------------------------------------------


def test_oner_buckets_of_six_vote_by_majority():
    # buckets {1..6} -> 5 NonEffective of 6, {7..12} -> 5 Effective of 6
    y = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0]
    assert oner_score(range(1, 13), y) == 10 / 12


def test_oner_merges_a_short_tail_into_the_last_bucket():
    # the run of seven 1s closes a bucket; the five 2s are too few for their
    # own, so they join it and the single bucket predicts NonEffective
    x = [1] * 7 + [2] * 5
    y = [0] * 7 + [1] * 5
    assert oner_score(x, y) == 7 / 12
    assert oner_score(x, y, min_bucket=5) == 1.0


def test_oner_keeps_equal_values_in_one_bucket():
    # min_bucket 2 would split after the second row, but rows 1-3 share a value
    x = [1, 1, 1, 2, 2, 3]
    y = [0, 1, 0, 1, 1, 1]
    assert oner_score(x, y, min_bucket=2) == 5 / 6


def reference_oner(x, y, min_bucket):
    """Row-by-row OneR buckets: close at a value change once min_bucket rows are in."""
    rows = sorted(zip(x, y), key=lambda row: row[0])
    buckets, current = [], [0, 0]
    for i, (value, label) in enumerate(rows):
        current[label] += 1
        run_ends = i + 1 == len(rows) or rows[i + 1][0] != value
        if run_ends and sum(current) >= min_bucket:
            buckets.append(current)
            current = [0, 0]
    if sum(current):  # a short tail joins the last bucket
        if buckets:
            buckets[-1] = [a + b for a, b in zip(buckets[-1], current)]
        else:
            buckets.append(current)
    return sum(max(b) for b in buckets) / len(rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=2, max_size=60),
       st.integers(1, 8))
def test_oner_matches_a_row_by_row_reference(pairs, min_bucket):
    x, y = zip(*pairs)
    assert oner_score(x, y, min_bucket=min_bucket) == reference_oner(x, y, min_bucket)


def test_oner_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2 rows"):
        oner_score([1.0], [1])


# -- entropy measures against scipy ------------------------------------------------


def _oracle(bins, labels):
    bins, labels = np.asarray(bins), np.asarray(labels)
    table = np.array([[np.sum((bins == b) & (labels == c)) for c in (0, 1)]
                      for b in range(bins.max() + 1)])
    h_class = entropy(table.sum(axis=0), base=2)
    h_bins = entropy(table.sum(axis=1), base=2)
    n = table.sum()
    conditional = sum(row.sum() / n * entropy(row, base=2) for row in table if row.sum())
    return h_class, h_bins, h_class - conditional


def _bin_table(bins, labels):
    """Per-bin (NonEffective, Effective) counts of the occupied bins, in bin order."""
    table = np.zeros((max(bins) + 1, 2), dtype=np.int64)
    np.add.at(table, (np.asarray(bins), np.asarray(labels)), 1)
    return table[table.sum(axis=1) > 0]


def _assert_matches_oracle(scores, bins, labels):
    h_class, h_bins, gain = _oracle(bins, labels)
    assert scores[RankingAlgorithm.INFO_GAIN] == pytest.approx(max(gain, 0.0), abs=1e-12)
    expected_ratio = gain / h_bins if h_bins > 0 else 0.0
    assert scores[RankingAlgorithm.GAIN_RATIO] == pytest.approx(expected_ratio, abs=1e-9)
    denom = h_class + h_bins
    expected_su = 2 * gain / denom if denom > 0 else 0.0
    assert scores[RankingAlgorithm.SYMMETRIC_UNCERTAINTY] == pytest.approx(expected_su, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=2, max_size=60))
def test_entropy_measures_match_scipy(pairs):
    bins, labels = zip(*pairs)
    _assert_matches_oracle(entropy_scores(_bin_table(bins, labels)), bins, labels)


# -- rank_features -----------------------------------------------------------------


FEATURES = INDEPENDENT_VARIABLES[:4]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-5, 5), min_size=len(FEATURES),
                                   max_size=len(FEATURES)), st.integers(0, 1)),
                min_size=2, max_size=40))
def test_rank_features_keeps_its_documented_claims(rows):
    X = np.array([cells for cells, _ in rows], dtype=np.float64)
    y = np.array([label for _, label in rows])
    matrix = FeatureMatrix(feature_ids=FEATURES, X=X, y=y)
    increasing = FeatureMatrix(feature_ids=FEATURES, X=X**3 + 5 * X, y=y)
    scores = {}
    for algorithm in RankingAlgorithm:
        table = rank_features(matrix, algorithm)
        assert table.algorithm is algorithm
        # unchanged, exactly, under a strictly increasing transform of each feature
        assert rank_features(increasing, algorithm).entries == table.entries
        assert {metric for metric, _ in table.entries} == set(FEATURES)
        assert list(table.entries) == sorted(table.entries, key=lambda e: (-e[1], e[0].column))
        scores[algorithm] = dict(table.entries)
    for j, metric in enumerate(FEATURES):  # each entropy score against scipy on the MDL bins
        bins = np.searchsorted(mdl_discretize(X[:, j], y).cut_points, X[:, j], side="left")
        _assert_matches_oracle({a: s[metric] for a, s in scores.items()}, bins, y)


def assert_rank_all_is_the_four_rankings(matrix):
    tables = rank_all(matrix)
    assert [t.algorithm for t in tables] == list(RankingAlgorithm)
    assert tables == [rank_features(matrix, algorithm) for algorithm in RankingAlgorithm]


def test_rank_all_equals_each_ranking_on_the_fixture():
    with open(os.path.join(FIXTURES, "metrics.csv"), encoding="utf-8", newline="") as handle:
        assert_rank_all_is_the_four_rankings(
            to_feature_matrix(label_by_quartiles(ingest_csv(handle))))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=len(FEATURES),
                                   max_size=len(FEATURES)), st.integers(0, 1)),
                min_size=2, max_size=40))
def test_rank_all_equals_each_ranking_on_tie_heavy_matrices(rows):
    X = np.array([cells for cells, _ in rows], dtype=np.float64)
    y = np.array([label for _, label in rows])
    assert_rank_all_is_the_four_rankings(FeatureMatrix(feature_ids=FEATURES, X=X, y=y))


def test_binary_entropy_matches_scipy():
    pos = np.array([0, 1, 3, 5, 7, 0])
    n = np.array([7, 7, 7, 10, 7, 0])
    expected = [entropy([p, m - p], base=2) if m else 0.0 for p, m in zip(pos, n)]
    assert np.allclose(entropy_bits(pos, n), expected, rtol=0, atol=1e-15)
