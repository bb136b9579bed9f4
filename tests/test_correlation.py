import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from testability.correlation import (
    DegenerateInput,
    LengthMismatch,
    average_ranks,
    correlation_table,
    spearman,
)
from testability.metrics import MetricId
from testability.dataset import RawDataset


# -- independent oracle: explicit rank assignment + textbook Pearson ---------

def oracle_ranks(values):
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def oracle_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = sum((a - mx) ** 2 for a in xs)
    vy = sum((b - my) ** 2 for b in ys)
    return cov / math.sqrt(vx * vy)


def oracle_spearman(xs, ys):
    return oracle_pearson(oracle_ranks(xs), oracle_ranks(ys))


def test_ranks_simple():
    assert list(average_ranks([10, 20, 30])) == [1, 2, 3]


def test_ranks_tie_average():
    assert list(average_ranks([5, 5])) == [1.5, 1.5]


def test_ranks_hand_case():
    assert list(average_ranks([3, 1, 3, 2])) == [3.5, 1, 3.5, 2]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=80),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
))
def test_ranks_equal_scipy_average_ranks(values):
    ranks = average_ranks(values)
    assert ranks.tolist() == rankdata(values, method="average").tolist()


def test_ranks_reject_an_empty_sequence():
    with pytest.raises(ValueError, match="empty"):
        average_ranks([])


def test_spearman_monotone():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0


def test_spearman_with_ties_matches_oracle():
    x = [1, 2, 2, 4]
    y = [1, 3, 2, 4]
    assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-12)


def test_spearman_errors():
    with pytest.raises(LengthMismatch):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(DegenerateInput):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        spearman([1, 2], [1, 2])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=3, max_value=100), st.randoms(use_true_random=False))
def test_spearman_agrees_with_bruteforce_on_tied_sequences(n, rnd):
    # draw from a small value set to force heavy ties
    x = [rnd.randint(0, 6) for _ in range(n)]
    y = [rnd.randint(0, 6) for _ in range(n)]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-12)
    assert spearman(x, y) == pytest.approx(spearman(y, x), abs=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=60), st.randoms(use_true_random=False))
def test_spearman_invariant_under_strictly_increasing_transforms(n, rnd):
    x = [rnd.randint(0, 9) for _ in range(n)]
    y = [rnd.uniform(0, 1) for _ in range(n)]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    fx = [math.exp(v) + v for v in x]  # strictly increasing
    assert spearman(fx, y) == pytest.approx(spearman(x, y), abs=1e-12)
    negated = [-v for v in x]
    if len(set(x)) >= 2:
        assert spearman(x, negated) == pytest.approx(-1.0, abs=1e-12)


def _dataset(columns: dict[MetricId, list[float]]):
    n = len(next(iter(columns.values())))
    return RawDataset([f"c{i}" for i in range(n)], [f"t{i}" for i in range(n)],
                      tuple(columns), np.column_stack(list(columns.values())))


def test_correlation_table_perfect_feature():
    data = _dataset({
        MetricId.LOC: [1, 2, 3, 4, 5, 6],
        MetricId.WMC: [3, 1, 4, 1, 5, 9],
        MetricId.M: [0.1, 0.2, 0.3, 0.5, 0.7, 0.9],
    })
    report = correlation_table(data, features=[MetricId.LOC, MetricId.WMC])
    as_dict = dict(report.full_table)
    assert as_dict[MetricId.LOC] == pytest.approx(1.0)
    assert [m for m, _ in report.entries][0] is MetricId.LOC
    assert report.population == 6
    assert report.population_kind == "raw"


def test_correlation_table_filters_by_threshold_and_sorts():
    data = _dataset({
        MetricId.LOC: [1, 2, 3, 4, 5, 6],
        MetricId.WMC: [6, 5, 4, 3, 2, 1],
        MetricId.NOF: [1, 2, 1, 2, 1, 2],
        MetricId.M: [0.1, 0.2, 0.3, 0.5, 0.7, 0.9],
    })
    report = correlation_table(
        data, features=[MetricId.LOC, MetricId.WMC, MetricId.NOF], threshold=0.5
    )
    names = [m.column for m, _ in report.entries]
    assert "NOF" not in names
    magnitudes = [abs(r) for _, r in report.entries]
    assert magnitudes == sorted(magnitudes, reverse=True)
    assert all(m >= 0.5 for m in magnitudes)


def test_correlation_table_skips_constant_metrics():
    data = _dataset({
        MetricId.LOC: [1, 1, 1, 1],
        MetricId.M: [0.1, 0.2, 0.3, 0.4],
    })
    report = correlation_table(data, features=[MetricId.LOC])
    assert report.full_table == ()
    assert report.skipped[0][0] is MetricId.LOC
