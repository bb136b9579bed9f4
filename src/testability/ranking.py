"""Feature ranking: Gain Ratio, Information Gain, Symmetric Uncertainty, OneR.

The three entropy measures score features after supervised entropy-
minimization discretization with the MDL stopping criterion; OneR uses its
own minimum-bucket discretization and scores by one-rule training
accuracy. All four depend on the data only through value order and label
alignment, so scores are invariant under strictly increasing per-feature
transforms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .learn.tree import entropy_bits
from .metrics import MetricId
from .records import FeatureMatrix


class RankingAlgorithm(enum.Enum):
    GAIN_RATIO = "GainRatio"
    INFO_GAIN = "InfoGain"
    SYMMETRIC_UNCERTAINTY = "SymmetricUncertainty"
    ONE_R = "OneR"


@dataclass(frozen=True)
class Discretization:
    """Cut points splitting a numeric feature into bins.

    Empty cut_points means the feature was uninformative under the MDL
    criterion (a single bin).
    """

    cut_points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(c) for c in self.cut_points)
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("cut points must be strictly increasing")
        object.__setattr__(self, "cut_points", pts)

    def apply(self, values: Sequence[float]) -> np.ndarray:
        """Bin index per value; a value equal to a cut point goes left."""
        return np.searchsorted(
            np.asarray(self.cut_points), np.asarray(values, dtype=np.float64), side="left"
        )


@dataclass(frozen=True)
class RankingTable:
    algorithm: RankingAlgorithm
    entries: tuple[tuple[MetricId, float], ...]  # sorted by score descending


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a non-negative count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def mdl_discretize(
    feature: Sequence[float], labels: Sequence[int]
) -> Discretization:
    """Recursive entropy-minimization binning with the MDL acceptance test.

    Each step picks the boundary cut minimizing the partition's class
    entropy and keeps it only if the information gain exceeds
    log2(N-1)/N + delta/N, where
    delta = log2(3^k - 2) - [k*H(S) - k1*H(S1) - k2*H(S2)]
    and k counts the classes present in the segment. No accepted cut means
    an empty discretization.
    """
    x = np.asarray(feature, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if x.shape != y.shape:
        raise ValueError("feature and labels must have equal length")
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    # collapse to distinct-value groups with per-class counts
    starts = np.concatenate(([0], np.nonzero(xs[1:] != xs[:-1])[0] + 1))
    values = xs[starts]
    counts = np.zeros((values.size, 2), dtype=np.int64)
    np.add.at(counts, (np.searchsorted(values, xs), ys), 1)
    # a cut between two groups pure in the same class can never be optimal
    pure_same = (
        ((counts[:-1, 0] == 0) & (counts[1:, 0] == 0))
        | ((counts[:-1, 1] == 0) & (counts[1:, 1] == 0))
    )

    cuts: list[float] = []
    stack: list[tuple[int, int]] = [(0, values.size)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        seg = counts[lo:hi]
        total = seg.sum(axis=0)
        n = int(total.sum())
        if n < 2:
            continue
        candidates = ~pure_same[lo : hi - 1]
        if not candidates.any():
            continue
        left = np.cumsum(seg[:-1], axis=0)
        right = total - left
        n_left = left.sum(axis=1).astype(np.float64)
        n_right = n - n_left
        weighted = (
            n_left * entropy_bits(left[:, 1], n_left)
            + n_right * entropy_bits(right[:, 1], n_right)
        ) / n
        i = int(np.argmin(np.where(candidates, weighted, np.inf)))
        h_parent = _entropy(total)
        gain = h_parent - float(weighted[i])
        k = int(np.count_nonzero(total))
        k1 = int(np.count_nonzero(left[i]))
        k2 = int(np.count_nonzero(right[i]))
        delta = math.log2(3**k - 2) - (
            k * h_parent - k1 * _entropy(left[i]) - k2 * _entropy(right[i])
        )
        if gain <= (math.log2(n - 1) + delta) / n:
            continue
        b = lo + i + 1
        cuts.append((values[b - 1] + values[b]) / 2.0)
        stack.append((lo, b))
        stack.append((b, hi))

    return Discretization(cut_points=tuple(sorted(cuts)))


def _contingency(bins: Sequence[int], labels: Sequence[int]) -> np.ndarray:
    """Per-bin class counts: row b holds (NonEffective, Effective) in bin b."""
    b = np.asarray(bins, dtype=np.intp)
    table = np.zeros((int(b.max()) + 1 if b.size else 1, 2), dtype=np.int64)
    np.add.at(table, (b, np.asarray(labels, dtype=np.intp)), 1)
    return table


def info_gain(bins: Sequence[int], labels: Sequence[int]) -> float:
    """H(class) - H(class | binned feature), in bits; never negative."""
    table = _contingency(bins, labels)
    n = table.sum()
    h_class = _entropy(table.sum(axis=0))
    conditional = sum(
        row.sum() / n * _entropy(row) for row in table if row.sum() > 0
    )
    return max(0.0, h_class - float(conditional))


def gain_ratio(bins: Sequence[int], labels: Sequence[int]) -> float:
    """Information gain normalized by the binned feature's own entropy."""
    h_feature = _entropy(_contingency(bins, labels).sum(axis=1))
    if h_feature == 0.0:
        return 0.0
    return info_gain(bins, labels) / h_feature


def symmetric_uncertainty(
    bins: Sequence[int], labels: Sequence[int]
) -> float:
    """2*IG / (H(class) + H(feature)), in [0, 1]."""
    table = _contingency(bins, labels)
    denom = _entropy(table.sum(axis=1)) + _entropy(table.sum(axis=0))
    if denom == 0.0:
        return 0.0
    return 2.0 * info_gain(bins, labels) / denom


def oner_score(
    feature: Sequence[float],
    labels: Sequence[int],
    min_bucket: int = 6,
) -> float:
    """Training accuracy of the one-rule built on this feature alone.

    Sorted values are grouped into buckets of at least ``min_bucket`` rows,
    closing a bucket only between distinct values; a short tail bucket is
    merged backwards. Each bucket predicts its majority class.
    """
    x = np.asarray(feature, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if x.size < 2:
        raise ValueError("need at least 2 rows")
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    bounds = [0]  # bucket edges in sorted order
    for end in np.append(np.flatnonzero(xs[1:] != xs[:-1]) + 1, x.size).tolist():
        if end - bounds[-1] >= min_bucket:
            bounds.append(end)
    if len(bounds) == 1:
        bounds.append(x.size)
    bounds[-1] = x.size  # a short tail joins the last bucket
    effective = np.diff(np.concatenate(([0], np.cumsum(ys)))[bounds])
    correct = np.maximum(effective, np.diff(bounds) - effective).sum()
    return int(correct) / x.size


def rank_features(matrix: FeatureMatrix, algorithm: RankingAlgorithm) -> RankingTable:
    """Score every feature column; sort descending, ties alphabetical."""
    y = matrix.y.astype(np.intp)
    entries: list[tuple[MetricId, float]] = []
    for j, metric in enumerate(matrix.feature_ids):
        column = matrix.X[:, j]
        if algorithm is RankingAlgorithm.ONE_R:
            score = oner_score(column, y)
        else:
            bins = mdl_discretize(column, y).apply(column)
            if algorithm is RankingAlgorithm.INFO_GAIN:
                score = info_gain(bins, y)
            elif algorithm is RankingAlgorithm.GAIN_RATIO:
                score = gain_ratio(bins, y)
            else:
                score = symmetric_uncertainty(bins, y)
        entries.append((metric, score))
    entries.sort(key=lambda e: (-e[1], e[0].column))
    return RankingTable(algorithm=algorithm, entries=tuple(entries))
