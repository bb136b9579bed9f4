"""Feature ranking: Gain Ratio, Information Gain, Symmetric Uncertainty, OneR.

Every ranker reads a column through one table, ``value_counts``: each
distinct value, ascending, with its (NonEffective, Effective) row count.
The three entropy measures score features after supervised entropy-
minimization discretization with the MDL stopping criterion, from the
class counts of its bins; OneR uses its own minimum-bucket discretization
and scores by one-rule training accuracy. All four depend on the data
only through value order and label alignment, so scores are invariant
under strictly increasing per-feature transforms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import FeatureMatrix
from .learn.tree import _xlog2x, entropy_bits, midpoints, value_counts
from .metrics import MetricId


class RankingAlgorithm(enum.Enum):
    GAIN_RATIO = "GainRatio"
    INFO_GAIN = "InfoGain"
    SYMMETRIC_UNCERTAINTY = "SymmetricUncertainty"
    ONE_R = "OneR"


@dataclass(frozen=True, eq=False)
class Discretization:
    """Cut points splitting a numeric feature into bins, with each bin's class counts.

    ``table[b]`` holds bin b's (NonEffective, Effective) row counts. Empty
    cut_points means the feature is uninformative under MDL (a single bin).
    """

    cut_points: tuple[float, ...]
    table: np.ndarray


@dataclass(frozen=True)
class RankingTable:
    algorithm: RankingAlgorithm
    entries: tuple[tuple[MetricId, float], ...]  # sorted by score descending


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a count vector with a positive total.

    Summing the zero terms is exact only because every vector this gets has
    length 2 or holds no zero: numpy sums a longer vector in partial sums
    that a zero can regroup, which may change the last bit.
    """
    return float(-_xlog2x(counts / counts.sum()).sum())


def mdl_discretize(feature: Sequence[float], labels: Sequence[int]) -> Discretization:
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
    values, counts = value_counts(x, y)
    # a cut between two groups pure in the same class can never be optimal
    pure_same = ((counts[:-1] == 0) & (counts[1:] == 0)).any(axis=1)

    starts: list[int] = []  # the first distinct value of each bin but the first
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
        starts.append(b)
        stack.append((lo, b))
        stack.append((b, hi))

    at = np.array(sorted(starts), dtype=np.intp)
    return Discretization(cut_points=tuple(midpoints(values[at - 1], values[at]).tolist()),
                          table=np.add.reduceat(counts, np.r_[0, at]))


def entropy_scores(table: np.ndarray) -> dict[RankingAlgorithm, float]:
    """The three entropy measures, in bits, of per-bin class counts with no empty bin.

    Info gain is H(class) - H(class | bin), never negative. Gain ratio
    divides it by the bins' own entropy, and symmetric uncertainty is
    2*IG / (H(class) + H(bin)), in [0, 1]; each is 0 where its denominator is.
    """
    n = table.sum()
    h_class = _entropy(table.sum(axis=0))
    h_bins = _entropy(table.sum(axis=1))
    conditional = sum(row.sum() / n * _entropy(row) for row in table)
    gain = max(0.0, h_class - float(conditional))
    denom = h_bins + h_class
    return {
        RankingAlgorithm.INFO_GAIN: gain,
        RankingAlgorithm.GAIN_RATIO: gain / h_bins if h_bins != 0.0 else 0.0,
        RankingAlgorithm.SYMMETRIC_UNCERTAINTY: 2.0 * gain / denom if denom != 0.0 else 0.0,
    }


def oner_score(feature: Sequence[float], labels: Sequence[int], min_bucket: int = 6) -> float:
    """Training accuracy of the one-rule built on this feature alone.

    Sorted values are grouped into buckets of at least ``min_bucket`` rows,
    closing a bucket only between distinct values; a short tail bucket is
    merged backwards. Each bucket predicts its majority class.
    """
    x = np.asarray(feature, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if x.size < 2:
        raise ValueError("need at least 2 rows")
    _, counts = value_counts(x, y)
    starts, closed = [0], 0  # each bucket's first distinct value; rows in closed buckets
    for g, end in enumerate(np.cumsum(counts.sum(axis=1)).tolist(), start=1):
        if end - closed >= min_bucket:
            starts.append(g)
            closed = end
    # the last start opens a short tail, or no bucket: either way it joins the one before
    buckets = np.add.reduceat(counts, starts[: max(1, len(starts) - 1)])
    return int(buckets.max(axis=1).sum()) / x.size


def rank_features(matrix: FeatureMatrix, algorithm: RankingAlgorithm) -> RankingTable:
    """Score every feature column; sort descending, ties in column-name order."""
    (table,) = _rank(matrix, (algorithm,))
    return table


def rank_all(matrix: FeatureMatrix) -> list[RankingTable]:
    """``rank_features`` for each algorithm, in ``RankingAlgorithm`` order,
    discretizing each column once for the three entropy measures."""
    return _rank(matrix, tuple(RankingAlgorithm))


def _rank(matrix: FeatureMatrix, algorithms: tuple[RankingAlgorithm, ...]) -> list[RankingTable]:
    if matrix.n_rows < 2:
        raise ValueError(f"ranking needs at least 2 labeled rows, got {matrix.n_rows}")
    y = matrix.y.astype(np.intp)
    entropy = any(a is not RankingAlgorithm.ONE_R for a in algorithms)
    entries: dict[RankingAlgorithm, list[tuple[MetricId, float]]] = {a: [] for a in algorithms}
    for j, metric in enumerate(matrix.feature_ids):
        column = matrix.X[:, j]
        scores = entropy_scores(mdl_discretize(column, y).table) if entropy else {}
        if RankingAlgorithm.ONE_R in entries:
            scores[RankingAlgorithm.ONE_R] = oner_score(column, y)
        for algorithm, scored in entries.items():
            scored.append((metric, scores[algorithm]))
    for scored in entries.values():
        scored.sort(key=lambda e: (-e[1], e[0].column))
    return [RankingTable(algorithm=a, entries=tuple(e)) for a, e in entries.items()]
