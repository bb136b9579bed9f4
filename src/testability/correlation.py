"""Tie-aware Spearman rank correlation and the per-metric correlation table.

rho is computed as the Pearson correlation of average ranks, never via the
6*sum(d^2)/n(n^2-1) shortcut: the shortcut is wrong under ties and real
metric data is tie-heavy. The table reads one feature column at a time,
so it holds no copy of the feature block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import INDEPENDENT_VARIABLES, MetricId
from .dataset import LabeledDataset, RawDataset, check_columns


class LengthMismatch(ValueError):
    pass


class DegenerateInput(ValueError):
    """A sequence is constant (or too short), so ranks carry no information."""


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Rank values ascending from 1; ties share the mean of their positions.

    [3, 1, 3, 2] -> [3.5, 1, 3.5, 2]
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot rank an empty sequence")
    order = np.argsort(v, kind="stable")
    s = v[order]
    # sorted positions start..end-1 (0-based) hold one value; mean 1-based rank
    start = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    end = np.append(start[1:], v.size)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((start + end - 1) / 2.0 + 1.0, end - start)
    return ranks


#: Why a constant sequence has no Spearman correlation.
_CONSTANT = "constant sequence has no rank ordering"


def _centred_ranks(values: np.ndarray) -> np.ndarray | None:
    """Twice the average ranks of ``values`` minus their mean, as int64; None
    when ``values`` is constant, since then the ranks carry no ordering.

    An average rank is a multiple of 0.5 and the mean rank is (n + 1) / 2,
    so the doubled, centred ranks are exact integers.
    """
    if np.all(values == values[0]):
        return None
    doubled = (average_ranks(values) * 2).astype(np.int64)
    doubled -= values.size + 1
    return doubled


def _rho(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two centred rank vectors, clipped to [-1, 1].

    ``rx`` and ``ry`` are doubled as ``_centred_ranks`` gives them, so the
    three dot products are exact int64 sums, with no BLAS call, and each
    divided by 4 is the float ``@`` of the centred ranks bit for bit: every
    product is a multiple of 1/4, and every partial sum of the float form
    stays below 2**53 / 4, where such multiples are exact. By
    Cauchy-Schwarz the partial sums are at most (n**3 - n) / 12 in
    magnitude, which keeps them below that bound up to about 300k rows;
    the int64 sums stay exact far beyond that.
    """
    sxy, sxx, syy = (int(a @ b) / 4 for a, b in ((rx, ry), (rx, rx), (ry, ry)))
    rho = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, rho))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho: Pearson correlation of the two rank vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"length {x.size} vs {y.size}")
    if x.size < 3:
        raise DegenerateInput("need at least 3 observations")
    rx, ry = _centred_ranks(x), _centred_ranks(y)
    if rx is None or ry is None:
        raise DegenerateInput(_CONSTANT)
    return _rho(rx, ry)


@dataclass(frozen=True)
class CorrelationReport:
    """Per-metric rho against the target, with the reporting filter applied.

    ``entries`` holds the metrics with |rho| >= threshold, sorted by |rho|
    descending; ``full_table`` retains every computed rho for export;
    ``skipped`` lists metrics whose correlation was undefined, with the
    reason.
    """

    entries: tuple[tuple[MetricId, float], ...]
    full_table: tuple[tuple[MetricId, float], ...]
    skipped: tuple[tuple[MetricId, str], ...]
    threshold: float
    population: int
    population_kind: str


def correlation_table(
    data: RawDataset | LabeledDataset,
    target: MetricId = MetricId.M,
    threshold: float = 0.5,
    features: Sequence[MetricId] = INDEPENDENT_VARIABLES,
) -> CorrelationReport:
    """Correlate each independent variable with the target metric.

    Accepts the raw (pre-filter) dataset or the labeled subset; the report
    records which population was used, since the choice changes the
    coefficients.
    """
    if isinstance(data, LabeledDataset):
        data, kind = data.kept, "labeled"
    else:
        kind = "raw"
    if len(data) < 3:
        raise DegenerateInput("need at least 3 records")
    target_ranks = _centred_ranks(data.column(target))  # ranked once for every feature
    full: list[tuple[MetricId, float]] = []
    skipped: list[tuple[MetricId, str]] = []
    check_columns(data.columns, features)
    for metric in features:
        ranks = None if target_ranks is None else _centred_ranks(data.column(metric))
        if ranks is None:
            skipped.append((metric, _CONSTANT))
        else:
            full.append((metric, _rho(ranks, target_ranks)))
    entries = sorted(
        (e for e in full if abs(e[1]) >= threshold),
        key=lambda e: (-abs(e[1]), e[0].column),
    )
    return CorrelationReport(
        entries=tuple(entries),
        full_table=tuple(full),
        skipped=tuple(skipped),
        threshold=threshold,
        population=len(data),
        population_kind=kind,
    )
