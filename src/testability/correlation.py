"""Tie-aware Spearman rank correlation and the per-metric correlation table.

rho is computed as the Pearson correlation of average ranks, never via the
6*sum(d^2)/n(n^2-1) shortcut: the shortcut is wrong under ties and real
metric data is tie-heavy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import INDEPENDENT_VARIABLES, MetricId
from .dataset import LabeledDataset, RawDataset


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


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho: Pearson correlation of the two rank vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"length {x.size} vs {y.size}")
    if x.size < 3:
        raise DegenerateInput("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInput("constant sequence has no rank ordering")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
    return max(-1.0, min(1.0, rho))


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
    target_values = data.column(target)
    full: list[tuple[MetricId, float]] = []
    skipped: list[tuple[MetricId, str]] = []
    for metric, values in zip(features, data.column(features).T):
        try:
            rho = spearman(values, target_values)
        except DegenerateInput as exc:
            skipped.append((metric, str(exc)))
            continue
        full.append((metric, rho))
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
