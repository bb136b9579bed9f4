"""Shared domain types: class records, labels, and feature matrices."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metrics import (
    COUNT_METRICS,
    INDEPENDENT_VARIABLES,
    TEST_QUALITY_METRICS,
    UNIT_INTERVAL_METRICS,
    MetricId,
)


class EffectivenessLabel(enum.Enum):
    """Binary test-class effectiveness; no middle class survives labeling."""

    NON_EFFECTIVE = 0
    EFFECTIVE = 1


def label_array(labels: Iterable[EffectivenessLabel | int]) -> np.ndarray:
    """Class indices, 1 for Effective and 0 for NonEffective, of labels or ints."""
    return np.array(
        [l.value if isinstance(l, EffectivenessLabel) else int(l) for l in labels],
        dtype=np.intp,
    )


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


@dataclass(frozen=True)
class FeatureMatrix:
    """Numeric matrix over selected independent variables plus binary target.

    Rows follow dataset order; ``y`` holds 1 for Effective, 0 for
    NonEffective. Test-quality metrics can never appear among the
    features (M is the target source; L and B are excluded from the 34
    independent variables).
    """

    feature_ids: tuple[MetricId, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int8)
        if X.ndim != 2 or X.shape[1] != len(self.feature_ids):
            raise ValueError("matrix is not rectangular over feature_ids")
        if y.shape != (X.shape[0],):
            raise ValueError("targets not aligned with rows")
        if not np.isfinite(X).all():
            raise ValueError("matrix contains missing or non-finite values")
        forbidden = [m.column for m in self.feature_ids if m in TEST_QUALITY_METRICS]
        if forbidden:
            raise ValueError(f"test-quality metrics as features: {forbidden}")
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        X.setflags(write=False)
        y.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class RawDataset:
    """Ingested records before effectiveness labeling."""

    records: tuple[ClassRecord, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def scores(self, metric: MetricId = MetricId.M) -> np.ndarray:
        return np.array([r[metric] for r in self.records], dtype=np.float64)


@dataclass(frozen=True)
class LabeledDataset:
    """Records surviving quartile filtering, with labels and thresholds."""

    records: tuple[tuple[ClassRecord, EffectivenessLabel], ...]
    q1_threshold: float
    q3_threshold: float
    discarded_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)
