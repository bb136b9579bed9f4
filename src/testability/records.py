"""Shared domain types: effectiveness labels and feature matrices.

The dataset itself (ids plus one float64 matrix with a column per metric),
its CSV ingestion and its validation live in ``testability.dataset``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .metrics import TEST_QUALITY_METRICS, MetricId


class EffectivenessLabel(enum.Enum):
    """Binary test-class effectiveness; no middle class survives labeling."""

    NON_EFFECTIVE = 0
    EFFECTIVE = 1


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
