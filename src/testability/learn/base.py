"""Shared learner types and errors."""

from __future__ import annotations

import enum

import numpy as np

from ..records import EffectivenessLabel


class ModelKind(enum.Enum):
    DECISION_TREE = "DecisionTree"
    RANDOM_FOREST = "RandomForest"
    MULTILAYER_PERCEPTRON = "MultilayerPerceptron"


class SingleClassInput(ValueError):
    """Training data contains only one class."""


class DimensionMismatch(ValueError):
    pass


class NonFiniteLoss(RuntimeError):
    """Training diverged; carries the epoch where the loss left the reals."""

    def __init__(self, epoch: int):
        # args stays (epoch,): unpickling calls cls(*args), as when a
        # cross-validation worker sends this error back
        super().__init__(epoch)
        self.epoch = epoch

    def __str__(self) -> str:
        return f"non-finite loss at epoch {self.epoch}"


def check_two_classes(y: np.ndarray) -> None:
    if np.unique(y).size < 2:
        raise SingleClassInput("training data must contain both classes")


def check_row_width(row: np.ndarray, expected: int) -> None:
    if row.shape[-1] != expected:
        raise DimensionMismatch(f"row has {row.shape[-1]} features, model expects {expected}")


def label_from_score(score: float) -> EffectivenessLabel:
    return EffectivenessLabel.EFFECTIVE if score >= 0.5 else EffectivenessLabel.NON_EFFECTIVE
